"""Exception hierarchy shared by all randpress modules."""


class RandpressError(Exception):
    """Base class for all randpress errors."""


class ConfigError(RandpressError):
    """Malformed or inconsistent experiment configuration."""


class NonErgodicChain(RandpressError):
    """Transition graph is not strongly connected and aperiodic."""


class BudgetExceeded(RandpressError):
    """An enumeration would exceed the configured size cap."""


class SingularMatrix(RandpressError):
    """A cocycle product is (numerically) non-invertible."""


class EmptyFiber(RandpressError):
    """No admissible fiber word exists over the given base word."""


class InvalidMeasure(RandpressError):
    """A random Markov measure fails stochasticity/support/consistency checks."""


class ShapeMismatch(RandpressError):
    """Array shapes do not match the chain/bundle they are paired with."""


class InvalidSampleCount(RandpressError):
    """Monte Carlo sample count is not a positive integer."""


class NoBracket(RandpressError):
    """Root finding requested without a sign change on the bracket."""


class NonMonotone(RandpressError):
    """A map assumed monotone violated monotonicity beyond tolerance."""


class InvariantViolation(RandpressError):
    """A numeric invariant asserted by an operation failed."""
