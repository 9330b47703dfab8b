"""Random Markov measures: invariant measures with prescribed base marginal.

A measure is given per base symbol s by an initial fiber distribution pi_s and a
row-stochastic fiber transition Q_s supported inside the bundle's admissibility matrix.  Its
cylinders weigh p(u0) pi_{u0}(w0) prod T Q, which is shift-invariant exactly when the joint
law j(s, a) = p(s) pi_s(a) is stationary for the joint kernel K((r, a), (s, b)) = T(r, s)
Q_r(a, b).  The averages a_1 .. a_N of f_n are read off one joint walk of the cylinders of
positive weight, each row's weight next to the potential's own payload (bundle._payload_of).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_BUDGET, BaseChain, _freeze, _stationary_law
from .bundle import BundleSFT, _joint_walk, _payload_of, fiber_budget
from .errors import InvalidMeasure, ShapeMismatch
from .potentials import SubadditivePotential, sup_norm_f1

_ROW_TOL = 1e-12
_CONS_TOL = 1e-10
_F_STAR_FLOOR = -1e6


@dataclass(frozen=True)
class RandomMarkovMeasure:
    initial: np.ndarray  # (S, A) probability rows
    transition: np.ndarray  # (S, A, A) row-stochastic, support inside allowed

    def __post_init__(self):
        _freeze(self, "initial", self.initial)
        _freeze(self, "transition", self.transition)


@dataclass(frozen=True)
class MeasureReport:
    row_sum_residual: float
    initial_sum_residual: float
    support_violations: int
    consistency_residual: float
    valid: bool


def _stationarity_residual(pi: np.ndarray, Q: np.ndarray, chain: BaseChain) -> float:
    """Worst |(j K)(s, b) - j(s, b)| for the joint law j(s, a) = p(s) pi_s(a)."""
    j = chain.stationary[:, None] * pi
    return float(np.max(np.abs(np.einsum("ra,rs,rab->sb", j, chain.transition, Q) - j)))


def validate_measure(
    meas: RandomMarkovMeasure, chain: BaseChain, bundle: BundleSFT
) -> MeasureReport:
    """Stochasticity, support and joint-stationarity (consistency_residual: max |j K - j|)."""
    S, A = chain.num_states, bundle.num_symbols
    if meas.initial.shape != (S, A) or meas.transition.shape != (S, A, A):
        raise ShapeMismatch(
            f"measure shapes {meas.initial.shape}, {meas.transition.shape} "
            f"do not match (S={S}, A={A})"
        )
    row = float(np.max(np.abs(meas.transition.sum(axis=2) - 1.0)))
    init = float(np.max(np.abs(meas.initial.sum(axis=1) - 1.0)))
    support = int(np.sum((meas.transition > 0.0) & (bundle.allowed == 0)))
    cons = _stationarity_residual(meas.initial, meas.transition, chain)
    valid = row <= _ROW_TOL and init <= _ROW_TOL and support == 0 and cons <= _CONS_TOL
    return MeasureReport(row, init, support, cons, valid)


def _require_valid(meas: RandomMarkovMeasure, chain: BaseChain, bundle: BundleSFT,
                   what: str = "measure") -> None:
    """InvalidMeasure naming `what` unless validate_measure passes."""
    rep = validate_measure(meas, chain, bundle)
    if not rep.valid:
        raise InvalidMeasure(f"{what} fails validation: {rep}")


def solve_consistent_initial(
    transition: np.ndarray, chain: BaseChain
) -> tuple[np.ndarray, float]:
    """Initials pi_s = j(s, .) / sum_a j(s, a) for j a stationary law of the joint kernel K.

    j is base._stationary_law of the (S A) x (S A) matrix K: with several closed classes,
    the minimum-norm law.  Returns pi and its stationarity residual.
    """
    Q = np.asarray(transition, dtype=float)
    S = chain.num_states
    if Q.ndim != 3 or Q.shape[0] != S or Q.shape[1] != Q.shape[2]:
        raise ShapeMismatch(f"fiber transition shape {Q.shape} does not match (S={S}, A, A)")
    SA = S * Q.shape[1]
    K = np.einsum("rs,rab->rasb", chain.transition, Q).reshape(SA, SA)
    j = _stationary_law(K).reshape(S, -1)
    pi = j / j.sum(axis=1, keepdims=True)
    return pi, _stationarity_residual(pi, Q, chain)


def fiber_entropy(meas: RandomMarkovMeasure, chain: BaseChain) -> float:
    """Per-step fiber entropy, closed form over one-step statistics."""
    Q = meas.transition
    row = -(Q * np.log(Q, out=np.zeros_like(Q), where=Q > 0.0)).sum(axis=2)
    return float(np.einsum("s,sa,sa->", chain.stationary, meas.initial, row))


def _weighted_words(meas: RandomMarkovMeasure, chain: BaseChain, extend, depths, budget: int):
    """Every (base word, fiber word) pair of positive measure weight at each depth, in chunks:
    one walk of the base prefix tree, fiber words grown under the support of Q, each row's
    weight p(u0) pi_{u0}(w0) * prod T(u_{k-1}, u_k) * Q_{u_{k-1}}(w_{k-1}, w_k) carried next to
    its last symbols and the payload extend grows.  Rows of zero weight are dropped before any
    value is read (a -inf value on an unreachable word never meets a zero weight).  Yields
    (depth index, weight, payload) arrays."""
    tree = chain.prefix_tree(depths[-1], budget)
    fiber_budget(meas.transition.shape[1], depths[-1], budget)
    lead, T, Q = chain.stationary[:, None] * meas.initial, chain.transition, meas.transition

    def weighed(payload, u, w):  # the weight times T Q per level
        if payload is None:
            return (u, w, lead[u, w], *extend(None, u, w))
        v, x, wgt, *rest = payload
        return (u, w, wgt * T[v, u] * Q[v, x, w], *extend(tuple(rest), u, w))

    for i, *_, (_, _, wgt, *rest) in _joint_walk(Q > 0.0, tree, depths, weighed):
        keep = wgt > 0.0
        yield i, wgt[keep], tuple(p[keep] for p in rest)


def _averages(meas, chain, bundle, potential, depths, budget: int, valid=None) -> list[float]:
    """potential_average at each of an increasing list of depths, off one walk; valid if known."""
    add = potential.to_additive()
    if add is not None and (valid or valid is None and validate_measure(meas, chain, bundle).valid):
        table = np.where(meas.initial > 0.0, add.table, 0.0)  # no 0 * -inf on an unvisited symbol
        one = float(np.einsum("s,sa,sa->", chain.stationary, meas.initial, table))
        return [d * one for d in depths]
    (extend, read), a = _payload_of(potential), [0] * len(depths)
    for i, wgt, payload in _weighted_words(meas, chain, extend, depths, budget):
        a[i] += np.dot(wgt, read(payload, depths[i]))
    return [float(x) for x in a]


def potential_average(
    meas: RandomMarkovMeasure,
    chain: BaseChain,
    bundle: BundleSFT,
    potential: SubadditivePotential,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """a_n = integral of f_n against the measure, exact at depth n.

    Additive potentials on valid (invariant) measures collapse to n times the one-step
    average; otherwise f_n is read on every cylinder of positive weight.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _averages(meas, chain, bundle, potential, [n], budget)[0]


@dataclass(frozen=True)
class FStarBracket:
    upper: float  # min over n <= N of a_n / n, a certified upper bound
    estimate: float  # a_N / N
    minus_inf: bool
    values: tuple[float, ...]  # a_1 .. a_N


def f_star_bracket(
    meas: RandomMarkovMeasure,
    chain: BaseChain,
    bundle: BundleSFT,
    potential: SubadditivePotential,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> FStarBracket:
    """Finite bracket for the sub-additive limit of a_n / n, a_1 .. a_N from one walk."""
    return _f_star(meas, chain, bundle, potential, N, budget)


def _f_star(meas, chain, bundle, potential, N: int, budget: int, valid=None) -> FStarBracket:
    """f_star_bracket, given validate_measure's verdict where the caller has taken it."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a = _averages(meas, chain, bundle, potential, range(1, N + 1), budget, valid)
    ratios = [a[i] / (i + 1) for i in range(N)]
    return FStarBracket(upper=float(min(ratios)), estimate=float(ratios[-1]),
                        minus_inf=bool(ratios[-1] < _F_STAR_FLOOR), values=tuple(a))


def check_lemma34(
    meas: RandomMarkovMeasure,
    chain: BaseChain,
    bundle: BundleSFT,
    potential: SubadditivePotential,
    n: int,
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Slack of the blocking inequality k a_n <= 4 k^2 ||f_1|| + n a_k.

    On an invariant measure each of the n shifted windows of f_k averages
    a_k.  All terms are computed exactly; the slack must be >= -1e-12.
    """
    if not n > k >= 1:
        raise ValueError("need n > k >= 1")
    return _lemma34(meas, chain, bundle, potential, n, k, [k, n], budget)[0]


def _lemma34(meas, chain, bundle, potential, n: int, k: int, depths, budget: int):
    """check_lemma34's slack, and a_d for each d in depths (k and n among them) off one walk."""
    _require_valid(meas, chain, bundle)
    C = sup_norm_f1(potential, chain, bundle)
    a = _averages(meas, chain, bundle, potential, depths, budget, valid=True)
    return float(4.0 * k * k * C + n * a[depths.index(k)] - k * a[depths.index(n)]), a
