"""Pressure, entropy and dimension workbench for random subshifts."""

from .base import BaseChain, stationary_distribution
from .bundle import BundleSFT
from .bowen import DimensionRoot, dimension_root, lyapunov_spread
from .measures import (
    FStarBracket,
    RandomMarkovMeasure,
    check_lemma34,
    f_star_bracket,
    fiber_entropy,
    potential_average,
    solve_consistent_initial,
    validate_measure,
)
from .potentials import (
    AdditivePotential,
    CocyclePotential,
    ScaledInverseNormPotential,
    SubadditivePotential,
    check_subadditivity,
    sup_norm_f1,
)
from .pressure import (
    PressureCurve,
    PressureEstimate,
    check_power_lemma,
    expected_log_sum,
    greedy_maximal_separated,
    log_partition_sum,
    pressure_curve,
)
from .varprinciple import (
    VPGapReport,
    empirical_measure_diagnostic,
    optimize_measure,
    vp_gap,
)

__version__ = "0.1.0"
