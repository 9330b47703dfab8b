"""Pressure, entropy and dimension workbench for random subshifts."""

from .base import BaseChain, BaseWord, enumerate_base_words, sample_path, stationary_distribution
from .bundle import BundleSFT, apply_skew, enumerate_cylinders, separated_predicate
from .bowen import DimensionRoot, dimension_root, lyapunov_spread, pressure_at_t
from .measures import (
    FStarBracket,
    RandomMarkovMeasure,
    check_lemma34,
    entropy_cylinder_oracle,
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
