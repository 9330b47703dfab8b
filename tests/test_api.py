"""The public names of the randpress package, pinned."""

import types

import randpress

PUBLIC_NAMES = {
    "AdditivePotential", "BaseChain", "BundleSFT", "CocyclePotential", "DimensionRoot",
    "FStarBracket", "PressureCurve", "PressureEstimate", "RandomMarkovMeasure",
    "ScaledInverseNormPotential", "SubadditivePotential", "VPGapReport",
    "check_lemma34", "check_power_lemma", "check_subadditivity", "dimension_root",
    "empirical_measure_diagnostic", "expected_log_sum", "f_star_bracket", "fiber_entropy",
    "greedy_maximal_separated", "log_partition_sum", "lyapunov_spread", "optimize_measure",
    "potential_average", "pressure_at_t", "pressure_curve", "solve_consistent_initial",
    "stationary_distribution", "sup_norm_f1", "validate_measure", "vp_gap",
}


def test_public_names_are_the_pinned_list():
    """Adding or removing a public name is a deliberate change: update this list with it."""
    names = {name for name, value in vars(randpress).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 32
