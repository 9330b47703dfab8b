"""The public names of the randpress package, pinned."""

import inspect
import types

import numpy as np

import randpress
from randpress import potentials

PUBLIC_NAMES = {
    "AdditivePotential", "BaseChain", "BundleSFT", "CocyclePotential", "DimensionRoot",
    "FStarBracket", "PressureCurve", "PressureEstimate", "RandomMarkovMeasure",
    "ScaledInverseNormPotential", "SubadditivePotential", "VPGapReport",
    "check_lemma34", "check_power_lemma", "check_subadditivity", "dimension_root",
    "empirical_measure_diagnostic", "expected_log_sum", "f_star_bracket", "fiber_entropy",
    "greedy_maximal_separated", "log_partition_sum", "lyapunov_spread", "optimize_measure",
    "potential_average", "pressure_curve", "solve_consistent_initial",
    "stationary_distribution", "sup_norm_f1", "validate_measure", "vp_gap",
}


def test_public_names_are_the_pinned_list():
    """Adding or removing a public name is a deliberate change: update this list with it."""
    names = {name for name, value in vars(randpress).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 31


def test_potentials_plug_in_through_eval_batch_alone():
    """A potential implements eval_batch and may implement to_additive; nothing evaluates one word."""
    assert randpress.SubadditivePotential.__abstractmethods__ == {"eval_batch"}
    shipped = [cls for _, cls in inspect.getmembers(potentials, inspect.isclass)
               if issubclass(cls, randpress.SubadditivePotential)]
    assert {cls.__name__ for cls in shipped} == {
        "SubadditivePotential", "AdditivePotential", "CocyclePotential",
        "ScaledInverseNormPotential"}
    for cls in shipped:
        assert not hasattr(cls, "eval") and not hasattr(cls, "product"), cls.__name__


def test_model_objects_keep_read_only_copies_of_the_callers_arrays():
    """Each model object stores a private read-only copy of every array it is given.

    The caller's arrays stay writable, and writing to them afterwards leaves
    the object's fields as they were.
    """
    half = np.full((2, 2), 0.5)
    models = [
        (randpress.BaseChain, {"states": ("s0", "s1"), "transition": half.copy(),
                               "stationary": np.array([0.5, 0.5])}),
        (randpress.BundleSFT, {"alphabet": ("a0", "a1"), "allowed": np.ones((2, 2, 2), int)}),
        (randpress.AdditivePotential, {"table": np.array([[0.0, 1.0], [2.0, 3.0]])}),
        (randpress.CocyclePotential, {"matrices": np.arange(16.0).reshape(2, 2, 2, 2)}),
        (randpress.RandomMarkovMeasure, {"initial": half.copy(),
                                         "transition": np.full((2, 2, 2), 0.5)}),
    ]
    for cls, kwargs in models:
        obj = cls(**kwargs)
        for name, given in kwargs.items():
            if not isinstance(given, np.ndarray):
                continue
            kept = getattr(obj, name)
            assert given.flags.writeable and not kept.flags.writeable, (cls.__name__, name)
            before = kept.copy()
            given[...] = 7
            assert np.array_equal(kept, before), (cls.__name__, name)
