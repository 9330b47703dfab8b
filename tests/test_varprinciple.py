import math

import numpy as np
import pytest

from randpress import (
    AdditivePotential,
    RandomMarkovMeasure,
    optimize_measure,
    validate_measure,
    vp_gap,
)
from randpress.errors import InvalidMeasure, InvariantViolation
from randpress.varprinciple import _project_row, empirical_measure_diagnostic

from fixtures import (
    E,
    GOLDEN,
    fix_a,
    golden_mean,
    gibbs_measure_fix_a,
    parry_measure,
    uniform_measure,
)


def test_vp_gap_fix_a_gibbs_tight():
    chain, bundle, pot = fix_a()
    report = vp_gap(chain, bundle, pot, [gibbs_measure_fix_a()], n=6, m=1, N=4,
                    exact_pressure=math.log(1 + E))
    assert abs(report.gap) <= 1e-9
    assert report.sides[0].side_upper == pytest.approx(math.log(1 + E), abs=1e-12)


def test_vp_gap_golden_parry_tight():
    chain, bundle, pot = golden_mean()
    report = vp_gap(chain, bundle, pot, [parry_measure()], n=8, m=1, N=4,
                    exact_pressure=math.log(GOLDEN))
    assert report.sides[0].entropy == pytest.approx(math.log(GOLDEN), abs=1e-12)
    assert abs(report.gap) <= 1e-9


def test_vp_gap_excludes_minus_inf_measures():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.full((1, 2), -2e6))
    report = vp_gap(chain, bundle, pot, [uniform_measure()], n=3, m=1, N=3)
    assert report.sides[0].excluded
    assert report.best_lower == -np.inf


def test_vp_gap_flags_violation_of_fake_pressure():
    chain, bundle, pot = fix_a()
    with pytest.raises(InvariantViolation):
        vp_gap(chain, bundle, pot, [gibbs_measure_fix_a()], n=4, m=1, N=3,
               exact_pressure=math.log(1 + E) - 0.5)


def test_vp_gap_rejects_invalid_measure():
    chain, bundle, pot = fix_a()
    bad = RandomMarkovMeasure(
        initial=np.array([[0.9, 0.1]]),
        transition=np.array([[[0.5, 0.5], [0.5, 0.5]]]),
    )
    with pytest.raises(InvalidMeasure):
        vp_gap(chain, bundle, pot, [bad], n=3, m=1, N=2)


def test_optimizer_fix_a_recovers_gibbs():
    chain, bundle, pot = fix_a()
    meas, trace = optimize_measure(chain, bundle, pot, uniform_measure(), N=1, seed=0)
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert abs(trace[-1] - math.log(1 + E)) <= 1e-3
    assert abs(meas.initial[0, 1] - E / (1 + E)) <= 1e-3
    assert validate_measure(meas, chain, bundle).valid
    assert len(trace) - 1 <= 500


def test_optimizer_zero_potential_full_shift_uniform():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.zeros((1, 2)))
    start = RandomMarkovMeasure(
        initial=np.array([[0.8, 0.2]]),
        transition=np.array([[[0.8, 0.2], [0.8, 0.2]]]),
    )
    meas, trace = optimize_measure(chain, bundle, pot, start, N=1, seed=1)
    assert abs(trace[-1] - math.log(2)) <= 1e-3
    assert np.max(np.abs(meas.initial - 0.5)) <= 2e-3


def test_optimizer_golden_mean_parry():
    chain, bundle, pot = golden_mean()
    start = RandomMarkovMeasure(
        initial=np.array([[2 / 3, 1 / 3]]),
        transition=np.array([[[0.5, 0.5], [1.0, 0.0]]]),
    )
    meas, trace = optimize_measure(chain, bundle, pot, start, N=1, seed=2)
    assert abs(trace[-1] - math.log(GOLDEN)) <= 1e-3
    assert abs(meas.transition[0, 0, 0] - 1 / GOLDEN) <= 5e-2
    assert validate_measure(meas, chain, bundle).valid


def test_optimizer_stops_after_a_sweep_that_gains_less_than_tol():
    chain, bundle, pot = fix_a()
    _, trace = optimize_measure(chain, bundle, pot, uniform_measure(), N=1, seed=0, tol=10.0)
    _, one_sweep = optimize_measure(chain, bundle, pot, uniform_measure(), N=1, seed=0, iter_cap=1)
    assert trace == one_sweep and len(trace) == 3


def test_a_proposal_with_no_mass_on_the_support_becomes_uniform_there():
    out = _project_row(np.array([-1.0, -2.0, 3.0]), np.array([True, True, False]))
    assert out.tolist() == [0.5, 0.5, 0.0]


def test_diagnostic_zero_potential_uniform():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.zeros((1, 2)))
    marginal, defect = empirical_measure_diagnostic(chain, bundle, pot, n=4, m=2)
    assert np.allclose(marginal, 0.5)
    assert defect == pytest.approx(0.0, abs=1e-12)


def test_diagnostic_fix_a_gibbs_marginal():
    chain, bundle, pot = fix_a()
    marginal, _ = empirical_measure_diagnostic(chain, bundle, pot, n=8, m=1)
    assert abs(marginal[0, 1] - E / (1 + E)) <= 0.05


def test_diagnostic_defect_nonincreasing():
    chain, bundle, pot = fix_a()
    defects = [
        empirical_measure_diagnostic(chain, bundle, pot, n, 2)[1] for n in (1, 2, 4)
    ]
    assert defects[0] >= defects[1] >= defects[2]
