import math

import mpmath
import numpy as np
import pytest

from randpress import (
    BaseChain,
    BundleSFT,
    CocyclePotential,
    RandomMarkovMeasure,
    ScaledInverseNormPotential,
    dimension_root,
    lyapunov_spread,
    potential_average,
    pressure_at_t,
)
from randpress import bundle as bundle_mod
from randpress.errors import InvalidMeasure, NoBracket, NonMonotone

from fixtures import (
    fix_b,
    fix_e,
    fix_f,
    full_shift_bundle,
    one_state_chain,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_sample_path,
    shared_q_measure,
    uniform_measure,
)


def test_pressure_at_zero_is_entropy_estimate():
    chain, bundle, coc = fix_e()
    est = pressure_at_t(chain, bundle, coc, 0.0, n=4, m=2)
    assert est.value == pytest.approx(math.log(2), abs=1e-12)


def test_matrix_cocycle_depth_one_hand_count():
    """n=1, m=2 on a 2x2 cocycle: the depth-0 term is log A, a plain count.

    Scaled rotations r R(theta) have ||(rR)^-1|| = 1/r, so over a base word
    starting with s, Z(1) = sum_a deg_s(a) r(s, a)^-t with deg_s(a) the number
    of fiber symbols allowed after a under s.
    """
    chain = BaseChain.from_transition([[0.3, 0.7], [0.6, 0.4]])
    bundle = BundleSFT.from_matrices([[[1, 1], [1, 1]], [[1, 0], [1, 1]]])
    r = np.array([[2.0, 3.0], [0.5, 4.0]])
    B = np.array([[r[s, a] * np.array([[math.cos(s + 2 * a + 0.3), -math.sin(s + 2 * a + 0.3)],
                                       [math.sin(s + 2 * a + 0.3), math.cos(s + 2 * a + 0.3)]])
                   for a in range(2)] for s in range(2)])
    coc = CocyclePotential(B)
    p0, p1 = 6 / 13, 7 / 13  # stationary vector of the base chain
    for t in (0.0, 0.6, 1.7):
        log_z = [math.log(2 * 2 ** -t + 2 * 3 ** -t), math.log(0.5 ** -t + 2 * 4 ** -t)]
        exact = pressure_at_t(chain, bundle, coc, t, n=1, m=2)
        assert exact.value == pytest.approx(p0 * log_z[0] + p1 * log_z[1] - math.log(2), abs=1e-12)
        mc = pressure_at_t(chain, bundle, coc, t, n=1, m=2, mode="monte_carlo", samples=6, seed=4)
        rows = [log_z[reference_sample_path(chain, 2, (4, i))[0]] - math.log(2)
                for i in range(6)]
        assert mc.value == pytest.approx(float(np.mean(rows)), abs=1e-12)


def test_fix_e_affine_exact_all_depths():
    chain, bundle, coc = fix_e()
    for n in (1, 3, 6):
        for m in (1, 2, 3):
            for t in (0.0, 0.4, 1.1):
                est = pressure_at_t(chain, bundle, coc, t, n, m)
                assert est.value == pytest.approx(
                    math.log(2) - t * math.log(3), abs=1e-10
                )


def test_fix_f_increment_matches_limit():
    chain, bundle, coc = fix_f()
    limit = 0.5 * (math.log(2) + math.log(3))
    rate = 0.5 * (math.log(3) + math.log(4))
    for t in (0.0, 0.5):
        est = pressure_at_t(chain, bundle, coc, t, n=8, m=1)
        assert est.value == pytest.approx(limit - t * rate, abs=1e-10)


def test_pressure_affine_in_t_scalar():
    chain, bundle, coc = fix_e()
    vals = [pressure_at_t(chain, bundle, coc, t, 4, 1).value for t in (0.0, 0.5, 1.0)]
    assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), abs=1e-12)


def test_pressure_monte_carlo_deterministic():
    chain, bundle, coc = fix_f()
    a = pressure_at_t(chain, bundle, coc, 0.3, 6, 1, mode="monte_carlo", samples=64, seed=5)
    b = pressure_at_t(chain, bundle, coc, 0.3, 6, 1, mode="monte_carlo", samples=64, seed=5)
    assert a == b
    assert a.std_error > 0.0


def test_dimension_root_fix_e():
    chain, bundle, coc = fix_e()
    root = dimension_root(chain, bundle, coc, n=6, m=1, t_max=2.0)
    assert abs(root.t_star - math.log(2) / math.log(3)) <= 1e-6
    assert root.converged
    assert not root.upper_estimate


def test_dimension_root_m_stable():
    chain, bundle, coc = fix_e()
    roots = [dimension_root(chain, bundle, coc, 5, m, 2.0).t_star for m in (1, 2, 3)]
    assert max(roots) - min(roots) <= 1e-3


def test_dimension_root_zero_entropy():
    chain = one_state_chain()
    bundle = BundleSFT.from_matrices(np.ones((1, 1, 1), dtype=int))
    coc = CocyclePotential(np.full((1, 1, 1, 1), 2.0))
    root = dimension_root(chain, bundle, coc, n=4, m=1, t_max=1.5)
    assert root.t_star == 0.0
    assert root.converged


def test_dimension_root_no_bracket():
    chain, bundle, coc = fix_e()
    with pytest.raises(NoBracket):
        dimension_root(chain, bundle, coc, n=4, m=1, t_max=0.1)


def test_dimension_root_non_monotone_contraction():
    chain = one_state_chain()
    bundle = full_shift_bundle()
    coc = CocyclePotential(np.full((1, 2, 1, 1), 0.5))  # contracting: pressure rises in t
    with pytest.raises(NonMonotone):
        dimension_root(chain, bundle, coc, n=4, m=1, t_max=2.0)


def test_dimension_root_upper_estimate_flag():
    chain = one_state_chain()
    bundle = full_shift_bundle()
    B = np.broadcast_to(np.diag([math.e, math.e ** 2]), (1, 2, 2, 2)).copy()
    coc = CocyclePotential(B)
    root = dimension_root(chain, bundle, coc, n=4, m=1, t_max=3.0)
    assert root.upper_estimate


def mpmath_bowen_root(chain, bundle, coc, t_max):
    """mpmath root of the finite-n depth increment of a row-uniform scalar system.

    When every fiber row under base symbol s allows the same column set C_s,
    E log Z(n) - E log Z(n-1) for n >= 2 equals
    sum_{s,s'} pi_s T_ss' log sum_{a in C_s} b(s', a)^-t at every n and m.
    """
    allowed = bundle.allowed
    assert (allowed == allowed[:, :1, :]).all(), "bundle is not row-uniform"
    S = chain.num_states
    with mpmath.workdps(40):
        log_b = [[mpmath.log(mpmath.mpf(float(x))) for x in row] for row in coc.matrices[:, :, 0, 0]]
        cols = [np.nonzero(allowed[s, 0])[0] for s in range(S)]

        def increment(t):
            return mpmath.fsum(
                mpmath.mpf(float(chain.stationary[s])) * mpmath.mpf(float(chain.transition[s, r]))
                * mpmath.log(mpmath.fsum(mpmath.exp(-t * log_b[r][a]) for a in cols[s]))
                for s in range(S) for r in range(S)
            )

        return float(mpmath.findroot(increment, (mpmath.mpf(0), mpmath.mpf(t_max)),
                                     solver="anderson"))


@pytest.mark.parametrize("system, closed_form", [
    (fix_e, math.log(2) / math.log(3)),
    (fix_f, math.log(6) / math.log(12)),
])
def test_dimension_root_secant_steps_and_mpmath_root(system, closed_form):
    chain, bundle, coc = system()
    root = dimension_root(chain, bundle, coc, n=12, m=1, t_max=2.0)
    assert root.converged
    assert len(root.iterations) <= 10
    assert abs(root.t_star - closed_form) <= 1e-6
    assert abs(root.t_star - mpmath_bowen_root(chain, bundle, coc, 2.0)) <= 1e-10


@pytest.mark.parametrize("scales, interval", [
    ((4.0, 6.0), (0.0, 0.5)),  # root near 0.44: first probe interval
    ((1.8, 2.0, 2.2), (1.5, 2.0)),  # root near 1.6: last probe interval
])
def test_dimension_root_brackets_in_end_probe_intervals(scales, interval):
    chain = one_state_chain()
    bundle = full_shift_bundle(1, len(scales))
    coc = CocyclePotential(np.array(scales).reshape(1, len(scales), 1, 1))
    want = mpmath_bowen_root(chain, bundle, coc, 2.0)
    assert interval[0] < want < interval[1]
    root = dimension_root(chain, bundle, coc, n=6, m=2, t_max=2.0)
    lo, hi = root.bracket
    assert root.converged
    assert interval[0] <= lo <= root.t_star <= hi <= interval[1]
    assert hi - lo <= 1e-8
    assert pressure_at_t(chain, bundle, coc, lo, 6, 2).value > 0.0
    assert pressure_at_t(chain, bundle, coc, hi, 6, 2).value <= 0.0
    assert abs(root.t_star - want) <= 1e-10


def test_dimension_root_reports_non_convergence():
    chain = one_state_chain()
    bundle = full_shift_bundle()
    coc = CocyclePotential(np.array([2.0, 3.0]).reshape(1, 2, 1, 1))
    root = dimension_root(chain, bundle, coc, n=4, m=1, t_max=2.0, tol_t=0.0, max_iter=8)
    assert not root.converged
    assert len(root.iterations) == 8
    lo, hi = root.bracket
    assert lo <= root.t_star <= hi


def test_lyapunov_spread_scalar_zero():
    chain, bundle, coc = fix_e()
    top, bottom, spread = lyapunov_spread(chain, bundle, coc, uniform_measure(), 4)
    assert top == pytest.approx(math.log(3))
    assert bottom == pytest.approx(math.log(3))
    assert spread == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_spread_conformal_rotation_zero():
    chain = one_state_chain()
    bundle = full_shift_bundle()
    theta = 0.9
    R = 1.7 * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    coc = CocyclePotential(np.broadcast_to(R, (1, 2, 2, 2)).copy())
    _, _, spread = lyapunov_spread(chain, bundle, coc, uniform_measure(), 4)
    assert abs(spread) <= 1e-10


def test_lyapunov_spread_diagonal_gap():
    chain = one_state_chain()
    bundle = full_shift_bundle()
    B = np.broadcast_to(np.diag([math.e, math.e ** 2]), (1, 2, 2, 2)).copy()
    coc = CocyclePotential(B)
    _, _, spread = lyapunov_spread(chain, bundle, coc, uniform_measure(), 5)
    assert spread == pytest.approx(1.0, abs=1e-10)


def test_lyapunov_spread_rejects_an_invalid_measure():
    chain, bundle, coc = fix_e()
    bad = RandomMarkovMeasure(initial=np.array([[0.9, 0.3]]), transition=uniform_measure().transition)
    with pytest.raises(InvalidMeasure, match="measure fails validation"):
        lyapunov_spread(chain, bundle, coc, bad, 4)


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 5])
def test_lyapunov_spread_equals_both_measure_averages_bit_for_bit(monkeypatch, joint_rows):
    """One walk of the measure cylinders gives potential_average's sums of log||P|| and
    log||P^-1||, chunk by chunk in the same order."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(14)
    for i in range(10):
        S, A = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        chain, bundle = random_chain(rng, S), random_bundle(rng, S, A, full=True)
        meas = shared_q_measure(rng, chain, bundle)
        coc = random_cocycle(rng, S, A, dim=2 + i % 2, norm_kind=("spectral", "max_row_sum")[i % 2])
        n = int(rng.integers(1, 6))
        top, bottom, spread = lyapunov_spread(chain, bundle, coc, meas, n)
        a_top = potential_average(meas, chain, bundle, coc, n)
        a_inv = potential_average(meas, chain, bundle, ScaledInverseNormPotential(coc, 1.0), n)
        assert (top, bottom, spread) == (a_top / n, -a_inv / n, (a_top + a_inv) / n)


def test_fix_b_alias_shares_structure():
    chain, bundle, _ = fix_b()
    assert chain.num_states == 2 and bundle.num_symbols == 3
