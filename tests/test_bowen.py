import collections
import itertools
import math
import warnings

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
from randpress import bowen, pressure
from randpress import bundle as bundle_mod
from randpress.base import DEFAULT_BUDGET
from randpress.errors import InvalidMeasure, NoBracket, NonMonotone, SingularMatrix

from fixtures import (
    fix_b,
    fix_e,
    fix_f,
    full_shift_bundle,
    one_state_chain,
    per_t_pressure_at_t,
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
    """One walk of the measure cylinders gives potential_average's sums of log||P|| and, under
    max_row_sum, of log||P^-1||, chunk by chunk in the same order.  Under the spectral norm
    the bottom exponent is read from the top's SVD, so there it agrees to rounding only; the
    mpmath tests below hold it to the exact value."""
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
        if coc.norm_kind == "max_row_sum":
            assert (top, bottom, spread) == (a_top / n, -a_inv / n, (a_top + a_inv) / n)
        else:  # bottom comes from the top's SVD and det P, not from P^-1: equal to rounding
            assert top == a_top / n
            assert bottom == pytest.approx(-a_inv / n, rel=1e-12, abs=1e-12)
            assert spread == pytest.approx((a_top + a_inv) / n, rel=1e-12, abs=1e-12)


def test_fix_b_alias_shares_structure():
    chain, bundle, _ = fix_b()
    assert chain.num_states == 2 and bundle.num_symbols == 3


def _rotation_system(n_states=2, num_symbols=2):
    """Full bundle, a random chain and scaled-rotation 2x2 generators r R(theta), r in [2, 4]."""
    rng = np.random.default_rng(31)
    chain = random_chain(rng, n_states)
    bundle = random_bundle(rng, n_states, num_symbols, full=True)
    r, theta = rng.uniform(2.0, 4.0, (2, n_states, num_symbols))
    c, s = np.cos(6 * theta), np.sin(6 * theta)
    B = r[..., None, None] * np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    return chain, bundle, CocyclePotential(B)


FAMILY_DEPTHS = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 2), (4, 3), (5, 1)]
FAMILY_SCALES = [0.0, 0.35, 1.0, 1.6, 2.2]


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 40])
@pytest.mark.parametrize("dim, norm_kind", [(1, "spectral"), (2, "spectral"), (2, "max_row_sum")])
def test_batched_scales_equal_per_t_evaluations_bit_for_bit(monkeypatch, joint_rows, dim,
                                                           norm_kind):
    """One call on five scales, one call per scale, pressure_at_t and the per-t reference
    (its own potential, tree or forest and two full DPs per t) agree in value and SE bit for
    bit.  The trees have many leaves, so each t is one row of a (T, N) array; with 40 joint
    rows the deeper trees split the five scales into smaller batches."""
    monkeypatch.setattr(bowen, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(40 + dim)
    chain, bundle = random_chain(rng, 2), random_bundle(rng, 2, 3)
    cocycle = random_cocycle(rng, 2, 3, dim=dim, norm_kind=norm_kind)
    for (n, m), (mode, samples, seed) in itertools.product(
            FAMILY_DEPTHS, [("exact", 0, 0), ("monte_carlo", 9, 5)]):
        family = bowen._inverse_norm_family(chain, bundle, cocycle, n, m, mode, samples, seed,
                                            DEFAULT_BUDGET)
        batched = family(FAMILY_SCALES)
        assert len(batched) == len(FAMILY_SCALES)
        assert batched == [family([t])[0] for t in FAMILY_SCALES]
        assert batched == [pressure_at_t(chain, bundle, cocycle, t, n, m, mode=mode,
                                         samples=samples, seed=seed) for t in FAMILY_SCALES]
        assert batched == [per_t_pressure_at_t(chain, bundle, cocycle, t, n, m, mode, samples,
                                               seed) for t in FAMILY_SCALES]


def _per_t_family(chain, bundle, cocycle, n, m, mode, samples, seed, budget):
    return lambda ts: [per_t_pressure_at_t(chain, bundle, cocycle, float(t), n, m, mode,
                                           samples, seed) for t in ts]


@pytest.mark.parametrize("mode, samples", [("exact", 0), ("monte_carlo", 12)])
def test_dimension_root_equals_a_solve_with_one_evaluation_per_t(monkeypatch, mode, samples):
    systems = [(*fix_e(), 4, 2), (*fix_f(), 5, 1), (*_rotation_system(), 4, 1),
               (*_rotation_system(), 3, 3)]
    batched = [dimension_root(chain, bundle, coc, n, m, 2.0, mode=mode, samples=samples, seed=2)
               for chain, bundle, coc, n, m in systems]
    assert all(root.converged and root.iterations for root in batched)
    monkeypatch.setattr(bowen, "_inverse_norm_family", _per_t_family)
    assert batched == [dimension_root(chain, bundle, coc, n, m, 2.0, mode=mode, samples=samples,
                                      seed=2) for chain, bundle, coc, n, m in systems]


def test_one_draw_and_one_fiber_pass_per_depth_per_solve(monkeypatch):
    calls = collections.Counter()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pressure, "_sample_paths", counting("draws", pressure._sample_paths))
    monkeypatch.setattr(pressure, "fiber_words", counting("fiber passes", pressure.fiber_words))
    chain, bundle, coc = _rotation_system()
    for mode, n, passes in (("monte_carlo", 4, 2), ("exact", 4, 2), ("exact", 1, 1)):
        calls.clear()
        root = dimension_root(chain, bundle, coc, n, 2, 2.0, mode=mode, samples=16, seed=3)
        assert len(root.iterations) >= 3
        assert calls == {"fiber passes": passes, **({"draws": 1} if mode != "exact" else {})}
    calls.clear()
    chain, bundle, coc = fix_f()
    root = dimension_root(chain, bundle, coc, 5, 2, 2.0, mode="monte_carlo", samples=16, seed=3)
    assert len(root.iterations) >= 2 and calls == {"draws": 1}


def test_singular_product_fails_only_a_positive_scale():
    """At t = 0 every joint word weighs 1 and no product is inverted, as per t."""
    chain, bundle, _ = _rotation_system()
    B = np.tile(2.0 * np.eye(2), (2, 2, 1, 1))
    B[1, 0] = 0.0
    coc = CocyclePotential(B)
    assert pressure_at_t(chain, bundle, coc, 0.0, 3, 2) == per_t_pressure_at_t(
        chain, bundle, coc, 0.0, 3, 2)
    with pytest.raises(SingularMatrix):
        pressure_at_t(chain, bundle, coc, 0.5, 3, 2)
    with pytest.raises(SingularMatrix):
        dimension_root(chain, bundle, coc, 3, 2, 2.0)


@pytest.mark.parametrize("t", [-0.5, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_scale_raises_value_error(t):
    for chain, bundle, coc in (fix_e(), _rotation_system()):
        with pytest.raises(ValueError, match="scale t must be finite and >= 0"):
            pressure_at_t(chain, bundle, coc, t, 3, 1)
        with pytest.raises(ValueError, match="scale t must be finite and >= 0"):
            dimension_root(chain, bundle, coc, 3, 1, t_max=t)


def test_infinite_t_max_raises_before_any_numpy_warning():
    chain, bundle, coc = fix_e()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scale t must be finite and >= 0"):
            dimension_root(chain, bundle, coc, 3, 1, t_max=math.inf)


def mpmath_exponents(chain, meas, cocycle, n):
    """Top and bottom exponent at depth n: 50-digit products and singular values, averaged
    over every (base word, fiber word) pair with its exact cylinder weight."""
    with mpmath.workdps(50):
        lead = chain.stationary[:, None] * meas.initial
        S, A = lead.shape
        gens = {(s, a): mpmath.matrix(cocycle.matrices[s, a].tolist())
                for s in range(S) for a in range(A)}
        top = bottom = mpmath.mpf(0)
        for u in itertools.product(range(S), repeat=n):
            for w in itertools.product(range(A), repeat=n):
                wgt = mpmath.mpf(float(lead[u[0], w[0]]))
                for k in range(1, n):
                    wgt *= (mpmath.mpf(float(chain.transition[u[k - 1], u[k]]))
                            * mpmath.mpf(float(meas.transition[u[k - 1], w[k - 1], w[k]])))
                P = gens[u[0], w[0]]
                for k in range(1, n):
                    P = gens[u[k], w[k]] * P
                sigma = mpmath.svd_r(P, compute_uv=False)
                top += wgt * mpmath.log(max(sigma))
                bottom += wgt * mpmath.log(min(sigma))
        return float(top / n), float(bottom / n), float((top - bottom) / n)


def _generators(rng, S, A, d):
    """Uniform [-1.5, 1.5] generators redrawn until |det| >= 0.5."""
    B = np.empty((S, A, d, d))
    for s, a in itertools.product(range(S), range(A)):
        B[s, a] = rng.uniform(-1.5, 1.5, (d, d))
        while abs(np.linalg.det(B[s, a])) < 0.5:
            B[s, a] = rng.uniform(-1.5, 1.5, (d, d))
    return B


@pytest.mark.parametrize("d", [2, 3])
def test_lyapunov_spread_matches_mpmath(d):
    rng = np.random.default_rng(50 + d)
    for S, n in ((1, 6), (1, 4), (2, 3), (2, 1)):
        chain = one_state_chain() if S == 1 else random_chain(rng, S)
        bundle = random_bundle(rng, S, 2, full=True)
        meas = uniform_measure(1, 2) if S == 1 else shared_q_measure(rng, chain, bundle)
        coc = CocyclePotential(_generators(rng, S, 2, d))
        got = lyapunov_spread(chain, bundle, coc, meas, n)
        want = mpmath_exponents(chain, meas, coc, n)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("d", [2, 3])
def test_lyapunov_bottom_is_as_accurate_as_the_inverse_up_to_condition_1e8(d):
    """Products M M of generators with condition up to 1e4, so up to about 1e8.

    The bottom exponent is held to 50-digit mpmath next to the inverse-matrix formula it
    replaces (potential_average of log||P^-1||).  The two round differently, so one product
    may favour either; over 40 products per condition number the median error may exceed
    the inverse's by 10% and the largest by 50%.  Reading sigma_min straight off the SVD
    fails this: its median error is 3-5 times the inverse's from condition 1e4 on."""
    rng = np.random.default_rng(60 + d)
    chain, bundle, meas = one_state_chain(), full_shift_bundle(1, 1), uniform_measure(1, 1)
    for log_cond in (1, 2, 3, 4):
        err, err_inverse = [], []
        for _ in range(40):
            U, _r = np.linalg.qr(rng.standard_normal((d, d)))
            V, _r = np.linalg.qr(rng.standard_normal((d, d)))
            M = (U * np.logspace(0, -log_cond, d) * rng.uniform(0.5, 2.0)) @ V.T
            coc = CocyclePotential(M[None, None])
            want = mpmath_exponents(chain, meas, coc, 2)[1]
            bottom = lyapunov_spread(chain, bundle, coc, meas, 2)[1]
            inverse = -potential_average(meas, chain, bundle,
                                         ScaledInverseNormPotential(coc, 1.0), 2) / 2
            err.append(abs(bottom - want))
            err_inverse.append(abs(inverse - want))
        slack = 4 * np.finfo(float).eps
        assert np.median(err) <= 1.1 * np.median(err_inverse) + slack
        assert max(err) <= 1.5 * max(err_inverse) + slack


def test_lyapunov_spread_raises_on_a_singular_product_of_positive_weight():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    bundle = BundleSFT.from_matrices(np.ones((2, 2, 2), dtype=int))
    B = np.tile(np.diag([2.0, 0.5]), (2, 2, 1, 1))
    B[1, 1] = 0.0  # zero generator, reached with weight 1/8 at n = 2
    meas = uniform_measure(2, 2)
    for kind in ("spectral", "max_row_sum"):
        with pytest.raises(SingularMatrix):
            lyapunov_spread(chain, bundle, CocyclePotential(B, norm_kind=kind), meas, 2)
