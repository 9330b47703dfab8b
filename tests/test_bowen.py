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
    pressure_at_t,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_lyapunov_spread,
    reference_sample_path,
    reference_value,
    shared_q_measure,
    sparse_measure_system,
    sweep_potentials,
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
    assert root.bracket == (0.0, 0.0)
    assert root.iterations == ()
    assert root.pressure_at_root == pressure_at_t(chain, bundle, coc, 0.0, 4, 1).value
    assert not root.upper_estimate  # a 1x1 generator is a scaled isometry


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
    """One walk of the measure cylinders gives potential_average's sums of log||P|| and of
    log||P^-1||, chunk by chunk in the same order: both read the norms from one helper, so
    they agree bit for bit under both norms.  The mpmath tests below hold the spectral bottom
    exponent to the exact value."""
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
# On the scalar cocycle below, t = 200, 300 and 1000 leave linear space at levels 4, 2 and 0
# of the table, and t <= 1 past level 300: on both sides of the depths of FAMILY_DEPTHS.
SWITCH_SCALES = [0.0, 1.0, 200.0, 300.0, 1000.0]


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 40])
@pytest.mark.parametrize("dim, norm_kind", [(1, "spectral"), (2, "spectral"), (2, "max_row_sum")])
def test_batched_scales_equal_per_t_evaluations_bit_for_bit(monkeypatch, joint_rows, dim,
                                                           norm_kind):
    """One call on five scales, one call per scale, pressure_at_t and the per-t reference
    (its own potential, tree or forest and two full DPs per t) agree in value and SE bit for
    bit.  The trees have many leaves, so each t is one row of a (T, N) array; with 40 joint
    rows the deeper trees split the five scales into smaller batches.  The scalar cocycle
    also takes scales whose tables leave linear space above, at and below the tree's depth,
    so that a batch never changes a scale's bits across the log-space fallback."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(40 + dim)
    chain, bundle = random_chain(rng, 2), random_bundle(rng, 2, 3)
    cocycle = random_cocycle(rng, 2, 3, dim=dim, norm_kind=norm_kind)
    for (n, m), (mode, samples, seed), scales in itertools.product(
            FAMILY_DEPTHS, [("exact", 0, 0), ("monte_carlo", 9, 5)],
            [FAMILY_SCALES, SWITCH_SCALES] if dim == 1 else [FAMILY_SCALES]):
        family = bowen._inverse_norm_family(chain, bundle, cocycle, n, m, mode, samples, seed,
                                            DEFAULT_BUDGET)
        batched = family(scales)
        assert len(batched) == len(scales)
        assert batched == [family([t])[0] for t in scales]
        assert batched == [pressure_at_t(chain, bundle, cocycle, t, n, m, mode=mode,
                                         samples=samples, seed=seed) for t in scales]
        assert batched == [per_t_pressure_at_t(chain, bundle, cocycle, t, n, m, mode, samples,
                                               seed) for t in scales]


@pytest.mark.parametrize("S, A", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("m", [1, 2])
def test_dimension_root_equals_the_solve_on_per_t_pressures(monkeypatch, S, A, m):
    """On seeded scalar systems, every field of a dimension_root record (t_star, bracket,
    each root step, convergence) equals that of the same solve run on pressures taken the
    per-t way, each with its own potential, tree or forest and two full DPs, in exact and in
    Monte Carlo mode, at n = 1 and n = 4."""
    rng = np.random.default_rng(70 + 10 * S + A + 100 * m)
    chain, allowed = random_chain(rng, S), random_bundle(rng, S, A).allowed.copy()
    allowed[..., :2] = 1  # at least two fiber choices everywhere: P(0) > 0 on every sample
    bundle = BundleSFT.from_matrices(allowed)
    cocycle = CocyclePotential(rng.uniform(2.0, 5.0, (S, A, 1, 1)))

    def per_t_family(chain, bundle, cocycle, n, m, mode, samples, seed, budget):
        return lambda ts: [per_t_pressure_at_t(chain, bundle, cocycle, t, n, m, mode, samples,
                                               seed) for t in ts]

    for n, (mode, samples, seed) in itertools.product([1, 4], [("exact", 0, 0),
                                                               ("monte_carlo", 9, 5)]):
        def solve():
            return dimension_root(chain, bundle, cocycle, n, m, 2.0, mode=mode, samples=samples,
                                  seed=seed)
        got = solve()
        with monkeypatch.context() as patch:
            patch.setattr(bowen, "_inverse_norm_family", per_t_family)
            assert solve() == got
        assert got.converged and got.bracket[0] < got.bracket[1] and got.iterations


def test_switch_scales_leave_linear_space_on_both_sides_of_the_family_depths():
    """SWITCH_SCALES does what the bit-for-bit test above needs of it."""
    rng = np.random.default_rng(41)  # the draws of the dim = 1 case above
    random_chain(rng, 2), random_bundle(rng, 2, 3)
    table = ScaledInverseNormPotential(random_cocycle(rng, 2, 3, dim=1), 1.0).to_additive().table
    # the first level k with (k + 1) * nats > _LINEAR_NATS
    levels = [pressure._LINEAR_NATS // pressure._level_nats(3, t * table) for t in SWITCH_SCALES]
    assert levels[2:] == [4, 2, 0] and min(levels[:2]) > max(n for n, _ in FAMILY_DEPTHS)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the counter."""
    calls, f = collections.Counter(), getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (1, 4), (2, 1), (2, 3), (4, 2), (6, 3)])
@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_scalar_family_runs_one_dp_pass_for_any_number_of_scales(monkeypatch, n, m, mode):
    """The family plans its base tree once, depths n-1 and n share one DP pass along the plan
    and all scales share its t axis, so a call steps through the same plan levels for one
    scale as for five: levels 1..n-1 once each with the table (one pass per depth), then
    without it the m - 1 levels after depth n and the m - 1 after depth n-1.  At n = 1 the
    table has only level 0 and depth 0 counts from there, over m - 2 levels when m > 1."""
    chain, bundle, coc = fix_f()
    plans = _counting(monkeypatch, pressure, "_Plan")
    family = bowen._inverse_norm_family(chain, bundle, coc, n, m, mode, 9, 5, DEFAULT_BUDGET)
    passes, carry, L = [], pressure._carry, n + m - 1

    def counting(plan, depth, state=None, table=None):
        passes.append((table is not None, range(1 if state is None else state.level + 1, depth)))
        return carry(plan, depth, state, table)

    monkeypatch.setattr(pressure, "_carry", counting)
    for ts in ([0.7], FAMILY_SCALES):
        passes.clear()
        assert len(family(ts)) == len(ts)
        assert len(passes) == (4 if n >= 2 else 3 if m > 1 else 2)
        assert sorted(k for table, levels in passes if table for k in levels) == [*range(1, n)]
        assert sorted(k for table, levels in passes if not table for k in levels) == sorted(
            [*range(n, L), *range(max(n - 1, 1), L - 1)])
        assert plans["_Plan"] == 1


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 40])
def test_joint_row_cap_splits_the_scales_into_batches(monkeypatch, joint_rows):
    """bundle._JOINT_ROWS caps the rows of one DP: five scales on a tree of N leaves run
    in batches of max(1, cap // N) scales, two partition sums (depths n and n-1) each."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(42)
    chain, bundle = random_chain(rng, 2), random_bundle(rng, 2, 3)
    cocycle = random_cocycle(rng, 2, 3, dim=2, norm_kind="spectral")
    calls = _counting(monkeypatch, pressure, "_tree_log_partition")
    batches = []
    for n, m in FAMILY_DEPTHS:
        family = bowen._inverse_norm_family(chain, bundle, cocycle, n, m, "exact", 0, 0,
                                            DEFAULT_BUDGET)
        leaves = len(chain.prefix_tree(n + m - 1, DEFAULT_BUDGET).symbol[-1])
        calls.clear()
        family(FAMILY_SCALES)
        batches.append(-(-len(FAMILY_SCALES) // max(1, joint_rows // leaves)))
        assert calls["_tree_log_partition"] == batches[-1] * (2 if n + m > 2 else 1)
    assert max(batches) == (1 if joint_rows > 40 else len(FAMILY_SCALES))


def test_patching_the_one_joint_row_cap_moves_the_walk_and_the_scale_batches(monkeypatch):
    """_JOINT_ROWS is bound once, in bundle, and read where it is used: patching that name
    alone caps the rows of every chunk the family's joint walk hands to eval_batch, and splits
    five scales on a tree of 32 leaves into batches of max(1, cap // 32), with equal values."""
    chain, bundle = BaseChain.from_transition(np.full((2, 2), 0.5)), full_shift_bundle(2, 2)
    inverse = ScaledInverseNormPotential(random_cocycle(np.random.default_rng(44), 2, 2), 1.0)
    rows, batches = [], []

    class EvalBatchOnly:  # no _extend: the walk's chunks reach eval_batch as word columns
        def to_additive(self):
            return None

        def eval_batch(self, base_arr, fiber_arr, n):
            rows.append(len(base_arr))
            return inverse.eval_batch(base_arr, fiber_arr, n)

    tree_log_partition = pressure._tree_log_partition

    def recording(plan, depth, state):
        batches.append(len(state.W))
        return tree_log_partition(plan, depth, state)

    def solve():
        rows.clear(), batches.clear()
        return pressure._increment_family(chain, bundle, EvalBatchOnly(), 4, 2, "exact", 0, 0,
                                          DEFAULT_BUDGET)(FAMILY_SCALES)

    monkeypatch.setattr(pressure, "_tree_log_partition", recording)
    whole = solve()
    assert (max(rows), batches) == (16 * 2 ** 4, [5, 5])  # one chunk, one batch
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", 40)
    assert solve() == whole
    assert (max(rows), batches) == (2 * 2 ** 4, [1] * 10)  # two depth-4 nodes per chunk


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


def _stretched_system():
    """_rotation_system with every generator stretched by diag(1, 1.25): no similarity, so its
    cocycle has no additive table."""
    chain, bundle, coc = _rotation_system()
    return chain, bundle, CocyclePotential(coc.matrices @ np.diag([1.0, 1.25]))


def test_one_draw_and_one_joint_walk_per_solve_or_grid(monkeypatch):
    """A matrix solve draws its words once and walks the joint tree once, for depths n-1 and
    n together; a pressure grid walks it once for all its depths.  A scalar solve walks none,
    and neither does a solve or a grid on similarity generators, which run on a table."""
    calls = collections.Counter()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pressure, "_sample_paths", counting("draws", pressure._sample_paths))
    monkeypatch.setattr(pressure, "_joint_walk", counting("walks", pressure._joint_walk))
    for system, walks in ((_stretched_system(), 1), (_rotation_system(), 0)):
        chain, bundle, coc = system
        for mode, n in (("monte_carlo", 4), ("exact", 4), ("exact", 1)):
            calls.clear()
            root = dimension_root(chain, bundle, coc, n, 2, 2.0, mode=mode, samples=16, seed=3)
            assert len(root.iterations) >= 3
            assert (calls["walks"], calls["draws"]) == (walks, int(mode != "exact"))
        for mode in ("exact", "monte_carlo"):
            calls.clear()
            pressure.pressure_curve(chain, bundle, coc, [1, 2, 2, 4], [1, 2], mode, 16, 3)
            assert (calls["walks"], calls["draws"]) == (walks, int(mode != "exact"))
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


@pytest.mark.parametrize("tol", [-1e-3, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["tol_t", "tol_p"])
def test_negative_or_non_finite_tolerance_raises_before_any_probe(monkeypatch, key, tol):
    """A NaN or negative tol_t would spin all 60 steps, and a negative one sets the step
    outside the bracket; the API rejects both, as the config loader does."""
    chain, bundle, coc = fix_e()
    monkeypatch.setattr(bowen, "_inverse_norm_family", None)  # a probe would raise TypeError
    with pytest.raises(ValueError, match=f"tolerances must be finite and >= 0, got .*{key}={tol}"):
        dimension_root(chain, bundle, coc, 4, 1, 2.0, **{key: tol})


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
    replaces (log of numpy's 2-norm of inv(P), fixtures.reference_value).  The two round
    differently, so one product may favour either; over 40 products per condition number the
    median error may exceed the inverse's by 10% and the largest by 50%.  Reading sigma_min
    straight off the SVD fails this: its median error is 3-5 times the inverse's from
    condition 1e4 on."""
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
            inverse = -reference_value(ScaledInverseNormPotential(coc, 1.0), (0, 0), (0, 0), 2) / 2
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


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 5])
def test_lyapunov_spread_equals_the_word_column_reference_bit_for_bit(monkeypatch, joint_rows):
    """lyapunov_spread reads both norms off the inverse-norm payload its walk grows once per
    prefix; reference_lyapunov_spread rebuilds each chunk's products from its word columns.
    Invariant measures with S and A drawn from {2, 3}, zeros in T, Q and the initials, and
    cocycles of dimension 1 to 3 under both norms; one depth per walk, so the chunks and the
    bits agree at any cap."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(45)
    for _ in range(6):
        chain, bundle, meas = sparse_measure_system(rng, valid=True)
        for coc in sweep_potentials(rng, *meas.initial.shape)[:6]:
            for n in (1, 2, 4):
                got = lyapunov_spread(chain, bundle, coc, meas, n)
                assert got == reference_lyapunov_spread(coc, meas, chain, n)
