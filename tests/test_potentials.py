import itertools
import math

import mpmath
import numpy as np
import pytest

from randpress import (
    AdditivePotential,
    BaseChain,
    BundleSFT,
    CocyclePotential,
    ScaledInverseNormPotential,
    check_subadditivity,
    sup_norm_f1,
)
from randpress.errors import SingularMatrix
from randpress.potentials import (SubadditivePotential, _log_norms, _mat_norm, _row_payload,
                                  _subadditivity_pairs)

from fixtures import (
    bernoulli_chain,
    fix_a,
    fix_b,
    full_shift_bundle,
    one_state_chain,
    pressure_at_t,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_log_norms,
    reference_products,
    reference_subadditivity_pairs,
    reference_value,
)


def eval_row(pot, u, w, n):
    """f_n on one (base word, fiber word) pair, through a one-row eval_batch call."""
    return float(pot.eval_batch(np.array([u]), np.array([w]), n)[0])


def test_zero_additive_is_zero():
    pot = AdditivePotential(np.zeros((1, 2)))
    assert eval_row(pot, (0,) * 5, (1, 0, 1, 1, 0), 5) == 0.0


def test_fix_a_birkhoff_sum():
    _, _, pot = fix_a()
    assert eval_row(pot, (0, 0, 0), (1, 0, 1), 3) == pytest.approx(2.0)


def test_diagonal_cocycle_max_row_sum():
    B = np.broadcast_to(np.diag([math.e, math.e ** 2]), (1, 2, 2, 2)).copy()
    pot = CocyclePotential(B, norm_kind="max_row_sum")
    assert eval_row(pot, (0, 0, 0), (0, 1, 0), 3) == pytest.approx(6.0, abs=1e-12)


def test_commuting_diagonal_birkhoff_identity():
    rng = np.random.default_rng(0)
    diag = rng.normal(size=(2, 2))  # (fiber symbol, coordinate) exponents
    B = np.zeros((1, 2, 2, 2))
    for a in range(2):
        B[0, a] = np.diag(np.exp(diag[a]))
    pot = CocyclePotential(B, norm_kind="max_row_sum")
    w = (0, 1, 1, 0, 1)
    expected = max(sum(diag[a][c] for a in w) for c in range(2))
    assert eval_row(pot, (0,) * 5, w, 5) == pytest.approx(expected, abs=1e-12)


def test_additive_subadditivity_is_equality():
    chain, bundle, pot = fix_a()
    worst = check_subadditivity(pot, chain, bundle, sample_count=200, seed=1)
    assert abs(worst) <= 1e-12


def test_cocycle_subadditivity_rotations():
    theta = 0.7
    R = 2.0 * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    pot = CocyclePotential(np.broadcast_to(R, (1, 2, 2, 2)).copy())
    chain, bundle = one_state_chain(), full_shift_bundle()
    assert check_subadditivity(pot, chain, bundle, sample_count=1000, seed=2) <= 1e-12


def test_scaled_inverse_t_zero_is_zero():
    rng = np.random.default_rng(4)
    coc = random_cocycle(rng, 1, 2)
    pot = ScaledInverseNormPotential(coc, 0.0)
    assert eval_row(pot, (0, 0), (0, 1), 2) == 0.0
    chain, bundle = one_state_chain(), full_shift_bundle()
    assert check_subadditivity(pot, chain, bundle, sample_count=100, seed=0) == 0.0


def test_shipped_potentials_subadditive():
    rng = np.random.default_rng(5)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    coc = random_cocycle(rng, 2, 2)
    for pot in (
        AdditivePotential(rng.normal(size=(2, 2))),
        coc,
        CocyclePotential(coc.matrices, norm_kind="max_row_sum"),
        ScaledInverseNormPotential(coc, 0.8),
    ):
        assert check_subadditivity(pot, chain, bundle, sample_count=1000, seed=6) <= 1e-12


def test_scaled_inverse_linear_in_t():
    rng = np.random.default_rng(7)
    coc = random_cocycle(rng, 1, 2)
    u, w = (0, 0, 0), (1, 0, 1)
    v1 = eval_row(ScaledInverseNormPotential(coc, 1.0), u, w, 3)
    for t in (0.25, 0.5, 2.0):
        vt = eval_row(ScaledInverseNormPotential(coc, t), u, w, 3)
        assert vt == pytest.approx(t * v1, rel=1e-12)


def test_scaled_inverse_rejects_negative_t():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        ScaledInverseNormPotential(random_cocycle(rng, 1, 2), -0.5)


def test_singular_product_raises():
    B = np.zeros((1, 2, 2, 2))
    B[0, 0] = np.array([[1.0, 0.0], [0.0, 0.0]])  # singular generator
    B[0, 1] = np.eye(2)
    pot = ScaledInverseNormPotential(CocyclePotential(B), 1.0)
    with pytest.raises(SingularMatrix):
        eval_row(pot, (0, 0), (0, 1), 2)


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def test_2x2_closed_forms_match_mpmath_up_to_condition_1e12():
    """sigma_1, the Birkhoff log|det P|, log ||P^-1||_2 and log ||P^-1||_inf of products of
    n generators R diag(2, 1/2) R' (R, R' rotations by a few degrees), whose conditions
    reach 4^20 ~ 1e12, are held to 1e-14 relative against 60-digit mpmath on the exact
    product of the same generators (sigma_1 on the float product it reads).  The LAPACK
    path's LU log|det| of the float product loses about cond * eps there."""
    rng = np.random.default_rng(91)
    worst, lu_worst, top_cond = 0.0, 0.0, 0.0
    for n, _ in itertools.product((1, 5, 10, 15, 20), range(8)):
        B = np.stack([_rotation(rng.normal(0.0, 0.05)) @ np.diag([2.0, 0.5])
                      @ _rotation(rng.normal(0.0, 0.05)) * rng.uniform(0.5, 2.0)
                      for _ in range(2)])[None]
        u, w = np.zeros((1, n), dtype=int), rng.integers(0, 2, (1, n))
        P, log_det = _row_payload(ScaledInverseNormPotential(CocyclePotential(B), 1.0), u, w, n)
        assert np.array_equal(P, reference_products(CocyclePotential(B), u, w, n))
        with mpmath.workdps(60):
            gens = [mpmath.matrix(B[0, a].tolist()) for a in range(2)]
            X = mpmath.eye(2)
            for a in w[0]:
                X = gens[a] * X
            sigma, X_inv = mpmath.svd_r(X, compute_uv=False), X ** -1
            top_cond = max(top_cond, float(max(sigma) / min(sigma)))
            want = [max(mpmath.svd_r(mpmath.matrix(P[0].tolist()), compute_uv=False)),
                    mpmath.log(abs(mpmath.det(X))), -mpmath.log(min(sigma)),
                    mpmath.log(max(abs(X_inv[i, 0]) + abs(X_inv[i, 1]) for i in range(2)))]
            want = np.array([float(x) for x in want])
        got = np.array([_mat_norm(P, "spectral")[0], log_det[0],
                        _log_norms(P, "spectral", log_det)[1][0],
                        _log_norms(P, "max_row_sum", log_det)[1][0]])
        worst = max(worst, np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        lu = reference_log_norms(P, "spectral")[1][0]
        lu_worst = max(lu_worst, abs(lu - want[2]) / max(1.0, abs(want[2])))
    assert top_cond > 1e12
    assert worst <= 1e-14
    assert lu_worst > 1e-9  # what the Birkhoff determinant avoids


def test_2x2_generator_log_det_is_the_exactly_rounded_determinant():
    """Each 2x2 generator's log|det| is log of ad - bc rounded once: on near rank-one
    generators (a rank-one matrix plus a perturbation 1e-15 to 1e-6 of its size, condition up
    to about 1e16) it is held to 2 ulp against 60-digit mpmath, where LU (slogdet) loses about
    cond * eps.  An exactly singular generator reads -inf."""
    rng = np.random.default_rng(113)
    B = np.empty((6, 8, 2, 2))
    for s, a in np.ndindex(6, 8):
        scale = 10.0 ** rng.uniform(-3, 3)
        B[s, a] = scale * (np.outer(rng.normal(size=2), rng.normal(size=2))
                           + 10.0 ** rng.uniform(-15, -6) * rng.normal(size=(2, 2)))
    B[0, 0] = [[3.0, 6.0], [0.5, 1.0]]
    log_det = ScaledInverseNormPotential(CocyclePotential(B), 1.0)._log_det
    lu_worst = 0.0
    for s, a in np.ndindex(6, 8):
        with mpmath.workdps(60):
            want = float(mpmath.log(abs(mpmath.det(mpmath.matrix(B[s, a].tolist())))))
        if (s, a) == (0, 0):
            assert want == log_det[0, 0] == -math.inf
            continue
        assert abs(log_det[s, a] - want) <= 2 * np.spacing(max(abs(want), 1.0))
        lu = np.linalg.slogdet(B[s, a])[1]
        lu_worst = max(lu_worst, abs(lu - want) / max(1.0, abs(want)) if np.isfinite(lu) else 1.0)
    assert lu_worst > 1e-6  # what rounding ad - bc once avoids


def test_log_det_keeps_lu_off_the_2x2_float_range_and_beyond_2x2():
    """A 2x2 whose exact determinant is not a normal float, or any generator with a
    non-finite entry, keeps slogdet's value, as does every generator of a 3x3 cocycle."""
    rng = np.random.default_rng(114)
    B = np.stack([np.diag([1e200, 1e200]), np.diag([1e-170, 1e-170]), rng.normal(size=(2, 2))])
    want = np.linalg.slogdet(B)[1]
    got = ScaledInverseNormPotential(CocyclePotential(B[None]), 1.0)._log_det[0]
    assert got[:2].tolist() == want[:2].tolist()
    assert got[2] == pytest.approx(want[2], rel=1e-14)
    B[2, 0, 1] = np.inf
    with np.errstate(invalid="ignore"):
        want = np.linalg.slogdet(B)[1]
        got = ScaledInverseNormPotential(CocyclePotential(B[None]), 1.0)._log_det[0]
    assert np.array_equal(got, want, equal_nan=True)
    C = random_cocycle(rng, 2, 3, dim=3)
    assert np.array_equal(ScaledInverseNormPotential(C, 1.0)._log_det,
                          np.linalg.slogdet(C.matrices)[1])


def _raises_singular(f) -> bool:
    try:
        f()
    except SingularMatrix:
        return True
    return False


@pytest.mark.parametrize("norm_kind", ["spectral", "max_row_sum"])
def test_2x2_inverse_norm_raises_where_the_lapack_path_raised(norm_kind):
    """SingularMatrix exactly on the words through a zero-determinant or a zero generator,
    at every t > 0, as the LAPACK path raised; none at t = 0.  pressure_at_t raises at
    t > 0 and counts fiber words at t = 0."""
    B = np.tile(np.array([[2.0, 1.0], [0.5, 1.5]]), (1, 3, 1, 1))
    B[0, 1] = [[1.0, 2.0], [0.5, 1.0]]  # determinant 0
    B[0, 2] = 0.0
    coc = CocyclePotential(B, norm_kind=norm_kind)
    for w in itertools.product(range(3), repeat=3):
        u, w = np.zeros((1, 3), dtype=int), np.array([w])
        before = _raises_singular(lambda: reference_log_norms(
            reference_products(coc, u, w, 3), norm_kind))
        assert before == bool((w > 0).any())
        for t in (0.5, 1.0):
            assert _raises_singular(
                lambda: ScaledInverseNormPotential(coc, t).eval_batch(u, w, 3)) == before
        assert ScaledInverseNormPotential(coc, 0.0).eval_batch(u, w, 3) == 0.0
    chain, bundle = one_state_chain(), full_shift_bundle(1, 3)
    assert _raises_singular(lambda: pressure_at_t(chain, bundle, coc, 0.5, 2, 1))
    assert pressure_at_t(chain, bundle, coc, 0.0, 2, 1).value == pytest.approx(math.log(3))


def test_non_finite_2x2_products_read_hypot_where_the_svd_did_not():
    """Pinned: a product with an infinite entry has spectral norm inf through hypot, where
    the stacked SVD returned NaN; one with a NaN entry has norm NaN, where the SVD raised
    LinAlgError."""
    inf = np.array([[[np.inf, 1.0], [0.0, 1.0]]])
    nan = np.array([[[np.nan, 1.0], [0.0, 1.0]]])
    assert np.isnan(np.linalg.svd(inf, compute_uv=False)[0, 0])
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(nan, compute_uv=False)
    assert _mat_norm(inf, "spectral")[0] == np.inf
    assert np.isnan(_mat_norm(nan, "spectral")[0])


def test_sup_norm_zero_potential():
    chain, bundle, _ = fix_a()
    assert sup_norm_f1(AdditivePotential(np.zeros((1, 2))), chain, bundle) == 0.0


def test_sup_norm_fix_a():
    chain, bundle, pot = fix_a()
    assert sup_norm_f1(pot, chain, bundle) == pytest.approx(1.0)


def test_sup_norm_weighted_states():
    chain, bundle, _ = fix_b()
    pot = AdditivePotential(np.array([[2.0, 2.0, 2.0], [-3.0, -3.0, -3.0]]))
    assert sup_norm_f1(pot, chain, bundle) == pytest.approx(2.5)


def test_scalar_cocycle_reduces_to_additive():
    B = np.zeros((1, 2, 1, 1))
    B[0, :, 0, 0] = (2.0, 5.0)
    coc = CocyclePotential(B)
    add = coc.to_additive()
    assert np.allclose(add.table, np.log([[2.0, 5.0]]))
    scaled = ScaledInverseNormPotential(coc, 0.5).to_additive()
    assert np.allclose(scaled.table, -0.5 * np.log([[2.0, 5.0]]))
    assert random_cocycle(np.random.default_rng(0), 1, 2).to_additive() is None


def test_bernoulli_chain_helper():
    chain = bernoulli_chain()
    assert np.allclose(chain.stationary, [0.5, 0.5])


def _systems():
    """Chains with and without zero transitions, one state among them, under bundles of
    three, one (a single column per row) and two fiber symbols."""
    rng = np.random.default_rng(12)
    weights = np.array([[0.0, 1.0, 0.5], [0.7, 0.0, 0.3], [0.2, 0.2, 0.6]])  # zero transitions
    for chain in (random_chain(rng, 2), one_state_chain(),
                  BaseChain.from_transition(weights / weights.sum(axis=1, keepdims=True))):
        S = chain.num_states
        for bundle in (random_bundle(rng, S, 3), random_bundle(rng, S, 1),
                       full_shift_bundle(S, 2)):
            yield chain, bundle


def test_subadditivity_pairs_equal_a_per_sample_bisect_walk():
    for chain, bundle in _systems():
        for max_block in (1, 3, 4):
            for seed in range(40):
                got = _subadditivity_pairs(chain, bundle, 25, seed, max_block)
                expect = reference_subadditivity_pairs(chain, bundle, 25, seed, max_block)
                for a, b in zip(got, expect):
                    assert a.shape == b.shape and (a == b).all()


def _replayed_worst_violation(pot, chain, bundle, sample_count, seed, max_block=4):
    """Per-word reference: the reference pairs, one reference value per term.

    A NaN violation (-inf minus -inf) is skipped, as Python's max skips it.
    """
    nm, base, fiber = reference_subadditivity_pairs(chain, bundle, sample_count, seed, max_block)
    worst = -math.inf
    for (n, m), u, w in zip(nm.tolist(), base.tolist(), fiber.tolist()):
        viol = (reference_value(pot, u, w, n + m) - reference_value(pot, u, w, n)
                - reference_value(pot, u[n:], w[n:], m))
        worst = max(worst, viol)
    return worst


def test_subadditivity_equals_a_per_word_replay_of_its_pairs():
    rng = np.random.default_rng(9)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 3)
    coc = random_cocycle(rng, 2, 3)
    zero = coc.matrices.copy()
    zero[1, 2] = 0.0  # f is -inf on words through this generator
    pots = (
        AdditivePotential(rng.normal(size=(2, 3))),
        coc,
        CocyclePotential(coc.matrices, norm_kind="max_row_sum"),
        ScaledInverseNormPotential(coc, 0.8),
        CocyclePotential(zero, norm_kind="max_row_sum"),
    )
    for pot in pots:
        for seed in (0, 11):
            expect = _replayed_worst_violation(pot, chain, bundle, 300, seed)
            assert check_subadditivity(pot, chain, bundle, sample_count=300,
                                       seed=seed) == pytest.approx(expect, abs=1e-12)


def test_subadditivity_pairs_are_admissible():
    for chain, bundle in _systems():
        for seed in range(5):
            _, u, w = _subadditivity_pairs(chain, bundle, 200, seed, 4)
            assert u.shape == w.shape == (200, 8)
            assert (chain.transition[u[:, :-1], u[:, 1:]] > 0.0).all()
            assert (bundle.allowed[u[:, :-1], w[:, :-1], w[:, 1:]] == 1).all()
            assert 0 <= w.min() and w.max() < bundle.num_symbols


def test_subadditivity_pairs_follow_the_joint_law():
    """(u_0, u_1, w_0, w_1) has law p(s) T(s, s') (1/A) allowed(s, a, b) / rowsum(s, a)."""
    from scipy.special import chdtrc

    weights = np.array([[0.0, 1.0, 0.5], [0.7, 0.0, 0.3], [0.2, 0.2, 0.6]])
    chain = BaseChain.from_transition(weights / weights.sum(axis=1, keepdims=True))
    allowed = np.ones((3, 3, 3), dtype=int)
    allowed[0, 0, 1] = allowed[0, 2, 0] = allowed[0, 2, 2] = allowed[1, 1, 1] = 0
    allowed[2, :, 2] = 0
    bundle = BundleSFT.from_matrices(allowed)
    p, T = chain.stationary, chain.transition
    law = (p[:, None, None, None] * T[:, :, None, None] / 3
           * (allowed / allowed.sum(axis=-1, keepdims=True))[:, None])  # (s, s', a, b)
    _, u, w = _subadditivity_pairs(chain, bundle, 20_000, 0, 1)
    counts = np.zeros(law.shape)
    np.add.at(counts, (u[:, 0], u[:, 1], w[:, 0], w[:, 1]), 1)
    assert counts[law == 0.0].sum() == 0
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    seen, expect = counts[law > 0.0], 20_000 * law[law > 0.0]
    assert chdtrc(len(seen) - 1, ((seen - expect) ** 2 / expect).sum()) > 1e-3  # chi-square p-value


class _PlantedPattern(SubadditivePotential):
    """f_n = n c 1[u_0 = s, w_0 = a]: violates subadditivity by m c where the
    pattern sits at 0 and not at n."""

    def __init__(self, s, a, c):
        self.s, self.a, self.c = s, a, c

    def eval_batch(self, base_arr, fiber_arr, n):
        return n * self.c * ((base_arr[:, 0] == self.s) & (fiber_arr[:, 0] == self.a))


def test_subadditivity_finds_a_planted_violation():
    chain = BaseChain.from_transition([[0.81, 0.19], [0.01, 0.99]])
    assert chain.stationary[0] == pytest.approx(0.05)
    bundle = full_shift_bundle(2, 2)
    pot = _PlantedPattern(0, 1, 0.75)
    for seed in range(20):
        assert check_subadditivity(pot, chain, bundle, sample_count=1000,
                                   seed=seed) >= 0.75 - 1e-12


class _Counting(SubadditivePotential):
    def __init__(self, inner):
        self.inner, self.lengths = inner, []

    def eval_batch(self, base_arr, fiber_arr, n):
        self.lengths.append(n)
        return self.inner.eval_batch(base_arr, fiber_arr, n)


def test_subadditivity_calls_eval_batch_once_per_length():
    rng = np.random.default_rng(13)
    chain, bundle = random_chain(rng, 2), random_bundle(rng, 2, 3)
    coc = random_cocycle(rng, 2, 3)
    for max_block in (1, 2, 4, 6):
        for sample_count in (1, 1000):
            pot = _Counting(coc)
            worst = check_subadditivity(pot, chain, bundle, sample_count=sample_count,
                                        seed=3, max_block=max_block)
            assert len(pot.lengths) == len(set(pot.lengths)) <= 2 * max_block
            assert worst == check_subadditivity(coc, chain, bundle, sample_count=sample_count,
                                                seed=3, max_block=max_block)


def test_subadditivity_rejects_a_stationary_vector_choice_rejects():
    chain = BaseChain(("a", "b"), np.full((2, 2), 0.5), stationary=[0.7, 0.7])
    pot = AdditivePotential(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="do not sum to 1"):
        check_subadditivity(pot, chain, full_shift_bundle(2, 2), sample_count=5)


def test_sup_norm_matches_per_word_eval():
    rng = np.random.default_rng(10)
    chain = random_chain(rng, 3)
    bundle = random_bundle(rng, 3, 2)
    for pot in (random_cocycle(rng, 3, 2), AdditivePotential(rng.normal(size=(3, 2))),
                ScaledInverseNormPotential(random_cocycle(rng, 3, 2), 1.5)):
        expect = sum(chain.stationary[s] * max(abs(reference_value(pot, (s,), (a,), 1))
                                               for a in range(2))
                     for s in range(3))
        assert sup_norm_f1(pot, chain, bundle) == pytest.approx(expect, abs=1e-12)


def test_inverse_norm_takes_the_generators_log_det_once_per_potential(monkeypatch):
    """The generators' log|det| is taken once, when the potential is built; the payload then
    reads it on every level, and a 2x2 read takes no determinant of its own."""
    calls = []
    slogdet = np.linalg.slogdet

    def counted(a):
        calls.append(np.shape(a))
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    rng = np.random.default_rng(59)
    pot = ScaledInverseNormPotential(random_cocycle(rng, 2, 3), 0.5)
    assert calls == [(2, 3, 2, 2)]
    u, w = rng.integers(2, size=(40, 6)), rng.integers(3, size=(40, 6))
    assert np.isfinite(pot.eval_batch(u, w, 6)).all()
    assert calls == [(2, 3, 2, 2)]


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_a_3x3_generator_with_a_non_finite_entry_is_no_similarity(entry):
    """Its extreme singular values are NaN, not an SVD error: no additive reduction, and the
    Bowen root's conformality test fails."""
    B = np.tile(2.0 * np.eye(3), (1, 2, 1, 1))
    B[0, 1, 2, 0] = entry
    coc = CocyclePotential(B)
    assert np.isnan(coc._sigma[:, 0, 1]).all()
    assert coc.to_additive() is None and not coc._similar(1e-9)


@pytest.mark.parametrize("count", [0, -3])
def test_check_subadditivity_needs_a_sample(count):
    chain, bundle, pot = fix_a()
    with pytest.raises(ValueError, match="^sample_count must be >= 1$"):
        check_subadditivity(pot, chain, bundle, sample_count=count)
