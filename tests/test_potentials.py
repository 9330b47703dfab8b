import math

import numpy as np
import pytest

from randpress import (
    AdditivePotential,
    BaseChain,
    CocyclePotential,
    ScaledInverseNormPotential,
    check_subadditivity,
    sup_norm_f1,
)
from randpress.errors import SingularMatrix
from randpress.potentials import _admissible_pair_sampler

from fixtures import (
    bernoulli_chain,
    fix_a,
    fix_b,
    full_shift_bundle,
    one_state_chain,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_admissible_pair,
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


def _replayed_worst_violation(pot, chain, bundle, sample_count, seed, max_block=4):
    """Per-word reference: the same random draws in the same order, one reference value per term.

    A NaN violation (-inf minus -inf) is skipped, as Python's max skips it.
    """
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(sample_count):
        n = int(rng.integers(1, max_block + 1))
        m = int(rng.integers(1, max_block + 1))
        u, w = reference_admissible_pair(chain, bundle, n + m, rng)
        viol = (reference_value(pot, u, w, n + m) - reference_value(pot, u, w, n)
                - reference_value(pot, u[n:], w[n:], m))
        worst = max(worst, viol)
    return worst


def test_subadditivity_batches_the_same_draws_as_a_per_word_replay():
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


def test_pair_draws_match_the_choice_loop_and_leave_the_stream_in_step():
    """Pairs and the stream position after them equal the symbol-by-symbol choice loop's."""
    rng = np.random.default_rng(12)
    weights = np.array([[0.0, 1.0, 0.5], [0.7, 0.0, 0.3], [0.2, 0.2, 0.6]])  # zero transitions
    for chain in (random_chain(rng, 2), one_state_chain(),
                  BaseChain.from_transition(weights / weights.sum(axis=1, keepdims=True))):
        S = chain.num_states
        for bundle in (random_bundle(rng, S, 3), random_bundle(rng, S, 1),
                       full_shift_bundle(S, 2)):
            draw = _admissible_pair_sampler(chain, bundle)
            for seed in range(40):
                got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for length in (1, 2, 5, 8):
                    assert draw(length, got_rng) == reference_admissible_pair(
                        chain, bundle, length, ref_rng)
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state


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
