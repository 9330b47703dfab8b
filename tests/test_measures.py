import itertools
import math
import re

import numpy as np
import pytest

from randpress import (
    RandomMarkovMeasure,
    check_lemma34,
    f_star_bracket,
    fiber_entropy,
    potential_average,
    solve_consistent_initial,
    validate_measure,
    vp_gap,
)
from randpress import AdditivePotential, BaseChain, BundleSFT, ScaledInverseNormPotential
from randpress import bundle as bundle_mod
from randpress import cli, measures
from randpress.base import DEFAULT_BUDGET
from randpress.errors import InvalidMeasure, NonErgodicChain, ShapeMismatch

from fixtures import (
    FIX_B_LIMIT,
    GOLDEN,
    bernoulli_chain,
    entropy_cylinder_oracle,
    fix_a,
    fix_b,
    fix_d,
    full_shift_bundle,
    golden_mean,
    naive_fiber_words,
    one_state_chain,
    parry_measure,
    random_additive,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_averages,
    reference_consistent_initial,
    reference_fiber_entropy,
    reference_value,
    shared_q_measure,
    sparse_measure_system,
    sweep_potentials,
    uniform_measure,
)


def test_validate_shared_q_stationary():
    rng = np.random.default_rng(0)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2, full=True)
    meas = shared_q_measure(rng, chain, bundle)
    assert validate_measure(meas, chain, bundle).valid


def test_validate_doubly_stochastic_uniform():
    chain = bernoulli_chain()
    bundle = full_shift_bundle(2, 2)
    Q = np.array(
        [[[0.3, 0.7], [0.7, 0.3]], [[0.6, 0.4], [0.4, 0.6]]]
    )  # doubly stochastic, s-dependent
    meas = RandomMarkovMeasure(initial=np.full((2, 2), 0.5), transition=Q)
    assert validate_measure(meas, chain, bundle).valid


def test_validate_flags_forbidden_support():
    chain, bundle, _ = golden_mean()
    Q = np.array([[[0.5, 0.5], [0.5, 0.5]]])  # (1,1) transition is forbidden
    meas = RandomMarkovMeasure(initial=np.array([[0.5, 0.5]]), transition=Q)
    report = validate_measure(meas, chain, bundle)
    assert report.support_violations == 1
    assert not report.valid


def test_validate_shape_mismatch():
    chain, bundle, _ = fix_a()
    meas = RandomMarkovMeasure(initial=np.ones((2, 2)) / 2, transition=np.ones((2, 2, 2)) / 2)
    with pytest.raises(ShapeMismatch):
        validate_measure(meas, chain, bundle)


def test_solve_consistent_initial_shape_mismatch():
    chain = bernoulli_chain()
    Q = np.full((1, 2, 2), 0.5)  # one base symbol's Q on a 2-state chain
    with pytest.raises(ShapeMismatch):
        solve_consistent_initial(Q, chain)


def test_solve_consistent_initial_recovers_stationary():
    rng = np.random.default_rng(1)
    chain = random_chain(rng, 2)
    Q1 = rng.uniform(0.1, 1.0, (2, 2))
    Q1 /= Q1.sum(axis=1, keepdims=True)
    Q = np.stack([Q1, Q1])
    pi, resid = solve_consistent_initial(Q, chain)
    assert resid <= 1e-10
    assert np.allclose(pi[0], pi[1])
    assert np.allclose(pi[0] @ Q1, pi[0], atol=1e-10)


def test_solve_consistent_initial_takes_the_minimum_norm_law_of_a_reducible_joint_chain():
    """Q_s = I under every s: each fiber symbol is a closed class of law p(s), equal in norm."""
    chain = random_chain(np.random.default_rng(7), 2)
    pi, resid = solve_consistent_initial(np.tile(np.eye(3), (2, 1, 1)), chain)
    assert resid <= 1e-15
    np.testing.assert_allclose(pi, np.full((2, 3), 1.0 / 3.0), rtol=0, atol=1e-14)


def test_fix_b_baseline_measure_is_invariant_and_attains_the_pressure():
    """Row-uniform Q on fix-b and pi_s = (5/12, 5/12, 1/6): the joint law is stationary,
    though pi_0 Q_0 = (1/2, 1/2, 0) is not pi_1, and h = 0.5 log 6 is the pressure."""
    chain, bundle, _ = fix_b()
    Q = np.stack([np.tile([0.5, 0.5, 0.0], (3, 1)), np.full((3, 3), 1.0 / 3.0)])
    meas = RandomMarkovMeasure(initial=np.tile([5 / 12, 5 / 12, 1 / 6], (2, 1)), transition=Q)
    assert validate_measure(meas, chain, bundle).valid
    assert abs(fiber_entropy(meas, chain) - FIX_B_LIMIT) <= 1e-15
    assert np.max(np.abs(meas.initial[0] @ meas.transition[0] - meas.initial[1])) > 0.1
    pi, resid = solve_consistent_initial(meas.transition, chain)
    assert resid <= 1e-15
    np.testing.assert_allclose(pi, meas.initial, rtol=0, atol=1e-15)


def test_fiber_entropy_uniform_bernoulli():
    chain = one_state_chain()
    assert fiber_entropy(uniform_measure(), chain) == pytest.approx(math.log(2))


def test_fiber_entropy_deterministic_rows():
    chain = one_state_chain()
    Q = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    meas = RandomMarkovMeasure(initial=np.array([[0.5, 0.5]]), transition=Q)
    assert fiber_entropy(meas, chain) == 0.0


def test_fiber_entropy_golden_mean_markov():
    chain, bundle, _ = golden_mean()
    Q = np.array([[[0.5, 0.5], [1.0, 0.0]]])
    meas = RandomMarkovMeasure(initial=np.array([[2 / 3, 1 / 3]]), transition=Q)
    assert validate_measure(meas, chain, bundle).valid
    assert fiber_entropy(meas, chain) == pytest.approx((2 / 3) * math.log(2))


def test_entropy_oracle_depth_one():
    rng = np.random.default_rng(2)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2, full=True)
    meas = shared_q_measure(rng, chain, bundle)
    expect = sum(
        chain.stationary[s]
        * -(meas.initial[s] * np.log(meas.initial[s])).sum()
        for s in range(2)
    )
    assert entropy_cylinder_oracle(meas, chain, bundle, 1) == pytest.approx(expect)


def test_entropy_oracle_uniform_constant():
    chain = one_state_chain()
    bundle = full_shift_bundle()
    meas = uniform_measure()
    for n in (1, 3, 5):
        assert entropy_cylinder_oracle(meas, chain, bundle, n) == pytest.approx(math.log(2))


def test_entropy_oracle_golden_mean_closed_form():
    chain, bundle, _ = golden_mean()
    Q = np.array([[[0.5, 0.5], [1.0, 0.0]]])
    pi = np.array([[2 / 3, 1 / 3]])
    meas = RandomMarkovMeasure(initial=pi, transition=Q)
    h = (2 / 3) * math.log(2)
    h_pi = -(pi[0] * np.log(pi[0])).sum()
    oracle = entropy_cylinder_oracle(meas, chain, bundle, 6)
    assert abs(oracle - (h_pi / 6 + (5 / 6) * h)) <= 1e-10


def test_entropy_increment_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        chain = random_chain(rng, 2)
        bundle = random_bundle(rng, 2, 2, full=True)
        meas = shared_q_measure(rng, chain, bundle)
        h = fiber_entropy(meas, chain)
        H = [n * entropy_cylinder_oracle(meas, chain, bundle, n) for n in range(1, 6)]
        for a, b in zip(H, H[1:]):
            assert abs((b - a) - h) <= 1e-10


def test_potential_average_additive_linear():
    rng = np.random.default_rng(4)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2, full=True)
    meas = shared_q_measure(rng, chain, bundle)
    pot = random_additive(rng, 2, 2)
    a1 = potential_average(meas, chain, bundle, pot, 1)
    for n in (2, 4, 6):
        assert potential_average(meas, chain, bundle, pot, n) == pytest.approx(n * a1)


def test_potential_average_constant():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.full((1, 2), 0.3))
    meas = uniform_measure()
    assert potential_average(meas, chain, bundle, pot, 5) == pytest.approx(1.5)


def test_potential_average_fix_d_hand_enumeration():
    chain, bundle, pot = fix_d()
    meas = uniform_measure()
    expect = 0.0
    for w in ((0, 0), (0, 1), (1, 0), (1, 1)):
        expect += 0.25 * reference_value(pot, (0, 0), w, 2)
    assert potential_average(meas, chain, bundle, pot, 2) == pytest.approx(expect)


def test_f_star_additive_flat():
    rng = np.random.default_rng(5)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2, full=True)
    meas = shared_q_measure(rng, chain, bundle)
    pot = random_additive(rng, 2, 2)
    br = f_star_bracket(meas, chain, bundle, pot, N=5)
    a1 = potential_average(meas, chain, bundle, pot, 1)
    assert br.upper == pytest.approx(a1)
    assert br.estimate == pytest.approx(a1)
    assert not br.minus_inf


def test_f_star_t_zero():
    chain, bundle, _ = fix_a()
    coc = random_cocycle(np.random.default_rng(6), 1, 2)
    br = f_star_bracket(uniform_measure(), chain, bundle,
                        ScaledInverseNormPotential(coc, 0.0), N=4)
    assert br.upper == 0.0 and br.estimate == 0.0


def test_f_star_fix_d_near_half():
    chain, bundle, pot = fix_d()
    br = f_star_bracket(uniform_measure(), chain, bundle, pot, N=12)
    assert abs(br.upper - 0.5) <= 0.1


def test_f_star_minus_inf_flag():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.full((1, 2), -2e6))
    br = f_star_bracket(uniform_measure(), chain, bundle, pot, N=3)
    assert br.minus_inf


def test_lemma34_additive_k1():
    chain, bundle, pot = fix_a()
    meas = uniform_measure()
    slack = check_lemma34(meas, chain, bundle, pot, n=4, k=1)
    # Additive equality: slack is exactly 4C with C = ||f_1|| = 1.
    assert slack == pytest.approx(4.0)


def test_lemma34_zero_potential_zero_slack():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.zeros((1, 2)))
    assert check_lemma34(uniform_measure(), chain, bundle, pot, n=4, k=2) == pytest.approx(0.0, abs=1e-12)


def test_lemma34_fix_d():
    chain, bundle, pot = fix_d()
    assert check_lemma34(uniform_measure(), chain, bundle, pot, n=5, k=2) >= -1e-12


def test_lemma34_rejects_invalid_measure():
    chain, bundle, pot = fix_a()
    bad = RandomMarkovMeasure(
        initial=np.array([[0.9, 0.1]]),
        transition=np.array([[[0.5, 0.5], [0.5, 0.5]]]),
    )
    with pytest.raises(InvalidMeasure):
        check_lemma34(bad, chain, bundle, pot, n=3, k=1)


def test_golden_parry_entropy():
    chain, bundle, _ = golden_mean()
    meas = parry_measure()
    assert validate_measure(meas, chain, bundle).valid
    assert fiber_entropy(meas, chain) == pytest.approx(math.log(GOLDEN), abs=1e-12)


def _sparse_systems(count, seed=11):
    """Random (chain, Q) pairs, S in 1..4 and A in 1..5, with zero base transitions,
    self-loops and Q rows holding zeros (each row keeps a positive entry)."""
    rng = np.random.default_rng(seed)
    systems = []
    while len(systems) < count:
        S, A = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        T = rng.uniform(0.1, 1.0, (S, S)) * (rng.random((S, S)) < 0.6)
        if (T.sum(axis=1) == 0.0).any():
            continue
        try:
            chain = BaseChain.from_transition(T / T.sum(axis=1, keepdims=True))
        except NonErgodicChain:
            continue
        Q = rng.uniform(0.1, 1.0, (S, A, A)) * (rng.random((S, A, A)) < 0.6)
        Q[np.arange(S)[:, None], np.arange(A), rng.integers(A, size=(S, A))] += 0.5
        systems.append((chain, Q / Q.sum(axis=2, keepdims=True)))
    T = [chain.transition for chain, _ in systems]
    assert any(t.shape == (1, 1) for t in T)
    assert any((t == 0.0).any() for t in T) and any((np.diag(t) > 0.0).any() for t in T)
    assert any((t - np.diag(np.diag(t)) > 0.0).any() for t in T)  # edges with s != s'
    assert any((Q == 0.0).any() for _, Q in systems)
    return systems


def test_stacked_consistency_solve_equals_the_block_loop_bit_for_bit():
    """The einsum-built joint kernel holds the entry loop's products, so lstsq sees one matrix."""
    for chain, Q in _sparse_systems(120):
        pi, resid = solve_consistent_initial(Q, chain)
        assert np.array_equal(pi, reference_consistent_initial(Q, chain))
        S, A = pi.shape
        p, T = chain.stationary, chain.transition
        worst = 0.0
        for s in range(S):
            for b in range(A):
                pushed = sum(p[r] * pi[r, a] * T[r, s] * Q[r, a, b]
                             for r in range(S) for a in range(A))
                worst = max(worst, abs(pushed - p[s] * pi[s, b]))
        assert resid == pytest.approx(worst, rel=1e-12, abs=1e-15)


def test_stacked_fiber_entropy_equals_the_row_loop_bit_for_bit():
    for chain, Q in _sparse_systems(120, seed=12):
        meas = RandomMarkovMeasure(initial=solve_consistent_initial(Q, chain)[0], transition=Q)
        assert fiber_entropy(meas, chain) == reference_fiber_entropy(meas, chain)


def test_stacked_additive_average_matches_the_symbol_loop():
    """Within 1e-15 of sum p(s) pi_s(a) |f(s, a)|: the one einsum adds the same terms in
    another order, so with mixed signs its error scales with the terms, not with the sum."""
    rng = np.random.default_rng(13)
    checked = 0
    for chain, Q in _sparse_systems(120, seed=13):
        S, A = Q.shape[:2]
        Q = np.tile(Q[0], (S, 1, 1))  # one row set under every base symbol: consistent pi exists
        meas = RandomMarkovMeasure(initial=solve_consistent_initial(Q, chain)[0], transition=Q)
        bundle = BundleSFT.from_matrices((Q > 0.0).astype(int))
        if not validate_measure(meas, chain, bundle).valid:
            continue
        pot = random_additive(rng, S, A)
        for n in (1, 3):
            p = chain.stationary
            ref = n * sum(float(p[s]) * float(np.dot(meas.initial[s], pot.table[s])) for s in range(S))
            scale = n * float(np.sum(p[:, None] * meas.initial * np.abs(pot.table)))
            assert abs(potential_average(meas, chain, bundle, pot, n) - ref) <= 1e-15 * scale
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 5])
def test_weighted_words_match_a_brute_force_enumeration_bit_for_bit(monkeypatch, joint_rows):
    """_weighted_words yields every (base word, fiber word) pair of positive weight at every
    depth 1..n of one walk, base words and then fiber words in lexicographic order, weighing
    p(u0) pi_u0(w0) prod T Q multiplied in that order, so rows, row order and weights match a
    brute-force enumeration exactly.
    S and A are drawn from {2, 3}; T, Q and the initials hold zeros; with 5 joint rows a chunk
    holds one or two base words."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(23)
    for _ in range(16):
        S, A, n = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 5))
        T = rng.uniform(0.1, 1.0, (S, S)) * (rng.random((S, S)) < 0.5)
        T[np.arange(S), (np.arange(S) + 1) % S] += 0.5  # a cycle and a self-loop: ergodic
        T[0, 0] += 0.5
        chain = BaseChain.from_transition(T / T.sum(axis=1, keepdims=True))
        Q = rng.uniform(0.1, 1.0, (S, A, A)) * (rng.random((S, A, A)) < 0.6)
        Q[np.arange(S)[:, None], np.arange(A), rng.integers(A, size=(S, A))] += 0.5
        pi = rng.uniform(0.1, 1.0, (S, A)) * (rng.random((S, A)) < 0.7)
        pi[:, 0] += 0.1
        meas = RandomMarkovMeasure(pi / pi.sum(axis=1, keepdims=True),
                                   Q / Q.sum(axis=2, keepdims=True))
        support = BundleSFT.from_matrices((meas.transition > 0.0).astype(int))
        p, T, Q = chain.stationary, chain.transition, meas.transition
        want = [[] for _ in range(n)]
        for d in range(1, n + 1):
            for u in itertools.product(range(S), repeat=d):
                for w in naive_fiber_words(support, u, d):
                    wgt = p[u[0]] * meas.initial[u[0], w[0]]
                    for k in range(1, d):
                        wgt = wgt * T[u[k - 1], u[k]] * Q[u[k - 1], w[k - 1], w[k]]
                    if wgt > 0.0:
                        want[d - 1].append((u, w, wgt))
        got = [[] for _ in range(n)]
        for i, X, (U, W) in measures._weighted_words(meas, chain, bundle_mod._word_columns,
                                                      range(1, n + 1), DEFAULT_BUDGET):
            got[i] += [(tuple(u), tuple(w), x) for u, w, x in zip(U.tolist(), W.tolist(),
                                                                  X.tolist())]
        assert got == want


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 5])
def test_one_walk_averages_equal_the_per_depth_reference(monkeypatch, joint_rows):
    """f_star_bracket takes a_1 .. a_N from one walk of the measure's cylinders, each row
    carrying the potential's own payload; reference_averages walks once per depth and reads
    eval_batch on the word columns.  S and A are drawn from {2, 3}; T, Q and the initials hold
    zeros; the potentials are cocycles of dimension 1 to 3 under both norms, an additive and a
    scaled_inverse one.  At the default cap every depth is one chunk and every value is
    bit-identical.  At 5 joint rows the walk cuts every depth where the last depth's nodes
    fall, so a_N and a lone potential_average stay bit-identical and the shallower sums,
    added in other chunks, agree within 1e-13."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(41)
    N, checked = 4, 0
    for i in range(8):
        chain, bundle, meas = sparse_measure_system(rng, valid=i % 2 == 1)
        S, A = meas.initial.shape
        for pot in sweep_potentials(rng, S, A):
            if pot.to_additive() is not None and validate_measure(meas, chain, bundle).valid:
                continue  # the closed form, not a walk
            got = f_star_bracket(meas, chain, bundle, pot, N).values
            want = reference_averages(meas, chain, pot, range(1, N + 1))
            assert got[-1] == want[-1]
            assert potential_average(meas, chain, bundle, pot, 2) == want[1]
            if joint_rows == 5:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            else:
                assert got == tuple(want)
            checked += 1
    assert checked == 52  # 12 additive cases on the 4 invariant measures take the closed form


def test_one_walk_per_measure_and_one_validation_per_verb(monkeypatch, tmp_path):
    """f_star_bracket and check_lemma34 walk a measure's cylinders once, vp_gap once per
    measure, and vp-check and lemmas validate each measure once."""
    walks, checks = [], []
    walk, validate = measures._joint_walk, measures.validate_measure

    def counted_walk(*args, **kwargs):
        walks.append(args[2])
        return walk(*args, **kwargs)

    def counted_validate(*args, **kwargs):
        checks.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(measures, "_joint_walk", counted_walk)
    monkeypatch.setattr(measures, "validate_measure", counted_validate)
    rng = np.random.default_rng(43)
    chain, bundle, meas = sparse_measure_system(rng, valid=True)
    pot = random_cocycle(rng, *meas.initial.shape)
    f_star_bracket(meas, chain, bundle, pot, 5)
    assert walks == [range(1, 6)] and checks == []
    check_lemma34(meas, chain, bundle, pot, 4, 2)
    assert walks[1:] == [[2, 4]] and checks == [1]
    walks.clear()
    checks.clear()
    vp_gap(chain, bundle, pot, [meas, meas], 2, 1, 3)
    assert walks == [range(1, 4)] * 2 and checks == [1, 1]
    for verb in ("vp-check", "lemmas"):
        checks.clear()
        assert cli.run("configs/golden_mean_vp.yaml", verb=verb, output_dir=str(tmp_path)) == 0
        assert checks == [1]


@pytest.mark.parametrize("call,message", [
    (lambda *system: potential_average(*system, n=0), "n must be >= 1"),
    (lambda *system: f_star_bracket(*system, N=0), "N must be >= 1"),
    (lambda *system: check_lemma34(*system, n=2, k=2), "need n > k >= 1"),
], ids=["average-n", "bracket-N", "lemma34-k"])
def test_measures_input_checks_name_the_fault(call, message):
    chain, bundle, pot = fix_a()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(uniform_measure(), chain, bundle, pot)
