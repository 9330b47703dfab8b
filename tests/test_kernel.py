"""Property tests for the partition-sum kernels against first-principles oracles.

The additive transfer DP, the batched non-additive (matrix-cocycle) kernel and
the batched measure-weighted averages are all checked against brute-force
enumeration of fiber words.
"""

import contextlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randpress import (
    AdditivePotential,
    BaseChain,
    BundleSFT,
    CocyclePotential,
    RandomMarkovMeasure,
    ScaledInverseNormPotential,
    SubadditivePotential,
    check_lemma34,
    check_power_lemma,
    empirical_measure_diagnostic,
    expected_log_sum,
    fiber_entropy,
    greedy_maximal_separated,
    log_partition_sum,
    lyapunov_spread,
    potential_average,
    solve_consistent_initial,
    validate_measure,
)
from randpress import bundle as bundle_module
from randpress import pressure
from randpress.base import DEFAULT_BUDGET, _sample_paths
from randpress.errors import BudgetExceeded, EmptyFiber, SingularMatrix

from fixtures import (
    entropy_cylinder_oracle,
    log_space_carry,
    log_space_partition,
    naive_fiber_words,
    pressure_at_t,
    random_additive,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_product,
    reference_sample_path,
    reference_value,
    separated_set_oracle,
    state_log_weights,
    transfer_count,
    word_probability,
)


@st.composite
def systems(draw, table_scale=5.0):
    """Random chain (S <= 3, zero transitions allowed), bundle (A <= 3), table, n and m.

    Word lengths n+m-1 go up to 7 where the brute-force oracles stay cheap.
    """
    S, A = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]),
                                     min_size=S * S, max_size=S * S))).reshape(S, S)
    # A cycle through every state and a self-loop at state 0 keep the chain
    # irreducible and aperiodic whichever transitions were drawn as zero.
    weights[np.arange(S), (np.arange(S) + 1) % S] += 1.0
    weights[0, 0] += 0.5
    chain = BaseChain.from_transition(weights / weights.sum(axis=1, keepdims=True))
    bits = np.array(draw(st.lists(st.booleans(), min_size=S * A * A, max_size=S * A * A)),
                    dtype=int).reshape(S, A, A)
    for s, a in zip(*np.nonzero(bits.sum(axis=2) == 0)):
        bits[s, a, a] = 1  # every fiber point must extend
    bundle = BundleSFT.from_matrices(bits)
    table = np.array(draw(st.lists(st.floats(-table_scale, table_scale),
                                   min_size=S * A, max_size=S * A))).reshape(S, A)
    max_len = max(L for L in range(1, 8) if (S * A) ** L <= 600 and A ** L <= 81)
    L = max_len - draw(st.integers(0, max_len - 1))  # lean towards the longest words
    n = draw(st.integers(1, L))
    return chain, bundle, AdditivePotential(table), n, L - n + 1


def base_words(chain, length):
    """Admissible base words with their cylinder probabilities, by brute force."""
    for u in itertools.product(range(chain.num_states), repeat=length):
        prob = word_probability(chain, u)
        if prob > 0.0:
            yield u, prob


def naive_log_z(bundle, potential, u, n, length):
    vals = [reference_value(potential, u, w, n) for w in naive_fiber_words(bundle, u, length)]
    peak = max(vals)
    return peak + math.log(sum(math.exp(v - peak) for v in vals))


@given(systems())
def test_exact_expected_log_sum_matches_oracles(system):
    chain, bundle, pot, n, m = system
    L = n + m - 1
    naive = oracle = 0.0
    for u, prob in base_words(chain, L):
        naive += prob * naive_log_z(bundle, pot, u, n, L)
        # One more coordinate makes the separation classes nontrivial; the
        # extra base symbol is never read.
        oracle += prob * separated_set_oracle(bundle, pot, u + (0,), n, m, L + 1)
    value = expected_log_sum(chain, bundle, pot, n, m).value
    assert value == pytest.approx(naive / n, abs=1e-11)
    assert value == pytest.approx(oracle / n, abs=1e-11)


@given(systems(), st.integers(0, 2 ** 16))
def test_monte_carlo_rows_match_per_word_partition_sums(system, seed):
    chain, bundle, pot, n, m = system
    L, samples = n + m - 1, 5
    est = expected_log_sum(chain, bundle, pot, n, m, mode="monte_carlo", samples=samples,
                           seed=seed)
    words = [reference_sample_path(chain, L, (seed, i)) for i in range(samples)]
    rows = np.array([log_partition_sum(bundle, pot, u, n, m) for u in words]) / n
    assert est.value == pytest.approx(float(np.mean(rows)), abs=1e-12)
    assert est.std_error == pytest.approx(float(np.std(rows, ddof=1) / math.sqrt(samples)),
                                          abs=1e-12)
    for u, row in zip(words, rows):
        assert row == pytest.approx(naive_log_z(bundle, pot, u, n, L) / n, abs=1e-11)


@given(systems(table_scale=1.0), st.lists(st.sampled_from([-800.0, 800.0]), min_size=9,
                                          max_size=9))
def test_large_potentials_match_mpmath(system, shifts):
    chain, bundle, pot, n, m = system
    S, A = pot.table.shape
    table = pot.table + np.array(shifts[: S * A]).reshape(S, A)
    pot = AdditivePotential(table)
    L = n + m - 1
    expected = mpmath.mpf(0)
    with mpmath.workdps(40):
        for u, prob in base_words(chain, L):
            z = mpmath.fsum(
                mpmath.exp(mpmath.fsum(mpmath.mpf(table[u[k], w[k]]) for k in range(n)))
                for w in naive_fiber_words(bundle, u, L)
            )
            assert abs(log_partition_sum(bundle, pot, u, n, m) - mpmath.log(z)) <= 1e-10
            expected += prob * mpmath.log(z)
        value = expected_log_sum(chain, bundle, pot, n, m).value
        assert abs(value - expected / n) <= 1e-10


@given(systems())
def test_fiber_word_rows_per_base_word_match_transfer_count(system):
    chain, bundle, _pot, n, m = system
    L = n + m - 1
    words = np.array([u for u, _ in base_words(chain, L)])
    walk = list(bundle_module._joint_walk(bundle.allowed, chain.prefix_tree(L), [L]))
    row = np.concatenate([nodes.start + node for _, nodes, node, _, _ in walk])
    assert np.array_equal(np.concatenate([u for *_, (u, _) in walk]), words[row])
    assert np.bincount(row, minlength=len(words)).tolist() == [
        transfer_count(bundle, u, L) for u in words.tolist()]


@given(systems())
def test_transfer_dp_split_at_any_level_equals_one_pass(system):
    """Carrying levels 0..j with the table and going on from that state to the last level is
    the one pass bit for bit, in every field of the state, also with a table wide enough to
    leave linear space before, at or after level j; with no table and no state the DP counts
    the fiber words."""
    chain, bundle, pot, n, m = system
    L = n + m - 1
    tree = chain.prefix_tree(L, DEFAULT_BUDGET)
    plan = pressure._Plan(bundle, tree)
    for table in (pot.table, 60.0 * pot.table):
        table = pressure._scaled_tables(table)(np.ones(1))
        whole = pressure._carry(plan, L, table=table)
        for j in range(L):
            head = pressure._carry(plan, j + 1, table=table)
            split = pressure._carry(plan, L, head, table)
            assert split.level == whole.level == L - 1
            assert np.array_equal(split.W, whole.W)
            assert (split.scale is None) == (whole.scale is None)
            assert whole.scale is None or np.array_equal(split.scale, whole.scale)
    counts = pressure._tree_log_partition(plan, L)
    assert counts == pytest.approx(
        [math.log(transfer_count(bundle, u, L)) for u in tree.words().tolist()], abs=1e-12)


# --- the linear-space transfer DP against the log-space reference --------------------

DP_SCALES = np.array([0.0, 0.5, 1.0, 2.0])


def _dp_system(seed, S, A, kind, L):
    """A chain with S states, a bundle on A symbols and a base-word prefix tree or sampled
    forest with words of length L."""
    rng = np.random.default_rng(seed)
    chain, bundle = random_chain(rng, S), random_bundle(rng, S, A)
    tree = (chain.prefix_tree(L, DEFAULT_BUDGET) if kind == "tree"
            else pressure._forest(_sample_paths(chain, L, seed, 40)))
    return rng, bundle, tree


@pytest.mark.parametrize("S, A", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("kind, L", [("tree", 8), ("forest", 80)])
def test_linear_dp_matches_the_log_space_reference(S, A, kind, L):
    """Prefix trees and sampled forests with S, A >= 2, a t axis and words up to 80 long: the
    linear state's log weights at depths 1, 2, L/2, L-1 and L and the log partition sums
    after the remaining levels equal the log-space loop to 1e-13 relative."""
    rng, bundle, tree = _dp_system(10 * S + A, S, A, kind, L)
    unit = rng.uniform(-1.0, 2.0, (S, A))
    table = DP_SCALES[:, None, None] * unit
    sym, par, plan = tree.symbol, tree.parent, pressure._Plan(bundle, tree)
    scaled = pressure._scaled_tables(unit)(DP_SCALES)
    for n in sorted({1, 2, L // 2, L - 1, L}):
        state = pressure._carry(plan, n, table=scaled)
        assert state.scale is not None and state.level == n - 1  # the linear path ran
        reference = log_space_carry(bundle, sym[:n], par[:n], table=table)
        assert np.array_equal(np.isfinite(state_log_weights(state)), np.isfinite(reference))
        finite = np.isfinite(reference) & (n > 1)  # level 0 holds the table itself
        np.testing.assert_allclose(state_log_weights(state)[finite], reference[finite],
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(
            pressure._tree_log_partition(plan, L, state),
            log_space_partition(bundle, sym[n - 1:], par[n - 1:], reference),
            rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spread", [1000.0, 40.0])
def test_a_wide_table_leaves_linear_space_and_matches_log_space_and_mpmath(spread):
    """A table with a 1,000-nat per-step spread runs in log space from level 0, and one
    with 40 nats leaves linear space partway down: both equal the log-space loop to 1e-12
    relative and mpmath's sums over every fiber word to 1e-10."""
    rng, bundle, tree = _dp_system(7, 2, 2, "forest", 24)
    table = np.array([-0.5, 0.5]) * spread + rng.uniform(-1.0, 1.0, (2, 2))  # each row spans it
    sym, par, plan = tree.symbol, tree.parent, pressure._Plan(bundle, tree)
    scaled = pressure._scaled_tables(table)(np.ones(1))
    state = pressure._carry(plan, 24, table=scaled)
    assert state.scale is None
    switch = int(pressure._LINEAR_NATS // pressure._level_nats(2, table))  # the first log level
    assert switch == (0 if spread > 600.0 else 14)
    if switch:
        assert pressure._carry(plan, switch, table=scaled).scale is not None
    vals = pressure._tree_log_partition(plan, 24, state)[0]
    np.testing.assert_allclose(vals, log_space_partition(bundle, sym, par, table=table),
                               rtol=1e-12, atol=0.0)
    short = pressure._tree_log_partition(plan, 8, pressure._carry(plan, 8, table=scaled))[0]
    with mpmath.workdps(40):
        for u, val in zip(tree.words(8).tolist(), short):
            z = mpmath.fsum(mpmath.exp(mpmath.fsum(mpmath.mpf(table[u[k], w[k]])
                                                   for k in range(8)))
                            for w in naive_fiber_words(bundle, u, 8))
            assert abs(val - mpmath.log(z)) <= 1e-10


@pytest.mark.parametrize("kind, L", [("tree", 8), ("forest", 60)])
def test_a_minus_inf_table_entry_is_an_exact_zero(kind, L):
    """A -inf entry weighs 0 and takes no part in the spread: the DP stays linear, its
    weights are -inf where the log-space loop's are and equal them elsewhere, and so do the
    partition sums; an all -inf table makes every sum 0, raised as EmptyFiber."""
    rng, bundle, tree = _dp_system(3, 2, 3, kind, L)
    table = rng.uniform(-1.0, 1.0, (2, 3))
    table[0, 1] = table[1, 2] = -np.inf
    sym, par, plan = tree.symbol, tree.parent, pressure._Plan(bundle, tree)
    state = pressure._carry(plan, L, table=pressure._scaled_tables(table)(np.ones(1)))
    assert state.scale is not None
    reference = log_space_carry(bundle, sym, par, table=table)
    weights = state_log_weights(state)[0]
    assert np.array_equal(weights == -np.inf, reference == -np.inf)
    np.testing.assert_allclose(weights[reference > -np.inf], reference[reference > -np.inf],
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(pressure._tree_log_partition(plan, L, state)[0],
                               log_space_partition(bundle, sym, par, table=table),
                               rtol=1e-13, atol=0.0)
    table[:, :] = -np.inf
    with pytest.raises(EmptyFiber):
        pressure._tree_log_partition(plan, L, pressure._carry(
            plan, L, table=pressure._scaled_tables(table)(np.ones(1))))


# --- the batched non-additive kernel -------------------------------------------------

_GENERATOR = st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4).filter(
    lambda v: abs(v[0] * v[3] - v[1] * v[2]) >= 0.5)


@st.composite
def cocycle_systems(draw):
    """A systems() draw with its table replaced by 2x2 generators (|det| >= 0.5).

    Returns the chain, bundle, n, m and three potentials on the generators:
    the cocycle in both norms and the scaled inverse norm.
    """
    chain, bundle, pot, n, m = draw(systems())
    S, A = pot.table.shape
    B = np.array([draw(_GENERATOR) for _ in range(S * A)]).reshape(S, A, 2, 2)
    spectral = CocyclePotential(B, norm_kind="spectral")
    row_sum = CocyclePotential(B, norm_kind="max_row_sum")
    inverse = ScaledInverseNormPotential(draw(st.sampled_from([spectral, row_sum])),
                                         draw(st.floats(0.1, 2.0)))
    return chain, bundle, n, m, (spectral, row_sum, inverse)


@given(cocycle_systems())
def test_exact_cocycle_expected_log_sum_matches_brute_force(system):
    chain, bundle, n, m, pots = system
    L = n + m - 1
    for pot in pots:
        naive = sum(prob * naive_log_z(bundle, pot, u, n, L) for u, prob in base_words(chain, L))
        assert expected_log_sum(chain, bundle, pot, n, m).value == pytest.approx(naive / n,
                                                                                abs=1e-10)


@given(cocycle_systems(), st.integers(0, 2 ** 16))
def test_monte_carlo_cocycle_rows_match_per_word_partition_sums(system, seed):
    chain, bundle, n, m, pots = system
    L, samples = n + m - 1, 4
    words = [reference_sample_path(chain, L, (seed, i)) for i in range(samples)]
    for pot in pots:
        est = expected_log_sum(chain, bundle, pot, n, m, mode="monte_carlo", samples=samples,
                               seed=seed)
        rows = np.array([log_partition_sum(bundle, pot, u, n, m) for u in words]) / n
        assert est.value == pytest.approx(float(np.mean(rows)), abs=1e-12)
        assert est.std_error == pytest.approx(float(np.std(rows, ddof=1) / math.sqrt(samples)),
                                              abs=1e-12)
        for u, row in zip(words, rows):
            assert row == pytest.approx(naive_log_z(bundle, pot, u, n, L) / n, abs=1e-10)


def naive_lower_log_z(bundle, potential, u, n, length):
    """log Z(n-1) over the first length-1 symbols of u; f_0 = 0, so depth 0 counts words."""
    if length == 1:
        return 0.0
    if n == 1:
        return math.log(transfer_count(bundle, u, length - 1))
    return naive_log_z(bundle, potential, u[:length - 1], n - 1, length - 1)


@given(cocycle_systems(), st.floats(0.1, 2.0), st.integers(0, 2 ** 16))
def test_pressure_at_t_matches_brute_force_increments(system, t, seed):
    """Exact: E[log Z(n) - log Z(n-1)] by brute force; Monte Carlo: the per-word increments."""
    chain, bundle, n, m, pots = system
    scalar = CocyclePotential(np.abs(pots[0].matrices[:, :, :1, :1]) + 0.5)
    samples = 4
    for cocycle in (scalar, pots[0], pots[1]):
        pot = ScaledInverseNormPotential(cocycle, t)
        for depth, res in dict.fromkeys([(n, m), (1, 1), (1, 2)]):
            L = depth + res - 1
            expect = sum(prob * (naive_log_z(bundle, pot, u, depth, L)
                                 - naive_lower_log_z(bundle, pot, u, depth, L))
                         for u, prob in base_words(chain, L))
            got = pressure_at_t(chain, bundle, cocycle, t, depth, res).value
            assert got == pytest.approx(expect, abs=1e-10)
            words = [reference_sample_path(chain, L, (seed, i)) for i in range(samples)]
            rows = np.array([log_partition_sum(bundle, pot, u, depth, res) - (
                log_partition_sum(bundle, pot, u, depth - 1, res) if depth > 1
                else naive_lower_log_z(bundle, pot, u, depth, L))
                for u in words])
            est = pressure_at_t(chain, bundle, cocycle, t, depth, res, mode="monte_carlo",
                                samples=samples, seed=seed)
            assert est.value == pytest.approx(float(np.mean(rows)), abs=1e-12)
            assert est.std_error == pytest.approx(
                float(np.std(rows, ddof=1) / math.sqrt(samples)), abs=1e-12)


@given(cocycle_systems())
def test_eval_batch_equals_the_per_word_reference(system):
    """eval_batch on stacked rows against a Python-loop product and numpy's matrix norms."""
    chain, bundle, n, m, pots = system
    L = n + m - 1
    rows = [(u, w) for u, _ in base_words(chain, L) for w in naive_fiber_words(bundle, u, L)]
    base_arr = np.array([u for u, _ in rows])
    fiber_arr = np.array([w for _, w in rows])
    table = AdditivePotential(np.arange(bundle.allowed.shape[0] * bundle.num_symbols,
                                        dtype=float).reshape(-1, bundle.num_symbols))
    for pot in (*pots, table):
        batch = pot.eval_batch(base_arr, fiber_arr, n)
        assert batch.shape == (len(rows),)
        np.testing.assert_allclose(batch, [reference_value(pot, u, w, n) for u, w in rows],
                                   rtol=0, atol=1e-12)


def test_singular_generator_raises_through_batched_path():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    bundle = BundleSFT.from_matrices(np.ones((2, 2, 2), dtype=int))
    B = np.tile(2.0 * np.eye(2), (2, 2, 1, 1))
    B[1, 0] = 0.0  # every product through this generator is the zero matrix
    for kind in ("spectral", "max_row_sum"):
        pot = ScaledInverseNormPotential(CocyclePotential(B, norm_kind=kind), 0.5)
        for n, m in ((1, 1), (3, 2)):
            with pytest.raises(SingularMatrix):
                expected_log_sum(chain, bundle, pot, n, m)
            with pytest.raises(SingularMatrix):
                expected_log_sum(chain, bundle, pot, n, m, mode="monte_carlo", samples=20)
            with pytest.raises(SingularMatrix):  # the lemmas greedy path, at scale 1
                log_partition_sum(bundle, pot, [1] * (n + m - 1), n, m)


@pytest.mark.parametrize("S,A", [(2, 3), (3, 2), (2, 2)])
@pytest.mark.parametrize("budget", [8, 9, 27, 64])
def test_budget_exceeded_at_the_same_sizes(S, A, budget):
    """Exact mode checks S^L, then A^L; Monte Carlo draws its words and checks only A^L."""
    chain = BaseChain.from_transition(np.full((S, S), 1.0 / S))
    bundle = BundleSFT.from_matrices(np.ones((S, A, A), dtype=int))
    pot = CocyclePotential(np.tile(np.array([[2.0, 1.0], [0.0, 1.0]]), (S, A, 1, 1)))
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        L = n + m - 1
        fiber = f"{A}\\^{L} fiber words exceed budget {budget}" if A ** L > budget else None
        base = f"{S}\\^{L} base words exceed budget {budget}" if S ** L > budget else None
        for mode, message in (("exact", base or fiber), ("monte_carlo", fiber)):
            with (pytest.raises(BudgetExceeded, match=message) if message
                  else contextlib.nullcontext()):
                expected_log_sum(chain, bundle, pot, n, m, mode=mode, samples=3, budget=budget)


def test_power_lemma_checks_the_fiber_budget_before_building_base_words():
    """A power-lemma cell over both budgets names the fiber words: it stops before the
    S^L base words are enumerated, so lemmas skips it at no cost."""
    chain = BaseChain.from_transition(np.full((7, 7), 1.0 / 7))
    bundle = BundleSFT.from_matrices(np.ones((7, 8, 8), dtype=int))
    pot = CocyclePotential(np.tile(np.array([[2.0, 1.0], [0.0, 1.0]]), (7, 8, 1, 1)))
    with pytest.raises(BudgetExceeded, match=r"8\^3 fiber words exceed budget 100"):
        check_power_lemma(chain, bundle, pot, 1, 3, 1, budget=100)


@pytest.mark.parametrize("S,A", [(1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("budget", [8, 9, 27, 100])
def test_measure_sums_stop_at_the_budget_of_exact_pressure(S, A, budget):
    """potential_average, check_lemma34 and lyapunov_spread check S^n, then A^n, as exact mode does."""
    chain = BaseChain.from_transition(np.full((S, S), 1.0 / S))
    bundle = BundleSFT.from_matrices(np.ones((S, A, A), dtype=int))
    cocycle = CocyclePotential(np.tile(np.array([[2.0, 1.0], [0.0, 1.0]]), (S, A, 1, 1)))
    meas = RandomMarkovMeasure(np.full((S, A), 1.0 / A), np.full((S, A, A), 1.0 / A))
    for n in range(1, 7):
        fiber = f"{A}\\^{n} fiber words exceed budget {budget}" if A ** n > budget else None
        base = f"{S}\\^{n} base words exceed budget {budget}" if S ** n > budget else None
        calls = [lambda: expected_log_sum(chain, bundle, cocycle, n, 1, budget=budget),
                 lambda: potential_average(meas, chain, bundle, cocycle, n, budget=budget),
                 lambda: lyapunov_spread(chain, bundle, cocycle, meas, n, budget=budget)]
        if n > 1:
            calls.append(lambda: check_lemma34(meas, chain, bundle, cocycle, n, 1, budget=budget))
        for call in calls:
            with (pytest.raises(BudgetExceeded, match=base or fiber) if base or fiber
                  else contextlib.nullcontext()):
                call()


@contextlib.contextmanager
def joint_rows(cap):
    """Cap the joint rows per chunk of the joint walk (at least one base word each)."""
    saved, bundle_module._JOINT_ROWS = bundle_module._JOINT_ROWS, cap
    try:
        yield
    finally:
        bundle_module._JOINT_ROWS = saved


def test_scale_one_sum_reduces_each_chunk_as_it_arrives():
    """At scale 1 the joint walk is reduced chunk by chunk, so no chunk is kept past its
    reduce and a SingularMatrix ends the walk at the first chunk that raises it."""

    class Counting:
        def __init__(self, pot):
            self.pot, self.calls = pot, 0

        def to_additive(self):
            return None

        def eval_batch(self, base, fibers, n):
            self.calls += 1
            return self.pot.eval_batch(base, fibers, n)

    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    bundle = BundleSFT.from_matrices(np.ones((2, 2, 2), dtype=int))
    singular = Counting(ScaledInverseNormPotential(CocyclePotential(np.zeros((2, 2, 2, 2))), 1.0))
    with joint_rows(8):  # 16 base words of length 4, one per chunk
        walk = bundle_module._joint_walk(bundle.allowed, chain.prefix_tree(4), [4])
        assert len(list(walk)) == 16
        with pytest.raises(SingularMatrix):
            expected_log_sum(chain, bundle, singular, 4, 1)
    assert singular.calls == 1


@given(cocycle_systems(), st.integers(1, 9))
def test_chunked_joint_arrays_give_the_same_values(system, rows):
    """Capping the joint rows per chunk changes no value of a per-base-word reduction."""
    chain, bundle, n, m, pots = system
    L = n + m - 1
    powers = [(1, n, m)] + ([(2, n // 2, m)] if n >= 2 else [])
    words = chain.prefix_tree(L).words()[:4].tolist()

    def values():
        out = []
        for pot in pots:
            marginal, defect = empirical_measure_diagnostic(chain, bundle, pot, n, m)
            out += [expected_log_sum(chain, bundle, pot, n, m).value, marginal.tolist(), defect]
            out += [check_power_lemma(chain, bundle, pot, k, j, res) for k, j, res in powers]
            out += [greedy_maximal_separated(bundle, pot, u, n, 1, m) for u in words]
        return out

    whole = values()
    with joint_rows(rows):
        chunked = values()
    assert chunked == whole


class RowCount(SubadditivePotential):
    """A plug-in potential with eval_batch alone that records the rows of each call."""

    def __init__(self, inner):
        self.inner, self.rows = inner, []

    def eval_batch(self, base_arr, fiber_arr, n):
        self.rows.append(len(base_arr))
        return self.inner.eval_batch(base_arr, fiber_arr, n)


@pytest.mark.parametrize("cap,k,n,m", [(None, 1, 9, 1), (None, 3, 2, 3), (7, 2, 2, 1),
                                       (100, 1, 4, 2)])
def test_power_lemma_eval_batch_calls_stay_within_the_chunk_cap(cap, k, n, m):
    """Every eval_batch call of check_power_lemma takes at most max(cap, A^L) joint rows.

    On S = A = 2 full shifts every one of the 2^L base words carries 2^L fiber
    words; at k = 1, n = 9 that is 2^18 rows, four times the default cap.
    """
    chain = BaseChain.from_transition(np.full((2, 2), 0.5))
    bundle = BundleSFT.from_matrices(np.ones((2, 2, 2), dtype=int))
    pot = RowCount(CocyclePotential(np.tile(np.array([[2.0, 1.0], [0.5, 1.0]]), (2, 2, 1, 1)),
                                    norm_kind="max_row_sum"))
    L = k * n + m - 1
    slack = check_power_lemma(chain, bundle, pot.inner, k, n, m)
    with contextlib.nullcontext() if cap is None else joint_rows(cap):
        assert check_power_lemma(chain, bundle, pot, k, n, m) == slack
        bound = max(bundle_module._JOINT_ROWS, 2 ** L)
    assert sum(pot.rows) == 4 ** L
    assert max(pot.rows) <= bound


# --- measure-weighted averages ----------------------------------------------------------

def _rows_with_a_positive_entry(weights, fallback):
    """Normalized rows; an all-zero row takes the fallback row's pattern instead."""
    weights = np.where(weights.sum(axis=-1, keepdims=True) > 0.0, weights, fallback)
    return weights / weights.sum(axis=-1, keepdims=True)


@st.composite
def measure_systems(draw):
    """A cocycle_systems() draw with an additive potential and three random measures.

    `valid` mixes the A x A permutation matrices with drawn weights (some 0),
    so every Q_s is doubly stochastic and the uniform initial row satisfies
    pi_s Q_s = pi_{s'} on every base transition; the bundle is widened to the
    support of these Q_s so that the measure lies inside it.  `free` has
    drawn initial rows and drawn transition rows inside allowed, with zeros
    inside allowed, and need not be invariant.  `stationary` keeps free's
    transition rows and takes solve_consistent_initial's pi: its joint law is
    stationary, though pi_s Q_s = pi_{s'} need not hold edge by edge.
    """
    chain, bundle, n, m, pots = draw(cocycle_systems())
    S, A = bundle.allowed.shape[:2]
    perms = np.array([np.eye(A)[list(p)] for p in itertools.permutations(range(A))])
    mix = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=S * len(perms),
                                 max_size=S * len(perms)))).reshape(S, len(perms))
    mix = _rows_with_a_positive_entry(mix, np.eye(len(perms))[0])
    Q = np.einsum("sp,pab->sab", mix, perms)
    bundle = BundleSFT.from_matrices(bundle.allowed | (Q > 0.0))
    valid = RandomMarkovMeasure(initial=np.full((S, A), 1.0 / A), transition=Q)
    assert validate_measure(valid, chain, bundle).valid
    cells = st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5])
    q = np.array(draw(st.lists(cells, min_size=S * A * A, max_size=S * A * A))).reshape(S, A, A)
    q = _rows_with_a_positive_entry(q * bundle.allowed, bundle.allowed)
    pi = np.array(draw(st.lists(cells, min_size=S * A, max_size=S * A))).reshape(S, A)
    free = RandomMarkovMeasure(initial=_rows_with_a_positive_entry(pi, np.ones(A)), transition=q)
    stationary = RandomMarkovMeasure(initial=solve_consistent_initial(q, chain)[0], transition=q)
    assert validate_measure(stationary, chain, bundle).valid
    additive = AdditivePotential(pots[0].matrices[:, :, 0, 0])
    return chain, bundle, n, m, (*pots, additive), (valid, free, stationary)


def naive_cylinders(chain, lead, Q, n):
    """(u, w, weight) over all length-n words with lead[u0, w0] * prod T * prod Q > 0."""
    S, A = lead.shape
    for u in itertools.product(range(S), repeat=n):
        for w in itertools.product(range(A), repeat=n):
            wgt = lead[u[0], w[0]]
            for k in range(1, n):
                wgt *= chain.transition[u[k - 1], u[k]] * Q[u[k - 1], w[k - 1], w[k]]
            if wgt > 0.0:
                yield u, w, wgt


def naive_average(chain, meas, pot, n, lead=None):
    lead = chain.stationary[:, None] * meas.initial if lead is None else lead
    return sum(wgt * reference_value(pot, u, w, n)
               for u, w, wgt in naive_cylinders(chain, lead, meas.transition, n))


def naive_joint_laws(chain, meas, count):
    """Laws of the (base symbol, fiber symbol) pair at times 0 .. count-1, pushed one pair at a time."""
    S, A = meas.initial.shape
    D = chain.stationary[:, None] * meas.initial
    laws = []
    for _ in range(count):
        laws.append(D)
        nxt = np.zeros((S, A))
        for s, a, s2, b in itertools.product(range(S), range(A), range(S), range(A)):
            nxt[s2, b] += D[s, a] * chain.transition[s, s2] * meas.transition[s, a, b]
        D = nxt
    return laws


def check_potential_average(chain, bundle, n, m, pots, measures):
    for meas in measures:
        for pot in pots:
            assert potential_average(meas, chain, bundle, pot, n) == pytest.approx(
                naive_average(chain, meas, pot, n), abs=1e-10)


def check_lemma34_windows(chain, bundle, n, m, pots, measures):
    """The whole Lemma 3.4 slack against the brute-force sum of the time-i windows of f_k.

    check_lemma34 takes that sum as n a_k, which holds because the measure
    is invariant: every time-i joint law equals the time-0 one.
    """
    L = n + m - 1
    if L > n:
        for meas in measures:
            laws = naive_joint_laws(chain, meas, L)
            for pot in pots:
                C = sum(chain.stationary[s] * max(abs(reference_value(pot, (s,), (a,), 1))
                                                   for a in range(bundle.num_symbols))
                        for s in range(chain.num_states))
                window = sum(naive_average(chain, meas, pot, n, lead=D) for D in laws)
                expect = 4.0 * n * n * C + window - n * naive_average(chain, meas, pot, L)
                assert check_lemma34(meas, chain, bundle, pot, L, n) == pytest.approx(
                    expect, abs=1e-10)


def check_lyapunov_spread(chain, bundle, n, m, pots, measures):
    for meas in measures:
        lead = chain.stationary[:, None] * meas.initial
        for cocycle, order in zip(pots[:2], (2, np.inf)):
            top = bottom = 0.0
            for u, w, wgt in naive_cylinders(chain, lead, meas.transition, n):
                P = reference_product(cocycle, u, w, n)
                top += wgt * math.log(np.linalg.norm(P, order))
                bottom -= wgt * math.log(np.linalg.norm(np.linalg.inv(P), order))
            got = lyapunov_spread(chain, bundle, cocycle, meas, n)
            np.testing.assert_allclose(got, (top / n, bottom / n, (top - bottom) / n), rtol=0,
                                       atol=1e-10)


def check_fiber_entropy(chain, bundle, n, m, pots, measures):
    """On an invariant measure n H_n - (n-1) H_{n-1} of the cylinder oracle is the closed form."""
    L = max(n + m - 1, 2)
    for meas in measures:
        H = [k * entropy_cylinder_oracle(meas, chain, bundle, k) for k in (L - 1, L)]
        assert fiber_entropy(meas, chain) == pytest.approx(H[1] - H[0], abs=1e-10)


@given(measure_systems())
def test_potential_average_matches_brute_force(system):
    check_potential_average(*system)


@given(measure_systems())
def test_lemma34_slack_matches_time_i_windows(system):
    *head, (valid, _free, stationary) = system
    check_lemma34_windows(*head, (valid, stationary))


@given(measure_systems())
def test_lyapunov_spread_matches_brute_force(system):
    *head, (valid, _free, stationary) = system
    check_lyapunov_spread(*head, (valid, stationary))


@given(measure_systems())
def test_fiber_entropy_is_the_cylinder_entropy_increment(system):
    *head, (valid, _free, stationary) = system
    check_fiber_entropy(*head, (valid, stationary))


def joint_rule_only_systems(count):
    """Seeded systems (S, A in 2..3, n = m = 2) whose one measure passes joint stationarity only.

    The chain is positive, each Q_s is drawn inside allowed (zeros included)
    and pi is solve_consistent_initial's.  Every kept measure misses
    pi_s Q_s = pi_{s'} by more than 1e-3 on some base transition.
    """
    rng = np.random.default_rng(1)
    out = []
    while len(out) < count:
        S, A = (int(x) for x in rng.integers(2, 4, size=2))
        T = rng.uniform(0.1, 1.0, (S, S))
        chain = BaseChain.from_transition(T / T.sum(axis=1, keepdims=True))
        allowed = rng.random((S, A, A)) < 0.7
        allowed[np.arange(S)[:, None], np.arange(A), rng.integers(A, size=(S, A))] = True
        Q = allowed * rng.uniform(0.1, 1.0, (S, A, A))
        Q /= Q.sum(axis=2, keepdims=True)
        pi = solve_consistent_initial(Q, chain)[0]
        if np.max(np.abs(np.einsum("sa,sab->sb", pi, Q)[:, None] - pi[None])) <= 1e-3:
            continue
        spectral = random_cocycle(rng, S, A)
        pots = (spectral, CocyclePotential(spectral.matrices, norm_kind="max_row_sum"),
                ScaledInverseNormPotential(spectral, 0.7), random_additive(rng, S, A))
        out.append((chain, BundleSFT.from_matrices(allowed.astype(int)), 2, 2, pots,
                    (RandomMarkovMeasure(initial=pi, transition=Q),)))
    return out


def test_measures_only_joint_stationarity_admits_match_brute_force():
    """The measure sums, Lemma 3.4 windows, Lyapunov spread and entropy on such measures."""
    for system in joint_rule_only_systems(12):
        chain, bundle, *_rest, (meas,) = system
        assert validate_measure(meas, chain, bundle).valid
        for check in (check_potential_average, check_lemma34_windows, check_lyapunov_spread,
                      check_fiber_entropy):
            check(*system)


@given(measure_systems())
def test_empirical_measure_diagnostic_matches_brute_force(system):
    chain, bundle, n, m, pots, _measures = system
    L, hi = n + m - 1, min(n, n + m - 2)
    S, A = chain.num_states, bundle.num_symbols
    for pot in pots:
        marginal, lead, lag = np.zeros((S, A)), np.zeros((S, A)), np.zeros((S, A))
        for u, prob in base_words(chain, L):
            fibers = naive_fiber_words(bundle, u, L)
            log_z = naive_log_z(bundle, pot, u, n, L)
            for w in fibers:
                p = prob * math.exp(reference_value(pot, u, w, n) - log_z)
                for i in range(n):
                    marginal[u[i], w[i]] += p / n
                for i in range(hi):
                    lead[u[i], w[i]] += p / hi
                    lag[u[i + 1], w[i + 1]] += p / hi
        got, defect = empirical_measure_diagnostic(chain, bundle, pot, n, m)
        np.testing.assert_allclose(got, marginal, rtol=0, atol=1e-10)
        assert defect == pytest.approx(float(np.abs(lead - lag).sum()), abs=1e-10)


@given(measure_systems(), st.integers(1, 9))
def test_chunked_measure_sums_give_the_same_values(system, rows):
    """Capping the joint rows per chunk changes the measure sums only in the last bits.

    Each chunk is summed with one dot product, so a cap moves the boundaries
    of the floating-point sum.
    """
    chain, bundle, n, m, pots, (valid, free, _stationary) = system

    def values():
        return [potential_average(free, chain, bundle, pots[2], n),
                *lyapunov_spread(chain, bundle, pots[1], valid, n)]

    whole = values()
    with joint_rows(rows):
        chunked = values()
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


def test_singular_generator_at_zero_weight_gives_no_nan():
    """Fiber symbol 1 is allowed but has zero measure, and its generator is the zero matrix.

    Its f value is -inf (or a singular inverse); dropping the zero-weight
    words first keeps every average finite and exact.  The scalar twin (2 under
    state 0, 3 under state 1) takes the additive closed form, whose table is -inf
    on symbol 1: a_n = 0.5 n log 6, not 0 * -inf = NaN.  Its inverse family has no
    additive form and runs on the joint words, as the 2x2 twin's does: at t = 0 both
    weigh every fiber word 1 (pressure log 2), and at t > 0 both raise SingularMatrix.
    """
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    bundle = BundleSFT.from_matrices(np.ones((2, 2, 2), dtype=int))
    Q = np.tile(np.array([[1.0, 0.0], [1.0, 0.0]]), (2, 1, 1))  # zeros inside allowed
    meas = RandomMarkovMeasure(initial=np.tile([1.0, 0.0], (2, 1)), transition=Q)
    assert validate_measure(meas, chain, bundle).valid
    log2 = math.log(2.0)
    matrix = np.tile(np.diag([2.0, 0.5]), (2, 2, 1, 1))
    scalar = np.array([[2.0, 1.0], [3.0, 1.0]]).reshape(2, 2, 1, 1)
    half_log6 = 0.5 * math.log(6.0)
    at_zero = []
    for B, top, bottom in ((matrix, log2, -log2), (scalar, half_log6, half_log6)):
        B[:, 1] = 0.0
        for kind in ("spectral", "max_row_sum"):
            cocycle = CocyclePotential(B, norm_kind=kind)
            inverse = ScaledInverseNormPotential(cocycle, 0.5)
            for n in (1, 2, 4):
                assert potential_average(meas, chain, bundle, cocycle, n) == pytest.approx(n * top)
                assert potential_average(meas, chain, bundle, inverse, n) == pytest.approx(
                    -0.5 * n * bottom)
                np.testing.assert_allclose(lyapunov_spread(chain, bundle, cocycle, meas, n),
                                           (top, bottom, top - bottom), atol=1e-15)
            # ||f_1|| is +inf here (log 0 on the unreachable symbol), so the slack is +inf, not NaN.
            assert check_lemma34(meas, chain, bundle, cocycle, n=3, k=2) == math.inf
            at_zero.append(pressure_at_t(chain, bundle, cocycle, 0.0, n=3, m=2).value)
            with pytest.raises(SingularMatrix):
                pressure_at_t(chain, bundle, cocycle, 0.5, n=3, m=2)
    assert len(set(at_zero)) == 1 and at_zero[0] == pytest.approx(log2)
