import bisect
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from randpress import AdditivePotential, BaseChain, expected_log_sum, stationary_distribution
from randpress import base
from randpress.base import _choice_cdf, _column_walk, _sample_paths, _seed_states
from randpress.errors import BudgetExceeded, NonErgodicChain

from fixtures import (
    enumerate_base_words,
    full_shift_bundle,
    is_admissible,
    reference_sample_path,
    word_probability,
)


def test_stationary_single_state():
    assert np.allclose(stationary_distribution(np.array([[1.0]])), [1.0])


def test_stationary_symmetric():
    p = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(p, [0.5, 0.5])


def test_stationary_two_state_closed_form():
    T = np.array([[0.9, 0.1], [0.2, 0.8]])
    p = stationary_distribution(T)
    assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)
    assert np.max(np.abs(p @ T - p)) <= 1e-12


def test_stationary_ten_states_is_the_left_eigenvector():
    rng = np.random.default_rng(20)
    T = rng.uniform(0.0, 1.0, (10, 10)) * (rng.random((10, 10)) < 0.6)
    T[np.arange(10), (np.arange(10) + 1) % 10] += 0.5  # a cycle keeps it irreducible
    T[0, 0] += 0.5  # and a self-loop aperiodic
    T /= T.sum(axis=1, keepdims=True)
    vals, vecs = np.linalg.eig(T.T)
    left = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    np.testing.assert_allclose(stationary_distribution(T), left / left.sum(), rtol=0, atol=1e-12)


def test_stationary_rejects_reducible():
    with pytest.raises(NonErgodicChain, match="positive-transition graph is not strongly connected"):
        stationary_distribution(np.eye(2))


def test_stationary_rejects_periodic():
    with pytest.raises(NonErgodicChain, match="positive-transition graph is periodic"):
        stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_stationary_accepts_the_wielandt_chain():
    """A 6-cycle plus the chord 5 -> 1: primitive, first positive power the 26th."""
    T = np.zeros((6, 6))
    T[np.arange(5), np.arange(1, 6)] = 1.0
    T[5, 0] = T[5, 1] = 0.5
    adj = (T > 0.0).astype(int)
    assert not np.linalg.matrix_power(adj, 25).all()
    assert np.linalg.matrix_power(adj, 26).all()
    p = stationary_distribution(T)
    np.testing.assert_allclose(p @ T, p, atol=1e-12)


def test_stationary_rejects_period_three():
    T = np.zeros((6, 6))
    for c in range(3):  # every state of class c steps to both states of class c + 1
        T[2 * c:2 * c + 2, (2 * c + 2) % 6:(2 * c + 2) % 6 + 2] = 0.5
    with pytest.raises(NonErgodicChain, match="periodic"):
        stationary_distribution(T)


def test_stationary_rejects_an_absorbing_state():
    T = np.array([[0.5, 0.5, 0.0], [0.4, 0.1, 0.5], [0.0, 0.0, 1.0]])
    with pytest.raises(NonErgodicChain, match="not strongly connected"):
        stationary_distribution(T)


def test_stationary_rejects_non_stochastic():
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_enumerate_single_state():
    chain = BaseChain.from_transition([[1.0]])
    words = enumerate_base_words(chain, 5)
    assert len(words) == 1
    assert words[0].probability == pytest.approx(1.0)


def test_enumerate_bernoulli_pairs():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    words = enumerate_base_words(chain, 2)
    assert len(words) == 4
    assert all(w.probability == pytest.approx(0.25) for w in words)


def test_enumerate_markov_cylinder_probability():
    chain = BaseChain.from_transition([[0.9, 0.1], [0.2, 0.8]])
    words = {w.symbols: w.probability for w in enumerate_base_words(chain, 2)}
    assert words[(0, 1)] == pytest.approx(1 / 15, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_enumerate_probabilities_sum_to_one(n):
    chain = BaseChain.from_transition([[0.7, 0.3], [0.4, 0.6]])
    total = sum(w.probability for w in enumerate_base_words(chain, n))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_enumerate_shift_consistency():
    chain = BaseChain.from_transition([[0.7, 0.3], [0.4, 0.6]])
    n = 4
    longer = enumerate_base_words(chain, n + 1)
    marginal = {}
    for w in longer:
        key = w.symbols[:n]
        marginal[key] = marginal.get(key, 0.0) + w.probability
    for w in enumerate_base_words(chain, n):
        assert marginal[w.symbols] == pytest.approx(w.probability, abs=1e-12)


def test_enumerate_budget():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(BudgetExceeded):
        enumerate_base_words(chain, 30, budget=1000)


def test_sample_path_deterministic():
    chain = BaseChain.from_transition([[0.7, 0.3], [0.4, 0.6]])
    a = _sample_paths(chain, 20, 42, 1)
    b = _sample_paths(chain, 20, 42, 1)
    assert np.array_equal(a, b)
    assert is_admissible(chain, a[0].tolist())


def test_sample_path_single_state():
    chain = BaseChain.from_transition([[1.0]])
    assert _sample_paths(chain, 6, 0, 1).tolist() == [[0] * 6]


def test_sample_path_frequencies():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    for seed in range(10):
        word = _sample_paths(chain, 10_000, seed, 1)[0]
        freq = np.count_nonzero(word == 0) / 10_000
        assert abs(freq - 0.5) <= 0.02


@st.composite
def chains(draw):
    """Random ergodic chain with up to 4 states; zero transitions allowed."""
    S = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5]),
                                     min_size=S * S, max_size=S * S))).reshape(S, S)
    # A cycle through every state and a self-loop at state 0 keep the chain
    # irreducible and aperiodic whichever transitions were drawn as zero.
    weights[np.arange(S), (np.arange(S) + 1) % S] += 1.0
    weights[0, 0] += 0.5
    return BaseChain.from_transition(weights / weights.sum(axis=1, keepdims=True))


ONE_STATE = BaseChain.from_transition([[1.0]])
ZERO_TRANSITIONS = BaseChain.from_transition([[0.0, 1.0, 0.0], [0.2, 0.3, 0.5], [0.6, 0.0, 0.4]])


@given(chains(), st.integers(1, 40), st.integers(1, 12), st.integers(0, 2 ** 32))
@example(ONE_STATE, 1, 1, 3)
@example(ONE_STATE, 9, 4, 3)
@example(ZERO_TRANSITIONS, 1, 7, 3)
@example(ZERO_TRANSITIONS, 9, 1, 3)
@example(ZERO_TRANSITIONS, 5, 3, 2 ** 32)
@example(ZERO_TRANSITIONS, 5, 3, 2 ** 64 - 1)
@example(ZERO_TRANSITIONS, 5, 3, 2 ** 64)
@example(ZERO_TRANSITIONS, 5, 3, 2 ** 100 + 7)
def test_sample_paths_match_the_choice_loop(chain, L, samples, seed):
    paths = _sample_paths(chain, L, seed, samples)
    assert paths.shape == (samples, L) and paths.dtype == np.int64
    for i in range(samples):
        assert tuple(paths[i].tolist()) == reference_sample_path(chain, L, (seed, i))


@pytest.mark.parametrize("S", [1, 2, 3])
@pytest.mark.parametrize("cells", [base._WALK_CELLS, 1])
def test_column_walk_draws_every_symbol_by_bisection_of_its_cdf_row(monkeypatch, S, cells):
    """Each symbol of a walk is bisect_right of its uniform in the cdf row of the symbol before
    (in cdf0 at symbol 0), over seeds, with zero-probability transitions and initial states and
    uniforms equal to cdf entries; with one count per block, every column is its own block."""
    monkeypatch.setattr(base, "_WALK_CELLS", cells)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T = rng.uniform(0.1, 1.0, (S, S)) * (rng.random((S, S)) < 0.5)
        T[np.arange(S), rng.integers(S, size=S)] += 0.5  # a positive entry in every row
        p0 = rng.uniform(0.1, 1.0, S) * (np.arange(S) != seed % S) + (S == 1)
        cdf0, cdf = _choice_cdf(p0 / p0.sum()), _choice_cdf(T / T.sum(axis=1, keepdims=True))
        for N, L in [(1, 1), (1, 9), (6, 1), (5, 33), (40, 12)]:
            U = rng.random((N, L))
            U[rng.random((N, L)) < 0.2] = rng.choice(cdf[cdf < 1.0]) if (cdf < 1.0).any() else 0.0
            want = []
            for u in U.tolist():
                want.append([bisect.bisect_right(cdf0.tolist(), u[0])])
                for x in u[1:]:
                    want[-1].append(bisect.bisect_right(cdf[want[-1][-1]].tolist(), x))
            got = _column_walk(cdf0, cdf, U)
            assert got.shape == (N, L) and got.dtype == np.int64
            assert got.tolist() == want


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 100 + 7])
def test_seed_states_are_the_seed_sequence_states(seed):
    """One, two and three 32-bit seed words (then i) fill the pool of 4 with room to spare;
    four (2^100 + 7) and i make five, one past the pool, so the extra-word mixing runs too."""
    want = [np.random.SeedSequence((seed, i)).generate_state(4, np.uint64) for i in range(9)]
    got = _seed_states(seed, 9)
    assert got.dtype == np.uint64 and got.shape == (9, 4)
    assert np.array_equal(got, want)
    assert _seed_states(seed, 0).shape == (0, 4)


def test_a_negative_seed_raises_value_error_as_default_rng_does():
    chain = BaseChain.from_transition([[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(ValueError, match="non-negative"):
        np.random.default_rng((-1, 0))
    with pytest.raises(ValueError, match="non-negative"):
        _sample_paths(chain, 4, -1, 3)
    with pytest.raises(ValueError, match="non-negative"):
        expected_log_sum(chain, full_shift_bundle(2, 2), AdditivePotential(np.zeros((2, 2))), 2, 1,
                         mode="monte_carlo", samples=3, seed=-1)


@pytest.mark.parametrize("stationary, match", [
    ([0.7, 0.7], "do not sum to 1"), ([np.nan, 1.0], "contain NaN"),
    ([-0.1, 1.1], "not non-negative")])
def test_sampling_rejects_a_stationary_vector_choice_rejects(stationary, match):
    """The constructor does not validate an explicit stationary vector; sampling does."""
    chain = BaseChain(("a", "b"), np.full((2, 2), 0.5), stationary=stationary)
    pot = AdditivePotential(np.zeros((2, 2)))
    for sample in (lambda: reference_sample_path(chain, 4, 0),
                   lambda: _sample_paths(chain, 4, 0, 1),
                   lambda: _sample_paths(chain, 4, 0, 3),
                   lambda: expected_log_sum(chain, full_shift_bundle(2, 2), pot, 2, 1,
                                            mode="monte_carlo", samples=3)):
        with pytest.raises(ValueError, match=match):
            sample()


def test_sampling_checks_every_transition_row_up_front():
    """A bad row raises before any draw, whether or not a path would reach its state."""
    chain = BaseChain(("a", "b"), np.array([[1.0, 0.0], [0.9, 0.3]]), stationary=[1.0, 0.0])
    with pytest.raises(ValueError, match="do not sum to 1"):
        _sample_paths(chain, 4, 0, 3)
    with pytest.raises(ValueError, match="do not sum to 1"):
        _sample_paths(chain, 1, 0, 1)


def test_prefix_tree_shapes():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    tree = chain.prefix_tree(3)
    assert tree.words().shape == (8, 3)
    assert tree.prob[-1].sum() == pytest.approx(1.0)


def test_prefix_tree_matches_brute_force_and_its_prefixes():
    """A shorter tree is the first levels of a longer one, bit for bit.

    pressure_curve builds one tree at its longest length and reads every cell
    from its first levels, so its values rest on this.
    """
    chain = BaseChain.from_transition([[0.5, 0.5], [1.0, 0.0]])  # 1 -> 1 forbidden
    tree = chain.prefix_tree(4)
    brute = [u for u in itertools.product(range(2), repeat=4) if is_admissible(chain, u)]
    assert [tuple(w) for w in tree.words().tolist()] == brute
    assert tree.prob[-1].tolist() == [word_probability(chain, u) for u in brute]
    short = chain.prefix_tree(2)
    assert len(short.symbol) == 2
    for field in ("symbol", "parent", "prob"):
        for level, long_level in zip(getattr(short, field), getattr(tree, field)[:2]):
            assert np.array_equal(level, long_level)
    assert len(chain.prefix_tree(6).symbol) == 6
    with pytest.raises(BudgetExceeded):
        chain.prefix_tree(3, budget=7)


@pytest.mark.parametrize("call,message", [
    (lambda: BaseChain.from_transition(np.full((2, 3), 1 / 3)), "transition matrix must be square"),
    (lambda: BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]], states=["s0"]),
     "state list does not match transition matrix size"),
    (lambda: BaseChain.from_transition([[1.0]]).prefix_tree(0), "word length must be >= 1"),
], ids=["square", "states", "length"])
def test_base_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
