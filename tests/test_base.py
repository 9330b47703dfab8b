import itertools

import numpy as np
import pytest

from randpress import (
    BaseChain,
    enumerate_base_words,
    sample_path,
    stationary_distribution,
)
from randpress.errors import BudgetExceeded, NonErgodicChain


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
    with pytest.raises(NonErgodicChain):
        stationary_distribution(np.eye(2))


def test_stationary_rejects_periodic():
    with pytest.raises(NonErgodicChain):
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
    a = sample_path(chain, 20, seed=42)
    b = sample_path(chain, 20, seed=42)
    assert a == b
    assert chain.is_admissible(a.symbols)
    assert a.probability == pytest.approx(chain.word_probability(a.symbols))


def test_sample_path_single_state():
    chain = BaseChain.from_transition([[1.0]])
    assert sample_path(chain, 6, seed=0).symbols == (0,) * 6


def test_sample_path_frequencies():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    for seed in range(10):
        word = sample_path(chain, 10_000, seed=seed)
        freq = word.symbols.count(0) / 10_000
        assert abs(freq - 0.5) <= 0.02


def test_prefix_tree_shapes():
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    tree = chain.prefix_tree(3)
    assert tree.words().shape == (8, 3)
    assert tree.prob[-1].sum() == pytest.approx(1.0)


def test_prefix_tree_matches_brute_force_and_is_kept():
    chain = BaseChain.from_transition([[0.5, 0.5], [1.0, 0.0]])  # 1 -> 1 forbidden
    tree = chain.prefix_tree(4)
    brute = [u for u in itertools.product(range(2), repeat=4) if chain.is_admissible(u)]
    assert [tuple(w) for w in tree.words().tolist()] == brute
    assert tree.prob[-1].tolist() == [chain.word_probability(u) for u in brute]
    short = chain.prefix_tree(2)
    assert len(short.symbol) == 2 and short.symbol[1] is tree.symbol[1]
    assert len(chain.prefix_tree(6).symbol) == 6
    with pytest.raises(BudgetExceeded):
        chain.prefix_tree(3, budget=7)
