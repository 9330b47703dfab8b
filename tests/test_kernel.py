"""Property tests for the level-wise partition-sum kernel against first-principles oracles."""

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
    expected_log_sum,
    log_partition_sum,
    sample_path,
)

from fixtures import naive_fiber_words, separated_set_oracle


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
        prob = chain.word_probability(u)
        if prob > 0.0:
            yield u, prob


def naive_log_z(bundle, potential, u, n, length):
    vals = [potential.eval(u, w, n) for w in naive_fiber_words(bundle, u, length)]
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
    words = [sample_path(chain, L, seed=(seed, i)).symbols for i in range(samples)]
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
