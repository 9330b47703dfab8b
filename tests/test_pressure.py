import collections
import itertools
import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from randpress import (
    AdditivePotential,
    BaseChain,
    BundleSFT,
    CocyclePotential,
    ScaledInverseNormPotential,
    SubadditivePotential,
    check_power_lemma,
    dimension_root,
    expected_log_sum,
    greedy_maximal_separated,
    log_partition_sum,
    potential_average,
    pressure_curve,
)
from randpress import bundle as bundle_mod
from randpress import pressure
from randpress.base import DEFAULT_BUDGET
from randpress.errors import BudgetExceeded, InvalidSampleCount, InvariantViolation

from fixtures import (
    E,
    cell_log_partition,
    enumerate_base_words,
    fix_a,
    golden_mean,
    naive_fiber_words,
    naive_separated,
    one_state_chain,
    random_additive,
    random_bundle,
    random_chain,
    random_cocycle,
    reference_joint_values,
    reference_level_weights,
    reference_value,
    shared_q_measure,
    sparse_measure_system,
    state_log_weights,
    sweep_potentials,
)


def test_log_partition_zero_potential_full_shift():
    _, bundle, _ = fix_a()
    pot = AdditivePotential(np.zeros((1, 2)))
    assert log_partition_sum(bundle, pot, (0, 0), 2, 1) == pytest.approx(math.log(4))


def test_log_partition_golden_mean():
    _, bundle, pot = golden_mean()
    assert log_partition_sum(bundle, pot, (0, 0, 0), 2, 2) == pytest.approx(math.log(5))


def test_log_partition_fix_a_depth_one():
    _, bundle, pot = fix_a()
    assert log_partition_sum(bundle, pot, (0,), 1, 1) == pytest.approx(math.log(1 + E))


def test_additive_factorization_all_depths():
    chain, bundle, pot = fix_a()
    for n in range(1, 7):
        est = expected_log_sum(chain, bundle, pot, n, 1)
        assert est.value == pytest.approx(math.log(1 + E), abs=1e-12)
        assert est.std_error == 0.0


def test_zero_potential_counts_boundary_cylinders():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.zeros((1, 2)))
    est = expected_log_sum(chain, bundle, pot, 2, 3)
    assert est.value == pytest.approx((4 / 2) * math.log(2))


def test_scalar_cocycle_with_a_zero_generator_matches_its_2x2_embedding():
    """A zero 1x1 generator gives f = -inf on the additive path without a numpy warning,
    and the same E[log Z] as its embedding b * I, which takes the batched matrix path."""
    chain = BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])
    bundle = BundleSFT.from_matrices(np.ones((2, 3, 3), dtype=int))
    b = np.array([[3.0, 0.0, 3.0], [4.0, 4.0, 0.5]])[:, :, None, None]
    for kind in ("spectral", "max_row_sum"):
        scalar = expected_log_sum(chain, bundle, CocyclePotential(b, norm_kind=kind), 4, 2)
        embedded = expected_log_sum(chain, bundle, CocyclePotential(b * np.eye(2), norm_kind=kind),
                                    4, 2)
        assert scalar.value == pytest.approx(embedded.value, abs=1e-12)
        assert embedded.value == pytest.approx(2.24056588852919, abs=1e-12)


def test_monte_carlo_single_base_matches_exact():
    chain, bundle, pot = fix_a()
    exact = expected_log_sum(chain, bundle, pot, 4, 2)
    mc = expected_log_sum(chain, bundle, pot, 4, 2, mode="monte_carlo", samples=1, seed=9)
    assert mc.value == exact.value


def test_monte_carlo_deterministic():
    rng = np.random.default_rng(11)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    pot = random_additive(rng, 2, 2)
    a = expected_log_sum(chain, bundle, pot, 6, 2, mode="monte_carlo", samples=50, seed=3)
    b = expected_log_sum(chain, bundle, pot, 6, 2, mode="monte_carlo", samples=50, seed=3)
    assert a == b


def test_monte_carlo_consistent_with_exact():
    rng = np.random.default_rng(12)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    pot = random_additive(rng, 2, 2)
    exact = expected_log_sum(chain, bundle, pot, 5, 1)
    mc = expected_log_sum(chain, bundle, pot, 5, 1, mode="monte_carlo", samples=400, seed=5)
    assert abs(mc.value - exact.value) <= 4 * mc.std_error


def test_monte_carlo_rejects_bad_samples():
    chain, bundle, pot = fix_a()
    with pytest.raises(InvalidSampleCount):
        expected_log_sum(chain, bundle, pot, 2, 1, mode="monte_carlo", samples=0)
    with pytest.raises(ValueError):
        expected_log_sum(chain, bundle, pot, 2, 1, mode="nope")


def test_pressure_curve_fix_a_formula_and_fit():
    chain, bundle, pot = fix_a()
    n_list, m_list = [2, 4, 6, 8], [1, 2]
    curve = pressure_curve(chain, bundle, pot, n_list, m_list)
    for row in curve.rows:
        expect = math.log(1 + E) + (row.m - 1) / row.n * math.log(2)
        assert row.value == pytest.approx(expect, abs=1e-12)
    # At the finest resolution m=2 the 1/n fit has slope (m-1) log 2 = log 2.
    assert curve.fit_slope == pytest.approx(math.log(2), abs=1e-6)
    assert curve.fit_intercept == pytest.approx(math.log(1 + E), abs=1e-6)


def test_pressure_constant_single_symbol():
    chain = one_state_chain()
    bundle = BundleSFT.from_matrices(np.ones((1, 1, 1), dtype=int))
    pot = AdditivePotential(np.array([[0.7]]))
    for n in (1, 3, 5):
        for m in (1, 2):
            assert expected_log_sum(chain, bundle, pot, n, m).value == pytest.approx(0.7)


def test_pressure_monotone_in_m_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        chain = random_chain(rng, 2)
        bundle = random_bundle(rng, 2, 2)
        pot = random_additive(rng, 2, 2)
        vals = [expected_log_sum(chain, bundle, pot, 4, m).value for m in (1, 2, 3)]
        assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_pressure_curve_requires_increasing_lists():
    chain, bundle, pot = fix_a()
    with pytest.raises(ValueError):
        pressure_curve(chain, bundle, pot, [4, 2], [1])


def test_pressure_curve_names_a_value_that_falls_in_m(monkeypatch):
    """A value below the one at the previous m by more than 1e-9 is an InvariantViolation; here
    each log partition sum is lowered by its depth, so every value falls by 1/n per step in m."""
    chain, bundle, pot = fix_a()
    tree_log_partition = pressure._tree_log_partition
    monkeypatch.setattr(pressure, "_tree_log_partition",
                        lambda plan, depth, state=None: tree_log_partition(plan, depth, state) - depth)
    message = "pressure not near-monotone in m at n=2: value(m=2) < value(m=1) - 1e-09"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        pressure_curve(chain, bundle, pot, [2, 4], [1, 2])


def _grid_system(kind):
    rng = np.random.default_rng(23)
    chain, bundle = random_chain(rng, 2), random_bundle(rng, 2, 2)
    pot = (random_additive(rng, 2, 2) if kind == "additive"
           else random_cocycle(rng, 2, 2, norm_kind=kind))
    return chain, bundle, pot


@pytest.mark.parametrize("kind", ["additive", "spectral", "max_row_sum"])
@pytest.mark.parametrize("mode,samples", [("exact", 0), ("monte_carlo", 7)])
def test_every_grid_cell_equals_its_one_cell_curve_bit_for_bit(kind, mode, samples):
    """A grid shares one base tree or forest and one engine pass; each row still sees the
    numbers its own cell would, duplicate depths included."""
    chain, bundle, pot = _grid_system(kind)
    n_list, m_list = [2, 3, 3, 4], [1, 3]
    curve = pressure_curve(chain, bundle, pot, n_list, m_list, mode=mode, samples=samples, seed=5)
    assert [(r.n, r.m) for r in curve.rows] == [(n, m) for n in n_list for m in m_list]
    for row in curve.rows:
        assert row == expected_log_sum(chain, bundle, pot, row.n, row.m, mode=mode,
                                       samples=samples, seed=5)


def test_a_grid_evaluates_each_depth_once_and_draws_its_words_once(monkeypatch):
    chain, bundle, coc = _grid_system("spectral")
    calls = collections.Counter()

    class Counting(SubadditivePotential):
        def eval_batch(self, base_arr, fiber_arr, n):
            calls["eval_batch"] += 1
            return coc.eval_batch(base_arr, fiber_arr, n)

    pressure_curve(chain, bundle, Counting(), [3, 4], [1, 2])
    assert calls["eval_batch"] == 2  # one chunk per depth, shared by both m
    sample_paths = pressure._sample_paths

    def counting_paths(*args):
        calls["_sample_paths"] += 1
        return sample_paths(*args)

    monkeypatch.setattr(pressure, "_sample_paths", counting_paths)
    pressure_curve(chain, bundle, coc, [2, 3], [1, 2], mode="monte_carlo", samples=5, seed=1)
    assert calls["_sample_paths"] == 1


@pytest.mark.parametrize("mode,over", [("exact", "base"), ("monte_carlo", "fiber")])
def test_a_grid_checks_the_budget_at_its_longest_words(mode, over):
    """2^7 words exceed the budget before any cell is computed, though the n = 2 cells fit;
    exact mode checks the base words first, Monte Carlo the fiber words only."""
    chain, bundle, coc = _grid_system("spectral")
    with pytest.raises(BudgetExceeded, match=rf"^2\^7 {over} words exceed budget 40$"):
        pressure_curve(chain, bundle, coc, [2, 6], [1, 2], mode=mode, samples=3, budget=40)


def test_greedy_equal_resolution_selects_all():
    rng = np.random.default_rng(14)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    pot = random_additive(rng, 2, 2)
    word = enumerate_base_words(chain, 4)[0]
    sel, log_sum = greedy_maximal_separated(bundle, pot, word.symbols, 3, 2, 2)
    assert log_sum == pytest.approx(log_partition_sum(bundle, pot, word.symbols, 3, 2))
    assert len(sel) == len(set(sel))


def test_greedy_output_pairwise_separated():
    rng = np.random.default_rng(15)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 3)
    pot = random_additive(rng, 2, 3)
    word = enumerate_base_words(chain, 4)[1]
    sel, _ = greedy_maximal_separated(bundle, pot, word.symbols, 3, 1, 2)
    for i, x in enumerate(sel):
        for y in sel[i + 1:]:
            assert naive_separated(x, y, 3, 1)


def test_greedy_two_power_bound_random():
    rng = np.random.default_rng(16)
    for _ in range(200):
        S = int(rng.integers(1, 3))
        A = int(rng.integers(2, 4))
        chain = random_chain(rng, S)
        bundle = random_bundle(rng, S, A)
        pot = random_additive(rng, S, A)
        n = int(rng.integers(1, 4))
        m_sep = int(rng.integers(1, 3))
        m_res = m_sep + int(rng.integers(0, 2))
        word = enumerate_base_words(chain, n + m_res - 1 if m_res > 1 else n)[0]
        sel, log_sum = greedy_maximal_separated(
            bundle, pot, word.symbols, n, m_sep, m_res
        )
        lhs = log_partition_sum(bundle, pot, word.symbols, n, m_sep)
        assert lhs <= n * math.log(2) + log_sum + 1e-12


def pairwise_greedy(bundle, potential, u, n, m_sep, m_res):
    """The greedy pass as a pairwise separation loop: the reference for the grouped one."""
    candidates = naive_fiber_words(bundle, u, n + m_res - 1)
    values = potential.eval_batch(np.array([u] * len(candidates)), np.array(candidates), n).tolist()
    order = sorted(range(len(candidates)), key=lambda i: (-values[i], candidates[i]))
    alive = [True] * len(candidates)
    selected = []
    for i in order:
        if not alive[i]:
            continue
        selected.append(i)
        for j in range(len(candidates)):
            if alive[j] and j != i and not naive_separated(candidates[i], candidates[j], n, m_sep):
                alive[j] = False
        alive[i] = False
    return [candidates[i] for i in selected], float(logsumexp([values[i] for i in selected]))


def test_greedy_matches_the_pairwise_reference():
    rng = np.random.default_rng(19)
    for trial in range(120):
        S, A = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        bundle = random_bundle(rng, S, A)
        # Tables rounded to one decimal tie many candidates, so the word order breaks ties.
        pot = (random_cocycle(rng, S, A) if trial % 2 else
               AdditivePotential(np.round(rng.normal(size=(S, A)), 1)))
        n, m_sep = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        m_res = m_sep + int(rng.integers(0, 2))
        u = tuple(int(x) for x in rng.integers(0, S, size=n + m_res - 1))
        picked, log_sum = greedy_maximal_separated(bundle, pot, u, n, m_sep, m_res)
        ref_picked, ref_log_sum = pairwise_greedy(bundle, pot, u, n, m_sep, m_res)
        assert picked == ref_picked
        assert log_sum == pytest.approx(ref_log_sum, abs=1e-12)


def test_word_inputs_give_identical_results():
    """A base word as a tuple, a list or an int64 row gives bit-identical sums and picks."""
    rng = np.random.default_rng(21)
    bundle = random_bundle(rng, 2, 3)
    u = (0, 1, 1, 0, 1)
    for pot in (random_additive(rng, 2, 3), random_cocycle(rng, 2, 3)):
        forms = (u, list(u), np.array(u, dtype=np.int64))
        assert len({log_partition_sum(bundle, pot, x, 3, 2) for x in forms}) == 1
        picks = [greedy_maximal_separated(bundle, pot, x, 3, 1, 2) for x in forms]
        assert picks[1] == picks[0] and picks[2] == picks[0]
    with pytest.raises(ValueError, match="length >= 4"):
        greedy_maximal_separated(bundle, pot, u[:3], 3, 1, 2)
    with pytest.raises(ValueError, match="n >= 1"):
        greedy_maximal_separated(bundle, pot, u, 0, 1, 1)
    with pytest.raises(BudgetExceeded, match=r"^3\^4 fiber words exceed budget 80$"):
        greedy_maximal_separated(bundle, pot, u, 3, 1, 2, budget=80)


def test_power_lemma_k1_zero_slack():
    chain, bundle, pot = fix_a()
    assert check_power_lemma(chain, bundle, pot, 1, 3, 2) == pytest.approx(0.0, abs=1e-12)


def test_power_lemma_zero_potential_counts():
    chain, bundle, _ = fix_a()
    pot = AdditivePotential(np.zeros((1, 2)))
    slack = check_power_lemma(chain, bundle, pot, 2, 2, 2)
    assert slack >= -1e-12


def test_power_lemma_nonadditive():
    rng = np.random.default_rng(17)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    coc = random_cocycle(rng, 2, 2)
    assert check_power_lemma(chain, bundle, coc, 2, 2, 1, max_words=4) >= -1e-12


class _ArbitraryValues(SubadditivePotential):
    """f_n of a joint word: a pseudo-random value in [-20, 20] of n and its first n base and
    fiber symbols, so neither sub-additive nor local."""

    def __init__(self, seed):
        self.seed = seed

    def eval_batch(self, base_arr, fiber_arr, n):
        code = np.zeros(len(base_arr))
        for j in range(n):
            code = 7.0 * code + 3.0 * base_arr[:, j] + fiber_arr[:, j] + 1.0
        return 20.0 * np.sin(code * math.sqrt(2.0) + self.seed + 0.1 * n)


@pytest.mark.parametrize("seed", range(6))
def test_power_lemma_slack_is_nonnegative_for_any_potential_values(seed):
    """A maximal separated set of the k-th power is separated for the map, so the power sum
    never exceeds the map's, whatever the values of f: every k = 2, 3 cell's slack is
    >= -1e-12 on a plug-in potential with arbitrary values."""
    rng = np.random.default_rng(seed)
    S, A = 1 + seed % 3, 2 + seed % 2
    chain, bundle, pot = random_chain(rng, S), random_bundle(rng, S, A), _ArbitraryValues(seed)
    for k, n, m in itertools.product((2, 3), (1, 2), (1, 2)):
        assert check_power_lemma(chain, bundle, pot, k, n, m, max_words=16, seed=seed) >= -1e-12


def _per_word_slack(chain, bundle, pot, k, n, m, max_words, seed):
    """check_power_lemma's slack from per-word enumeration, over the same base words drawn from
    the same seed: every fiber word by naive_fiber_words, every value by reference_value."""
    L = k * n + m - 1
    words = enumerate_base_words(chain, L)
    if max_words is not None and len(words) > max_words:
        idx = np.random.default_rng(seed).choice(len(words), size=max_words, replace=False)
        words = [words[i] for i in sorted(idx)]
    # Words agreeing on the first m coordinates after each multiple of k are
    # not separated for T^k; each such class keeps its best word.
    window = sorted({i for j in range(n) for i in range(j * k, j * k + m) if i < L})
    slacks = []
    for word in words:
        best = {}
        vals = []
        for w in naive_fiber_words(bundle, word.symbols, L):
            v = reference_value(pot, word.symbols, w, k * n)
            vals.append(v)
            key = tuple(w[i] for i in window)
            best[key] = max(best.get(key, -math.inf), v)
        slacks.append(logsumexp(vals) - logsumexp(list(best.values())))
    return min(slacks)


@pytest.mark.parametrize("k,n,m,max_words", [(1, 2, 2, None), (2, 2, 1, 5), (3, 1, 2, 3),
                                               (2, 1, 2, None)])
def test_power_lemma_matches_per_word_oracle(k, n, m, max_words):
    """Slack from per-word enumeration, over the same words drawn from the same seed."""
    rng = np.random.default_rng(19)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    for pot in (random_cocycle(rng, 2, 2), random_additive(rng, 2, 2)):
        slack = check_power_lemma(chain, bundle, pot, k, n, m, max_words=max_words, seed=7)
        assert slack == pytest.approx(_per_word_slack(chain, bundle, pot, k, n, m, max_words, 7),
                                      abs=1e-12)


def test_batch_partition_matches_per_word_enumeration():
    rng = np.random.default_rng(18)
    chain = random_chain(rng, 2)
    bundle = random_bundle(rng, 2, 2)
    coc = random_cocycle(rng, 2, 2)
    words = enumerate_base_words(chain, 4)
    batched = cell_log_partition(bundle, coc, chain.prefix_tree(4), 3, 10_000)
    for word, value in zip(words, batched):
        vals = [reference_value(coc, word.symbols, w, 3)
                for w in naive_fiber_words(bundle, word.symbols, 4)]
        assert value == pytest.approx(float(logsumexp(vals)), abs=1e-12)


class _WalkedCocycle(CocyclePotential):
    """A cocycle with no additive table, so that d = 1 products take the joint walk too."""

    def to_additive(self):
        return None


class _WalkedInverse(ScaledInverseNormPotential):
    def to_additive(self):
        return None


class _EvalBatchOnly:
    """A plug-in potential with eval_batch alone: the walk carries its word columns."""

    def __init__(self, inner):
        self.inner = inner

    def to_additive(self):
        return None

    def eval_batch(self, base_arr, fiber_arr, n):
        return self.inner.eval_batch(base_arr, fiber_arr, n)


def _global_rows(segments):
    """(key, values) of a depth's chunks in one array each, keys offset by the earlier chunks."""
    keys, vals, offset = [], [], 0
    for size, key, values in segments:
        keys.append(offset + key)
        vals.append(values)
        offset += size
    return np.concatenate(keys), np.concatenate(vals)


WALK_GRIDS = [[1], [3], [2, 3], [1, 2, 2, 4], [3, 3], [4]]


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 5])
@pytest.mark.parametrize("norm_kind", ["spectral", "max_row_sum"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_joint_walk_equals_the_per_leaf_reference(monkeypatch, joint_rows, norm_kind, dim):
    """Every row value of the joint walk, and the level weights it gives, equal the per-leaf
    path it replaced: each product built from the identity on its own over the chunks of
    reference_fiber_words, and LAPACK norms.  They agree bit for bit, except for 2x2 spectral
    norms and 2x2 inverse norms, which closed forms read: those agree within 1e-12 relative.
    S and A are drawn from {2, 3}, trees are exact and Monte Carlo forests, grids repeat
    depths, and with 5 joint rows a chunk is one deepest node whose ancestors earlier chunks
    also walked."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(70 + dim)
    ts = np.array([0.0, 0.5, 1.0])
    for i, depths in enumerate(WALK_GRIDS * 2):
        S, A, m = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 3))
        chain, bundle = random_chain(rng, S), random_bundle(rng, S, A)
        coc = _WalkedCocycle(random_cocycle(rng, S, A, dim).matrices, norm_kind)
        mode = ("exact", "monte_carlo")[i // len(WALK_GRIDS)]
        tree = pressure._base_words(chain, depths[-1], m, mode, 7, i, DEFAULT_BUDGET)
        for pot, closed_form in ((coc, dim == 2 and norm_kind == "spectral"),
                                 (_WalkedInverse(coc, 0.7), dim == 2),
                                 (_EvalBatchOnly(coc), False)):
            walk = list(pressure._joint_values(bundle, pot, tree, depths))
            for j, d in enumerate(depths):
                key, vals = _global_rows(rows for i, *rows in walk if i == j)
                want_key, want = _global_rows(reference_joint_values(bundle, pot, tree, d))
                assert np.array_equal(key, want_key)
                if closed_form:
                    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0.0)
                else:
                    assert np.array_equal(vals, want)
            got = pressure._level_weights(pressure._Plan(bundle, tree), pot, depths,
                                          DEFAULT_BUDGET)(ts)
            want = reference_level_weights(bundle, pot, tree, depths, ts)
            for g, w in zip(got, want, strict=True):
                if closed_form:
                    np.testing.assert_allclose(state_log_weights(g), state_log_weights(w),
                                               rtol=1e-12, atol=1e-12)
                else:
                    assert np.array_equal(g.W, w.W) and np.array_equal(g.scale, w.scale)


@pytest.mark.parametrize("joint_rows", [bundle_mod._JOINT_ROWS, 5])
def test_power_lemma_on_sparse_systems_matches_per_word_oracle(monkeypatch, joint_rows):
    """Over S and A drawn from {2, 3}, bundles with zeros, chains with zeros in T, the sweep's
    potentials and every cell the lemmas verb runs, the slack is the per-word oracle's within
    1e-12, also at 5 joint rows: each base word's sums are reduced within its own chunk."""
    monkeypatch.setattr(bundle_mod, "_JOINT_ROWS", joint_rows)
    rng = np.random.default_rng(47)
    for _ in range(3):
        chain, bundle, _ = sparse_measure_system(rng, valid=False)
        for pot in sweep_potentials(rng, chain.num_states, bundle.num_symbols):
            for k, n, m in itertools.product((2, 3), (1, 2), (1, 2)):
                got = check_power_lemma(chain, bundle, pot, k, n, m, max_words=5, seed=k + n)
                want = _per_word_slack(chain, bundle, pot, k, n, m, 5, k + n)
                assert got == pytest.approx(want, abs=1e-12)


def test_monte_carlo_mean_and_spread_near_the_float_limit():
    """Where np.mean or np.std overflows on finite values, the estimate takes them on the
    values scaled by their largest magnitude; elsewhere it keeps np.mean's and np.std's bits."""
    from fractions import Fraction

    rng = np.random.default_rng(5)
    for vals in (rng.normal(size=7), rng.normal(size=3) * 1e150, np.array([-2.5, -2.5])):
        est = pressure._estimate(None, 1, 1, "monte_carlo", len(vals), 0, vals)
        assert est.value == float(np.mean(vals))
        assert est.std_error == float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    for vals in (np.array([-1.0e306, -1.3e306, -0.7e306, -1.1e306, -0.9e306]),
                 np.array([1.7e308, 1.6e308, 1.5e308]), np.array([1.7e308, -1.7e308]),
                 np.tile([1.7e308, 1.7e308, -1.7e308, -1.6e308], 8)):
        est = pressure._estimate(None, 1, 1, "monte_carlo", len(vals), 0, vals)
        exact = [Fraction(float(v)) for v in vals]
        mean = sum(exact) / len(exact)
        top = max(abs(v) for v in exact)  # the exact spread in units of top, which stays finite
        var = sum(((v - mean) / top) ** 2 for v in exact) / (len(exact) - 1) / len(exact)
        assert est.value == pytest.approx(float(mean), rel=1e-15)
        assert est.std_error == pytest.approx(math.sqrt(float(var)) * float(top), rel=1e-15)


def _similarities(rng, S: int, A: int, d: int) -> np.ndarray:
    """(S, A, d, d) float-built similarities r Q: r in [0.5, 2], Q a rotation or reflection
    (cos and sin for d = 2, the QR factor of a normal matrix for d = 3)."""
    r = rng.uniform(0.5, 2.0, (S, A))
    if d == 2:
        theta, flip = rng.uniform(0.0, 2 * math.pi, (S, A)), rng.integers(2, size=(S, A))
        c, s = np.cos(theta), np.sin(theta)
        Q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        Q[..., 1] *= np.where(flip, -1.0, 1.0)[..., None]
    else:
        Q = np.linalg.qr(rng.normal(size=(S, A, d, d)))[0]
    return r[..., None, None] * Q


def test_similarity_generators_take_the_table_within_1e_13_of_the_walk():
    """On 200 seeded systems of similarity generators (d = 2 and 3), the cocycle and its
    inverse family at four scales reduce to additive tables, and their exact and Monte Carlo
    E[log Z] and measure averages stay within 1e-13 of the joint walk's.  The tables are off
    by at most n c eps nats per word, an absolute bound, so near 0 the gate is absolute."""
    rng = np.random.default_rng(311)
    for i in range(200):
        S, A, d = int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2 + i % 2
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        chain, bundle = random_chain(rng, S), random_bundle(rng, S, A, full=i % 4 < 2)
        coc = CocyclePotential(_similarities(rng, S, A, d))
        walked = _WalkedCocycle(coc.matrices)
        pairs = [(coc, walked)] + [(ScaledInverseNormPotential(coc, t), _WalkedInverse(walked, t))
                                   for t in (0.0, 0.4, 1.0, 2.5)]
        mode = ("exact", "monte_carlo")[i // 100]
        meas = shared_q_measure(rng, chain, bundle) if i % 4 < 2 else None
        for pot, ref in pairs:
            assert pot.to_additive() is not None
            got = expected_log_sum(chain, bundle, pot, n, m, mode, 5, i).value
            want = expected_log_sum(chain, bundle, ref, n, m, mode, 5, i).value
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
            if meas is not None:
                assert potential_average(meas, chain, bundle, pot, n) == pytest.approx(
                    potential_average(meas, chain, bundle, ref, n), rel=1e-13, abs=1e-13)


def test_near_similarities_max_row_sum_and_singular_generators_keep_the_walk():
    """sigma_1 / sigma_d = 1 + 1e-10 is no similarity to rounding, so the cocycle and its
    inverse family have no table, though the Bowen root's 1e-9 flag still counts it as
    conformal; neither do similarities under max_row_sum, nor a stack with a zero generator."""
    rng = np.random.default_rng(312)
    for d in (2, 3):
        B = _similarities(rng, 2, 2, d)
        near = B @ np.diag([1.0 + 1e-10] + [1.0] * (d - 1))
        zero = B.copy()
        zero[1, 0] = 0.0
        for coc in (CocyclePotential(near), CocyclePotential(B, "max_row_sum"),
                    CocyclePotential(zero)):
            assert coc.to_additive() is None
            assert ScaledInverseNormPotential(coc, 1.0).to_additive() is None
        assert CocyclePotential(B).to_additive() is not None
        assert CocyclePotential(near)._similar(1e-9) and not CocyclePotential(zero)._similar(1e-9)


def test_conformal_pressure_at_depth_14_takes_no_joint_walk(monkeypatch):
    """Exact pressure of 2x2 similarities on S = A = 2 at n = 14 fits the default budget
    (2^28 joint words would not), walks no joint tree, and equals its scalar twin b = r."""
    monkeypatch.setattr(pressure, "_joint_walk", None)  # a walk would raise TypeError
    rng = np.random.default_rng(313)
    chain, bundle = random_chain(rng, 2), random_bundle(rng, 2, 2, full=True)
    B = _similarities(rng, 2, 2, 2)
    got = expected_log_sum(chain, bundle, CocyclePotential(B), 14, 1).value
    twin = CocyclePotential(np.linalg.norm(B, 2, axis=(-2, -1))[..., None, None])
    assert got == pytest.approx(expected_log_sum(chain, bundle, twin, 14, 1).value, rel=1e-13)


@pytest.mark.parametrize("call,message", [
    (lambda c, b, p: log_partition_sum(b, p, (0, 0), 0, 1), "n and m must be >= 1"),
    (lambda c, b, p: log_partition_sum(b, p, (0,), 2, 1), "base word must have length >= 2"),
    (lambda c, b, p: dimension_root(c, b, CocyclePotential(np.full((1, 2, 1, 1), 3.0)), n=0, m=1,
                                    t_max=1.0), "n and m must be >= 1"),
    (lambda c, b, p: pressure_curve(c, b, p, [], [1]),
     "n_list and m_list must be nonempty, with every n and m >= 1"),
    (lambda c, b, p: greedy_maximal_separated(b, p, (0, 0, 0), 1, 2, 1),
     "need m_res >= m_sep >= 1"),
    (lambda c, b, p: check_power_lemma(c, b, p, 0, 1, 1), "k, n, m must be >= 1"),
], ids=["log-partition-n", "log-partition-word", "base-words-n", "curve-lists", "greedy-m",
        "power-lemma-k"])
def test_pressure_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*fix_a())
