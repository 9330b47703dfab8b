"""Shared fixture systems and independent oracles for the test suite."""

import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np

from randpress import (
    AdditivePotential,
    BaseChain,
    BundleSFT,
    CocyclePotential,
    RandomMarkovMeasure,
    ScaledInverseNormPotential,
    stationary_distribution,
)
from randpress import pressure
from randpress.base import DEFAULT_BUDGET, PrefixTree, _choice_cdf

GOLDEN = (1 + math.sqrt(5)) / 2
E = math.e


def one_state_chain():
    return BaseChain.from_transition([[1.0]])


def bernoulli_chain():
    return BaseChain.from_transition([[0.5, 0.5], [0.5, 0.5]])


def full_shift_bundle(num_base_symbols=1, num_fiber_symbols=2):
    return BundleSFT.from_matrices(
        np.ones((num_base_symbols, num_fiber_symbols, num_fiber_symbols), dtype=int)
    )


def fix_a():
    """1-state base, full 2-shift, phi(0)=0 / phi(1)=1; pressure log(1+e)."""
    chain = one_state_chain()
    bundle = full_shift_bundle()
    potential = AdditivePotential(np.array([[0.0, 1.0]]))
    return chain, bundle, potential


def golden_mean():
    """1-state base, golden-mean SFT, zero potential; pressure log golden ratio."""
    chain = one_state_chain()
    bundle = BundleSFT.from_matrices(np.array([[[1, 1], [1, 0]]]))
    potential = AdditivePotential(np.zeros((1, 2)))
    return chain, bundle, potential


def fix_b():
    """Bernoulli(1/2) base; 2 fiber choices under s0, 3 under s1; zero potential."""
    chain = bernoulli_chain()
    allowed = np.zeros((2, 3, 3), dtype=int)
    allowed[0, :, :2] = 1
    allowed[1, :, :] = 1
    bundle = BundleSFT.from_matrices(allowed)
    potential = AdditivePotential(np.zeros((2, 3)))
    return chain, bundle, potential


FIX_B_LIMIT = 0.5 * (math.log(2) + math.log(3))


def fix_d():
    """1-state base, full 2-shift, diagonal 2x2 cocycle under max-row-sum norm."""
    chain = one_state_chain()
    bundle = full_shift_bundle()
    alphas, betas = (0.0, 1.0), (0.5, 0.2)
    B = np.zeros((1, 2, 2, 2))
    for a in range(2):
        B[0, a] = np.diag([math.exp(alphas[a]), math.exp(betas[a])])
    return chain, bundle, CocyclePotential(B, norm_kind="max_row_sum")


FIX_D_PRESSURE = max(math.log(1 + E), math.log(math.exp(0.5) + math.exp(0.2)))


def fix_e():
    """1-state base, full 2-shift, scalar cocycle 3; Bowen root log2/log3."""
    chain = one_state_chain()
    bundle = full_shift_bundle()
    return chain, bundle, CocyclePotential(np.full((1, 2, 1, 1), 3.0))


def fix_f():
    """Bernoulli base; fiber/scale (2, 3) under s0 and (3, 4) under s1.

    Bowen root log6/log12.
    """
    chain, bundle, _ = fix_b()
    B = np.zeros((2, 3, 1, 1))
    B[0, :, 0, 0] = 3.0
    B[1, :, 0, 0] = 4.0
    return chain, bundle, CocyclePotential(B)


def gibbs_measure_fix_a():
    """Bernoulli measure with weights proportional to exp(phi)."""
    q1 = E / (1 + E)
    rows = np.array([[[1 - q1, q1], [1 - q1, q1]]])
    return RandomMarkovMeasure(initial=np.array([[1 - q1, q1]]), transition=rows)


def parry_measure():
    """Maximal-entropy Markov measure of the golden-mean shift."""
    Q = np.array([[[1 / GOLDEN, 1 / GOLDEN ** 2], [1.0, 0.0]]])
    pi = np.array([[GOLDEN ** 2 / (1 + GOLDEN ** 2), 1 / (1 + GOLDEN ** 2)]])
    return RandomMarkovMeasure(initial=pi, transition=Q)


def uniform_measure(num_base_symbols=1, num_fiber_symbols=2):
    A = num_fiber_symbols
    return RandomMarkovMeasure(
        initial=np.full((num_base_symbols, A), 1.0 / A),
        transition=np.full((num_base_symbols, A, A), 1.0 / A),
    )


def random_chain(rng, num_states=2):
    T = rng.uniform(0.2, 1.0, (num_states, num_states))
    return BaseChain.from_transition(T / T.sum(axis=1, keepdims=True))


def random_bundle(rng, num_states=2, num_symbols=2, full=False):
    """Random SFT bundle with no zero rows (drops at most one entry per row)."""
    M = np.ones((num_states, num_symbols, num_symbols), dtype=int)
    if not full and num_symbols > 1:
        for s in range(num_states):
            for a in range(num_symbols):
                if rng.random() < 0.3:
                    M[s, a, rng.integers(num_symbols)] = 0
    return BundleSFT.from_matrices(M)


def random_additive(rng, num_states, num_symbols, scale=1.0):
    return AdditivePotential(scale * rng.normal(size=(num_states, num_symbols)))


def random_cocycle(rng, num_states, num_symbols, dim=2, norm_kind="spectral"):
    """Random well-conditioned invertible cocycle generators."""
    B = rng.normal(size=(num_states, num_symbols, dim, dim)) + 3.0 * np.eye(dim)
    return CocyclePotential(B, norm_kind=norm_kind)


def shared_q_measure(rng, chain, bundle):
    """Random valid measure: one Q under every base symbol, pi its stationary.

    The shared rows are supported inside the intersection of the per-symbol
    admissibility matrices, so support and consistency both hold exactly.
    """
    inter = bundle.allowed.min(axis=0).astype(float)
    if (inter.sum(axis=1) == 0).any():
        raise ValueError("support intersection has a zero row")
    Q = inter * rng.uniform(0.1, 1.0, inter.shape)
    Q = Q / Q.sum(axis=1, keepdims=True)
    # Stationary vector of Q restricted to its recurrent communicating part.
    pi = _stationary_of(Q)
    S = chain.num_states
    return RandomMarkovMeasure(
        initial=np.tile(pi, (S, 1)), transition=np.tile(Q, (S, 1, 1))
    )


def _stationary_of(Q):
    try:
        return stationary_distribution(Q)
    except Exception:
        # Reducible support (e.g. an unreachable column): power-iterate instead.
        pi = np.full(Q.shape[0], 1.0 / Q.shape[0])
        for _ in range(20000):
            nxt = pi @ Q
            if np.max(np.abs(nxt - pi)) < 1e-15:
                break
            pi = nxt
        return nxt / nxt.sum()


BaseWord = namedtuple("BaseWord", "symbols probability")


def enumerate_base_words(chain, n, budget=DEFAULT_BUDGET):
    """The admissible length-n words of the chain's prefix tree, in lexicographic order."""
    tree = chain.prefix_tree(n, budget)
    return [BaseWord(tuple(w), p) for w, p in zip(tree.words().tolist(), tree.prob[-1].tolist())]


def is_admissible(chain, u):
    """Whether every step of the base word u has a positive transition probability."""
    return all(chain.transition[a, b] > 0.0 for a, b in zip(u, u[1:]))


def word_probability(chain, u):
    """Stationary cylinder probability p(u0) * prod T(u_k, u_{k+1})."""
    prob = float(chain.stationary[u[0]])
    for a, b in zip(u, u[1:]):
        prob *= float(chain.transition[a, b])
    return prob


def entropy_cylinder_oracle(meas, chain, bundle, n):
    """(1/n) E_P[entropy of the n-cylinder fiber distribution], by enumeration.

    Over each base word u the A^n fiber-word probabilities are
    pi_{u0}(w0) * prod Q_{u_{k-1}}(w_{k-1}, w_k), one outer product per symbol.
    """
    A = bundle.num_symbols
    total = 0.0
    for word in enumerate_base_words(chain, n):
        u = word.symbols
        probs = meas.initial[u[0]]
        for k in range(1, n):
            probs = (probs.reshape(-1, A)[:, :, None] * meas.transition[u[k - 1]]).reshape(-1)
        pos = probs[probs > 0.0]
        total += word.probability * float(-(pos * np.log(pos)).sum())
    return total / n


def reference_consistent_initial(transition, chain):
    """solve_consistent_initial's pi from a constraint matrix built block by block.

    One (A, S*A) block Q_s^T - I per positive base transition s -> s', in
    row-major (s, s') order, then one normalisation row per base symbol; the
    least-squares solution is clipped at 0 and renormalised per row.
    """
    Q = np.asarray(transition, dtype=float)
    S, A = chain.num_states, Q.shape[1]
    rows, rhs = [], []
    for s in range(S):
        for s2 in range(S):
            if chain.transition[s, s2] > 0.0:
                block = np.zeros((A, S * A))
                block[:, s * A:(s + 1) * A] = Q[s].T
                block[:, s2 * A:(s2 + 1) * A] -= np.eye(A)
                rows.append(block)
                rhs.append(np.zeros(A))
    for s in range(S):
        norm = np.zeros((1, S * A))
        norm[0, s * A:(s + 1) * A] = 1.0
        rows.append(norm)
        rhs.append(np.ones(1))
    x, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    pi = np.maximum(x.reshape(S, A), 0.0)
    return pi / pi.sum(axis=1, keepdims=True)


def reference_fiber_entropy(meas, chain):
    """Sum over (s, a) of p(s) pi_s(a) times the entropy of the row Q_s(a, .), one row at a time."""
    h = 0.0
    for s in range(chain.num_states):
        for a in range(meas.initial.shape[1]):
            row = meas.transition[s, a]
            pos = row[row > 0.0]
            h += float(chain.stationary[s]) * float(meas.initial[s, a]) * float(
                -(pos * np.log(pos)).sum()
            )
    return h


_NORM_ORDER = {"spectral": 2, "max_row_sum": np.inf}


def reference_product(cocycle, u, w, n):
    """The cocycle product B(u_{n-1}, w_{n-1}) ... B(u_0, w_0), one matrix at a time."""
    P = np.eye(cocycle.dim)
    for k in range(n):
        P = cocycle.matrices[u[k], w[k]] @ P
    return P


def reference_value(potential, u, w, n):
    """f_n of a shipped potential on one (base word, fiber word) pair, by a Python loop.

    Cocycle norms are numpy's matrix norms (order 2 or inf) of the loop
    product or of its inverse; nothing here calls eval_batch.
    """
    if isinstance(potential, AdditivePotential):
        return float(sum(potential.table[u[k], w[k]] for k in range(n)))
    if isinstance(potential, CocyclePotential):
        P = reference_product(potential, u, w, n)
        with np.errstate(divide="ignore"):  # a zero product gives f_n = -inf by design
            return float(np.log(np.linalg.norm(P, _NORM_ORDER[potential.norm_kind])))
    assert isinstance(potential, ScaledInverseNormPotential)
    inner = potential.inner
    P = np.linalg.inv(reference_product(inner, u, w, n))
    return potential.t * float(np.log(np.linalg.norm(P, _NORM_ORDER[inner.norm_kind])))


def reference_sample_path(chain, n, seed):
    """A stationary-chain word drawn symbol by symbol with Generator.choice, as a tuple."""
    rng = np.random.default_rng(seed)
    k = chain.num_states
    symbols = [int(rng.choice(k, p=chain.stationary))]
    for _ in range(n - 1):
        symbols.append(int(rng.choice(k, p=chain.transition[symbols[-1]])))
    return tuple(symbols)


def reference_subadditivity_pairs(chain, bundle, sample_count, seed, max_block):
    """check_subadditivity's (n, m) sizes and (base, fiber) words, one sample and symbol at a time.

    Consumes the same two blocks of default_rng(seed): every (n, m), then the
    base and the fiber uniforms.  Symbol k of a word is bisect_right of its
    uniform in the cdf row of the previous symbol: the chain's stationary and
    transition rows for base words; for fiber words the uniform law on the
    alphabet, then the uniform law on the columns allowed at (u_{k-1}, w_{k-1}).
    """
    rng = np.random.default_rng(seed)
    nm = rng.integers(1, max_block + 1, size=(sample_count, 2))
    x = rng.random((2, sample_count, 2 * max_block)).tolist()
    A, M = bundle.num_symbols, bundle.allowed
    cdf0, cdfT = _choice_cdf(chain.stationary).tolist(), _choice_cdf(chain.transition).tolist()
    first = _choice_cdf(np.full(A, 1.0 / A)).tolist()
    cdfM = _choice_cdf(M / M.sum(axis=-1, keepdims=True)).tolist()
    base, fiber = [], []
    for xu, xw in zip(*x):
        u, w = [bisect_right(cdf0, xu[0])], [bisect_right(first, xw[0])]
        for k in range(1, 2 * max_block):
            u.append(bisect_right(cdfT[u[-1]], xu[k]))
            w.append(bisect_right(cdfM[u[k - 1]][w[-1]], xw[k]))
        base.append(u)
        fiber.append(w)
    return nm, np.array(base), np.array(fiber)


def naive_metric(x, y):
    """d(x, y) = 2^{-first disagreement index}, straight from the definition."""
    for k, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return 2.0 ** (-k)
    return 0.0


def naive_separated(x, y, n, m):
    """max_{k<n} d(shift^k x, shift^k y) / 2^{-m} > 1, by direct evaluation."""
    eps = 2.0 ** (-m)
    return max(naive_metric(x[k:], y[k:]) for k in range(n)) / eps > 1.0


def naive_fiber_words(bundle, base_symbols, length):
    """Recursive enumeration of admissible fiber words, independent of the DFS."""
    if length == 1:
        return [(a,) for a in range(bundle.num_symbols)]
    out = []
    for prefix in naive_fiber_words(bundle, base_symbols, length - 1):
        for b in range(bundle.num_symbols):
            if bundle.allowed[base_symbols[length - 2], prefix[-1], b]:
                out.append(prefix + (b,))
    return out


def transfer_count(bundle, u, ell):
    """Number of admissible length-ell fiber words over u, by an exact integer matrix product."""
    syms = tuple(u)
    if ell < 1 or ell > len(syms):
        raise ValueError("need |u| >= ell >= 1")
    vec = np.ones(bundle.num_symbols, dtype=object)
    for k in range(ell - 2, -1, -1):
        vec = bundle.allowed[syms[k]].astype(object) @ vec
    return int(vec.sum())


def separated_set_oracle(bundle, potential, base_symbols, n, m, length):
    """Exhaustive maximal-separated-set partition sum, from first principles.

    Enumerates all admissible fiber words of the given length, groups them
    into non-separation classes (verified to be cliques, i.e. the relation is
    transitive on the candidate set), takes the best representative per class
    and returns log sum exp(f_n) over those representatives.
    """
    words = naive_fiber_words(bundle, base_symbols, length)
    classes = []
    for w in words:
        for cls in classes:
            if not naive_separated(w, cls[0], n, m):
                cls.append(w)
                break
        else:
            classes.append([w])
    for cls in classes:
        for x in cls:
            for y in cls:
                assert not naive_separated(x, y, n, m) or x == y
    best = [max(reference_value(potential, base_symbols, w, n) for w in cls) for cls in classes]
    peak = max(best)
    return peak + math.log(sum(math.exp(v - peak) for v in best))


def per_t_pressure_at_t(chain, bundle, cocycle, t, n, m, mode="exact", samples=0, seed=0):
    """pressure_at_t at one t the per-t way: its own ScaledInverseNormPotential, its own
    tree or freshly drawn forest, and two full transfer DPs, at depths n and n-1."""
    potential = ScaledInverseNormPotential(cocycle, t)
    tree = pressure._base_words(chain, n, m, mode, samples, seed, DEFAULT_BUDGET)
    vals = pressure._log_partition(bundle, potential, tree, n, DEFAULT_BUDGET)
    if len(tree.symbol) > 1:  # n = m = 1: f_0 = 0 over words of length 0
        lower = PrefixTree(tree.symbol[:-1], tree.parent[:-1], tree.prob[:-1])
        lo = (pressure._log_partition(bundle, potential, lower, n - 1, DEFAULT_BUDGET) if n > 1
              else pressure._tree_log_partition(bundle, None, lower.symbol, lower.parent, 0))
        vals = vals - lo[tree.parent[-1]]
    return pressure._estimate(tree, n, m, mode, samples, seed, vals)
