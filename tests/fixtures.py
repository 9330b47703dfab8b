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
    solve_consistent_initial,
    stationary_distribution,
)
from randpress import bundle as bundle_mod
from randpress import bowen, pressure
from randpress.base import DEFAULT_BUDGET, PrefixTree, _choice_cdf
from randpress.errors import SingularMatrix
from randpress.potentials import _log_norms, _row_payload

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
    """solve_consistent_initial's pi from a joint kernel built entry by entry.

    K[r*A + a, s*A + b] = T[r, s] * Q[r, a, b], one product per entry; the
    least-squares solution of [K^T - I; 1] j = [0; 1] is clipped at 0 and each
    row j(s, .) is renormalised.
    """
    Q = np.asarray(transition, dtype=float)
    T = chain.transition
    S, A = chain.num_states, Q.shape[1]
    K = np.zeros((S * A, S * A))
    for r in range(S):
        for a in range(A):
            for s in range(S):
                for b in range(A):
                    K[r * A + a, s * A + b] = T[r, s] * Q[r, a, b]
    rhs = np.zeros(S * A + 1)
    rhs[-1] = 1.0
    x, *_ = np.linalg.lstsq(np.vstack([K.T - np.eye(S * A), np.ones(S * A)]), rhs, rcond=None)
    j = np.maximum(x.reshape(S, A), 0.0)
    return j / j.sum(axis=1, keepdims=True)


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


def reference_products(cocycle, base_arr, fiber_arr, n):
    """Stacked cocycle products, each row's built from the identity on its own: one stacked
    matmul per coordinate, n per row."""
    P = np.broadcast_to(np.eye(cocycle.dim), (len(base_arr), cocycle.dim, cocycle.dim))
    for k in range(n):
        P = cocycle.matrices[base_arr[:, k], fiber_arr[:, k]] @ P
    return P


def reference_log_norms(P, kind, inverse=True):
    """(log ||P||, log ||P^{-1}|| or None) of a product stack by LAPACK for every d.

    Spectral: a stacked SVD, and log 1/sigma_min = the other log sigma_i - LU's
    log|det P|.  max_row_sum: the max row sum of P and of inv(P).  SingularMatrix
    if log ||P^{-1}|| is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "spectral":
            sigma = np.linalg.svd(P, compute_uv=False)
            log_top = np.log(sigma[..., 0])
            if not inverse:
                return log_top, None
            log_inv = np.log(sigma[..., :-1]).sum(axis=-1) - np.linalg.slogdet(P)[1]
        else:
            log_top = np.log(np.abs(P).sum(axis=-1).max(axis=-1))
            if not inverse:
                return log_top, None
            try:
                Pinv = np.linalg.inv(P)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrix(str(exc)) from exc
            log_inv = np.log(np.abs(Pinv).sum(axis=-1).max(axis=-1))
    if not np.isfinite(log_inv).all():
        raise SingularMatrix("singular cocycle product")
    return log_top, log_inv


def reference_eval_batch(potential, base_arr, fiber_arr, n):
    """f_n on stacked word rows: cocycle families from reference_products and LAPACK norms,
    any other potential from its own eval_batch."""
    if isinstance(potential, ScaledInverseNormPotential):
        if potential.t == 0.0:
            return np.zeros(len(base_arr))
        P = reference_products(potential.inner, base_arr, fiber_arr, n)
        return potential.t * reference_log_norms(P, potential.inner.norm_kind)[1]
    if isinstance(potential, CocyclePotential):
        P = reference_products(potential, base_arr, fiber_arr, n)
        return reference_log_norms(P, potential.norm_kind, inverse=False)[0]
    return potential.eval_batch(base_arr, fiber_arr, n)


def reference_fiber_words(support, base, ell):
    """Length-ell fiber words over each row of an (N, >= ell-1) base-word array, in chunks.

    The chunked enumerator the joint walk replaced: grown one symbol per level under
    support[u_{k-1}], yielding (chunk, row, words) per slice of consecutive base words, words[r]
    over base[chunk][row[r]], rows in base order and, over one base word, lexicographic.  A
    chunk holds at most bundle._JOINT_ROWS joint rows (read at call time), unless one base word
    has more.
    """
    A = support.shape[1]
    step = max(1, bundle_mod._JOINT_ROWS // A ** ell)
    for lo in range(0, len(base), step):
        chunk = slice(lo, min(lo + step, len(base)))
        head = base[chunk]
        row = np.repeat(np.arange(len(head)), A)
        words = np.tile(np.arange(A), len(head))[:, None]
        for k in range(1, ell):
            par, sym = np.nonzero(support[head[row, k - 1], words[:, -1]])
            row, words = row[par], np.column_stack([words[par], sym])
        yield chunk, row, words


def reference_joint_values(bundle, potential, tree, d):
    """(segments, key, f_d values or the SingularMatrix) per reference_fiber_words chunk of
    the depth-d base words of a tree: every (base word, fiber word) row evaluated on its own
    by reference_eval_batch, keyed per (base word, last fiber symbol) within its chunk."""
    words, A = tree.words(d), bundle.num_symbols
    for c, row, fibers in reference_fiber_words(bundle.allowed, words, d):
        try:
            vals = reference_eval_batch(potential, words[c][row], fibers, d)
        except SingularMatrix as exc:
            vals = exc
        yield (c.stop - c.start) * A, row * A + fibers[:, -1], vals


def reference_level_weights(bundle, potential, tree, depths, ts):
    """The non-additive level weights one depth at a time from reference_joint_values: the
    linear DP state of t * f_d at level d-1 for each d in depths, t on its leading axis."""
    out = []
    for d in depths:
        parts = []
        for size, key, vals in reference_joint_values(bundle, potential, tree, d):
            if isinstance(vals, SingularMatrix) and (ts > 0.0).any():
                raise vals
            parts.append([pressure._segment_logsumexp(t * vals if t > 0.0 else np.zeros(len(key)),
                                                      key, size) for t in ts])
        V = np.concatenate(parts, axis=1).reshape(len(ts), -1, bundle.num_symbols)
        out.append(pressure._to_linear(V, d - 1))
    return out


def sparse_measure_system(rng, valid):
    """(chain, bundle, measure) with S and A drawn from {2, 3} and zeros in T and Q.

    T holds a cycle and a self-loop, so the chain is ergodic; the bundle is the support of
    Q.  With valid no row of Q enters the last fiber symbol and the initials are
    solve_consistent_initial's, zero on that symbol; otherwise they are drawn with zeros, and
    the measure is not invariant.
    """
    S, A = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    T = rng.uniform(0.1, 1.0, (S, S)) * (rng.random((S, S)) < 0.5)
    T[np.arange(S), (np.arange(S) + 1) % S] += 0.5
    T[0, 0] += 0.5
    chain = BaseChain.from_transition(T / T.sum(axis=1, keepdims=True))
    Q = rng.uniform(0.1, 1.0, (S, A, A)) * (rng.random((S, A, A)) < 0.6)
    Q[np.arange(S)[:, None], np.arange(A), rng.integers(A, size=(S, A))] += 0.5
    if valid:
        Q[..., -1] = 0.0
        Q[..., 0] += (Q.sum(axis=2) == 0.0) * 0.5
    Q = Q / Q.sum(axis=2, keepdims=True)
    if valid:
        pi = solve_consistent_initial(Q, chain)[0]
    else:
        pi = rng.uniform(0.1, 1.0, (S, A)) * (rng.random((S, A)) < 0.7)
        pi[:, 0] += 0.1
        pi = pi / pi.sum(axis=1, keepdims=True)
    bundle = BundleSFT.from_matrices((Q > 0.0).astype(int))
    return chain, bundle, RandomMarkovMeasure(pi, Q)


def sweep_potentials(rng, S, A):
    """Cocycles of dimension 1, 2 and 3 under both norms, an additive potential and a
    scaled_inverse potential at t = 0.7, for S base and A fiber symbols."""
    cocycles = [random_cocycle(rng, S, A, dim=d, norm_kind=kind)
                for d in (1, 2, 3) for kind in ("spectral", "max_row_sum")]
    return [*cocycles, random_additive(rng, S, A),
            ScaledInverseNormPotential(random_cocycle(rng, S, A), 0.7)]


def reference_weighted_words(meas, chain, n, budget=DEFAULT_BUDGET):
    """The length-n (base word, fiber word) rows of positive measure weight, one walk per
    depth: the word columns and the cylinder weight p(u0) pi(w0) prod T Q as the payload,
    chunk by chunk.  Yields (base, fiber, weight) arrays."""
    tree = chain.prefix_tree(n, budget)
    lead, T, Q = chain.stationary[:, None] * meas.initial, chain.transition, meas.transition

    def extend(payload, u, w):
        if payload is None:
            return (*bundle_mod._word_columns(None, u, w), lead[u, w])
        v, x = payload[0][:, -1], payload[1][:, -1]
        return (*bundle_mod._word_columns(payload[:2], u, w), payload[2] * T[v, u] * Q[v, x, w])

    for *_, (u, fibers, wgt) in bundle_mod._joint_walk(Q > 0.0, tree, [n], extend):
        keep = wgt > 0.0
        yield u[keep], fibers[keep], wgt[keep]


def reference_averages(meas, chain, potential, depths):
    """a_d for each d in depths, one walk per depth: eval_batch on the word columns of each
    reference_weighted_words chunk, the chunks' dots added in order."""
    return [float(sum(np.dot(wgt, potential.eval_batch(u, w, d))
                      for u, w, wgt in reference_weighted_words(meas, chain, d)))
            for d in depths]


def reference_lyapunov_spread(cocycle, meas, chain, n):
    """(top, bottom, spread) at depth n from reference_weighted_words: each chunk's products
    rebuilt from its word columns by _row_payload and read by _log_norms."""
    top = inv = 0
    for u, w, wgt in reference_weighted_words(meas, chain, n):
        P, log_det = _row_payload(ScaledInverseNormPotential(cocycle, 1.0), u, w, n)
        log_top, log_inv = _log_norms(P, cocycle.norm_kind, log_det)
        top += np.dot(wgt, log_top)
        inv += np.dot(wgt, log_inv)
    top, bottom = float(top), -float(inv)
    return top / n, bottom / n, (top - bottom) / n


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


def log_space_carry(bundle, symbol, parent, V=None, table=None):
    """The transfer DP in log space, one max-shifted log-sum-exp per level: the log weights
    V[..., node, a] at the last level of a base-word tree, from log weights V at level 0 (by
    default the table's, or 0) and a one-step table."""
    logM = np.where(bundle.allowed == 1, 0.0, -np.inf)
    if V is None:
        V = (np.zeros((len(symbol[0]), bundle.num_symbols)) if table is None
             else table[..., symbol[0], :])
    with np.errstate(divide="ignore"):
        for k in range(1, len(symbol)):
            x = V[..., None] + logM[symbol[k - 1]]
            peak = x.max(axis=-2, keepdims=True)
            peak[~np.isfinite(peak)] = 0.0
            V = (np.log(np.exp(x - peak).sum(axis=-2)) + peak[..., 0, :])[..., parent[k], :]
            if table is not None:
                V = V + table[..., symbol[k], :]
    return V


def log_space_partition(bundle, symbol, parent, V=None, table=None):
    """Log partition sums at the last level of log_space_carry: a sum over the last symbol."""
    V = log_space_carry(bundle, symbol, parent, V, table)
    peak = V.max(axis=-1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(V - peak).sum(axis=-1)) + peak[..., 0]


def state_log_weights(state):
    """The log weights of a pressure._carry state, in linear or in log space."""
    if state.scale is None:
        return state.W
    with np.errstate(divide="ignore"):
        return np.log(state.W) + state.scale[..., None]


def cell_log_partition(bundle, potential, tree, n, budget=DEFAULT_BUDGET):
    """Log partition sums of one cell at depth n over the deepest level of a tree or forest,
    on its own: the level-weights engine at scale 1, then the DP down the deeper levels."""
    plan = pressure._Plan(bundle, tree)
    [V] = pressure._level_weights(plan, potential, [n], budget)(np.ones(1))
    return pressure._tree_log_partition(plan, len(tree.symbol), V)[0]


def pressure_at_t(chain, bundle, cocycle, t, n, m, mode="exact", samples=0, seed=0,
                  budget=DEFAULT_BUDGET):
    """The Bowen family's depth-increment pressure estimate at one scale t."""
    return bowen._inverse_norm_family(chain, bundle, cocycle, n, m, mode, samples, seed,
                                      budget)([t])[0]


def per_t_pressure_at_t(chain, bundle, cocycle, t, n, m, mode="exact", samples=0, seed=0):
    """pressure_at_t at one t the per-t way: its own ScaledInverseNormPotential, its own
    tree or freshly drawn forest, and two full transfer DPs, at depths n and n-1."""
    potential = ScaledInverseNormPotential(cocycle, t)
    tree = pressure._base_words(chain, n, m, mode, samples, seed, DEFAULT_BUDGET)
    vals = cell_log_partition(bundle, potential, tree, n)
    if len(tree.symbol) > 1:  # n = m = 1: f_0 = 0 over words of length 0
        lower = PrefixTree(tree.symbol[:-1], tree.parent[:-1], tree.prob[:-1])
        lo = (cell_log_partition(bundle, potential, lower, n - 1) if n > 1
              else pressure._tree_log_partition(pressure._Plan(bundle, lower), n + m - 2))
        vals = vals - lo[tree.parent[-1]]
    return pressure._estimate(tree, n, m, mode, samples, seed, vals)
