"""Topological pressure from separated-set partition sums.

With the 2^-j fiber metric and epsilon = 2^-m, a maximal separated set holds
exactly one point per admissible (n+m-1)-cylinder and the potential is
constant on each, so the partition sum is an exact finite sum.  One transfer DP
runs level by level along a tree of base words, from the weights of one
level-weights engine at scale 1 or on a vector of scales t: additive (and
additive-reducible) potentials multiply in their one-step table on every level;
any other potential is read at every depth asked for from one walk of the joint
(base word, fiber word) tree (bundle._joint_walk, which the power-inequality and
greedy checks walk too), whose rows carry a payload such as the cocycle product
(one stacked matmul per level), reduced per last fiber symbol and carried down the
deeper levels.  The DP runs in scaled linear space, as the forward
algorithm of a hidden Markov model does: one matmul per level, a log scale per node
and one log at the end.  A range rule keeps every weight within e^+-600 of 1; a
table whose per-level spread would break it takes the log-space (log-sum-exp) step
from that level on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_BUDGET, BaseChain, PrefixTree, _sample_paths
from .bundle import BundleSFT, _joint_walk, _payload_of, _per_chunk, fiber_budget
from .errors import EmptyFiber, InvalidSampleCount, InvariantViolation, SingularMatrix

_MONO_TOL = 1e-9
_LINEAR_NATS = 600.0  # linear DP weights stay within e^+-600 of 1; e^-708 is the least normal


@dataclass(frozen=True)
class PressureEstimate:
    """Finite-(n, epsilon) pressure value (1/n) E[log partition sum]."""

    n: int
    m: int
    value: float
    mode: str  # "exact" or "monte_carlo"
    std_error: float = 0.0
    samples: int = 0
    seed: int | None = None


@dataclass(frozen=True)
class PressureCurve:
    rows: tuple[PressureEstimate, ...]
    extrapolated: float  # value at largest n, largest m
    fit_intercept: float  # Richardson-style a + b/n fit at largest m
    fit_slope: float


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log sum exp along one axis; callers ignore the divide warning of log 0."""
    peak = x.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0  # an all -inf slice stays -inf
    return np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis)


def _segment_logsumexp(vals: np.ndarray, key: np.ndarray, size: int) -> np.ndarray:
    """Log sum exp of vals per integer key in [0, size), shifted by each group's maximum.

    A group with no values is -inf.
    """
    peak = np.full(size, -np.inf)
    np.maximum.at(peak, key, vals)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.bincount(key, weights=np.exp(vals - peak[key]), minlength=size)) + peak


def _class_argmax(keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Index of the first maximizer of vals in each class of equal key rows, classes in key order."""
    order = np.lexsort((-vals, *keys.T[::-1]))  # stable: equal values keep index order
    ranked = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order[first]


@dataclass(frozen=True)
class _Weights:
    """Transfer-DP state at one absolute level of a base-word tree: the node's fiber words
    ending in a weigh W[..., node, a] * exp(scale[..., node]), or in log space (scale None)
    W holds their log weights."""

    W: np.ndarray
    scale: np.ndarray | None
    level: int


def _level_nats(A: int, table=None) -> float:
    """How far one DP level can lower a weight against its row's maximum, in nats.

    A sum over a grows a row at most A-fold and shrinks no term, and a table row less its
    maximum scales a weight by e^-spread at least (-inf entries are exact zeros).  So while
    (k + 1) times this stays within _LINEAR_NATS, every nonzero weight of level k lies
    within e^+-_LINEAR_NATS of 1 in linear space.  nan for a table holding nan or +inf.
    """
    if table is None:
        return np.log(A)
    with np.errstate(invalid="ignore"):  # inf - inf in a row holding +inf
        spread = table.max(axis=-1) - np.where(table > -np.inf, table, np.inf).min(axis=-1)
    return np.max(spread, initial=0.0) + np.log(A)  # a row with no finite entry is -inf


def _to_linear(V: np.ndarray, level: int) -> _Weights:
    """Log weights as a linear state, each row shifted by its maximum into the scale.

    A weight more than e^-745 below its row's maximum flushes to 0.  A table's level 0 has
    none under the range rule; weights that no table follows may: at most A^levels fiber
    words follow each, and the fiber budget bounds that.
    """
    peak = V.max(axis=-1)
    peak[~np.isfinite(peak)] = 0.0  # an all -inf row stays 0
    return _Weights(np.exp(V - peak[..., None]), peak, level)


def _carry(bundle: BundleSFT, symbol, parent, state: _Weights | None = None,
           table=None) -> _Weights:
    """The DP state at the last level of a base-word tree.

    Level k has last symbols symbol[k] and parent indices parent[k] into level k-1 (a
    forest of unrelated words has parent[k] = arange).  Each level after the first sums
    the parent's weights under allowed[u_{k-1}], then multiplies in exp(table[..., u_k, :])
    if a table is given (leading axes of table and state are independent DPs).  A state
    passed in replaces the level-0 weights, which are otherwise the table's (or 1: the DP
    then counts fiber words).

    In linear space a level is one matmul by every base symbol's 0/1 matrix side by side,
    a pick of each node's block and a product with the exp of the table row less its
    maximum, which the node's log scale takes.  Level k is linear while (k + 1) times the
    batch's _level_nats is at most _LINEAR_NATS; from there on the state takes the log-space
    step.
    """
    S, A = bundle.allowed.shape[:2]
    level, nats = 0 if state is None else state.level, _level_nats(A, table)
    if table is not None and (level + 1) * nats <= _LINEAR_NATS:
        shift = table.max(axis=-1)
        shift[~np.isfinite(shift)] = 0.0  # a row with no finite entry stays 0
        E = np.exp(table - shift[..., None])
    if state is None:
        V = np.zeros((len(symbol[0]), A)) if table is None else table[..., symbol[0], :]
        state = _to_linear(V, 0) if nats <= _LINEAR_NATS else _Weights(V, None, 0)
    W, scale, rows = state.W, state.scale, np.arange(0)
    if len(symbol) > 1:
        blocks = bundle.allowed.transpose(1, 0, 2).reshape(A, S * A).astype(float)  # [a, sA+b]
        logM = np.where(bundle.allowed == 1, 0.0, -np.inf)  # (S, A, A)
    with np.errstate(divide="ignore"):  # log 0 = -inf over fiber words that do not extend
        for k in range(1, len(symbol)):
            if scale is not None and not (level + k + 1) * nats <= _LINEAR_NATS:
                W, scale = np.log(W) + scale[..., None], None
            if scale is None:
                W = _logsumexp(W[..., None] + logM[symbol[k - 1]], axis=-2)[..., parent[k], :]
                if table is not None:
                    W = W + table[..., symbol[k], :]
                continue
            if len(rows) != len(symbol[k - 1]):
                rows = np.arange(len(symbol[k - 1])) * S
            # Prefix trees and forests list children by parent, and every node has one, so
            # a level as long as the one before has parent[k] = arange and skips the gather.
            same = len(parent[k]) == len(rows)
            pick = rows + symbol[k - 1] if same else (rows + symbol[k - 1])[parent[k]]
            W = W @ blocks
            W = W.reshape(*W.shape[:-2], -1, A).take(pick, axis=-2)
            if not same:
                scale = scale.take(parent[k], axis=-1)
            if table is not None:
                W = W * E.take(symbol[k], axis=-2)
                scale = scale + shift.take(symbol[k], axis=-1)
    return _Weights(W, scale, level + len(symbol) - 1)


def _tree_log_partition(bundle: BundleSFT, symbol, parent, state=None) -> np.ndarray:
    """Log partition sums at a tree's last level: _carry with no table, then a sum over a."""
    state = _carry(bundle, symbol, parent, state)
    with np.errstate(divide="ignore"):
        if state.scale is None:
            vals = _logsumexp(state.W, axis=-1)
        else:
            vals = np.log(state.W.sum(axis=-1)) + state.scale
    if not np.isfinite(vals).all():
        raise EmptyFiber("partition sum is 0 or infinite over some base word")
    return vals


def _joint_values(bundle: BundleSFT, potential, tree: PrefixTree, depths):
    """Per chunk and depth of one _joint_walk: (depth index, segments, key per (node, last
    fiber symbol), f_d on each row or the SingularMatrix it raised), read off the rows'
    bundle._payload_of payload."""
    A, (extend, read) = bundle.num_symbols, _payload_of(potential)
    for i, nodes, node, last, payload in _joint_walk(bundle.allowed, tree, depths, extend):
        try:
            vals = read(payload, depths[i]) if len(node) else np.zeros(0)
        except SingularMatrix as exc:
            vals = exc
        yield i, (nodes.stop - nodes.start) * A, node * A + last, vals


def _level_weights(bundle: BundleSFT, potential, tree: PrefixTree, depths, budget: int,
                   reuse: bool = False):
    """ts -> [DP state of t * f_d at level d-1, t on its leading axis, for each d in depths].

    An additive potential scales its table by t and runs one DP pass through every
    depth.  Any other potential checks the fiber budget at the tree's length and takes f_d
    for every depth from one _joint_walk, on every admissible length-d fiber word over the
    depth-d base words, keyed per (base word, last fiber symbol) by _joint_values.  A call
    scales each chunk's values by t and reduces them per key as the chunks arrive (one call
    only, unless reuse keeps the chunks); a SingularMatrix is raised there at any t > 0.  No
    table follows these weights, so they enter linear space as they are.
    """
    sym, par, A = tree.symbol, tree.parent, bundle.num_symbols
    add = potential.to_additive()
    if add is not None:
        def weights(ts):  # each depth resumes the pass at level d-1 of the one before
            table, out = ts[:, None, None] * add.table, [None]
            for lo, d in zip([1, *depths], depths):
                out.append(_carry(bundle, sym[lo - 1:d], par[lo - 1:d], out[-1], table))
            return out[1:]
        return weights
    fiber_budget(A, len(sym), budget)
    chunks = _joint_values(bundle, potential, tree, depths)
    chunks = list(chunks) if reuse else chunks

    def weights(ts):
        out = [[] for _ in depths]
        for i, size, key, vals in chunks:
            if isinstance(vals, SingularMatrix) and (ts > 0.0).any():
                raise vals  # at t = 0 every joint word weighs 1
            out[i].append([_segment_logsumexp(t * vals if t > 0.0 else np.zeros(len(key)), key,
                                              size) for t in ts])
        return [_to_linear(np.concatenate(acc, axis=1).reshape(len(ts), -1, A), d - 1)
                for d, acc in zip(depths, out)]
    return weights


def log_partition_sum(
    bundle: BundleSFT, potential, u, n: int, m: int, budget: int = DEFAULT_BUDGET
) -> float:
    """log of the maximal-separated-set partition sum over one base word.

    Equals log sum over admissible (n+m-1)-fiber-words of exp(f_n), computed
    by log-sum-exp with max shift.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    syms = tuple(u)
    if len(syms) < n + m - 1:
        raise ValueError(f"base word must have length >= {n + m - 1}")
    tree = _forest([syms[:n + m - 1]])
    [V] = _level_weights(bundle, potential, tree, [n], budget)(np.ones(1))
    return float(_tree_log_partition(bundle, tree.symbol[n - 1:], tree.parent[n - 1:], V)[0, 0])


def _forest(rows) -> PrefixTree:
    """Unrelated base words of one length as a tree whose every level keeps the row order."""
    arr = np.asarray(rows, dtype=np.int64)
    return PrefixTree(tuple(arr.T), (np.arange(len(arr)),) * arr.shape[1], ())


def _base_words(chain: BaseChain, n: int, m: int, mode: str, samples: int, seed: int,
                budget: int) -> PrefixTree:
    """The base words of length n+m-1 to average over: the chain's prefix tree (exact),
    or a forest of seeded stationary-chain samples drawn column by column.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    L = n + m - 1
    if mode == "exact":
        return chain.prefix_tree(L, budget)
    if mode == "monte_carlo":
        if samples < 1:
            raise InvalidSampleCount(f"samples must be >= 1, got {samples}")
        return _forest(_sample_paths(chain, L, seed, samples))
    raise ValueError(f"unknown mode {mode!r}")


def _estimate(tree: PrefixTree, n: int, m: int, mode: str, samples: int, seed: int,
              vals: np.ndarray) -> PressureEstimate:
    """Expectation of one value per length-(n+m-1) word of a _base_words tree or forest.

    Exact mode sums vals against the cylinder probabilities; Monte Carlo mode
    averages them in sample index order, for bit-reproducibility.
    """
    if mode == "exact":
        return PressureEstimate(n=n, m=m, value=float(np.dot(tree.prob[n + m - 2], vals)),
                                mode="exact")
    std_error = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return PressureEstimate(n=n, m=m, value=float(np.mean(vals)), mode="monte_carlo",
                            std_error=std_error, samples=samples, seed=seed)


def expected_log_sum(
    chain: BaseChain,
    bundle: BundleSFT,
    potential,
    n: int,
    m: int,
    mode: str = "exact",
    samples: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> PressureEstimate:
    """(1/n) E_P[log partition sum] over base cylinders of length n+m-1.

    Exact mode sums over all admissible base words; Monte Carlo averages over
    seeded stationary-chain samples with per-sample derived streams, combined
    in index order for bit-reproducibility.  It is the one-cell pressure_curve.
    """
    return pressure_curve(chain, bundle, potential, [n], [m], mode, samples, seed, budget).rows[0]


def _increment_family(chain: BaseChain, bundle: BundleSFT, potential, n: int, m: int, mode: str,
                      samples: int, seed: int, budget: int):
    """t -> depth increments E[log Z(n) - log Z(n-1)] of t * f (not divided by n), for a t vector.

    The t-independent work is done once: the base tree or sampled forest, and the level
    weights of f at depths n-1 and n, kept for every probe.  Each call scales them by t
    and runs the DP with a leading t axis.  A table leaves linear space at the level its
    batch's widest scale sets, so a batch in which one did so within the tree runs again
    one scale at a time: no scale's bits depend on its batch.
    """
    tree = _base_words(chain, n, m, mode, samples, seed, budget)
    sym, par, L, k = tree.symbol, tree.parent, n + m - 1, max(n - 2, 0)
    weights = _level_weights(bundle, potential, tree, range(max(n - 1, 1), n + 1), budget,
                             reuse=True)

    def evaluate(ts) -> list[PressureEstimate]:
        ts = np.asarray(ts, dtype=float)
        if not (np.isfinite(ts).all() and (ts >= 0.0).all()):
            raise ValueError(f"scale t must be finite and >= 0, got {ts.tolist()}")
        step = _per_chunk(len(sym[-1]))  # caps the T * nodes rows of the DP arrays
        if len(ts) > step:
            return [est for i in range(0, len(ts), step) for est in evaluate(ts[i:i + step])]
        *lo, hi = weights(ts)  # lo is empty at n = 1
        if hi.scale is None and len(ts) > 1:
            return [est for t in ts for est in evaluate([t])]
        hi = _tree_log_partition(bundle, sym[n - 1:], par[n - 1:], hi)
        if L > 1:  # at n = 1, f_0 = 0 and the depth-0 DP counts fiber words
            hi = hi - _tree_log_partition(bundle, sym[k:L - 1], par[k:L - 1], *lo)[..., par[-1]]
        # A row view of hi is not aligned as a fresh array, and BLAS dot may sum it in
        # another order; a contiguous copy keeps every t bit-identical to a lone call.
        return [_estimate(tree, n, m, mode, samples, seed, row.copy()) for row in hi]

    return evaluate


def pressure_curve(
    chain: BaseChain,
    bundle: BundleSFT,
    potential,
    n_list,
    m_list,
    mode: str = "exact",
    samples: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> PressureCurve:
    """Pressure values on an (n, m) grid plus a 1/n fit at the finest epsilon.

    Every cell reads the first n+m-1 levels of one base tree or forest, built at the
    longest n+m-1, and carries one engine pass's level-(n-1) weights down to its m.
    Raises InvariantViolation if the value fails near-monotonicity in m.
    """
    n_list, m_list = list(n_list), list(m_list)
    if not (n_list and m_list) or min(n_list[0], m_list[0]) < 1:
        raise ValueError("n_list and m_list must be nonempty, with every n and m >= 1")
    if n_list != sorted(n_list) or m_list != sorted(m_list):
        raise ValueError("n_list and m_list must be increasing")
    tree = _base_words(chain, n_list[-1], m_list[-1], mode, samples, seed, budget)
    weights = _level_weights(bundle, potential, tree, n_list, budget)(np.ones(1))
    rows = [_estimate(tree, n, m, mode, samples, seed, _tree_log_partition(
        bundle, tree.symbol[n - 1:n + m - 1], tree.parent[n - 1:n + m - 1], V)[0] / n)
        for n, V in zip(n_list, weights) for m in m_list]
    by_nm = {(r.n, r.m): r.value for r in rows}
    for n in n_list:
        for m_lo, m_hi in zip(m_list, m_list[1:]):
            if by_nm[(n, m_hi)] < by_nm[(n, m_lo)] - _MONO_TOL:
                raise InvariantViolation(
                    f"pressure not near-monotone in m at n={n}: "
                    f"value(m={m_hi}) < value(m={m_lo}) - {_MONO_TOL}"
                )
    m_top = m_list[-1]
    xs = np.array([1.0 / n for n in n_list])
    ys = np.array([by_nm[(n, m_top)] for n in n_list])
    if len(n_list) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
    else:
        slope, intercept = 0.0, float(ys[-1])
    return PressureCurve(
        rows=tuple(rows),
        extrapolated=by_nm[(n_list[-1], m_top)],
        fit_intercept=float(intercept),
        fit_slope=float(slope),
    )


def greedy_maximal_separated(
    bundle: BundleSFT,
    potential,
    u,
    n: int,
    m_sep: int,
    m_res: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[tuple[int, ...]], float]:
    """Greedy maximal separated set over cylinder representatives.

    Candidates are (n+m_res-1)-cylinders; separation is tested at 2^-m_sep.
    Repeatedly selects the remaining candidate maximizing f_n and discards
    everything not separated from it; returns the selected representatives
    and log sum exp(f_n) over them.  Not being separated means agreeing on the
    first n+m_sep-1 symbols, an equivalence relation, so the pass keeps from
    each class its first candidate in (-f_n, word) order, and selects in that
    order.
    """
    if not (m_res >= m_sep >= 1):
        raise ValueError("need m_res >= m_sep >= 1")
    base = np.asarray(u, dtype=np.int64)[None]
    ell = n + m_res - 1
    if n < 1 or base.shape[1] < ell:
        raise ValueError(f"need n >= 1 and a base word of length >= {ell}")
    fiber_budget(bundle.num_symbols, ell, budget)
    [(*_, (rows, candidates))] = _joint_walk(bundle.allowed, _forest(base), [ell])  # one chunk
    values = potential.eval_batch(rows, candidates, n)
    best = _class_argmax(candidates[:, :n + m_sep - 1], values)  # in word order, as candidates
    selected = best[np.argsort(-values[best], kind="stable")]
    with np.errstate(divide="ignore"):
        log_sum = float(_logsumexp(values[selected], 0))
    return [tuple(w) for w in candidates[selected].tolist()], log_sum


def check_power_lemma(
    chain: BaseChain,
    bundle: BundleSFT,
    potential,
    k: int,
    n: int,
    m: int,
    budget: int = DEFAULT_BUDGET,
    max_words: int | None = None,
    seed: int = 0,
) -> float:
    """Slack of the power inequality relating T and T^k partition sums.

    For each checked base word, computes log partition sum for T at depth kn
    minus the T^k partition sum at depth n (separation only at multiples of
    k); returns the minimum slack, which must be >= -1e-12.  Both sums and
    the minimum are reduced per chunk of base words; f_kn is read off the
    potential's payload, grown once per fiber-word prefix.
    """
    if k < 1 or n < 1 or m < 1:
        raise ValueError("k, n, m must be >= 1")
    L = k * n + m - 1
    fiber_budget(bundle.num_symbols, L, budget)  # before the S^L base words are built
    words = chain.prefix_tree(L, budget).words()
    if max_words is not None and len(words) > max_words:
        rng = np.random.default_rng(seed)
        words = words[np.sort(rng.choice(len(words), size=max_words, replace=False))]
    window = {i for j in range(n) for i in range(j * k, min(j * k + m, L))}
    (pot_extend, read), A, level = _payload_of(potential), bundle.num_symbols, 0

    def extend(payload, u, w):  # the window key, then f's payload up to depth k n
        nonlocal level
        level, key, rest = (0, 0, None) if payload is None else (level + 1, payload[0], payload[1:])
        rest = pot_extend(rest, u, w) if level < k * n else rest
        return (key * A + w if level in window else key, *rest)

    slack = np.inf
    for _, nodes, row, _, (key, *pot) in _joint_walk(bundle.allowed, _forest(words), [L], extend):
        vals, size = read(tuple(pot), k * n), nodes.stop - nodes.start
        lhs = _segment_logsumexp(vals, row, size)
        # Fiber words of one base word that agree on the separation window (the key's base-A
        # digits) are not separated for T^k; its partition sum takes one maximizer per class.
        best = _class_argmax(np.column_stack([row, key]), vals)
        rhs = _segment_logsumexp(vals[best], row[best], size)
        slack = np.minimum(slack, np.min(lhs - rhs))
    return float(slack)
