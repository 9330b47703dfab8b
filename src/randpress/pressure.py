"""Topological pressure from separated-set partition sums.

With the 2^-j fiber metric and epsilon = 2^-m, a maximal separated set holds
exactly one point per admissible (n+m-1)-cylinder and the potential is
constant on each, so the partition sum is an exact finite sum.  One transfer DP
runs level by level along a tree of base words, planned once per tree (_Plan: each
level's node pick and parent gather), from the weights of one level-weights engine on
a vector of scales t (a plain sum is t = 1): additive (and additive-reducible) potentials
multiply in their one-step table on every level; any other potential is read at every
depth asked for from one walk of the joint (base word, fiber word) tree
(bundle._joint_walk, which the power-inequality and greedy checks walk too), whose rows
carry a payload such as the cocycle product (one stacked matmul per level), reduced
per last fiber symbol and carried down the deeper levels.  The DP runs in scaled
linear space, as the forward algorithm of a hidden Markov model does: one matmul per
level, a log scale per node and one log at the end.  A range rule keeps every weight
within e^+-600 of 1; a table whose per-level spread would break it takes the log-space
(log-sum-exp) step from that level on.  A family in t (the Bowen root search) does its
t-independent work once, so a root step is one DP pass that exponentiates t * table once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_BUDGET, BaseChain, PrefixTree, _check_budget, _sample_paths
from .bundle import BundleSFT, _joint_walk, _payload_of, _per_chunk
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


def _level_nats(A: int, table: np.ndarray) -> float:
    """How far one DP level can lower a weight against its row's maximum, in nats.

    A sum over a grows a row at most A-fold and shrinks no term, and a table row less its
    maximum scales a weight by e^-spread at least (-inf entries are exact zeros).  So while
    (k + 1) times this stays within _LINEAR_NATS, every nonzero weight of level k lies
    within e^+-_LINEAR_NATS of 1 in linear space.  nan for a table holding nan or +inf.
    """
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


class _Plan:
    """The t-independent part of the DP along a base-word tree: every base symbol's 0/1 fiber
    matrix side by side (blocks[a, s A + b]); per level k >= 1 the row of W @ blocks each node
    picks and the parent gather of its scale (None where level k keeps level k-1's order)."""

    def __init__(self, bundle: BundleSFT, tree: PrefixTree):
        S, A = bundle.allowed.shape[:2]
        self.bundle, self.tree, self.pick, self.gather = bundle, tree, [None], [None]
        self.log_A, rows = np.log(A), np.arange(0)
        for sym, par in zip(tree.symbol, tree.parent[1:]):
            rows = rows if len(rows) == len(sym) else np.arange(len(sym)) * S
            # children come by parent, one or more each: an equal-length level keeps the order
            self.gather.append(None if len(par) == len(sym) else par)
            self.pick.append(rows + sym if self.gather[-1] is None else (rows + sym)[par])
        self.blocks = bundle.allowed.transpose(1, 0, 2).reshape(A, S * A).astype(float)


def _scaled_tables(table: np.ndarray):
    """ts -> _carry's (log, nats, E, shift) for log = t * table, t on a leading axis: the range
    rule's nats per level, each row's maximum shift (0 if it has no finite entry) and, if level 0
    is linear, E = exp(log - shift).  For t >= 0, max(t x) = t max(x) exactly, so a finite table's
    row extremes, taken once, give every t's shift and nats; other tables (0 * -inf is nan) and a
    t * table that overflows read them off log."""
    A, finite, top, bottom = table.shape[-1], np.isfinite(table).all(), table.max(-1), table.min(-1)

    def scaled(ts):
        log, nats = ts[:, None, None] * table, np.inf
        if finite:
            shift = ts[:, None] * top
            nats = (shift - ts[:, None] * bottom).max(initial=0.0) + np.log(A)
        if not nats < np.inf:
            shift, nats = log.max(axis=-1), _level_nats(A, log)
            shift[~np.isfinite(shift)] = 0.0  # a row with no finite entry stays 0
        return log, nats, np.exp(log - shift[..., None]) if nats <= _LINEAR_NATS else None, shift
    return scaled


def _carry(plan: _Plan, depth: int, state: _Weights | None = None, table=None) -> _Weights:
    """The DP state at level depth-1 of a plan's base-word tree.

    Level k has last symbols symbol[k] and parent indices parent[k] into level k-1.  Each
    level after the state's (level 0 if none is passed in: the table's weights, or 1 when the
    DP counts fiber words) sums the parent's weights under allowed[u_{k-1}], then multiplies
    in exp(log[..., u_k, :]) if a _scaled_tables table is given (leading axes of table and
    state are independent DPs).  In linear space a level is one matmul by plan.blocks, a pick
    of each node's block and a product with the table's E row, whose shift the node's log
    scale takes.  Level k is linear while (k + 1) times the table's nats (log A with none) is
    at most _LINEAR_NATS; from there on the state takes the log-space step.
    """
    sym, par, A = plan.tree.symbol, plan.tree.parent, plan.blocks.shape[0]
    (log, nats, E, shift), logM = table or (None, plan.log_A, None, None), None
    if state is None:
        state = (_Weights(np.ones((len(sym[0]), A)), np.zeros(len(sym[0])), 0) if log is None
                 else _Weights(log[..., sym[0], :], None, 0) if E is None
                 else _Weights(E.take(sym[0], axis=-2), shift.take(sym[0], axis=-1), 0))
    W, scale = state.W, state.scale
    for k in range(state.level + 1, depth):
        if scale is None or not (k + 1) * nats <= _LINEAR_NATS:
            with np.errstate(divide="ignore"):  # log 0 = -inf over fiber words that do not extend
                W, scale = W if scale is None else np.log(W) + scale[..., None], None
                logM = np.where(plan.bundle.allowed == 1, 0.0, -np.inf) if logM is None else logM
                W = _logsumexp(W[..., None] + logM[sym[k - 1]], axis=-2)[..., par[k], :]
            if log is not None:
                W = W + log[..., sym[k], :]
            continue
        W = (W @ plan.blocks).reshape(*W.shape[:-2], -1, A).take(plan.pick[k], axis=-2)
        if plan.gather[k] is not None:
            scale = scale.take(plan.gather[k], axis=-1)
        if log is not None:
            W = W * E.take(sym[k], axis=-2)
            scale = scale + shift.take(sym[k], axis=-1)
    return _Weights(W, scale, depth - 1)


def _tree_log_partition(plan: _Plan, depth: int, state=None) -> np.ndarray:
    """Log partition sums at level depth-1: _carry with no table, then a sum over a."""
    state = _carry(plan, depth, state)
    with np.errstate(divide="ignore"):
        vals = (_logsumexp(state.W, axis=-1) if state.scale is None
                else np.log(state.W.sum(axis=-1)) + state.scale)
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


def _level_weights(plan: _Plan, potential, depths, budget: int, reuse: bool = False):
    """ts -> [DP state of t * f_d at level d-1, t on its leading axis, for each d in depths].

    An additive potential scales its table by t once per call (_scaled_tables) and runs one
    DP pass along the plan through every depth.  Any other potential checks the fiber budget
    at the tree's length and takes f_d for every depth from one _joint_walk, on every
    admissible length-d fiber word over the depth-d base words, keyed per (base word, last
    fiber symbol) by _joint_values.  A call scales each chunk's values by t and reduces them
    per key as the chunks arrive (one call only, unless reuse keeps the chunks); a
    SingularMatrix is raised there at any t > 0.  No table follows these weights, so they
    enter linear space as they are.
    """
    A, add = plan.bundle.num_symbols, potential.to_additive()
    if add is not None:
        scaled = _scaled_tables(add.table)

        def weights(ts):  # each depth resumes the pass at level d-1 of the one before
            table, out = scaled(ts), [None]
            for d in depths:
                out.append(_carry(plan, d, out[-1], table))
            return out[1:]
        return weights
    _check_budget(A, len(plan.tree.symbol), "fiber", budget)
    chunks = _joint_values(plan.bundle, potential, plan.tree, depths)
    chunks = list(chunks) if reuse else chunks

    def weights(ts):
        out = [[] for _ in depths]
        for i, size, key, vals in chunks:
            if isinstance(vals, SingularMatrix) and (ts > 0.0).any():
                raise vals  # at t = 0 every joint word weighs 1
            out[i].append([_segment_logsumexp(t * vals if t > 0.0 else np.zeros(len(key)), key,
                                              size) for t in ts])
        V = [np.concatenate(acc, axis=1).reshape(len(ts), -1, A) for acc in out]
        return [_to_linear(v, d - 1) for d, v in zip(depths, V)]
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
    plan = _Plan(bundle, _forest([syms[:n + m - 1]]))
    [V] = _level_weights(plan, potential, [n], budget)(np.ones(1))
    return float(_tree_log_partition(plan, n + m - 1, V)[0, 0])


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


def _unscaled(stat, vals: np.ndarray) -> float:
    """stat(vals), or where that overflows on finite vals, stat(vals / max|vals|) scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf of two overflowed sums
        out = stat(vals)
        if not np.isfinite(out) and np.isfinite(vals).all():
            scale = np.max(np.abs(vals))
            out = stat(vals / scale) * scale
    return float(out)


def _estimate(tree: PrefixTree, n: int, m: int, mode: str, samples: int, seed: int,
              vals: np.ndarray) -> PressureEstimate:
    """Expectation of one value per length-(n+m-1) word of a _base_words tree or forest.

    Exact mode sums vals against the cylinder probabilities; Monte Carlo mode
    averages them in sample index order, for bit-reproducibility.
    """
    if mode == "exact":
        return PressureEstimate(n=n, m=m, value=float(np.dot(tree.prob[n + m - 2], vals)),
                                mode="exact")
    std_error = (_unscaled(lambda v: np.std(v, ddof=1) / np.sqrt(samples), vals)
                 if samples > 1 else 0.0)
    return PressureEstimate(n=n, m=m, value=_unscaled(np.mean, vals), mode="monte_carlo",
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

    The t-independent work is done once: the base tree or sampled forest, its DP plan, and
    the level weights of f at depths n-1 and n (or its table's row extremes), kept for every
    probe.  Each call scales them by t and runs the DP with a leading t axis.  A table leaves
    linear space at the level its batch's widest scale sets, so a batch in which one did so
    within the tree runs again one scale at a time: no scale's bits depend on its batch.
    """
    tree = _base_words(chain, n, m, mode, samples, seed, budget)
    plan, L = _Plan(bundle, tree), n + m - 1
    weights = _level_weights(plan, potential, range(max(n - 1, 1), n + 1), budget, reuse=True)

    def evaluate(ts) -> list[PressureEstimate]:
        ts = np.asarray(ts, dtype=float)
        if not (np.isfinite(ts).all() and (ts >= 0.0).all()):
            raise ValueError(f"scale t must be finite and >= 0, got {ts.tolist()}")
        step = _per_chunk(len(tree.symbol[-1]))  # caps the T * nodes rows of the DP arrays
        if len(ts) > step:
            return [est for i in range(0, len(ts), step) for est in evaluate(ts[i:i + step])]
        *lo, hi = weights(ts)  # lo is empty at n = 1
        if hi.scale is None and len(ts) > 1:
            return [est for t in ts for est in evaluate([t])]
        hi = _tree_log_partition(plan, L, hi)
        if L > 1:  # at n = 1, f_0 = 0 and the depth-0 DP counts fiber words
            hi = hi - _tree_log_partition(plan, L - 1, *lo)[..., tree.parent[-1]]
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
    plan = _Plan(bundle, tree)
    weights = _level_weights(plan, potential, n_list, budget)(np.ones(1))  # t = 1: row 0
    rows = [_estimate(tree, n, m, mode, samples, seed,
                      _tree_log_partition(plan, n + m - 1, V)[0] / n)
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
    _check_budget(bundle.num_symbols, ell, "fiber", budget)
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
    the minimum are reduced per chunk of base words.
    """
    if k < 1 or n < 1 or m < 1:
        raise ValueError("k, n, m must be >= 1")
    L = k * n + m - 1
    _check_budget(bundle.num_symbols, L, "fiber", budget)  # before the S^L base words are built
    words = chain.prefix_tree(L, budget).words()
    if max_words is not None and len(words) > max_words:
        rng = np.random.default_rng(seed)
        words = words[np.sort(rng.choice(len(words), size=max_words, replace=False))]
    window = sorted({i for j in range(n) for i in range(j * k, min(j * k + m, L))})
    slack = np.inf
    for _, nodes, row, _, (base, fibers) in _joint_walk(bundle.allowed, _forest(words), [L]):
        vals, size = potential.eval_batch(base, fibers, k * n), nodes.stop - nodes.start
        lhs = _segment_logsumexp(vals, row, size)
        # Fiber words of one base word that agree on the separation window are not separated
        # for T^k; its partition sum takes one maximizer per class.
        best = _class_argmax(np.column_stack([row, fibers[:, window]]), vals)
        rhs = _segment_logsumexp(vals[best], row[best], size)
        slack = np.minimum(slack, np.min(lhs - rhs))
    return float(slack)
