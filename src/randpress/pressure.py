"""Topological pressure from separated-set partition sums.

With the 2^-j fiber metric and epsilon = 2^-m, a maximal separated set holds
exactly one point per admissible (n+m-1)-cylinder and the potential is
constant on each, so the partition sum is an exact finite sum.  Additive (and
additive-reducible) potentials get a log-space transfer DP that runs level by
level along a tree of base words; everything else enumerates fiber words
under a budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .base import DEFAULT_BUDGET, BaseChain, _symbols, enumerate_base_words, sample_path
from .bundle import BundleSFT, enumerate_cylinders, separated_predicate
from .errors import EmptyFiber, InvalidSampleCount, InvariantViolation

_MONO_TOL = 1e-9


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
    """Max-shifted log sum exp along one axis (scipy's costs several times more on small arrays)."""
    peak = x.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0  # an all -inf slice stays -inf
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - peak).sum(axis=axis)) + np.squeeze(peak, axis)


def _tree_log_partition(bundle: BundleSFT, table, symbol, parent, depth: int) -> np.ndarray:
    """Log partition sums of an additive potential at the last level of a base-word tree.

    Level k has last symbols symbol[k] and parent indices parent[k] into level
    k-1 (a forest of unrelated words has parent[k] = arange).  V[node, a] is
    the log weight of the node's fiber words ending in a; each level applies
    allowed[u_{k-1}] once per parent node, then adds table[u_k] while k < depth.
    """
    logM = np.where(bundle.allowed == 1, 0.0, -np.inf)  # (S, A, A)
    V = table[symbol[0]] if depth >= 1 else np.zeros((len(symbol[0]), bundle.num_symbols))
    for k in range(1, len(symbol)):
        V = _logsumexp(V[:, :, None] + logM[symbol[k - 1]], axis=1)[parent[k]]
        if k < depth:
            V = V + table[symbol[k]]
    vals = _logsumexp(V, axis=1)
    if not np.isfinite(vals).all():
        raise EmptyFiber("no admissible fiber word over some base word")
    return vals


def _enumerated_log_partition(bundle, potential, u, n, m, budget) -> float:
    syms = _symbols(u)
    L = n + m - 1
    fibers = enumerate_cylinders(bundle, syms, L, budget=budget)
    if not fibers:
        raise EmptyFiber("no admissible fiber word over the given base word")
    vals = np.array([potential.eval(syms, w, n) for w in fibers])
    return float(logsumexp(vals))


def log_partition_sum(
    bundle: BundleSFT, potential, u, n: int, m: int, budget: int = DEFAULT_BUDGET
) -> float:
    """log of the maximal-separated-set partition sum over one base word.

    Equals log sum over admissible (n+m-1)-fiber-words of exp(f_n), computed
    by log-sum-exp with max shift.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    syms = _symbols(u)
    if len(syms) < n + m - 1:
        raise ValueError(f"base word must have length >= {n + m - 1}")
    return float(_batch_log_partition(bundle, potential, [syms], n, m, budget)[0])


_MAX_WORKERS = 1


def set_max_workers(count: int) -> None:
    """Cap worker threads for the enumerated (non-additive) batch path.

    Per-word results are combined in index order, so the cap never changes
    output values.
    """
    global _MAX_WORKERS
    if count < 1:
        raise ValueError("worker count must be >= 1")
    _MAX_WORKERS = count


def _batch_log_partition(bundle, potential, words, n, m, budget) -> np.ndarray:
    """Log partition sums at depth n over a batch of base words (BaseWords or symbol rows).

    Additive potentials run the tree kernel on the batch as a forest with no
    shared prefixes; others enumerate fiber words word by word.
    """
    L = n + m - 1
    arr = np.array([_symbols(w)[:L] for w in words], dtype=np.int64)
    add = potential.to_additive()
    if add is not None:
        return _tree_log_partition(bundle, add.table, arr.T, [np.arange(len(arr))] * L, n)
    rows = arr.tolist()
    if _MAX_WORKERS > 1 and len(rows) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=_MAX_WORKERS) as pool:
            vals = list(
                pool.map(
                    lambda w: _enumerated_log_partition(bundle, potential, w, n, m, budget),
                    rows,
                )
            )
        return np.array(vals)
    return np.array([_enumerated_log_partition(bundle, potential, w, n, m, budget) for w in rows])


def _expected_log_z(chain: BaseChain, bundle: BundleSFT, potential, n: int, m: int,
                    budget: int) -> float:
    """Exact E[log Z] at depth n over base words of length n+m-1, on the chain's cached tree."""
    tree = chain.prefix_tree(n + m - 1, budget)
    add = potential.to_additive()
    if add is not None:
        vals = _tree_log_partition(bundle, add.table, tree.symbol, tree.parent, n)
    else:
        vals = _batch_log_partition(bundle, potential, tree.words(), n, m, budget)
    return float(np.dot(tree.prob[-1], vals))


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
    in index order for bit-reproducibility.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    L = n + m - 1
    if mode == "exact":
        value = _expected_log_z(chain, bundle, potential, n, m, budget) / n
        return PressureEstimate(n=n, m=m, value=value, mode="exact")
    if mode == "monte_carlo":
        if samples < 1:
            raise InvalidSampleCount(f"samples must be >= 1, got {samples}")
        words = [sample_path(chain, L, seed=(seed, i)) for i in range(samples)]
        vals = _batch_log_partition(bundle, potential, words, n, m, budget) / n
        value = float(np.mean(vals))
        std_error = float(np.std(vals, ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
        return PressureEstimate(
            n=n, m=m, value=value, mode="monte_carlo", std_error=std_error,
            samples=samples, seed=seed,
        )
    raise ValueError(f"unknown mode {mode!r}")


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

    Raises InvariantViolation if the value fails near-monotonicity in m
    (finer separation admits more points).
    """
    n_list, m_list = list(n_list), list(m_list)
    if not n_list or not m_list:
        raise ValueError("n_list and m_list must be nonempty")
    if n_list != sorted(n_list) or m_list != sorted(m_list):
        raise ValueError("n_list and m_list must be increasing")
    rows = []
    for n in n_list:
        for m in m_list:
            rows.append(
                expected_log_sum(chain, bundle, potential, n, m, mode=mode,
                                 samples=samples, seed=seed, budget=budget)
            )
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
    and log sum exp(f_n) over them.
    """
    if not (m_res >= m_sep >= 1):
        raise ValueError("need m_res >= m_sep >= 1")
    syms = _symbols(u)
    candidates = enumerate_cylinders(bundle, syms, n + m_res - 1, budget=budget)
    if not candidates:
        raise EmptyFiber("no admissible fiber word over the given base word")
    values = [potential.eval(syms, w, n) for w in candidates]
    order = sorted(range(len(candidates)), key=lambda i: (-values[i], candidates[i]))
    alive = [True] * len(candidates)
    selected: list[int] = []
    for i in order:
        if not alive[i]:
            continue
        selected.append(i)
        for j in range(len(candidates)):
            if alive[j] and j != i and not separated_predicate(candidates[i], candidates[j], n, m_sep):
                alive[j] = False
        alive[i] = False
    picked = [candidates[i] for i in selected]
    log_sum = float(logsumexp(np.array([values[i] for i in selected])))
    return picked, log_sum


def _power_window(k: int, n: int, m: int, length: int) -> list[int]:
    """Coordinates where disagreement makes words separated for the k-th power map."""
    window: set[int] = set()
    for j in range(n):
        for i in range(j * k, j * k + m):
            if i < length:
                window.add(i)
    return sorted(window)


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
    k); returns the minimum slack, which must be >= -1e-12.
    """
    if k < 1 or n < 1 or m < 1:
        raise ValueError("k, n, m must be >= 1")
    L = k * n + m - 1
    words = enumerate_base_words(chain, L, budget=budget)
    if max_words is not None and len(words) > max_words:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(words), size=max_words, replace=False)
        words = [words[i] for i in sorted(idx)]
    window = _power_window(k, n, m, L)
    add = potential.to_additive()
    worst = np.inf
    for word in words:
        fibers = enumerate_cylinders(bundle, word.symbols, L, budget=budget)
        if not fibers:
            raise EmptyFiber("no admissible fiber word over some base word")
        arr = np.array(fibers, dtype=np.int64)
        if add is not None:
            us = np.array(word.symbols[: k * n], dtype=np.int64)
            vals = add.table[us[None, :], arr[:, : k * n]].sum(axis=1)
        else:
            vals = np.array([potential.eval(word.symbols, w, k * n) for w in fibers])
        lhs = float(logsumexp(vals))
        # Group fiber words by their restriction to the separation window;
        # the T^k partition sum takes one maximizer per group.
        _, inverse = np.unique(arr[:, window], axis=0, return_inverse=True)
        group_max = np.full(inverse.max() + 1, -np.inf)
        np.maximum.at(group_max, inverse, vals)
        rhs = float(logsumexp(group_max))
        worst = min(worst, lhs - rhs)
    return float(worst)
