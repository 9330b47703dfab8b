"""Driving system: a finite ergodic Markov chain viewed as a shift space.

The chain's path space plays the role of the base probability space; every
functional we evaluate depends on finitely many coordinates, so finite words
with their stationary cylinder probabilities are a complete surrogate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import BudgetExceeded, NonErgodicChain

DEFAULT_BUDGET = 2_000_000

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
# Generator.choice accepts a probability vector whose sum is 1 within sqrt(eps).
_CHOICE_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))
_WALK_CELLS = 1 << 20  # (cdf entry, sample, column) tests _column_walk holds at once


def _freeze(obj, name: str, value, dtype=float) -> np.ndarray:
    """Store a read-only copy of value as field name of a frozen dataclass, and return it."""
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _eventually_positive(adj: np.ndarray) -> bool:
    """Whether some power of a 0/1 matrix is all positive, by repeated squaring.

    A primitive S x S matrix has its ((S-1)^2 + 1)-th power positive
    (Wielandt), and every later power too.
    """
    power = adj.astype(float)
    for _ in range(((adj.shape[0] - 1) ** 2).bit_length()):
        power = np.minimum(power @ power, 1.0)
    return bool(power.all())


def _stationary_law(K: np.ndarray) -> np.ndarray:
    """Least-squares p of [K^T - I; 1] p = [0; 1], clipped at 0; the caller renormalises.

    With several closed classes it is the minimum-norm law, a positive mix of theirs.
    """
    n = K.shape[0]
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    p, *_ = np.linalg.lstsq(np.vstack([K.T - np.eye(n), np.ones(n)]), rhs, rcond=None)
    return np.maximum(p, 0.0)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary probability vector p with p @ T = p, by one least-squares solve."""
    T = np.asarray(transition, dtype=float)
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError("transition matrix must be square")
    if np.max(np.abs(T.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
        raise ValueError("transition matrix rows must sum to 1")
    adj = T > 0.0
    # adj is primitive exactly when the graph is strongly connected and aperiodic; when it
    # is not, adj | I is primitive exactly when the graph is strongly connected.
    if not _eventually_positive(adj):
        if not _eventually_positive(adj | np.eye(n, dtype=bool)):
            raise NonErgodicChain("positive-transition graph is not strongly connected")
        raise NonErgodicChain("positive-transition graph is periodic")
    p = _stationary_law(T)
    p = p / p.sum()
    if np.max(np.abs(p @ T - p)) > _STATIONARY_TOL or np.any(p <= 0.0):
        raise NonErgodicChain("stationary vector residual or positivity check failed")
    return p


@dataclass(frozen=True)
class PrefixTree:
    """Admissible base words of lengths 1..L, level k holding the words of length k+1.

    Per level, in lexicographic word order: last symbol, index of the prefix
    in the previous level (-1 at level 0) and stationary cylinder probability.
    """

    symbol: tuple[np.ndarray, ...]
    parent: tuple[np.ndarray, ...]
    prob: tuple[np.ndarray, ...]

    def words(self, length: int | None = None) -> np.ndarray:
        """The words of one length (default: the deepest level) as an (N, length) symbol array."""
        length = len(self.symbol) if length is None else length
        out = np.empty((len(self.symbol[length - 1]), length), dtype=np.int64)
        idx = np.arange(out.shape[0])
        for k in range(length - 1, -1, -1):
            out[:, k] = self.symbol[k][idx]
            idx = self.parent[k][idx]
        return out


@dataclass(frozen=True)
class BaseChain:
    """Finite-state ergodic Markov chain (states, row-stochastic transition, stationary)."""

    states: tuple[str, ...]
    transition: np.ndarray
    stationary: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        T = _freeze(self, "transition", self.transition)
        _freeze(self, "stationary",
                stationary_distribution(T) if self.stationary is None else self.stationary)
        if len(self.states) != T.shape[0]:
            raise ValueError("state list does not match transition matrix size")

    @classmethod
    def from_transition(cls, transition, states=None) -> "BaseChain":
        T = np.asarray(transition, dtype=float)
        names = tuple(states) if states is not None else tuple(f"s{i}" for i in range(T.shape[0]))
        return cls(states=names, transition=T, stationary=None)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def prefix_tree(self, length: int, budget: int = DEFAULT_BUDGET) -> PrefixTree:
        """Prefix tree of the admissible words of lengths 1..length, after a budget check."""
        if length < 1:
            raise ValueError("word length must be >= 1")
        if self.num_states ** length > budget:
            raise BudgetExceeded(f"{self.num_states}^{length} base words exceed budget {budget}")
        S, T = self.num_states, self.transition
        symbol, parent, prob = [np.arange(S)], [np.full(S, -1)], [self.stationary]
        for _ in range(1, length):
            par, sym = np.nonzero(T[symbol[-1]] > 0.0)
            prob.append(prob[-1][par] * T[symbol[-1][par], sym])
            symbol.append(sym)
            parent.append(par)
        return PrefixTree(tuple(symbol), tuple(parent), tuple(prob))


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative distribution of each probability vector along the last axis.

    The normalised cumsum Generator.choice computes, so searchsorted(cdf, u,
    side="right") is the symbol choice(p=p) draws from the uniform u.  Raises
    the ValueError choice raises for a vector with NaN or negative entries
    or with a sum off 1 by more than sqrt(eps).
    """
    total = p.sum(axis=-1)
    if np.isnan(total).any():
        raise ValueError("Probabilities contain NaN")
    if (p < 0.0).any():
        raise ValueError("Probabilities are not non-negative")
    if (np.abs(total - 1.0) > _CHOICE_SUM_TOL).any():
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _column_walk(cdf0: np.ndarray, cdf: np.ndarray, uniforms: np.ndarray, over=None) -> np.ndarray:
    """(N, L) words drawn a column at a time, symbol k of row i from uniforms[i, k].

    Symbol 0 reads cdf0 and symbol k the cdf row at symbol k-1, or at (over[i, k-1], symbol
    k-1) with over: the number of row entries <= the uniform, the symbol Generator.choice
    draws from it.  Without over, every cdf row's count is taken for a block of columns at
    once, and a column is one gather of its rows' own.
    """
    N, L = uniforms.shape
    out = np.empty((L, N), dtype=np.int64)
    out[0] = np.searchsorted(cdf0, uniforms[:, 0], side="right")
    if over is not None:
        for k in range(1, L):
            out[k] = (cdf[over[:, k - 1], out[k - 1]] <= uniforms[:, k, None]).sum(axis=1)
        return out.T
    out[0] = out[0] * N + np.arange(N)  # N symbol + i: row i's entry in a (state, row) block
    width = max(1, _WALK_CELLS // max(1, cdf.size * N))
    for lo in range(1, L, width):
        drawn = (cdf[:, :, None] <= uniforms[:, lo:lo + width].T[:, None, None]).sum(axis=2)
        for k, step in enumerate(drawn * N + np.arange(N), start=lo):
            step.take(out[k - 1], out=out[k], mode="clip")  # every index is in range
    return out.T // N


def _seed_states(seed: int, samples: int) -> np.ndarray:
    """(samples, 4) uint64 whose row i is SeedSequence((seed, i)).generate_state(4, np.uint64):
    its uint32 hash (constants fixed by numpy's stream policy) of seed's 32-bit words, then i."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    cells = [np.full(samples, w, np.uint32) for w in words] + [np.arange(samples, dtype=np.uint32)]
    cells += [np.zeros(samples, np.uint32)] * (4 - len(cells))  # the pool of 4, then extra words
    def hash_(v, xor=0, mul=1):  # xor, mul = c_j, c_{j+1} with c_j = init * mult^j mod 2^32
        return (w := (v ^ xor) * mul) ^ w >> 16
    a = np.multiply.accumulate([0x43B0D7E5] + [0x931E8875] * 4 * len(cells), dtype=np.uint32)
    cells[:4] = [hash_(v, a[j], a[j + 1]) for j, v in enumerate(cells[:4])]
    pairs = [*permutations(range(4), 2), *product(range(4, len(cells)), range(4))]  # (src, dst)
    for j, (src, dst) in enumerate(pairs, start=4):
        cells[dst] = hash_(cells[dst] * 0xCA01F9DD - hash_(cells[src], a[j], a[j + 1]) * 0x4973F715)
    b = np.multiply.accumulate([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)
    state = hash_(np.vstack(cells[:4] * 2), b[:-1, None], b[1:, None])  # 8 words read out
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _row_generator():
    """row -> Generator(PCG64(s)), s.generate_state(4, np.uint64) being row; loads numpy.random."""
    from numpy.random import PCG64, Generator, bit_generator

    class RowSeed(bit_generator.ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            assert n_words == 4 and np.dtype(dtype) == np.uint64
            return self.row

    return lambda row: Generator(PCG64(RowSeed(row)))


def _sample_paths(chain: BaseChain, L: int, seed: int, samples: int) -> np.ndarray:
    """(samples, L) stationary-chain words; row i walks the uniforms of default_rng((seed, i))."""
    cdf0, cdfT = _choice_cdf(chain.stationary), _choice_cdf(chain.transition)
    uniforms, generator = np.empty((samples, L)), _row_generator()
    for row, out in zip(_seed_states(seed, samples), uniforms):
        generator(row).random(out=out)
    return _column_walk(cdf0, cdfT, uniforms)
