"""Random subshift of finite type: the bundle and the one walk of its joint words.

Fiber admissibility is controlled by one 0/1 matrix per base symbol, indexed
at the source time: a fiber word w over a base word u is admissible when
M_{u_k}(w_k, w_{k+1}) = 1 for every consecutive pair.  The fiber metric is
d(x, y) = 2^{-first disagreement index} and resolutions are powers 2^{-m},
which turns separation into a pure cylinder condition.

Every sum over (base word, fiber word) pairs grows its fiber words in _joint_walk:
one walk of the joint tree over a base prefix tree or forest, in chunks of at most
_JOINT_ROWS rows, each row carrying a payload (its word columns, a cocycle product,
a measure weight) one level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import _freeze
from .errors import BudgetExceeded


@dataclass(frozen=True)
class BundleSFT:
    """Fiber alphabet plus per-base-symbol admissibility matrices.

    Every row of every matrix must contain a 1 so that each fiber point
    extends and fibers stay nonempty.  With ``strict=True`` zero columns are
    also rejected, which upgrades forward invariance of the fibers from
    inclusion to equality.
    """

    alphabet: tuple[str, ...]
    allowed: np.ndarray  # (S, A, A) with entries in {0, 1}
    strict: bool = False

    def __post_init__(self):
        M = np.asarray(self.allowed)
        if M.ndim != 3 or M.shape[1] != M.shape[2]:
            raise ValueError("allowed must have shape (num_base_symbols, A, A)")
        if not np.isin(M, (0, 1)).all():
            raise ValueError("admissibility matrices must be 0/1")
        if (M.sum(axis=2) == 0).any():
            s, a = np.argwhere(M.sum(axis=2) == 0)[0]
            raise ValueError(f"zero row: matrix for base symbol {s}, fiber row {a}")
        if self.strict and (M.sum(axis=1) == 0).any():
            s, a = np.argwhere(M.sum(axis=1) == 0)[0]
            raise ValueError(f"zero column: matrix for base symbol {s}, fiber column {a}")
        if len(self.alphabet) != M.shape[1]:
            raise ValueError("alphabet does not match matrix size")
        _freeze(self, "allowed", M, np.int8)

    @classmethod
    def from_matrices(cls, matrices, alphabet=None, strict: bool = False) -> "BundleSFT":
        M = np.asarray(matrices)
        names = tuple(alphabet) if alphabet is not None else tuple(f"a{i}" for i in range(M.shape[1]))
        return cls(alphabet=names, allowed=M, strict=strict)

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)


# Joint (base word, fiber word) rows per chunk, unless one base word has more.  Read at call
# time (through _per_chunk and _joint_walk), so patching it here moves every chunk and cap.
_JOINT_ROWS = 1 << 16


def _per_chunk(rows: int) -> int:
    """Items of `rows` joint rows each that fit in one chunk: _JOINT_ROWS // rows, at least 1."""
    return max(1, _JOINT_ROWS // rows)


def fiber_budget(num_symbols: int, ell: int, budget: int) -> None:
    """Raise BudgetExceeded when num_symbols^ell fiber words exceed the budget."""
    if num_symbols ** ell > budget:
        raise BudgetExceeded(f"{num_symbols}^{ell} fiber words exceed budget {budget}")


def _word_columns(payload, u: np.ndarray, w: np.ndarray) -> tuple:
    """The default joint-walk payload one level deeper: each row's base and fiber word columns."""
    return (u[:, None], w[:, None]) if payload is None else (
        np.column_stack([payload[0], u]), np.column_stack([payload[1], w]))


def _payload_of(potential) -> tuple:
    """A potential's joint-walk (extend, read): its own, or _word_columns read by eval_batch."""
    return (getattr(potential, "_extend", _word_columns),
            getattr(potential, "_read", lambda payload, d: potential.eval_batch(*payload, d)))


def _joint_walk(support: np.ndarray, tree, depths, extend=_word_columns):
    """One walk of the joint (base node, fiber word) tree of a base.PrefixTree, in chunks.

    Fiber words grow one symbol per level under support[u_{k-1}], an (S, A, A) 0/1 array (a
    bundle's allowed, or the support of a measure's transitions).  Yields, per chunk and for
    each d in depths, (i, nodes, node, last, payload): i indexes d in depths, nodes is the
    slice of level d-1 nodes no earlier chunk yielded, and row r of the length-d joint words
    over them lies over node nodes.start + node[r], ends in fiber symbol last[r] and carries
    payload[.][r].  The payload is extend(None, u_0, w_0) at level 0 and extend(parent
    payload, u_k, w_k) one level down (by default the word columns).

    A chunk is a run of nodes at level depths[-1]-1 with at most _JOINT_ROWS rows (or one
    node), walked down from its level-0 ancestors.  Rows stay node-major and lexicographic:
    each row takes the fiber symbols allowed after its last one, then each child node every
    row of its node (skipped where each node has one child, as on a forest of unrelated words).
    """
    sym, par, A = tree.symbol, tree.parent, support.shape[1]
    top = depths[-1] - 1
    done, step = [0] * (top + 1), _per_chunk(A ** (top + 1))
    for first in range(0, len(sym[top]), step):
        lo, hi = [first], [min(first + step, len(sym[top]))]
        for k in range(top, 0, -1):  # the chunk's ancestors, consecutive nodes at every level
            lo.insert(0, int(par[k][lo[0]]))
            hi.insert(0, int(par[k][hi[0] - 1]) + 1)
        node, last = np.repeat(np.arange(hi[0] - lo[0]), A), np.tile(np.arange(A), hi[0] - lo[0])
        u = sym[0][lo[0]:hi[0]][node]  # node counts from the chunk's first at its level
        payload = extend(None, u, last)
        for k in range(top + 1):
            if k:
                src, last = np.nonzero(support[u, last])
                node = node[src]
                if hi[k] - lo[k] != hi[k - 1] - lo[k - 1]:
                    child = par[k][lo[k]:hi[k]] - lo[k - 1]
                    begin = np.searchsorted(node, child)
                    reps = np.searchsorted(node, child, side="right") - begin
                    rows = np.arange(reps.sum()) + np.repeat(begin + reps - reps.cumsum(), reps)
                    node, src, last = np.repeat(np.arange(len(child)), reps), src[rows], last[rows]
                u = sym[k][lo[k]:hi[k]][node]
                payload = extend(tuple(p[src] for p in payload), u, last)
            new, done[k] = done[k] - lo[k], hi[k]  # nodes below new: yielded by an earlier chunk
            for i in (i for i, d in enumerate(depths) if d == k + 1):
                cut = np.searchsorted(node, new)
                yield (i, slice(lo[k] + new, hi[k]), node[cut:] - new, last[cut:],
                       tuple(p[cut:] for p in payload))
