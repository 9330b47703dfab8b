"""Random subshift of finite type: the bundle and its fiber words.

Fiber admissibility is controlled by one 0/1 matrix per base symbol, indexed
at the source time: a fiber word w over a base word u is admissible when
M_{u_k}(w_k, w_{k+1}) = 1 for every consecutive pair.  The fiber metric is
d(x, y) = 2^{-first disagreement index} and resolutions are powers 2^{-m},
which turns separation into a pure cylinder condition.
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


# Joint (base word, fiber word) rows per chunk, unless one base word has more.
_JOINT_ROWS = 1 << 16


def fiber_budget(num_symbols: int, ell: int, budget: int) -> None:
    """Raise BudgetExceeded when num_symbols^ell fiber words exceed the budget."""
    if num_symbols ** ell > budget:
        raise BudgetExceeded(f"{num_symbols}^{ell} fiber words exceed budget {budget}")


def fiber_words(support: np.ndarray, base: np.ndarray, ell: int):
    """Length-ell fiber words over each row of an (N, >= ell-1) base-word array, in chunks.

    Grown one symbol per level under support[u_{k-1}], an (S, A, A) 0/1 array
    (a bundle's allowed, or the support of a measure's transitions).  Yields
    (chunk, row, words) per slice of consecutive base words: words[r] lies
    over base[chunk][row[r]], rows in base order and, over one base word, in
    lexicographic order.  A chunk holds at most _JOINT_ROWS joint rows, unless
    one base word has more.
    """
    A = support.shape[1]
    step = max(1, _JOINT_ROWS // A ** ell)
    for lo in range(0, len(base), step):
        chunk = slice(lo, min(lo + step, len(base)))
        head = base[chunk]
        row = np.repeat(np.arange(len(head)), A)
        words = np.tile(np.arange(A), len(head))[:, None]
        for k in range(1, ell):
            par, sym = np.nonzero(support[head[row, k - 1], words[:, -1]])
            row, words = row[par], np.column_stack([words[par], sym])
        yield chunk, row, words
