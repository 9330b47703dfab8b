"""Sub-additive potential families as cylinder functionals.

All shipped potentials are locally constant: f_n depends only on the first n
coordinates of the (base word, fiber word) pair, so partition-sum suprema
over cylinders are attained everywhere on the cylinder and can be computed
exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .base import BaseChain, _choice_cdf, _column_walk, _freeze
from .bundle import BundleSFT
from .errors import SingularMatrix


class SubadditivePotential(ABC):
    """Family f_n with f_{n+m} <= f_n + f_m composed with the n-fold skew shift."""

    @abstractmethod
    def eval_batch(self, base_arr: np.ndarray, fiber_arr: np.ndarray, n: int) -> np.ndarray:
        """f_n on each row of stacked (N, >= n) base and fiber word arrays.

        Row r takes the value on the cylinder given by the first n coordinates
        of (base_arr[r], fiber_arr[r]).
        """

    def to_additive(self) -> "AdditivePotential | None":
        """An exactly equivalent additive potential, when one exists."""
        return None


@dataclass(frozen=True)
class AdditivePotential(SubadditivePotential):
    """Birkhoff sums of a one-step function phi(base symbol, fiber symbol)."""

    table: np.ndarray  # (S, A), nats per step

    def __post_init__(self):
        _freeze(self, "table", self.table)

    def eval_batch(self, base_arr, fiber_arr, n: int) -> np.ndarray:
        return self.table[base_arr[:, :n], fiber_arr[:, :n]].sum(axis=1)

    def to_additive(self):
        return self


def _mat_norm(P: np.ndarray, kind: str) -> np.ndarray:
    """Norm of a matrix, or of each matrix in a stack (largest singular value or max row sum)."""
    if kind == "spectral":
        return np.linalg.svd(P, compute_uv=False)[..., 0]
    if kind == "max_row_sum":
        return np.abs(P).sum(axis=-1).max(axis=-1)
    raise ValueError(f"unknown norm kind {kind!r}")


def _log_norms(P: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(log ||P||, log ||P^{-1}||) of a matrix or of each matrix in a stack.

    Spectral: one SVD, and log 1/sigma_min = the other log sigma_i - log|det P|: LU's det
    keeps the relative accuracy that sigma_min read off the SVD loses at high condition.
    max_row_sum inverts P.  SingularMatrix if log ||P^{-1}|| is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "spectral":
            sigma = np.linalg.svd(P, compute_uv=False)
            log_top = np.log(sigma[..., 0])
            log_inv = np.log(sigma[..., :-1]).sum(axis=-1) - np.linalg.slogdet(P)[1]
        else:
            try:
                Pinv = np.linalg.inv(P)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrix(str(exc)) from exc
            log_top, log_inv = np.log(_mat_norm(P, kind)), np.log(_mat_norm(Pinv, kind))
    if not np.isfinite(log_inv).all():
        raise SingularMatrix("singular cocycle product")
    return log_top, log_inv


def _generators_conformal(cocycle: CocyclePotential) -> bool:
    """Whether every generator M has ||M||_2 ||M^{-1}||_2 <= 1 + 1e-9, a scaled isometry."""
    sigma = np.linalg.svd(cocycle.matrices, compute_uv=False)
    return bool(((sigma[..., -1] > 0.0) & (sigma[..., 0] <= (1.0 + 1e-9) * sigma[..., -1])).all())


@dataclass(frozen=True)
class CocyclePotential(SubadditivePotential):
    """Log operator norm of a matrix cocycle driven by (base, fiber) symbols.

    f_n = log || B(u_{n-1}, w_{n-1}) ... B(u_0, w_0) || with a submultiplicative
    norm, which gives subadditivity for free.
    """

    matrices: np.ndarray  # (S, A, d, d)
    norm_kind: str = "spectral"

    def __post_init__(self):
        B = _freeze(self, "matrices", self.matrices)
        if B.ndim != 4 or B.shape[2] != B.shape[3]:
            raise ValueError("matrices must have shape (S, A, d, d)")
        if self.norm_kind not in ("spectral", "max_row_sum"):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    @property
    def dim(self) -> int:
        return self.matrices.shape[2]

    def products(self, base_arr: np.ndarray, fiber_arr: np.ndarray, n: int) -> np.ndarray:
        """Stacked products over the first n coordinates of each (base, fiber) row."""
        P = np.broadcast_to(np.eye(self.dim), (len(base_arr), self.dim, self.dim))
        for k in range(n):
            P = self.matrices[base_arr[:, k], fiber_arr[:, k]] @ P
        return P

    def eval_batch(self, base_arr, fiber_arr, n: int) -> np.ndarray:
        with np.errstate(divide="ignore"):  # a zero product gives f_n = -inf by design
            return np.log(_mat_norm(self.products(base_arr, fiber_arr, n), self.norm_kind))

    def to_additive(self):
        if self.dim != 1:
            return None
        with np.errstate(divide="ignore"):  # a zero generator gives f_1 = -inf, as in eval_batch
            return AdditivePotential(np.log(np.abs(self.matrices[:, :, 0, 0])))


@dataclass(frozen=True)
class ScaledInverseNormPotential(SubadditivePotential):
    """t * log || (B^(n))^{-1} ||, the sub-additive family behind the Bowen equation.

    Equals -t * log m(B^(n)) with m(A) = ||A^{-1}||^{-1}; sub-additive for
    every t >= 0 since inverse norms are submultiplicative in reverse order.
    """

    inner: CocyclePotential
    t: float

    def __post_init__(self):
        if self.t < 0.0:
            raise ValueError("scale t must be >= 0")

    def eval_batch(self, base_arr, fiber_arr, n: int) -> np.ndarray:
        if self.t == 0.0:
            return np.zeros(len(base_arr))
        return self.t * _log_norms(self.inner.products(base_arr, fiber_arr, n),
                                   self.inner.norm_kind)[1]

    def to_additive(self):
        b = self.inner.matrices[:, :, 0, 0]
        if self.inner.dim != 1 or np.any(b == 0.0):  # a zero entry takes the joint-word path
            return None
        return AdditivePotential(-self.t * np.log(np.abs(b)))


def _subadditivity_pairs(chain: BaseChain, bundle: BundleSFT, sample_count: int, seed: int,
                         max_block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """check_subadditivity's (sample_count, 2) block sizes and its words of length 2 max_block."""
    rng = np.random.default_rng(seed)
    nm = rng.integers(1, max_block + 1, size=(sample_count, 2))
    x = rng.random((2, sample_count, 2 * max_block))
    M, A = bundle.allowed, bundle.num_symbols
    u = _column_walk(_choice_cdf(chain.stationary), _choice_cdf(chain.transition), x[0])
    w = _column_walk(_choice_cdf(np.full(A, 1.0 / A)),
                     _choice_cdf(M / M.sum(axis=-1, keepdims=True)), x[1], over=u)
    return nm, u, w


def check_subadditivity(
    potential: SubadditivePotential,
    chain: BaseChain,
    bundle: BundleSFT,
    sample_count: int = 1000,
    seed: int = 0,
    max_block: int = 4,
) -> float:
    """Worst sampled violation of f_{n+m} <= f_n + f_m after the n-shift.

    Returns max over samples of f_{n+m} - f_n - f_m(shifted); valid potentials
    stay <= ~1e-12 up to roundoff.  default_rng(seed) draws every (n, m) as
    integers(1, max_block + 1, (sample_count, 2)), then random((2, sample_count,
    2 max_block)): the base uniforms, then the fiber uniforms.  Base words walk
    the stationary chain; a fiber word starts uniform on the alphabet and steps
    uniformly over the columns allowed at (u_{k-1}, w_{k-1}).  The three terms'
    words are stacked and f is taken once per distinct length.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    nm, u, w = _subadditivity_pairs(chain, bundle, sample_count, seed, max_block)
    n, m = nm.T
    row, start = np.tile(np.arange(sample_count), 3), np.concatenate([0 * n, 0 * n, n])
    length = np.concatenate([n + m, n, m])
    values = np.empty(3 * sample_count)
    for ell in np.unique(length).tolist():
        sel = np.flatnonzero(length == ell)
        cols = (row[sel, None], start[sel, None] + np.arange(ell))
        values[sel] = potential.eval_batch(u[cols], w[cols], ell)
    full, head, tail = values.reshape(3, sample_count)
    with np.errstate(invalid="ignore"):  # -inf minus -inf is NaN, which fmax skips
        return float(np.fmax.reduce(full - head - tail, initial=-np.inf))


def sup_norm_f1(potential: SubadditivePotential, chain: BaseChain, bundle: BundleSFT) -> float:
    """The one-step norm ||f_1||: base expectation of the fiber sup of |f_1|."""
    S, A = chain.num_states, bundle.num_symbols
    s, a = np.indices((S, A)).reshape(2, -1, 1)
    f1 = np.abs(potential.eval_batch(s, a, 1)).reshape(S, A)
    return float(np.dot(chain.stationary, f1.max(axis=1)))
