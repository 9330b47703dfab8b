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

_NORMS = ("spectral", "max_row_sum")  # the matrix norms a cocycle's norm_kind may name
# c eps with c = 8: a cocycle reduces to an additive table when every generator has
# sigma_1 <= (1 + c eps) sigma_d.  Float-built similarities r R(theta) read at most 2 eps.
_SIMILAR_RTOL = 8 * np.finfo(float).eps


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
    """Norm of a matrix, or of each matrix in a stack (largest singular value or max row sum).

    2x2 takes no LAPACK call and no reduce over an axis of length 2: the larger row sum, or
    sigma_1 = (hypot(a+d, b-c) + hypot(a-d, b+c)) / 2.
    """
    if P.shape[-1] != 2:
        return (np.linalg.svd(P, compute_uv=False)[..., 0] if kind == "spectral"
                else np.abs(P).sum(axis=-1).max(axis=-1))
    Q = P if kind == "spectral" else np.abs(P)
    a, b, c, d = Q[..., 0, 0], Q[..., 0, 1], Q[..., 1, 0], Q[..., 1, 1]
    if kind == "spectral":
        return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    return np.maximum(a + b, c + d)


def _log_norms(P: np.ndarray, kind: str, log_det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log ||P||, log ||P^{-1}||) of a matrix or of each matrix in a stack.

    2x2 reads log_det, log|det P| as the Birkhoff sum of the generators' log|det| (it has no
    cancellation): log ||P^{-1}||_2 = log sigma_1 - log|det P|, ||P^{-1}||_inf = ||P||_1 /
    |det P|.  Otherwise spectral takes one SVD, and log 1/sigma_min = the other log sigma_i -
    LU's log|det P|, which keeps the relative accuracy sigma_min loses at high condition;
    max_row_sum inverts P.  SingularMatrix if log ||P^{-1}|| is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if P.shape[-1] == 2:  # ||P||_1 = ||P^T||_inf
            log_top = np.log(_mat_norm(P, kind))
            log_inv = (log_top if kind == "spectral" else
                       np.log(_mat_norm(np.swapaxes(P, -1, -2), kind))) - log_det
        elif kind == "spectral":
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


def _row_payload(potential, base_arr: np.ndarray, fiber_arr: np.ndarray, n: int) -> tuple:
    """A potential's joint-walk payload on each row, after the first n coordinates of its words."""
    payload = None
    for k in range(n):
        payload = potential._extend(payload, base_arr[:, k], fiber_arr[:, k])
    return payload


def _generator_numbers(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_1, sigma_d) on a leading axis of 2, and log|det|, of each generator of a stack.

    d = 1 is |b| twice; d >= 3 takes one SVD.  2x2 takes _mat_norm's closed form, and sigma_d =
    |det| / sigma_1 (NaN for a zero matrix) with det = ad - bc formed from the entries' integer
    ratios and rounded once.  log|det| (-inf if singular) reads that det where it is 0 or in
    [2^-1022, 2^1023), else LU's (slogdet, called only then), which loses cond(B) eps.  A
    non-finite entry makes sigma_d NaN, which fails every similarity test, and every log|det| LU's.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if B.shape[-1] != 2 or not np.isfinite(B).all():
            log_det = np.linalg.slogdet(B)[1]
            if B.shape[-1] == 1:
                return np.stack([np.abs(B[..., 0, 0])] * 2), log_det
            if not np.isfinite(B).all():  # LAPACK's SVD fails on NaN, as_integer_ratio on inf too
                return np.full((2, *B.shape[:2]), np.nan), log_det
            return np.moveaxis(np.linalg.svd(B, compute_uv=False)[..., [0, -1]], -1, 0), log_det
        dets, normal = [], []
        for entries in B.reshape(-1, 4).tolist():
            (a, p), (b, q), (c, r), (d, s) = map(float.as_integer_ratio, entries)
            num, den = abs(a * d * q * r - b * c * p * s), p * q * r * s  # den is a power of 2
            try:
                dets.append(num / den)  # rounded once
            except OverflowError:  # past the largest float
                dets.append(np.inf)
            e = num.bit_length() - den.bit_length()  # 2^e <= |det| < 2^(e + 1)
            normal.append(num == 0 or abs(e) <= 1022)
        top, (det, normal) = _mat_norm(B, "spectral"), np.reshape([dets, normal], (2, *B.shape[:2]))
        log_det = np.log(det)
        return np.stack([top, det / top]), (log_det if normal.all() else
                                            np.where(normal, log_det, np.linalg.slogdet(B)[1]))


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
        if self.norm_kind not in _NORMS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        for name, value in zip(("_sigma", "_log_det"), _generator_numbers(B)):
            _freeze(self, name, value)

    def _similar(self, rtol: float) -> bool:
        """Whether every generator is a similarity to within rtol: 0 < sigma_d < inf and
        sigma_1 <= (1 + rtol) sigma_d.

        Two tolerances read this.  The Bowen root's upper_estimate flag asks whether the
        generators are conformal as given, and 1e-9 forgives entries rounded in a config.  The
        additive reduction replaces the enumerated values, so it takes _SIMILAR_RTOL, a few ulps:
        a reduced value then stays within the rounding of the enumerated product.
        """
        top, bottom = self._sigma
        return bool(((bottom > 0.0) & (bottom < np.inf) & (top <= (1.0 + rtol) * bottom)).all())

    @property
    def dim(self) -> int:
        return self.matrices.shape[2]

    def _extend(self, payload, u: np.ndarray, w: np.ndarray) -> tuple:
        """A joint walk's payload one level deeper: (each row's product, from the identity)."""
        return (self.matrices[u, w] @ (np.eye(self.dim) if payload is None else payload[0]),)

    def _read(self, payload, n: int) -> np.ndarray:
        with np.errstate(divide="ignore"):  # a zero product gives f_n = -inf by design
            return np.log(_mat_norm(payload[0], self.norm_kind))

    def eval_batch(self, base_arr, fiber_arr, n: int) -> np.ndarray:
        return self._read(_row_payload(self, base_arr, fiber_arr, n), n)

    def _reduces(self) -> bool:
        """Whether f_n is a Birkhoff sum to rounding: every generator is a similarity r R (R
        orthogonal) and the norm is spectral (or d = 1), so ||B_n ... B_1|| = r_n ... r_1.

        Every generator B has sigma_d(B) <= ||B x|| / ||x|| <= sigma_1(B), so the log-norm of
        a length-n product, and of its inverse, lies between Birkhoff sums of log sigma_d and
        log sigma_1: either table is off by at most n c eps nats per word (c eps = _SIMILAR_RTOL,
        plus the few ulps in which the test itself rounds).  max_row_sum is not multiplicative
        on rotations.
        """
        return (self.dim == 1 or self.norm_kind == "spectral") and self._similar(_SIMILAR_RTOL)

    def to_additive(self):
        """log sigma_1 of each generator: for d = 1 (a zero generator gives f_1 = -inf, as in
        eval_batch), or when _reduces holds."""
        if self.dim != 1 and not self._reduces():
            return None
        with np.errstate(divide="ignore"):
            return AdditivePotential(np.log(self._sigma[0]))


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

    def _extend(self, payload, u: np.ndarray, w: np.ndarray) -> tuple:
        """The inner cocycle's product, and the Birkhoff sum of the generators' log|det|."""
        (P,) = self.inner._extend(payload and payload[:1], u, w)
        return P, self.inner._log_det[u, w] + (payload[1] if payload else 0.0)

    def _read(self, payload, n: int) -> np.ndarray:
        if self.t == 0.0:
            return np.zeros(len(payload[0]))
        return self.t * _log_norms(payload[0], self.inner.norm_kind, payload[1])[1]

    def eval_batch(self, base_arr, fiber_arr, n: int) -> np.ndarray:
        return self._read(_row_payload(self, base_arr, fiber_arr, n), n)

    def to_additive(self):
        """-t log sigma_d of each generator, within the bound of CocyclePotential._reduces:
        for d = 1 with no zero entry (a zero takes the joint-word path), or when the inner
        cocycle reduces.  2x2 reads log sigma_d = log|det| - log sigma_1 off the cocycle's
        _log_det, as _log_norms does on the walk."""
        if not self.inner._reduces():
            return None
        top, bottom = self.inner._sigma
        if self.inner.dim == 2:
            return AdditivePotential(self.t * (np.log(top) - self.inner._log_det))
        return AdditivePotential(-self.t * np.log(bottom))


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
