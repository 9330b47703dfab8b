"""Bowen-equation dimension solver for (asymptotically) conformal cocycles.

The pressure-in-t map uses a depth-increment estimator
E[log Z(n)] - E[log Z(n-1)]: the boundary counting factor of finite-depth
partition sums cancels in the difference, so scalar fixtures are exact at
every depth and every separation resolution, and the Bowen root is stable
in the resolution parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_BUDGET, BaseChain
from .bundle import _JOINT_ROWS, BundleSFT, fiber_budget
from .errors import InvalidMeasure, NoBracket, NonMonotone, SingularMatrix
from .measures import RandomMarkovMeasure, _weighted_words, validate_measure
from .pressure import (_MONO_TOL, PressureEstimate, _base_words, _carry, _estimate, _joint_values,
                       _segment_logsumexp, _tree_log_partition)
from .potentials import CocyclePotential, ScaledInverseNormPotential, _log_inverse_norm, _mat_norm


def _inverse_norm_family(chain: BaseChain, bundle: BundleSFT, cocycle: CocyclePotential,
                         n: int, m: int, mode: str, samples: int, seed: int, budget: int):
    """t -> pressure_at_t(t) on a vector of t, with the t-independent work done once.

    It holds the base tree or sampled forest, and the scalar table -log|b| or
    log||P^{-1}|| of every joint word at depths n and n-1 with its segment key.
    Each call scales them by t and runs the depth-increment DP with a leading t axis.
    """
    tree = _base_words(chain, n, m, mode, samples, seed, budget)
    sym, par, L, A, k = tree.symbol, tree.parent, n + m - 1, bundle.num_symbols, max(n - 2, 0)
    unit = ScaledInverseNormPotential(cocycle, 1.0)
    add = unit.to_additive()  # a scalar cocycle's table -log|b|; t * table is to_additive at t
    if add is None:
        fiber_budget(A, L, budget)
        singular = []  # raised by the first t > 0: at t = 0 every joint word weighs 1

        def log_inverse_norm(base, fibers, depth):
            try:
                return unit.eval_batch(base, fibers, depth)
            except SingularMatrix as exc:
                singular.append(exc)

        joint = {d: list(_joint_values(bundle, log_inverse_norm, tree.words(d), d))
                 for d in range(max(n - 1, 1), n + 1)}

        def weights(depth, ts):  # (T, depth-level nodes, A) log weights at each t
            return np.stack([np.concatenate([
                _segment_logsumexp(t * vals if t > 0.0 else np.zeros(len(key)), key, size)
                for size, key, vals in joint[depth]]).reshape(-1, A) for t in ts])

    def evaluate(ts) -> list[PressureEstimate]:
        ts = np.asarray(ts, dtype=float)
        if not (np.isfinite(ts).all() and (ts >= 0.0).all()):
            raise ValueError(f"scale t must be finite and >= 0, got {ts.tolist()}")
        step = max(1, _JOINT_ROWS // len(sym[-1]))  # caps the (T, nodes, A, A) DP arrays
        if len(ts) > step:
            return [est for i in range(0, len(ts), step) for est in evaluate(ts[i:i + step])]
        if add is not None:  # the depth n-1 DP is the depth n DP's levels 0..n-2
            table = ts[:, None, None] * add.table
            lo = _carry(bundle, table, sym[:n - 1], par[:n - 1], n - 1) if n > 1 else None
            hi = _tree_log_partition(bundle, table, sym[k:], par[k:], n - k, lo)
        else:
            if singular and (ts > 0.0).any():
                raise singular[0]
            hi = _tree_log_partition(bundle, None, sym[n - 1:], par[n - 1:], 0, weights(n, ts))
            lo = weights(n - 1, ts) if n > 1 else None
        if L > 1:  # at n = 1, f_0 = 0 and the depth-0 DP counts fiber words
            hi = hi - _tree_log_partition(bundle, None, sym[k:L - 1], par[k:L - 1], 0, lo)[..., par[-1]]
        # A row view of hi is not aligned as a fresh array, and BLAS dot may sum it in
        # another order; a contiguous copy keeps every t bit-identical to a lone call.
        return [_estimate(tree, n, m, mode, samples, seed, row.copy()) for row in hi]

    return evaluate


def pressure_at_t(
    chain: BaseChain,
    bundle: BundleSFT,
    cocycle: CocyclePotential,
    t: float,
    n: int,
    m: int,
    mode: str = "exact",
    samples: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> PressureEstimate:
    """Depth-increment pressure of the scaled inverse-norm family at scale t.

    Each base word of length n+m-1 contributes log Z(n) - log Z(n-1); the
    lower depth reads the word's first n+m-2 symbols, its parent in the tree.
    """
    return _inverse_norm_family(chain, bundle, cocycle, n, m, mode, samples, seed, budget)([t])[0]


def _generators_conformal(cocycle: CocyclePotential) -> bool:
    """Whether every generator M has ||M||_2 ||M^{-1}||_2 <= 1 + 1e-9, a scaled isometry."""
    sigma = np.linalg.svd(cocycle.matrices, compute_uv=False)
    return bool(((sigma[..., -1] > 0.0) & (sigma[..., 0] <= (1.0 + 1e-9) * sigma[..., -1])).all())


@dataclass(frozen=True)
class DimensionRoot:
    t_star: float
    bracket: tuple[float, float]
    pressure_at_root: float
    iterations: tuple[tuple[float, float], ...]  # (t, pressure) of each root step after the probes
    converged: bool
    upper_estimate: bool  # True when conformality could not be certified


def dimension_root(
    chain: BaseChain,
    bundle: BundleSFT,
    cocycle: CocyclePotential,
    n: int,
    m: int,
    t_max: float,
    tol_t: float = 1e-8,
    tol_p: float = 1e-9,
    mode: str = "exact",
    samples: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    max_iter: int = 60,
) -> DimensionRoot:
    """Root of the monotone map t -> pressure_at_t by a bracketed secant step.

    Illinois regula falsi shrinks the first sign-change pair among five probes
    on [0, t_max], each step held tol_t/2 inside the bracket so both ends close
    in.  bracket = (lo, hi) with P(lo) > 0 >= P(hi); t_star is its end of
    smaller |P|; converged when hi - lo <= tol_t and |P(t_star)| <= tol_p.
    The t-independent work (base words, cocycle values) is done once per
    solve; the five probes are one batched DP pass, each step one more.
    """

    family = _inverse_norm_family(chain, bundle, cocycle, n, m, mode, samples, seed, budget)
    probes = np.linspace(0.0, t_max, 5)
    pvals = [est.value for est in family(probes)]
    for a, b in zip(pvals, pvals[1:]):
        if b > a + _MONO_TOL:
            raise NonMonotone(f"pressure increased along t: {a} -> {b}")
    p0, pmax = pvals[0], pvals[-1]
    if abs(p0) <= tol_p:
        # Zero fiber entropy: the root sits at the left endpoint.
        return DimensionRoot(
            t_star=0.0, bracket=(0.0, 0.0), pressure_at_root=p0,
            iterations=(), converged=True,
            upper_estimate=not _generators_conformal(cocycle),
        )
    if not (p0 > 0.0 >= pmax):
        raise NoBracket(f"pressure_at_t(0)={p0}, pressure_at_t({t_max})={pmax} do not straddle 0")
    i = next(i for i, p in enumerate(pvals) if p <= 0.0)
    lo, p_lo, hi, p_hi = float(probes[i - 1]), pvals[i - 1], float(probes[i]), pvals[i]
    f_lo, f_hi = p_lo, p_hi  # secant weights, halved on a stale end (Illinois)
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    iterations: list[tuple[float, float]] = []
    t_star, p_star = (lo, p_lo) if p_lo < -p_hi else (hi, p_hi)
    while len(iterations) < max_iter and not (hi - lo <= tol_t and abs(p_star) <= tol_p):
        inset = 0.5 * min(tol_t, hi - lo)
        t = min(max(lo + f_lo * (hi - lo) / (f_lo - f_hi), lo + inset), hi - inset)
        p = family([t])[0].value
        iterations.append((t, p))
        if p > 0.0:
            if moved > 0:
                f_hi *= 0.5
            lo, p_lo, f_lo, moved = t, p, p, 1
        else:
            if moved < 0:
                f_lo *= 0.5
            hi, p_hi, f_hi, moved = t, p, p, -1
        t_star, p_star = (lo, p_lo) if p_lo < -p_hi else (hi, p_hi)
    return DimensionRoot(
        t_star=t_star,
        bracket=(lo, hi),
        pressure_at_root=p_star,
        iterations=tuple(iterations),
        converged=bool(hi - lo <= tol_t and abs(p_star) <= tol_p),
        upper_estimate=not _generators_conformal(cocycle),
    )


def lyapunov_spread(
    chain: BaseChain,
    bundle: BundleSFT,
    cocycle: CocyclePotential,
    meas: RandomMarkovMeasure,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, float, float]:
    """Top/bottom exponent estimates at depth n and their spread.

    Top averages log of the product norm, bottom averages log of the co-norm
    m(A) = ||A^{-1}||^{-1}; the spread is a conformality diagnostic for the
    tested measure and depth only.
    """
    rep = validate_measure(meas, chain, bundle)
    if not rep.valid:
        raise InvalidMeasure(f"measure fails validation: {rep}")
    lead = chain.stationary[:, None] * meas.initial
    top = inv = 0  # both norms from one product stack per chunk of measure cylinders
    for u, w, wgt in _weighted_words(meas, chain, n, lead, budget):
        P = cocycle.products(u, w, n)
        if cocycle.norm_kind == "spectral":  # log 1/sigma_min = other log sigma_i - log|det P|: LU's
            # det keeps the relative accuracy that sigma_min read off the SVD loses at high condition
            sigma = np.linalg.svd(P, compute_uv=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_top = np.log(sigma[:, 0])
                log_inv = np.log(sigma[:, :-1]).sum(axis=1) - np.linalg.slogdet(P)[1]
            if not np.isfinite(log_inv).all():
                raise SingularMatrix("singular cocycle product")
        else:
            log_top, log_inv = np.log(_mat_norm(P, "max_row_sum")), _log_inverse_norm(P, "max_row_sum")
        top += np.dot(wgt, log_top)
        inv += np.dot(wgt, log_inv)
    top, bottom = float(top), -float(inv)
    return top / n, bottom / n, (top - bottom) / n
