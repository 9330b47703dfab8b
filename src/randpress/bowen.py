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
from .bundle import BundleSFT
from .errors import NoBracket, NonMonotone
from .measures import RandomMarkovMeasure, _require_valid, _weighted_words
from .pressure import _MONO_TOL, _increment_family
from .potentials import CocyclePotential, ScaledInverseNormPotential, _log_norms


def _inverse_norm_family(chain: BaseChain, bundle: BundleSFT, cocycle: CocyclePotential,
                         n: int, m: int, mode: str, samples: int, seed: int, budget: int):
    """t -> pressure of t times the unit inverse-norm potential, on a vector of t: each base
    word of length n+m-1 adds log Z(n) - log Z(n-1), Z(n-1) over its parent in the tree."""
    return _increment_family(chain, bundle, ScaledInverseNormPotential(cocycle, 1.0), n, m, mode,
                             samples, seed, budget)


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
    """Root of the monotone map t -> _inverse_norm_family(t) by a bracketed secant step.

    Illinois regula falsi shrinks the first sign-change pair among five probes
    on [0, t_max], each step held tol_t/2 inside the bracket so both ends close
    in.  bracket = (lo, hi) with P(lo) > 0 >= P(hi), or (0, 0) when |P(0)| <= tol_p; t_star is
    its end of smaller |P|; converged when hi - lo <= tol_t and |P(t_star)| <= tol_p.
    The t-independent work (base words, cocycle values) is done once per
    solve; the five probes are one batched DP pass, each step one more.
    """
    if not (np.isfinite(t_max) and t_max >= 0.0):  # before linspace, which warns on inf
        raise ValueError(f"scale t must be finite and >= 0, got t_max={t_max}")
    if not all(np.isfinite(tol) and tol >= 0.0 for tol in (tol_t, tol_p)):
        raise ValueError(f"tolerances must be finite and >= 0, got tol_t={tol_t}, tol_p={tol_p}")
    family = _inverse_norm_family(chain, bundle, cocycle, n, m, mode, samples, seed, budget)
    probes = np.linspace(0.0, t_max, 5)
    pvals = [est.value for est in family(probes)]
    for a, b in zip(pvals, pvals[1:]):
        if b > a + _MONO_TOL:
            raise NonMonotone(f"pressure increased along t: {a} -> {b}")
    p0, pmax = pvals[0], pvals[-1]
    if abs(p0) <= tol_p:  # zero fiber entropy: the root sits at the left endpoint
        lo, p_lo, hi, p_hi = 0.0, p0, 0.0, p0
    elif not (p0 > 0.0 >= pmax):
        raise NoBracket(f"pressure_at_t(0)={p0}, pressure_at_t({t_max})={pmax} do not straddle 0")
    else:
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
        upper_estimate=not cocycle._similar(1e-9),
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
    _require_valid(meas, chain, bundle)
    top = inv = 0  # both norms off the inverse-norm payload of each chunk of measure cylinders
    unit = ScaledInverseNormPotential(cocycle, 1.0)
    for _, wgt, (P, log_det) in _weighted_words(meas, chain, unit._extend, [n], budget):
        log_top, log_inv = _log_norms(P, cocycle.norm_kind, log_det)
        top += np.dot(wgt, log_top)
        inv += np.dot(wgt, log_inv)
    top, bottom = float(top), -float(inv)
    return top / n, bottom / n, (top - bottom) / n
