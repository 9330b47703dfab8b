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

from .base import DEFAULT_BUDGET, BaseChain, PrefixTree
from .bundle import BundleSFT
from .errors import InvalidMeasure, NoBracket, NonMonotone
from .measures import RandomMarkovMeasure, _weighted_words, validate_measure
from .pressure import _MONO_TOL, PressureEstimate, _estimate, _log_partition
from .potentials import CocyclePotential, ScaledInverseNormPotential, _log_inverse_norm, _mat_norm


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
    potential = ScaledInverseNormPotential(cocycle, t)

    def increment(tree: PrefixTree) -> np.ndarray:
        hi = _log_partition(bundle, potential, tree, n, budget)
        if len(tree.symbol) == 1:  # n = m = 1: f_0 = 0 over words of length 0
            return hi
        lower = PrefixTree(tree.symbol[:-1], tree.parent[:-1], tree.prob[:-1])
        return hi - _log_partition(bundle, potential, lower, n - 1, budget)[tree.parent[-1]]

    return _estimate(chain, n, m, mode, samples, seed, budget, increment)


def _generators_conformal(cocycle: CocyclePotential) -> bool:
    if cocycle.dim == 1:
        return True
    B = cocycle.matrices
    for s in range(B.shape[0]):
        for a in range(B.shape[1]):
            M = B[s, a]
            try:
                Minv = np.linalg.inv(M)
            except np.linalg.LinAlgError:
                return False
            if np.linalg.norm(M, 2) * np.linalg.norm(Minv, 2) > 1.0 + 1e-9:
                return False
    return True


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
    """

    def p_of(t: float) -> float:
        return pressure_at_t(chain, bundle, cocycle, t, n, m, mode=mode,
                             samples=samples, seed=seed, budget=budget).value

    probes = np.linspace(0.0, t_max, 5)
    pvals = [p_of(float(t)) for t in probes]
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
        p = p_of(t)
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
        top += np.dot(wgt, np.log(_mat_norm(P, cocycle.norm_kind)))
        inv += np.dot(wgt, _log_inverse_norm(P, cocycle.norm_kind))
    top, bottom = float(top), -float(inv)
    return top / n, bottom / n, (top - bottom) / n
