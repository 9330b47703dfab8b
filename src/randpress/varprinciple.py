"""Variational-principle workbench: gap reports, measure optimization, diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_BUDGET, BaseChain
from .bundle import BundleSFT, _joint_walk, fiber_budget
from .errors import InvariantViolation
from .measures import (
    FStarBracket,
    RandomMarkovMeasure,
    _f_star,
    _require_valid,
    fiber_entropy,
    potential_average,
    solve_consistent_initial,
)
from .pressure import PressureEstimate, _segment_logsumexp, expected_log_sum


@dataclass(frozen=True)
class MeasureSide:
    entropy: float
    bracket: FStarBracket
    side_upper: float  # entropy + bracket.upper, certified upper bound on h + F*
    excluded: bool  # True when the F* floor flag fired


@dataclass(frozen=True)
class VPGapReport:
    pressure: PressureEstimate
    sides: tuple[MeasureSide, ...]
    best_lower: float
    gap: float


def vp_gap(
    chain: BaseChain,
    bundle: BundleSFT,
    potential,
    measures,
    n: int,
    m: int,
    N: int,
    exact_pressure: float | None = None,
    tol: float = 1e-9,
    budget: int = DEFAULT_BUDGET,
) -> VPGapReport:
    """Evaluate both sides of the variational principle and report the gap.

    When a closed-form exact pressure is supplied, every measure side is
    asserted to stay below it (the certified direction of the principle).
    """
    est = expected_log_sum(chain, bundle, potential, n, m, budget=budget)
    sides = []
    for meas in measures:
        _require_valid(meas, chain, bundle)
        h = fiber_entropy(meas, chain)
        br = _f_star(meas, chain, bundle, potential, N, budget, valid=True)
        sides.append(MeasureSide(h, br, h + br.upper, br.minus_inf))
    included = [s.side_upper for s in sides if not s.excluded]
    best = max(included) if included else -np.inf
    if exact_pressure is not None:
        for s in sides:
            if not s.excluded and s.side_upper > exact_pressure + tol:
                raise InvariantViolation(
                    f"measure side {s.side_upper} exceeds exact pressure {exact_pressure}"
                )
    reference = exact_pressure if exact_pressure is not None else est.value
    return VPGapReport(
        pressure=est, sides=tuple(sides), best_lower=float(best),
        gap=float(reference - best),
    )


def _project_row(row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Clip to the support mask and renormalize onto the simplex."""
    out = np.where(mask, np.maximum(row, 0.0), 0.0)
    total = out.sum()
    if total <= 0.0:
        out = mask.astype(float)
        total = out.sum()
    return out / total


def optimize_measure(
    chain: BaseChain,
    bundle: BundleSFT,
    potential,
    family_seed: RandomMarkovMeasure,
    N: int,
    iter_cap: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[RandomMarkovMeasure, list[float]]:
    """Derivative-free coordinate ascent on the Q-row simplices.

    Objective is fiber entropy plus a_N / N; proposals perturb one row at a
    time, are projected back onto the support simplex, and are accepted only
    on improvement, so the trace is nondecreasing.
    """
    _require_valid(family_seed, chain, bundle, "family seed")
    S, A = family_seed.initial.shape
    support = bundle.allowed.astype(bool)
    rng = np.random.default_rng(seed)

    def objective(meas: RandomMarkovMeasure) -> float:
        return fiber_entropy(meas, chain) + potential_average(
            meas, chain, bundle, potential, N, budget=budget
        ) / N

    Q = family_seed.transition.copy()
    meas = RandomMarkovMeasure(initial=solve_consistent_initial(Q, chain)[0], transition=Q)
    best = objective(meas)
    trace = [best]
    step = 0.25
    for _ in range(iter_cap):
        improved = 0.0
        for s in range(S):
            for a in range(A):
                mask = support[s, a]
                if mask.sum() <= 1:
                    continue
                for _trial in range(3):
                    d = rng.standard_normal(A) * mask
                    cand_row = _project_row(Q[s, a] + step * d, mask)
                    Q_cand = Q.copy()
                    Q_cand[s, a] = cand_row
                    pi = solve_consistent_initial(Q_cand, chain)[0]
                    cand_meas = RandomMarkovMeasure(initial=pi, transition=Q_cand)
                    val = objective(cand_meas)
                    if val > best:
                        improved = max(improved, val - best)
                        Q, meas, best = Q_cand, cand_meas, val
                        trace.append(best)
        if improved == 0.0:
            step *= 0.5
            if step < 1e-6:
                break
        elif improved < tol:
            break
    return meas, trace


def empirical_measure_diagnostic(
    chain: BaseChain,
    bundle: BundleSFT,
    potential,
    n: int,
    m: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[np.ndarray, float]:
    """Orbit-averaged Gibbs-weighted one-step marginal and its shift defect.

    Weights each (n+m-1)-cylinder by exp(f_n)/Z per base word, averages the
    (base symbol, fiber symbol) occupation over the first n orbit positions,
    and reports the L1 distance between the window [0, n-1) average and its
    one-step shift (0 for exactly invariant weights; shrinks like 1/n).
    """
    S, A = chain.num_states, bundle.num_symbols
    L = n + m - 1
    marginal = np.zeros((S, A))
    lead = np.zeros((S, A))
    lag = np.zeros((S, A))
    hi = min(n, L - 1)  # shifted window end; needs position hi within the word
    tree = chain.prefix_tree(L, budget)
    fiber_budget(bundle.num_symbols, L, budget)
    for _, nodes, row, _, (u, fibers) in _joint_walk(bundle.allowed, tree, [L]):
        vals = potential.eval_batch(u, fibers, n)
        log_z = _segment_logsumexp(vals, row, nodes.stop - nodes.start)
        p = (tree.prob[-1][nodes][row] * np.exp(vals - log_z[row]))[:, None]
        np.add.at(marginal, (u[:, :n], fibers[:, :n]), p / n)
        if hi > 0:
            np.add.at(lead, (u[:, :hi], fibers[:, :hi]), p / hi)
            np.add.at(lag, (u[:, 1:hi + 1], fibers[:, 1:hi + 1]), p / hi)
    defect = float(np.abs(lead - lag).sum())
    return marginal, defect
