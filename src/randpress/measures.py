"""Random Markov measures: invariant measures with prescribed base marginal.

A measure is given per base symbol s by an initial fiber distribution pi_s
and a row-stochastic fiber transition Q_s supported inside the bundle's
admissibility matrix.  Consistency pi_s Q_s = pi_{s'} along positive base
transitions is the finite encoding of fiberwise invariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_BUDGET, BaseChain
from .bundle import BundleSFT, fiber_budget, fiber_words
from .errors import InvalidMeasure, ShapeMismatch
from .potentials import SubadditivePotential, sup_norm_f1

_ROW_TOL = 1e-12
_CONS_TOL = 1e-10
_F_STAR_FLOOR = -1e6


@dataclass(frozen=True)
class RandomMarkovMeasure:
    initial: np.ndarray  # (S, A) probability rows
    transition: np.ndarray  # (S, A, A) row-stochastic, support inside allowed

    def __post_init__(self):
        pi = np.asarray(self.initial, dtype=float)
        Q = np.asarray(self.transition, dtype=float)
        pi.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "initial", pi)
        object.__setattr__(self, "transition", Q)


@dataclass(frozen=True)
class MeasureReport:
    row_sum_residual: float
    initial_sum_residual: float
    support_violations: int
    consistency_residual: float
    valid: bool


def _consistency_residual(pi: np.ndarray, Q: np.ndarray, chain: BaseChain) -> float:
    """Worst |pi_s Q_s - pi_{s'}| over the positive base transitions s -> s'."""
    pushed = [pi[s] @ Q[s] for s in range(len(pi))]
    return max(float(np.max(np.abs(pushed[s] - pi[s2])))
               for s, s2 in zip(*np.nonzero(chain.transition > 0.0)))


def validate_measure(
    meas: RandomMarkovMeasure, chain: BaseChain, bundle: BundleSFT
) -> MeasureReport:
    """Stochasticity, support and invariance-consistency residuals."""
    S, A = chain.num_states, bundle.num_symbols
    if meas.initial.shape != (S, A) or meas.transition.shape != (S, A, A):
        raise ShapeMismatch(
            f"measure shapes {meas.initial.shape}, {meas.transition.shape} "
            f"do not match (S={S}, A={A})"
        )
    row = float(np.max(np.abs(meas.transition.sum(axis=2) - 1.0)))
    init = float(np.max(np.abs(meas.initial.sum(axis=1) - 1.0)))
    support = int(np.sum((meas.transition > 0.0) & (bundle.allowed == 0)))
    cons = _consistency_residual(meas.initial, meas.transition, chain)
    valid = row <= _ROW_TOL and init <= _ROW_TOL and support == 0 and cons <= _CONS_TOL
    return MeasureReport(row, init, support, cons, valid)


def solve_consistent_initial(
    transition: np.ndarray, chain: BaseChain
) -> tuple[np.ndarray, float]:
    """Least-squares pi_s solving pi_s Q_s = pi_{s'} on positive base edges.

    Returns the clipped/renormalized initials and the worst constraint
    residual after projection.
    """
    Q = np.asarray(transition, dtype=float)
    S = chain.num_states
    if Q.ndim != 3 or Q.shape[0] != S or Q.shape[1] != Q.shape[2]:
        raise ShapeMismatch(f"fiber transition shape {Q.shape} does not match (S={S}, A, A)")
    A = Q.shape[1]
    rows, rhs = [], []
    for s in range(S):
        for s2 in range(S):
            if chain.transition[s, s2] > 0.0:
                block = np.zeros((A, S * A))
                block[:, s * A:(s + 1) * A] = Q[s].T
                block[:, s2 * A:(s2 + 1) * A] -= np.eye(A)
                rows.append(block)
                rhs.append(np.zeros(A))
    for s in range(S):
        norm = np.zeros((1, S * A))
        norm[0, s * A:(s + 1) * A] = 1.0
        rows.append(norm)
        rhs.append(np.ones(1))
    Amat = np.vstack(rows)
    b = np.concatenate(rhs)
    x, *_ = np.linalg.lstsq(Amat, b, rcond=None)
    pi = np.maximum(x.reshape(S, A), 0.0)
    pi = pi / pi.sum(axis=1, keepdims=True)
    return pi, _consistency_residual(pi, Q, chain)


def fiber_entropy(meas: RandomMarkovMeasure, chain: BaseChain) -> float:
    """Per-step fiber entropy, closed form over one-step statistics."""
    h = 0.0
    for s in range(chain.num_states):
        for a in range(meas.initial.shape[1]):
            row = meas.transition[s, a]
            pos = row[row > 0.0]
            h += float(chain.stationary[s]) * float(meas.initial[s, a]) * float(
                -(pos * np.log(pos)).sum()
            )
    return h


def _weighted_words(meas: RandomMarkovMeasure, chain: BaseChain, n: int, lead: np.ndarray,
                    budget: int):
    """Every length-n (base word, fiber word) pair of positive measure weight, in chunks.

    The fiber words grow under the support of Q.  A pair weighs
    lead[u0, w0] * prod T(u_{k-1}, u_k) * Q_{u_{k-1}}(w_{k-1}, w_k); with lead
    the time-0 joint law p(s) pi_s(a) that is the measure of the cylinder.
    Zero-weight rows are dropped before any potential value is taken, so a
    -inf value on an unreachable word never meets a zero weight.  Yields
    (base, fiber, weight) arrays.  The budget caps base and fiber words as
    in exact pressure.
    """
    words = chain.prefix_tree(n, budget).words()
    fiber_budget(meas.transition.shape[1], n, budget)
    for chunk, row, fibers in fiber_words(meas.transition > 0.0, words, n):
        u = words[chunk][row]
        wgt = lead[u[:, 0], fibers[:, 0]]
        for k in range(1, n):
            wgt = wgt * chain.transition[u[:, k - 1], u[:, k]] * meas.transition[
                u[:, k - 1], fibers[:, k - 1], fibers[:, k]]
        keep = wgt > 0.0
        yield u[keep], fibers[keep], wgt[keep]


def _weighted_sum(meas, chain, potential, n: int, lead: np.ndarray, budget: int) -> float:
    """Sum of f_n against the weights of _weighted_words, one eval_batch per chunk."""
    return float(sum(np.dot(wgt, potential.eval_batch(u, w, n))
                     for u, w, wgt in _weighted_words(meas, chain, n, lead, budget)))


def potential_average(
    meas: RandomMarkovMeasure,
    chain: BaseChain,
    bundle: BundleSFT,
    potential: SubadditivePotential,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """a_n = integral of f_n against the measure, exact at depth n.

    Additive potentials on consistent measures collapse to n times the
    one-step average; otherwise f_n is evaluated in batch on every cylinder
    of positive weight.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    add = potential.to_additive()
    if add is not None and validate_measure(meas, chain, bundle).valid:
        one_step = 0.0
        for s in range(chain.num_states):
            one_step += float(chain.stationary[s]) * float(
                np.dot(meas.initial[s], add.table[s])
            )
        return n * one_step
    lead = chain.stationary[:, None] * meas.initial
    return _weighted_sum(meas, chain, potential, n, lead, budget)


@dataclass(frozen=True)
class FStarBracket:
    upper: float  # min over n <= N of a_n / n, a certified upper bound
    estimate: float  # a_N / N
    slope: float  # least-squares slope of a_n vs n over the tail
    minus_inf: bool
    values: tuple[float, ...]  # a_1 .. a_N


def f_star_bracket(
    meas: RandomMarkovMeasure,
    chain: BaseChain,
    bundle: BundleSFT,
    potential: SubadditivePotential,
    N: int,
    budget: int = DEFAULT_BUDGET,
    floor: float = _F_STAR_FLOOR,
) -> FStarBracket:
    """Finite bracket for the sub-additive limit of a_n / n."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a = [potential_average(meas, chain, bundle, potential, n, budget=budget) for n in range(1, N + 1)]
    ratios = [a[i] / (i + 1) for i in range(N)]
    tail = a[N // 2:]
    ns = np.arange(N // 2 + 1, N + 1, dtype=float)
    slope = float(np.polyfit(ns, np.array(tail), 1)[0]) if len(tail) >= 2 else ratios[-1]
    return FStarBracket(
        upper=float(min(ratios)),
        estimate=float(ratios[-1]),
        slope=slope,
        minus_inf=bool(ratios[-1] < floor),
        values=tuple(a),
    )


def _window_sum(meas: RandomMarkovMeasure, chain: BaseChain, potential: SubadditivePotential,
                n: int, k: int, budget: int = DEFAULT_BUDGET) -> float:
    """Sum over i < n of E[f_k composed with the i-fold skew shift], via the joint Markov kernel.

    The pair process (base symbol, fiber symbol) is Markov with kernel
    P(s,s') Q_s(a,b), so the window at offset i weighs like a cylinder with
    the time-i joint law D_i in place of the time-0 one; this is exact
    whether or not the measure is invariant.  f_k is taken once on the
    k-windows, against the summed laws D_0 + ... + D_{n-1}.
    """
    D = chain.stationary[:, None] * meas.initial  # joint at time 0
    lead = D.copy()
    for _ in range(1, n):
        D = chain.transition.T @ np.einsum("sa,sab->sb", D, meas.transition)
        lead += D
    return _weighted_sum(meas, chain, potential, k, lead, budget)


def check_lemma34(
    meas: RandomMarkovMeasure,
    chain: BaseChain,
    bundle: BundleSFT,
    potential: SubadditivePotential,
    n: int,
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Slack of the blocking inequality k a_n <= 4 k^2 ||f_1|| + sum of shifted a_k.

    All three terms are computed exactly; the slack must be >= -1e-12.
    """
    if not n > k >= 1:
        raise ValueError("need n > k >= 1")
    rep = validate_measure(meas, chain, bundle)
    if not rep.valid:
        raise InvalidMeasure(f"measure fails validation: {rep}")
    C = sup_norm_f1(potential, chain, bundle)
    lhs = k * potential_average(meas, chain, bundle, potential, n, budget=budget)
    rhs = 4.0 * k * k * C + _window_sum(meas, chain, potential, n, k, budget)
    return float(rhs - lhs)
