"""Seeded generators for the benchmark workloads.

Each workload is a pool of cases.  A case is one YAML experiment config for
``randpress.cli.run`` plus a check that compares its ``report.json`` with a
closed form from :mod:`oracle`.  The *shapes* in a pool (state and alphabet
sizes, depths, column-set sizes, verbs) are fixed per workload, so every seed
asks for the same amount of work; the seed draws the chain, the column sets,
the potentials and the measures, and the order of the pool.

Configs carry only keys the CLI reads for their verb: no ``run.threads``,
``run.iter_cap`` or ``run.random_checks``, and no ``run.mode`` on
``vp-check`` or ``lemmas``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

BUDGET = 2_000_000
VALUE_TOL = 1e-9
ROOT_TOL = 1e-6
MC_SE = 5.0
POOL = 15


@dataclass(frozen=True)
class Case:
    label: str
    config: dict
    check: Callable[[int, dict], list[str]]  # (exit code, report) -> problems


# --- shared pieces ---------------------------------------------------------------

def _chain(rng, S: int) -> np.ndarray:
    T = rng.uniform(0.2, 1.0, (S, S))
    return T / T.sum(axis=1, keepdims=True)


def _columns(rng, A: int, sizes) -> list[set[int]]:
    return [set(int(c) for c in rng.choice(A, size=k, replace=False)) for k in sizes]


def _random_sizes(rng, S: int, A: int) -> list[int]:
    """Column-set sizes in [1, A], at least one >= 2 so the fiber entropy is positive."""
    sizes = [int(k) for k in rng.integers(1, A + 1, size=S)]
    if max(sizes) < 2:
        sizes[int(rng.integers(S))] = 2
    return sizes


def _system(T, cols, A: int) -> dict:
    S = T.shape[0]
    return {
        "base": {"states": [f"s{i}" for i in range(S)], "transition": T.tolist()},
        "bundle": {
            "alphabet": [f"a{i}" for i in range(A)],
            "allowed": [[[int(b in cols[s]) for b in range(A)]] * A for s in range(S)],
        },
    }


def _expect_exit(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, want 0"]


def _rotation(r: float, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return r * np.array([[c, -s], [s, c]])


def _generic_matrices(rng, S: int, A: int) -> np.ndarray:
    """Random 2x2 generators with |det| >= 0.5, so every product is invertible."""
    B = np.empty((S, A, 2, 2))
    for s in range(S):
        for a in range(A):
            M = rng.uniform(-1.5, 1.5, (2, 2))
            while abs(np.linalg.det(M)) < 0.5:
                M = rng.uniform(-1.5, 1.5, (2, 2))
            B[s, a] = M
    return B


def _rows(report: dict) -> list[dict]:
    return report.get("results", {}).get("rows", [])


def _check_grid(report: dict, grid, bounds) -> list[str]:
    """Pressure rows cover the (n, m) grid and each lies in bounds(n, m) = (lo, hi, tol)."""
    rows = _rows(report)
    got = sorted((r["n"], r["m"]) for r in rows)
    if got != sorted(grid):
        return [f"rows {got}, want {sorted(grid)}"]
    problems = []
    for r in rows:
        lo, hi, tol = bounds(r)
        if not lo - tol <= r["value"] <= hi + tol:
            problems.append(f"n={r['n']} m={r['m']}: value {r['value']!r} outside [{lo!r}, {hi!r}] +- {tol}")
    return problems


# --- bowen-scalar: the dimension verb on scalar cocycles --------------------------

_BOWEN_SHAPES = [  # (S, A, n, m)
    (2, 2, 4, 1), (2, 2, 5, 1), (2, 2, 5, 2), (2, 2, 6, 1), (2, 2, 7, 1),
    (2, 3, 4, 2), (2, 3, 5, 1), (2, 3, 5, 2), (2, 3, 6, 1), (3, 2, 3, 2),
    (3, 2, 4, 1), (3, 2, 4, 2), (3, 2, 5, 1), (3, 3, 3, 2), (3, 3, 4, 1),
]
_T_MAX = 2.0


def _bowen_case(rng, S, A, n, m) -> Case:
    T = _chain(rng, S)
    cols = _columns(rng, A, _random_sizes(rng, S, A))
    b = rng.uniform(2.0, 5.0, (S, A))
    root = oracle.bowen_root(T, cols, b, _T_MAX)
    config = _system(T, cols, A) | {
        "potential": {"kind": "cocycle", "matrices": b.tolist()},
        "run": {"verb": "dimension", "n_list": [n], "m_list": [m], "t_max": _T_MAX,
                "budget": BUDGET},
    }

    def check(code, report):
        res = report.get("results", {})
        problems = _expect_exit(code)
        if not res.get("converged"):
            problems.append("root solve did not converge")
        if not abs(res.get("t_star", math.inf) - root) <= ROOT_TOL:
            problems.append(f"t_star {res.get('t_star')!r}, closed form {root!r}")
        return problems

    return Case(f"S={S} A={A} n={n} m={m}", config, check)


# --- cocycle-matrix: exact pressure of 2x2 cocycles --------------------------------

_COCYCLE_SHAPES = [  # (A, column-set sizes, n_list, m_list)
    (2, (2, 2), (3, 4), (1, 2)),
    (2, (2, 1), (4, 5), (1, 2)),
    (3, (2, 3), (2, 3), (1, 2)),
    (2, (2, 2), (4, 5), (1,)),
    (3, (3, 2), (3,), (1, 2)),
]
# (generators, norm): about half conformal, the rest generic in both norms.
_COCYCLE_KINDS = [
    ("conformal", "spectral"), ("generic", "spectral"),
    ("conformal", "spectral"), ("generic", "max_row_sum"),
]


def _cocycle_case(rng, A, sizes, n_list, m_list, gens, norm) -> Case:
    S = len(sizes)
    T = _chain(rng, S)
    cols = _columns(rng, A, [sizes[i] for i in rng.permutation(S)])
    if gens == "conformal":
        r = rng.uniform(0.5, 2.0, (S, A))
        B = np.array([[_rotation(r[s, a], rng.uniform(0.0, 2 * math.pi)) for a in range(A)]
                      for s in range(S)])
        lo = hi = np.log(r)
    else:
        B = _generic_matrices(rng, S, A)
        lo, hi = oracle.sandwich_tables(B, norm)
    config = _system(T, cols, A) | {
        "potential": {"kind": "cocycle", "matrices": B.tolist(), "norm": norm},
        "run": {"verb": "pressure", "n_list": list(n_list), "m_list": list(m_list),
                "mode": "exact", "budget": BUDGET},
    }
    grid = [(n, m) for n in n_list for m in m_list]

    def bounds(row):
        n, m = row["n"], row["m"]
        return oracle.pressure(T, cols, lo, n, m), oracle.pressure(T, cols, hi, n, m), VALUE_TOL

    def check(code, report):
        return _expect_exit(code) + _check_grid(report, grid, bounds)

    return Case(f"{gens} {norm} A={A} C={sizes} n={n_list} m={m_list}", config, check)


# --- mc-long-words: Monte Carlo pressure at depths far past exact enumeration -------

_MC_SHAPES = [  # (S, A, n, m)
    (2, 2, 40, 2), (2, 2, 60, 1), (2, 2, 80, 1), (2, 3, 50, 2), (2, 3, 70, 1),
    (2, 3, 80, 1), (3, 2, 40, 1), (3, 2, 50, 2), (3, 2, 70, 1), (3, 3, 40, 2),
    (3, 3, 60, 1), (3, 3, 70, 1), (2, 2, 50, 1), (3, 2, 60, 1), (2, 3, 60, 1),
]
_MC_SAMPLES = 100


def _mc_case(rng, S, A, n, m) -> Case:
    T = _chain(rng, S)
    cols = _columns(rng, A, _random_sizes(rng, S, A))
    phi = rng.uniform(-1.0, 1.0, (S, A))
    config = _system(T, cols, A) | {
        "potential": {"kind": "additive", "phi": phi.tolist()},
        "run": {"verb": "pressure", "n_list": [n], "m_list": [m], "mode": "monte_carlo",
                "samples": _MC_SAMPLES, "seed": int(rng.integers(2**31)), "budget": BUDGET},
    }

    def bounds(row):
        # Sampled words are stationary, so the estimator is unbiased for the
        # finite-n closed form; a correct one leaves 5 SE with p < 1e-6.
        cf = oracle.pressure(T, cols, phi, row["n"], row["m"])
        return cf, cf, MC_SE * row["std_error"]

    def check(code, report):
        problems = _expect_exit(code) + _check_grid(report, [(n, m)], bounds)
        if any(not r["std_error"] > 0.0 for r in _rows(report)):
            problems.append("Monte Carlo row without a positive standard error")
        return problems

    return Case(f"S={S} A={A} n={n} m={m} samples={_MC_SAMPLES}", config, check)


# --- lemma-vp: the lemma suite and the variational check --------------------------

# (column-set sizes, norm, verb, N, n, m), verbs alternating.  A lemmas op
# costs about three vp-check ops, so this pool is 5 long: each case then gets
# about 20 ops in a 20-second run instead of 7.  The cases that set the median
# and the 90th percentile use max_row_sum, whose cost does not depend on the
# drawn matrices; the spectral norm's SVD does, by several percent.
_LEMMA_SHAPES = [
    ((2, 2, 2), "spectral", "vp-check", 4, 3, 2),
    ((2, 2), "max_row_sum", "lemmas", 4, None, None),
    ((3, 2), "max_row_sum", "vp-check", 4, 4, 2),
    ((2, 2, 2), "max_row_sum", "lemmas", 3, None, None),
    ((2, 2), "max_row_sum", "vp-check", 5, 5, 2),
]


def _consistent_measure(rng, A: int, cols) -> tuple[list, np.ndarray]:
    """Fiber chains that are invariant for every base transition.

    All rows move into a common 2-symbol set D inside every C_s; on D each
    Q_s is doubly stochastic, so the uniform vector on D is the one
    initial vector consistent with every (positive) base transition.
    """
    D = sorted(set.intersection(*cols))[:2]
    Q = np.zeros((len(cols), A, A))
    for s in range(len(cols)):
        lam = rng.uniform(0.2, 0.8)
        for a in range(A):
            if a in D:
                Q[s, a, a] = lam
                Q[s, a, D[1 - D.index(a)]] = 1.0 - lam
            else:
                q = rng.uniform(0.2, 1.0)
                Q[s, a, D] = (q, 1.0 - q)
    initial = np.zeros((len(cols), A))
    initial[:, D] = 0.5
    return Q.tolist(), initial


def _lemma_case(rng, sizes, norm, verb, N, n, m) -> Case:
    S, A = len(sizes), max(sizes)
    T = _chain(rng, S)
    order = [int(c) for c in rng.permutation(A)]
    cols = [set(order[:k]) for k in (sizes[i] for i in rng.permutation(S))]
    Q, initial = _consistent_measure(rng, A, cols)
    B = _generic_matrices(rng, S, A)
    lo, hi = oracle.sandwich_tables(B, norm)
    run = {"verb": verb, "N": N, "budget": BUDGET}
    if verb == "lemmas":
        run["seed"] = int(rng.integers(2**31))
    else:
        run |= {"n_list": [n], "m_list": [m]}
    config = _system(T, cols, A) | {
        "potential": {"kind": "cocycle", "matrices": B.tolist(), "norm": norm},
        "measures": [{"transition": Q, "auto": True}],
        "run": run,
    }
    upper = oracle.increment(T, cols, hi)
    entropy = oracle.markov_fiber_entropy(T, initial, np.array(Q))

    def check_lemmas(code, report):
        problems = _expect_exit(code)
        violations = report.get("results", {}).get("violations")
        if violations != []:
            problems.append(f"reported violations {violations!r}")
        return problems

    def check_vp(code, report):
        res = report.get("results", {})
        problems = _expect_exit(code)
        p_lo, p_hi = oracle.pressure(T, cols, lo, n, m), oracle.pressure(T, cols, hi, n, m)
        if not p_lo - VALUE_TOL <= res.get("pressure", math.nan) <= p_hi + VALUE_TOL:
            problems.append(f"pressure {res.get('pressure')!r} outside [{p_lo!r}, {p_hi!r}]")
        sides = res.get("sides", [])
        if len(sides) != 1:
            return problems + [f"{len(sides)} measure sides, want 1"]
        side = sides[0]
        if not abs(side["entropy"] - entropy) <= VALUE_TOL:
            problems.append(f"entropy {side['entropy']!r}, closed form {entropy!r}")
        if side["excluded_minus_inf"] or not side["side_upper"] <= upper + VALUE_TOL:
            problems.append(f"side_upper {side['side_upper']!r} above upper pressure {upper!r}")
        return problems

    label = f"{verb} A={A} C={[sorted(c) for c in cols]} N={N}"
    if verb == "vp-check":
        label += f" n={n} m={m}"
    return Case(label, config, check_lemmas if verb == "lemmas" else check_vp)


# --- pools -------------------------------------------------------------------------

WORKLOADS = ("bowen-scalar", "cocycle-matrix", "mc-long-words", "lemma-vp")


def build(workload: str, seed: int) -> list[Case]:
    """The seeded pool of cases for a workload, in a seeded order.

    Pools hold 15 cases, or 5 for lemma-vp.  Ops run in whole passes over
    the pool; with an odd multiple of 5 cases the median op and the 90th
    percentile op both fall in the middle of one case's ops, not on a gap
    between two cases.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    if workload == "bowen-scalar":
        cases = [_bowen_case(rng, *shape) for shape in _BOWEN_SHAPES]
    elif workload == "cocycle-matrix":
        cases = [_cocycle_case(rng, *_COCYCLE_SHAPES[i % len(_COCYCLE_SHAPES)],
                               *_COCYCLE_KINDS[i % len(_COCYCLE_KINDS)])
                 for i in range(POOL)]
    elif workload == "mc-long-words":
        cases = [_mc_case(rng, *shape) for shape in _MC_SHAPES]
    else:
        cases = [_lemma_case(rng, *shape) for shape in _LEMMA_SHAPES]
        return cases  # keeps the verbs alternating
    return [cases[i] for i in rng.permutation(len(cases))]
