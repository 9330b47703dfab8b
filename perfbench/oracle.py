"""Closed-form oracles for the benchmark's systems, independent of randpress.

Every generated system uses a *row-uniform* bundle: under base symbol s the
fiber may move from any symbol to any symbol of one column set C_s.  Fiber
choices at different positions are then independent, so for an additive
one-step potential phi the partition sum over a base word u factorises:

    log Z(u) = LSE_{a in A} phi(u_0, a)
             + sum_{k=1}^{n-1} LSE_{a in C_{u_(k-1)}} phi(u_k, a)
             + sum_{k=n}^{n+m-2} log |C_{u_(k-1)}|

and its expectation over stationary base words is a short closed form.
Nothing here imports randpress; :func:`self_check` ties the formulas to known
values and to brute-force enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def stationary(T) -> np.ndarray:
    """Stationary vector of a positive-recurrent chain, from the eigenvector of T^T."""
    T = np.asarray(T, dtype=float)
    vals, vecs = np.linalg.eig(T.T)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return v / v.sum()


def _lse_over(phi_row: np.ndarray, cols) -> float:
    return float(logsumexp(phi_row[list(cols)]))


def increment(T, cols, phi) -> float:
    """Per-step growth of E log Z: sum_{s,s'} pi_s T_ss' LSE_{a in C_s} phi(s', a).

    This is also the n -> infinity pressure of phi on the row-uniform system.
    """
    T, phi = np.asarray(T, dtype=float), np.asarray(phi, dtype=float)
    pi = stationary(T)
    S = T.shape[0]
    return float(sum(pi[s] * T[s, s2] * _lse_over(phi[s2], cols[s])
                     for s in range(S) for s2 in range(S)))


def expected_log_z(T, cols, phi, n: int, m: int) -> float:
    """E log Z at potential depth n and separation 2^-m (words of length n+m-1)."""
    T, phi = np.asarray(T, dtype=float), np.asarray(phi, dtype=float)
    pi = stationary(T)
    first = float(pi @ logsumexp(phi, axis=1))
    count = float(sum(pi[s] * math.log(len(cols[s])) for s in range(T.shape[0])))
    return first + (n - 1) * increment(T, cols, phi) + (m - 1) * count


def pressure(T, cols, phi, n: int, m: int) -> float:
    """Finite-(n, m) pressure (1/n) E log Z of an additive potential."""
    return expected_log_z(T, cols, phi, n, m) / n


def bowen_root(T, cols, b, t_max: float) -> float:
    """Root t of sum pi_s T_ss' log sum_{a in C_s} b(s', a)^-t for a scalar cocycle b > 1."""
    log_b = np.log(np.asarray(b, dtype=float))
    return float(brentq(lambda t: increment(T, cols, -t * log_b), 0.0, t_max, xtol=1e-14))


def _norm(M: np.ndarray, kind: str) -> float:
    if kind == "spectral":
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if kind == "max_row_sum":
        return float(np.abs(M).sum(axis=1).max())
    raise ValueError(f"unknown norm {kind!r}")


def sandwich_tables(B, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One-step tables (-log ||B^-1||, log ||B||) bracketing log ||B^(n)||.

    The co-norm ||B^-1||^-1 is super-multiplicative and the norm is
    sub-multiplicative, so the Birkhoff sums of these tables bound the
    cocycle's log norm from below and above on every cylinder.
    """
    B = np.asarray(B, dtype=float)
    S, A = B.shape[:2]
    lo, hi = np.empty((S, A)), np.empty((S, A))
    for s in range(S):
        for a in range(A):
            hi[s, a] = math.log(_norm(B[s, a], kind))
            lo[s, a] = -math.log(_norm(np.linalg.inv(B[s, a]), kind))
    return lo, hi


def one_state_log_count(M, length: int) -> float:
    """log of the number of admissible length-`length` words of a 0/1 SFT."""
    M = np.asarray(M, dtype=float)
    ones = np.ones(M.shape[0])
    return math.log(ones @ np.linalg.matrix_power(M, length - 1) @ ones)


def entropy_limit(M) -> float:
    """Topological entropy log rho(M) of a 0/1 SFT."""
    return float(math.log(max(abs(np.linalg.eigvals(np.asarray(M, dtype=float))))))


def markov_fiber_entropy(T, initial, Q) -> float:
    """sum_s pi_s sum_a initial(s, a) H(Q_s(a, .)), the relative entropy of a random Markov measure."""
    pi = stationary(T)
    h = 0.0
    for s, (row0, Qs) in enumerate(zip(np.asarray(initial), np.asarray(Q))):
        for a, row in enumerate(Qs):
            p = row[row > 0.0]
            h -= pi[s] * row0[a] * float((p * np.log(p)).sum())
    return h


# --- brute force, used only by self_check -------------------------------------------

def _brute_log_z(T, cols, n, m, weight) -> float:
    """E log Z by enumerating every base word and every admissible fiber word."""
    T = np.asarray(T, dtype=float)
    pi = stationary(T)
    S = T.shape[0]
    A = max(max(c) for c in cols) + 1
    L = n + m - 1
    total = 0.0
    for u in itertools.product(range(S), repeat=L):
        p = pi[u[0]] * math.prod(T[x, y] for x, y in zip(u, u[1:]))
        choices = [range(A)] + [sorted(cols[u[k - 1]]) for k in range(1, L)]
        z = sum(math.exp(weight(u, w, n)) for w in itertools.product(*choices))
        total += p * math.log(z)
    return total


def _rotation(r: float, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return r * np.array([[c, -s], [s, c]])


def self_check() -> list[str]:
    """Compare the closed forms with known values and with brute force; returns failures."""
    fails = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            fails.append(f"oracle self-check {name}: got {got!r}, want {want!r}")

    half = [[0.5, 0.5], [0.5, 0.5]]
    # fix-f: 2 fiber choices at expansion 3 under s0, 3 at expansion 4 under s1.
    expect("fix-f root", bowen_root(half, [{0, 1}, {0, 1, 2}], [[3.0] * 3, [4.0] * 3], 2.0),
           math.log(6) / math.log(12), 1e-12)
    # fix-a: full 2-shift over one state with phi = (0, 1).
    for n in (2, 4, 8, 12):
        for m in (1, 2, 3):
            expect(f"fix-a n={n} m={m}", pressure([[1.0]], [{0, 1}], [[0.0, 1.0]], n, m),
                   math.log(1 + math.e) + (m - 1) / n * math.log(2), 1e-12)
    golden = [[1, 1], [1, 0]]
    expect("golden-mean entropy", entropy_limit(golden), math.log(GOLDEN), 1e-12)
    expect("golden-mean count", one_state_log_count(golden, 10), math.log(144), 1e-12)

    rng = np.random.default_rng(20090928)
    T = rng.uniform(0.2, 1.0, (2, 2))
    T /= T.sum(axis=1, keepdims=True)
    cols = [{0, 2}, {1}]
    phi = rng.uniform(-1.0, 1.0, (2, 3))
    for n, m in ((1, 2), (3, 1), (2, 3)):
        brute = _brute_log_z(T, cols, n, m, lambda u, w, d: sum(phi[u[k], w[k]] for k in range(d)))
        expect(f"row-uniform E log Z n={n} m={m}", expected_log_z(T, cols, phi, n, m), brute, 1e-12)

    # Conformal generators: log ||product|| is the Birkhoff sum of log r.
    r = rng.uniform(0.5, 2.0, (2, 3))
    B = np.array([[_rotation(r[s, a], rng.uniform(0, 2 * math.pi)) for a in range(3)]
                  for s in range(2)])

    def log_norm(u, w, d, B=B, kind="spectral"):
        P = np.eye(2)
        for k in range(d):
            P = B[u[k], w[k]] @ P
        return math.log(_norm(P, kind))

    expect("conformal n=3 m=2", expected_log_z(T, cols, np.log(r), 3, 2),
           _brute_log_z(T, cols, 3, 2, log_norm), 1e-12)
    # Generic generators: the brute-force value lies inside the sandwich.
    G = rng.uniform(-1.5, 1.5, (2, 3, 2, 2)) + 2.0 * np.eye(2)
    for kind in ("spectral", "max_row_sum"):
        lo, hi = sandwich_tables(G, kind)
        brute = _brute_log_z(T, cols, 3, 1, lambda u, w, d: log_norm(u, w, d, G, kind))
        if not (expected_log_z(T, cols, lo, 3, 1) - 1e-12 <= brute
                <= expected_log_z(T, cols, hi, 3, 1) + 1e-12):
            fails.append(f"oracle self-check sandwich ({kind}) does not hold")
    return fails
