"""Machine-speed probe: a fixed computation that does not touch randpress.

On a shared host the speed of the whole machine drifts, by up to 2x over
tens of seconds on the 2-core box this benchmark was tuned on, and every
op drifts with it.  The probe is a fixed mix of interpreter work and small
numpy calls, like the ops themselves.  Timing it next to each op and scaling
the op's wall time by ``REF_PROBE_S / probe time`` reports the op as it would
run on a machine where the probe takes ``REF_PROBE_S``.  A faster randpress
leaves the probe unchanged, so the scaling keeps every real gain.
"""

from __future__ import annotations

import time

import numpy as np

REF_PROBE_S = 0.003

_M = np.array([[0.9, 0.2], [0.1, 1.1]])


def probe() -> float:
    """Seconds taken by the fixed probe computation."""
    start = time.perf_counter()
    P, acc = np.eye(2), 1.0
    for _ in range(150):
        P = _M @ P
        acc += float(np.linalg.norm(P, 2))
        P = P / acc
    counts: dict[int, int] = {}
    for k in range(1500):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return time.perf_counter() - start
