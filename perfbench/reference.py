"""Fixed reference kernel that gauges the host's speed at the moment it runs.

The benchmark host switches between a fast and a slow state (one `lqr_sampled`
step takes about 1.1 ms or about 2.0 ms) for seconds to minutes at a time, so
a raw wall time mostly measures which state a run met.  Timing this kernel
just before and just after each timed call, in the same process, and scaling
the call's time by `REFERENCE_S / kernel time` cancels most of that: the
result reads as the call's time on a host where the kernel takes
`REFERENCE_S`.  The kernel shares no code with `mppigrad`, so a change to the
program moves the scaled time as much as the raw one.

Its three parts mirror the kinds of work the program does: interpreted scalar
arithmetic, a loop of small matrix-vector products (like the ADMM projector),
and reductions over a batch of rows (like a batch rollout).  The middle part
slows the most in the slow state, more than `dubins_loop` does and about as
much as the LQR workloads do: at over half of the kernel's time it scaled
`dubins_loop` about a tenth too low in slow runs, at under a third it left
the LQR workloads about a tenth too high.  It takes about two fifths.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference host (2-vCPU Xeon guest, fast state), rounded.
REFERENCE_S = 2.0e-3
REPEATS = 3

_rng = np.random.default_rng(20240601)
_m = _rng.standard_normal((22, 22))
_m = _m @ _m.T / 22.0
_b = _rng.standard_normal(22)
_rows = _rng.standard_normal((1000, 10))


def kernel() -> float:
    s = 0.0
    for i in range(6000):
        s += (i * 0.5) % 3.0
    x = _b.copy()
    for _ in range(160):
        x = np.maximum(np.clip(_m @ x - _b, -1.0, 1.0), -0.5)
    for _ in range(10):
        y = np.cumsum(_rows, axis=1)
        z = (y * y).sum(axis=1)
        s += float(np.exp(-(z - z.min())).sum())
    return s + float(x.sum())


def kernel_seconds() -> float:
    """Fastest of REPEATS timed kernel calls, after one untimed warm-up call."""
    kernel()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / kernel_s
