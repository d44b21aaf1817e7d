"""A fixed reference kernel that tracks the speed of the machine.

On a shared virtual machine the same code runs up to 1.7x slower in one
minute than in the next, and the process's CPU time grows with its wall
time, so the slowdown is the host's, not preemption.  The harness runs
this kernel after every timed item and rescales item times by how long it
took, so that timing metrics compare programs rather than moments:

    rescaled = measured wall time * stats.REF_NOMINAL_S / median kernel time nearby

The kernel is pure numpy and Python and never calls floquetdd, so a change
to the package cannot speed it up or slow it down.  Its parts mirror what
the workloads spend their time on: 2x2 complex products written into a
preallocated array (the per-sample propagation loop), scalar float
arithmetic (the reservoir calls), float formatting and joining (CSV
emission) and small dense linear algebra (Liouvillians, eigenproblems).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel runs of a set-up sample.
SETUP_REPEATS = 15

_rng = np.random.default_rng(20251019)
_STEP = np.linalg.qr(_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))[0]
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_VALUES = _rng.standard_normal(200).tolist()


def kernel() -> float:
    """One pass of the reference work; returns a checksum."""
    out = np.empty((257, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    for k in range(256):
        out[k + 1] = _STEP @ out[k]
    acc = 0.0
    for k in range(2000):
        x = 1.0 + 1e-4 * k
        acc += math.exp(-x) * x / (1.0 + x * x)
    text = "\n".join(",".join(repr(v * k) for v in _VALUES[:8]) for k in range(100))
    w = np.linalg.eigvals(_SMALL @ _SMALL.conj().T)
    return float(abs(out[-1, 0, 0])) + acc + len(text) + float(w.real.sum())


def time_once() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def median_time(repeats: int) -> float:
    return statistics.median(time_once() for _ in range(repeats))
