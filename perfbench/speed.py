"""Machine-speed reference: one fixed computation timed between passes.

On a shared host the same pass can run 1.5x slower for minutes at a
time when neighbours load the machine, and every workload slows with
it (pass time tracks this reference with an elasticity near 1). No run
length averages that away, so each run times this reference just before
and just after every pass and reports the pass's timings scaled to the
nominal speed ``REFERENCE_S``: ``reported = measured * REFERENCE_S /
reference``. The raw timings are printed beside the scaled ones.

The reference mixes what the workloads do: numpy sorts and searches over
a megabyte of 64-bit values and a Python loop over ints and a dict. It
depends on nothing in ``src/``, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal duration of :func:`reference_seconds` (its typical time on a
#: 2-core x86-64 VM); scaled timings read as if the host ran at that speed.
REFERENCE_S = 0.04

_VALUES = np.random.default_rng(20061).integers(
    0, 1 << 40, size=1 << 17, dtype=np.uint64
)


def reference_seconds() -> float:
    """Time one run of the fixed reference computation."""
    start = time.perf_counter()
    for round_ in range(8):
        ordered = np.sort(_VALUES ^ np.uint64(round_))
        np.searchsorted(ordered, _VALUES[:8192])
        tally = {}
        for value in ordered[:12288].tolist():
            key = value & 1023
            tally[key] = tally.get(key, 0) + 1
    return time.perf_counter() - start
