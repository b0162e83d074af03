"""Host-speed scaling of timed samples.

On a shared host the same work runs up to about 1.8x slower in phases that
last from a few seconds to half a minute, so a run cannot outlast them.
Every timed sample is therefore bracketed by a fixed calibration kernel
that does not touch ``repro``: a pure-Python arithmetic loop, a batch of
small dicts sorted and serialized, and small-array numpy calls, the three
kinds of work the program does.  ``scaled()`` divides the sample by the
kernel's mean time around it and multiplies by ``NOMINAL_S``, so a scaled
second reads as a second on a host where the kernel takes ``NOMINAL_S``.
A change to the program moves the sample but not the kernel.

The kernel's share of the slowdown tracks the program's closely but not
exactly; on a 2-core shared VM the run-to-run spread of 20 s medians fell
from 30-40% unscaled to 5-12% scaled.  A kernel that streams a large array
through memory did not slow down with the program and was left out.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

#: Kernel time that one scaled second assumes (the kernel's time in the
#: fast phase of a 2-core shared VM).
NOMINAL_S = 0.025

_SMALL = np.arange(64, dtype=float)


def _kernel() -> None:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    rng = random.Random(1)
    rows = [{"a": rng.random(), "b": (i, str(i))} for i in range(8000)]
    rows.sort(key=lambda row: row["a"])
    json.dumps(rows[:2000])
    values = _SMALL
    for _ in range(1500):
        values = np.minimum(values * 1.0001, 100.0)
        np.where(values > 50.0, values, 0.0).sum()


def kernel_s() -> float:
    """Seconds one calibration kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between kernels of ``before`` and ``after`` seconds."""
    return seconds * NOMINAL_S / ((before + after) / 2)
