"""Machine-speed probe for the hcyclic benchmark.

Other tenants of a shared machine slow whole stretches of a run, by up to
2x, for seconds to minutes at a time; raw times of the same operation then
spread by 20% between runs whatever statistic is taken.  The slowdown is
shared by everything that runs at that moment, so the benchmark runs a
fixed probe kernel (JSON parsing, a Python loop over complex numbers,
set building, float formatting and small matrix products: the kinds of
work the program does, but none of its code) just before every timed
interval.  Each interval is then scaled by ``REFERENCE_S`` over the median
probe time around it: the result is the interval's length on a machine
that runs the probe in ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter

import numpy as np

# Probe time on an unloaded core of the machine the reference figures in
# README.md were taken on (x86-64, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 0.006
# Probes on each side of an interval whose median gives its local speed.
HALF_WINDOW = 2

_rng = np.random.default_rng(0)
_TEXT = json.dumps(_rng.standard_normal((3000, 2)).tolist())
_MATRIX = _rng.standard_normal((64, 64))


def _kernel() -> None:
    pairs = json.loads(_TEXT)
    values = [complex(re, im) for re, im in pairs]
    arcs = frozenset((i, i % 64) for i, z in enumerate(values) if abs(z) > 0.5)
    text = ", ".join(f"{z.real:.12g}" for z in values)
    x = _MATRIX
    for _ in range(4):
        x = x @ _MATRIX
        x /= np.abs(x).max()
    if not arcs or not text:
        raise AssertionError("probe kernel produced nothing")


class SpeedProbe:
    """Probe times of one run, in order; interval ``i`` is the one timed
    right after probe ``i``."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Run the probe kernel once; returns the index of the sample."""
        enabled = gc.isenabled()
        gc.disable()  # a collection inside the probe would be charged to the machine
        try:
            start = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def scaled(self, index: int, seconds: float) -> float:
        """``seconds`` measured right after probe ``index``, at reference speed."""
        local = statistics.median(self.samples[max(0, index - HALF_WINDOW):index + HALF_WINDOW + 1])
        return seconds * REFERENCE_S / local
