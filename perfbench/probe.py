"""Calibration probe: how fast the benchmark's CPU is running right now.

The benchmark runs on a share of a host whose cores slow down by up to 2x
for seconds to minutes at a time. The slow-down shows in CPU time as well as
in wall time, so neither can be read raw. The runner pins itself and its
commands to one CPU and runs this probe, a fixed piece of pure-Python and
one-thread BLAS work, before the first command and after every command.
A command's time is then reported in reference seconds:

    scaled = wall * (REFERENCE_S / mean(probe before, probe after)) ** SENSITIVITY

A change to the program moves the scaled time as much as the raw one; a
change in the host's speed moves the probe too and mostly cancels out.
"""

from __future__ import annotations

import time

# The probe's time on an unloaded core of the reference host (Intel Xeon,
# 2 vCPUs, one BLAS thread). It fixes the unit only: any constant would do.
REFERENCE_S = 0.15

# How strongly the commands' times follow the probe's when the host's speed
# changes. On the reference host, the steadiest exponent for ten 30 s runs
# lay between 0.5 and 1.0 per workload; 0.8 gave the smallest worst spread.
# Pure-Python work slows about as much as the probe, the model's large BLAS
# calls and allocations somewhat less.
SENSITIVITY = 0.8

_WORDS = [f"w{i}x{i * 7 % 13}" for i in range(2000)]
_MATRICES = []


def _python_part() -> None:
    counts: dict[str, int] = {}
    for _ in range(90):
        for word in _WORDS:
            key = word[::-1]
            counts[key] = counts.get(key, 0) + len(word)
        "".join(sorted(counts))


def _blas_part() -> None:
    if not _MATRICES:
        import numpy as np

        rng = np.random.default_rng(0)
        _MATRICES.extend(rng.standard_normal((2, 200, 200)))
    a, b = _MATRICES
    for _ in range(300):
        a @ b


def measure() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    _python_part()
    _blas_part()
    return time.perf_counter() - start


def scale(wall: float, probe_s: float) -> float:
    """`wall` in reference seconds, given the probe time around it."""
    return wall * (REFERENCE_S / probe_s) ** SENSITIVITY
