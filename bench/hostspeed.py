"""Host-speed compensation for timings taken on a shared machine.

On a shared 2-vCPU host the speed of pure-Python code drifts by up to 1.5x
over periods of seconds to minutes, as other tenants load the machine.  That
drift is larger than any per-run averaging can remove.  So the benchmark runs
a fixed probe between requests and scales each request's wall time by the
probe's nominal time over its measured time near that request:

    reported = measured * nominal / median(probes around it)

In-process requests use ``probe``, a small piece of the benchmark's own
pure-Python work with the garbage collector off.  CLI requests, which are
mostly process start, use ``process_probe``, the start of an interpreter that
runs nothing.  Neither involves the library, so a change to the library
cannot change what they measure.  Every process of a run is pinned to one
CPU, so a probe sees the same CPU as the work it calibrates.  Reported times
are therefore wall times at the reference host speed; the raw figures are
kept in the run metadata.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import workloads

# Median probe times on the reference machine (2 vCPUs, Python 3.11.7) in a
# quiet period.
PROBE_NOMINAL_S = 0.5e-3
PROCESS_PROBE_NOMINAL_S = 0.06
# Probes on each side of a request that set its scale.
WINDOW = 10

_SHAPES = workloads.nc_partitions(tuple(range(1, 6)))
_VALUES = [Fraction(i + 1, i + 2) for i in range(6)]


def probe() -> float:
    """Wall time of the fixed probe work: tuple hashing, dict updates and
    Fraction products over the 42 non-crossing partitions of [5]."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total, seen = Fraction(0), {}
    for blocks in _SHAPES:
        key = tuple(blocks)
        seen[key] = seen.get(key, 0) + 1
        term = Fraction(1)
        for block in blocks:
            term *= _VALUES[len(block)]
        total += term
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def process_probe(env: dict, cwd: str) -> float:
    """Wall time of starting an interpreter that runs nothing."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                   check=True)
    return perf_counter() - start


def scale(latencies: list[float], probe_times: list[float],
          nominal: float = PROBE_NOMINAL_S) -> list[float]:
    """Scale each latency to the reference speed.  ``probe_times`` has one
    probe before the first request and one after each request."""
    out = []
    for i, latency in enumerate(latencies):
        window = probe_times[max(0, i - WINDOW):i + WINDOW + 2]
        out.append(latency * nominal / statistics.median(window))
    return out


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
