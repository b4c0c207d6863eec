"""Host-speed probe that runs in a process of its own.

The benchmark's host is a shared virtual machine whose speed drifts by up to
about 1.8x within minutes, far more than the bound a time metric can have.
While the benchmark runs, this probe wakes every ``INTERVAL_S`` and times
``ITERATIONS`` back-to-back runs of one fixed piece of interpreter work like
the pipeline's own (an edit-distance table, dict counting, small array
builds), keeping the fastest. ``run.py`` pins it to the CPU the measured
processes use: the other vCPU's speed does not track that one's. Being a
separate process, it shares no heap or garbage collector with the program,
and the fastest of its back-to-back runs is the one whose data is warm in
its own caches again, so the program's working set does not move it.
The mean of the samples taken during a timed window is the host's speed
over those seconds; dividing the window's duration by it gives a time that
follows the program rather than the host. The probe takes about 2% of the
CPU, the same share of every run.

    python3 perfbench/hostprobe.py

samples until it gets SIGTERM, then prints ``[[time, duration], ...]`` as
JSON, where ``time`` is the ``time.perf_counter()`` clock (system-wide
``CLOCK_MONOTONIC`` on Linux, so comparable with other processes' clocks).
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time

import numpy as np

INTERVAL_S = 0.05
ITERATIONS = 5
# a typical probe reading on a 2-vCPU Xeon VM under Python 3.11; it only
# scales normalized figures into seconds of that host
REFERENCE_S = 200e-6
# a window holding fewer samples is probed by the samples nearest to it
MIN_SAMPLES = 3

_PAIRS = (
    ("cotizacion", "cotisacion"),
    ("recuperacion", "recuperasion"),
    ("mercado", "mercados"),
    ("bajista", "bajistas"),
)


def probe_work() -> int:
    """One fixed piece of work; returns a value so that none is skipped."""
    out = 0
    grams: dict[str, int] = {}
    for a, b in _PAIRS:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, start=1):
            cur = [i]
            for j, cb in enumerate(b, start=1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        out += prev[-1]
        for k in range(len(a) - 2):
            grams[a[k : k + 3]] = grams.get(a[k : k + 3], 0) + 1
    for k in range(4):
        out += int(np.array((k, 1.0, 2.0, 3.0)).sum())
    return out + len(grams)


def window_mean(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Mean probe duration over the window [t0, t1]; a window too short to
    hold ``MIN_SAMPLES`` samples takes the ones nearest to its middle."""
    inside = [d for t, d in samples if t0 <= t <= t1]
    if len(inside) < MIN_SAMPLES:
        mid = (t0 + t1) / 2.0
        inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
    return statistics.fmean(inside)


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    samples: list[list[float]] = []
    clock = time.perf_counter
    while not stop:
        time.sleep(INTERVAL_S)
        fastest = float("inf")
        for _ in range(ITERATIONS):
            t0 = clock()
            probe_work()
            t1 = clock()
            fastest = min(fastest, t1 - t0)
        samples.append([t1, fastest])
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
