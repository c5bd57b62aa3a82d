"""Sample the speed of the CPU this process runs on, for ``common.HostClock``.

Usage: ``python3 perfbench/sampler.py OUT_FILE``.  About every ``PERIOD``
seconds it runs :func:`reference_kernel` and appends two little-endian
doubles to ``OUT_FILE``: the ``time.perf_counter()`` at the kernel's end
and the kernel's CPU time.  The pause is drawn at random around
``PERIOD`` so that the samples do not fall into step with a workload's
own period.  It runs until it is killed or its parent
exits.  ``run.py`` starts it on the one CPU the run is pinned to, so it
samples the CPU that the measured work runs on, while that work runs.
"""

from __future__ import annotations

import os
import random
import struct
import sys
import time

import numpy as np

#: Mean seconds between the end of one sample and the start of the next.
PERIOD = 0.015
#: One sample: kernel end (perf_counter s) and kernel CPU time (s).
RECORD = struct.Struct("<dd")


def reference_kernel() -> float:
    """A fixed mix of the program's kinds of work: tuple and dict churn,
    float arithmetic and small NumPy array operations (about 1 ms)."""
    table: dict[tuple[int, int], float] = {}
    points = [(i * 0.37 % 50.0, i * 0.11 % 30.0) for i in range(400)]
    for _ in range(3):
        for x, y in points:
            key = (int(x) // 5, int(y) // 5)
            table[key] = table.get(key, 0.0) + (x * x + y * y) ** 0.5
    values = np.linspace(0.0, 1.0, 128)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0) - 0.5
    return sum(table.values()) + float(values.sum())


def main(path: str) -> int:
    parent = os.getppid()
    pause = random.Random(0)
    with open(path, "ab", buffering=0) as out:
        while os.getppid() == parent:
            # Thread time, so the share of the CPU the measured work
            # takes while the kernel runs does not count.
            started = time.thread_time()
            reference_kernel()
            cpu = time.thread_time() - started
            out.write(RECORD.pack(time.perf_counter(), cpu))
            time.sleep(PERIOD * pause.uniform(0.5, 1.5))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
