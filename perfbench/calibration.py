"""The machine's speed, measured beside the program's work.

On a shared machine the same work takes up to 1.5 times as long from one
half-minute to the next, more than any useful bound.  A calibration
kernel is timed before every operation and after the last one; its time
over REF_S is the slowdown at that moment, and the benchmark reports
every time divided by the slowdown around it: as it would read on a
machine where the kernel takes REF_S.  The kernels are the benchmark's
own code, so a change to finmet moves the reported times and not the
calibration.

Two kernels, because in-process work and process start-up slow down
differently: a shortest-path closure over boxed exact values, shaped and
allocating like finmet's own kernels, for work inside one process; and a
bare interpreter start for work that starts processes.
"""

import statistics
import subprocess
import sys
from time import perf_counter

import gen


class _Value:
    """An immutable exact value or infinity (None)."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        if self.v is None or other.v is None:
            return _Value(None)
        return _Value(self.v + other.v)

    def __lt__(self, other):
        return self.v is not None and (other.v is None or self.v < other.v)


class Calibration:
    def __init__(self, kernel, ref_s):
        self._kernel, self.ref_s = kernel, ref_s
        self.samples = []

    def sample(self):
        t0 = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - t0)

    def slowdown(self):
        return statistics.median(self.samples) / self.ref_s

    def local_slowdowns(self, count):
        """Operation k ran between samples k and k + 1: its slowdown is
        the median of the eight samples k - 3 to k + 4."""
        return [statistics.median(self.samples[max(0, k - 3):k + 5])
                / self.ref_s for k in range(count)]


def in_process():
    cost = gen.raw_costs(gen.rng_for("calibration"), 14, 0.25)
    boxed = [[_Value(v) for v in row] for row in cost]

    def closure():
        d = [list(row) for row in boxed]
        n = len(d)
        for k in range(n):
            row_k = d[k]
            for i in range(n):
                dik, row_i = d[i][k], d[i]
                for j in range(n):
                    c = dik + row_k[j]
                    if c < row_i[j]:
                        row_i[j] = c
        return tuple(tuple(row) for row in d)
    return Calibration(closure, 0.008)


def process_start(env):
    def start():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       stdin=subprocess.DEVNULL)
    return Calibration(start, 0.060)
