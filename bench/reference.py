"""Reference clock: a fixed kernel run beside the workload.

On a shared host the speed of a core drifts by tens of percent within seconds
and between minutes, so raw timings of the same op list spread by 10-30%
from run to run.  A fixed reference computation interleaved finely with the
workload slows down and speeds up with it.

While the workload runs, a second thread repeats a reference unit without
pause.  A host's slow phases do not slow every kind of work alike, so each
workload has the unit that does its kind of work (workloads.REFERENCE_UNIT):
"exact" multiplies rational polynomials in dicts of Fractions, as the
algebra does; "numeric" runs a scalar Newton loop and two tridiagonal
eigensolves, as the spectra, model and classical layers do.  (A unit mixing
all three missed a fast phase of the host on verify-zero by 17%.)  run.py
pins the process to one CPU, so the interpreter lock hands the core back and
forth between the threads every few milliseconds and both see the same
machine.  (A thread that rested between units tracked the machine
several times worse.)  The program's CPU time divided by the mean CPU time of
one unit is the workload's length in reference units: it moves when the
program changes and stays put when the machine does.  seconds() reports it as
seconds at the nominal speed where one unit takes its NOMINAL_UNIT_S, about
the median measured on a 2-vCPU host when the benchmark was defined.  The
price is that a run takes about twice the program's CPU time.  Neither the
units nor the constants may change, or earlier results stop being
comparable.

The program's CPU time is the process's CPU time (every thread, and child
processes that have been waited for) minus the reference thread's, so work
the program moves to other threads or processes is counted.  Time the
program spends blocked (sleeping, waiting on I/O) is not CPU time and is not
counted; ``program_share``, the program's part of the CPU time used while the
clock ran, falls below one half when that happens.  The program can also
slow the reference unit down, through the shared cache or by holding the
interpreter lock in long native calls; ``interference`` compares the unit's
cost beside the workload with its cost alone, measured just before and after.
"""

from __future__ import annotations

import math
import resource
import statistics
import threading
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

SOLO_UNITS = 5  # units timed alone before and after, for interference

_POLY = {(i, j, i * j % 3): Fraction((-1) ** j * (i + 1), j + 2) for i in range(4) for j in range(4)}
_X = np.linspace(0.01, 30.0, 3000)


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _exact_unit():
    p = _POLY
    for _ in range(3):
        p = _poly_mul(p, _POLY)
    return len(p)


def _numeric_unit():
    s = 0.0
    for x in _X:
        r = x
        for _ in range(8):
            r -= (r * r * (1.0 + 0.02 * r) - x) / (2.0 * r + 0.06 * r * r)
        s += math.log1p(r)
    h = _X[1] - _X[0]
    levels = []
    for lam in (0.01, 0.02):
        diag = 2.0 / h**2 + 0.5 * _X**2 / (1.0 + lam * _X) + 2.0 / _X**2
        off = np.full(_X.size - 1, -1.0 / h**2)
        levels.extend(eigh_tridiagonal(diag, off, select="i", select_range=(0, 5),
                                       eigvals_only=True))
    return s, sum(levels)


UNITS = {"exact": _exact_unit, "numeric": _numeric_unit}
NOMINAL_UNIT_S = {"exact": 0.04, "numeric": 0.035}


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class ReferenceClock:
    """Context manager running reference units of one kind (a key of UNITS)
    in a thread while it is open."""

    def __init__(self, kind):
        self._unit = UNITS[kind]
        self._nominal = NOMINAL_UNIT_S[kind]
        self._unit()  # warm: first-call costs stay out of the timing
        self._stop = threading.Event()
        self._thread = None
        self.units = 0
        self.cpu_s = 0.0
        self.program_cpu_s = 0.0
        self.elapsed_s = 0.0
        self._solo = []

    def _run(self):
        start = time.thread_time()
        while not self._stop.is_set():
            self._unit()
            self.units += 1
        self.cpu_s = time.thread_time() - start

    def _solo_units(self):
        costs = []
        for _ in range(SOLO_UNITS):
            t0 = time.thread_time()
            self._unit()
            costs.append(time.thread_time() - t0)
        return costs

    def __enter__(self):
        self._solo = self._solo_units()
        self._thread = threading.Thread(target=self._run, name="reference", daemon=True)
        self._start = (time.perf_counter(), time.process_time(), _children_cpu())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        wall0, cpu0, children0 = self._start
        self.elapsed_s = time.perf_counter() - wall0
        used = time.process_time() - cpu0 + _children_cpu() - children0
        self.program_cpu_s = used - self.cpu_s
        self._solo += self._solo_units()
        return False

    @property
    def unit_cpu_s(self):
        """Mean CPU seconds of one reference unit while the clock was open."""
        if not self.units:
            raise RuntimeError("the reference thread finished no unit")
        return self.cpu_s / self.units

    @property
    def program_share(self):
        """The program's part of the CPU time used while the clock was open."""
        return self.program_cpu_s / (self.program_cpu_s + self.cpu_s)

    @property
    def interference(self):
        """Cost of a unit beside the workload over its cost alone, minus 1."""
        return self.unit_cpu_s / statistics.median(self._solo) - 1.0

    def seconds(self, cpu_s=None):
        """CPU seconds used beside the clock (by default the program's), as
        seconds at the nominal speed."""
        if cpu_s is None:
            cpu_s = self.program_cpu_s
        return cpu_s / self.unit_cpu_s * self._nominal
