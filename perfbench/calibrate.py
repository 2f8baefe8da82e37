"""A fixed reference job that tracks how fast the machine runs right now.

On a shared 2-core host the same CPU-bound job runs 20-40% slower for
stretches of 5-20 s while neighbours are busy, and interpreter loops and
numpy slow down together.  A CPU-bound ledger time is therefore
reported normalised: ``wall * REFERENCE_S / kernel``, where ``kernel``
is this module's job timed just before and just after the measured
operation.  The result is in seconds of a machine whose kernel takes
``REFERENCE_S``; the workloads report the median over a run.

The kernel imports nothing from the program, but it runs while the
program's own processes (a daemon, a shard fleet) are alive on the same
cores.  A program that burned CPU while idle would slow the kernel and
make every normalised time read faster.  So each calibration point also
measures the CPU time the calling process's descendants used while it
ran.  A point during which they used more than :data:`MAX_BUSY_SHARE`
of its wall time is taken again, and a run whose program never goes
quiet fails with :class:`BusyProgram`.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Iterable, List, Tuple

import numpy as np

#: Kernel seconds on the reference machine (2-core container,
#: Python 3.11, numpy 2.4, at a quiet time).
REFERENCE_S = 0.015
#: Kernel runs per calibration point (the median is used).
REPEATS = 3
#: CPU the program's processes may use during a point, as a share of
#: the point's wall time.
MAX_BUSY_SHARE = 0.05
#: Points taken in a row before a busy program fails the run.
ATTEMPTS = 20
RETRY_PAUSE_S = 0.05

_GRID = np.linspace(0.0, 1.0, 32)
_COEFFS = np.random.default_rng(0).random((1024, 7))


class BusyProgram(RuntimeError):
    """The program's processes kept using CPU during calibration."""


def kernel() -> float:
    """Seconds for one run of a fixed job: an interpreter loop, then
    Horner evaluation and an argmin in numpy (the two kinds of work
    the workloads spend their time on)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    values = np.zeros((_COEFFS.shape[0], _GRID.size))
    for k in range(_COEFFS.shape[1]):
        values = values * _GRID + _COEFFS[:, k:k + 1]
    values.argmin(axis=1)
    return time.perf_counter() - t0


def point() -> float:
    """One calibration point: the median of :data:`REPEATS` kernels."""
    return statistics.median(kernel() for _ in range(REPEATS))


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``: children, their children, ..."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited
        # After the parenthesised command name: state, then the ppid.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        below = children.get(todo.pop(), [])
        found += below
        todo += below
    return found


def cpu_seconds(pids: Iterable[int]) -> float:
    """CPU seconds the live threads of ``pids`` have used so far
    (``/proc/<pid>/task/<tid>/schedstat``, in nanoseconds)."""
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                continue
    return total / 1e9


class Speedometer:
    """Times operations together with the machine's speed around them.

    A calibration point is taken at construction and after every timed
    operation, so consecutive operations share the point between them.
    ``retaken`` counts the points taken again because the program was
    busy.
    """

    def __init__(self):
        self.retaken = 0
        self.points = [self._quiet_point()]

    def _quiet_point(self) -> float:
        busy = 0.0
        for _ in range(ATTEMPTS):
            pids = descendants(os.getpid())
            before = cpu_seconds(pids)
            t0 = time.perf_counter()
            value = point()
            busy = (cpu_seconds(pids) - before) / (time.perf_counter() - t0)
            if busy <= MAX_BUSY_SHARE:
                return value
            self.retaken += 1
            time.sleep(RETRY_PAUSE_S)
        raise BusyProgram(
            f"the program's processes used {busy:.0%} of a core during "
            f"{ATTEMPTS} calibration points in a row; normalised times "
            f"would read too fast"
        )

    def time(
        self, func: Callable, *args, **kwargs
    ) -> Tuple[float, float, object]:
        """``(wall_s, kernel_s, result)`` of ``func(*args, **kwargs)``;
        ``kernel_s`` is the mean of the points just before and after."""
        t0 = time.perf_counter()
        result = func(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.points.append(self._quiet_point())
        return wall, (self.points[-2] + self.points[-1]) / 2.0, result


def normalised(walls: List[float], kernels: List[float]) -> List[float]:
    """Wall seconds scaled to the reference machine's speed."""
    return [w * REFERENCE_S / k for w, k in zip(walls, kernels)]
