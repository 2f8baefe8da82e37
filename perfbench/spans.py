"""The benchmark's own spans around the program's public functions.

Per-layer numbers for in-process work come from wrapping public
functions for the length of a traced phase: a wrapper adds the wall
time of each call (or, for a generator, of each ``next``) to a named
layer.  Nothing under ``src/`` changes; every patch is undone when the
phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator

from repro.obs.engineprof import ENGINE_PHASES, EngineProfile


class LayerClock:
    """Seconds spent per layer name."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] += seconds

    def timed(self, layer: str, func: Callable) -> Callable:
        """``func`` with each call's wall time added to ``layer``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(layer, time.perf_counter() - t0)

        return wrapper

    def timed_iter(self, layer: str, func: Callable) -> Callable:
        """Generator ``func`` with the time spent inside it (each
        ``next``, not the consumer's work between them) added to
        ``layer``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs) -> Iterator:
            inner = func(*args, **kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.add(layer, time.perf_counter() - t0)
                    yield item
            finally:
                inner.close()

        return wrapper


@contextlib.contextmanager
def patched(*replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attribute, value in replacements:
            saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, value in reversed(saved):
            setattr(owner, attribute, value)


def profile_layers(profile: EngineProfile) -> Dict[str, float]:
    """``geometry.engine.*`` metrics of an ``EngineProfile``."""
    counters, rows = profile.counters, profile.phase_rows
    out = {
        f"geometry.engine.{phase}_ms": (
            profile.phase_seconds.get(phase, 0.0) * 1e3
        )
        for phase in ENGINE_PHASES
    }
    newton = counters.get("newton_iterations", 0)
    hits = counters.get("warm_start_hits", 0)
    misses = counters.get("warm_start_misses", 0)
    out["geometry.engine.compiles"] = float(
        sum(n for name, n in counters.items() if name.endswith("_compiles"))
    )
    out["geometry.engine.newton_iterations"] = float(newton)
    out["geometry.engine.newton_iterations_per_row"] = (
        newton / rows["newton"] if rows.get("newton") else 0.0
    )
    out["geometry.engine.warm_start_hit_share"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    return out


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
