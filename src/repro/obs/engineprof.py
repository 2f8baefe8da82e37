"""Solver-level profiling for the projection engine.

The geometry engine (:mod:`repro.geometry.engine`) is the daemon's hot
path, but its internal phases — coarse grid scan, batched GSS, Newton
refinement, exact root enumeration — were invisible from the outside.
This module lets a caller scope an :class:`EngineProfile` over a
region of work; while one is active, the engine's solver methods add
their wall time and row counts to it.

The activation mechanism is a :mod:`contextvars` variable rather than
a parameter threaded through every call: the engine sits under many
entry points (serving, fitting, the CLI) and only the daemon wants
profiles.  The cost to everyone else is exactly one C-level
``ContextVar.get`` and an ``is None`` branch per solver *call* (not
per row or per iteration) — unmeasurable next to the solve itself.

Thread model: scoring runs on the thread that activated the profile,
but one profile may still be read (``totals``/``snapshot``) by a
daemon thread while another updates it, so :class:`EngineProfile`
takes a lock per update and per read and totals stay exact.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Dict, Optional

#: Engine phases, in pipeline order.  ``grid_scan`` is the coarse
#: bracketing scan, ``gss`` the batched golden-section solve,
#: ``newton`` covers warm-start refinement and final polish, and
#: ``roots`` the exact companion-matrix path.
ENGINE_PHASES = ("grid_scan", "gss", "newton", "roots")

_ACTIVE: contextvars.ContextVar[Optional["EngineProfile"]] = (
    contextvars.ContextVar("repro_engine_profile", default=None)
)


def current() -> Optional["EngineProfile"]:
    """The profile scoped to this context, or ``None`` (the fast path)."""
    return _ACTIVE.get()


@contextmanager
def activate(profile: "EngineProfile"):
    """Scope ``profile`` over a region; restores the previous one after.

    Re-entrant in the sense that a nested activation simply shadows
    the outer profile for its duration — the engine always feeds the
    innermost one.
    """
    token = _ACTIVE.set(profile)
    try:
        yield profile
    finally:
        _ACTIVE.reset(token)


class EngineProfile:
    """Accumulated solver phases and counters for one scoring call.

    All methods are thread-safe (one small lock): the fleet-metrics
    mirror requires exact totals whichever thread reads them.
    """

    __slots__ = ("_lock", "phase_seconds", "phase_rows", "counters")

    def __init__(self):
        self._lock = threading.Lock()
        self.phase_seconds: Dict[str, float] = {}
        self.phase_rows: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}

    def add_phase(self, name: str, seconds: float, rows: int = 0) -> None:
        """Add one solver call's wall time (and rows) to a phase."""
        with self._lock:
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + float(seconds)
            )
            if rows:
                self.phase_rows[name] = (
                    self.phase_rows.get(name, 0) + int(rows)
                )

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (Newton iterations, warm-start hits...)."""
        if n:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + int(n)

    def totals(self) -> Dict[str, float]:
        """Flat cell-keyed totals for the fleet-metrics mirror.

        Phase wall time maps to ``<phase>_seconds`` and row counts to
        ``<phase>_rows`` (matching
        :data:`repro.server.metrics.ENGINE_CELL_KEYS`); named counters
        pass through as-is.  Empty when the profile saw no work.
        """
        with self._lock:
            out: Dict[str, float] = {}
            for name, seconds in self.phase_seconds.items():
                out[f"{name}_seconds"] = seconds
            for name, rows in self.phase_rows.items():
                out[f"{name}_rows"] = float(rows)
            for name, n in self.counters.items():
                out[name] = float(n)
            return out

    def snapshot(self) -> dict:
        """JSON-serialisable view: phase ms/rows plus raw counters."""
        with self._lock:
            return {
                "phases_ms": {
                    name: round(seconds * 1e3, 4)
                    for name, seconds in sorted(self.phase_seconds.items())
                },
                "phase_rows": dict(sorted(self.phase_rows.items())),
                "counters": dict(sorted(self.counters.items())),
            }
