"""Admission control: bounded in-flight work and 429 load shedding.

The daemon's thread-per-connection model (and the pre-fork fleet built
on it) has no intrinsic backpressure: under offered load beyond
capacity, every connection gets a handler thread and every scoring
request queues inside solver locks and the micro-batcher, so latency
grows without bound while throughput stays flat.  The fix is classic
admission control at the scoring boundary:

* a bound on concurrently admitted scoring requests per worker
  (``max_inflight``) — requests beyond it are *shed* immediately with
  ``429 Too Many Requests`` and a ``Retry-After`` header, before their
  body is even read;
* optional per-model quotas (``max_inflight_per_model``) so one hot
  model cannot starve the others sharing the worker;
* exact shed accounting: every 429 is recorded like any other response
  (mirrored into the shared fleet store under ``--workers N``), and
  ``/metrics`` reports ``requests_shed_total`` alongside the admission
  state, so fleet-wide ``served + shed == offered`` holds exactly.

``/healthz``, ``/metrics`` and the registry listing are deliberately
*not* subject to admission — an overloaded daemon must stay observable.

The knobs are set once, by :class:`AdmissionController`'s constructor,
which rejects a bad value before the daemon binds its socket.  Changing
one means restarting the daemon; under ``--workers N`` every worker,
respawns included, is a fork of the parent's one built server and so
serves the parent's boot flags.
"""

from __future__ import annotations

import math
import threading
from collections import Counter

from repro.core.exceptions import ConfigurationError

#: Default bound on concurrently admitted scoring requests per worker.
#: Generous for interactive traffic (each admitted request holds a
#: handler thread and a solver slot) while still turning a load spike
#: into prompt 429s instead of an unbounded queue.
DEFAULT_MAX_INFLIGHT = 64

#: Default ``Retry-After`` advice, in seconds.
DEFAULT_RETRY_AFTER = 1.0


class RequestShed(Exception):
    """An admission decision: the request was shed, not served.

    Carries the ``Retry-After`` advice the HTTP layer must attach.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = float(retry_after)


class AdmissionController:
    """Bounded admission of scoring requests, with per-model quotas.

    Parameters
    ----------
    max_inflight:
        Concurrently admitted scoring requests per worker; ``0``
        disables the global bound.
    max_inflight_per_model:
        Quota per model name; ``0`` (default) means no per-model bound
        beyond the global one.
    retry_after:
        Seconds of ``Retry-After`` advice attached to every shed.

    Thread model: ``acquire``/``release`` bracket each scoring request
    on its handler thread; all state sits behind one lock and an
    admission decision is a few integer compares, cheap enough for the
    request path.
    """

    def __init__(
        self,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_inflight_per_model: int = 0,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ):
        if int(max_inflight) < 0:
            raise ConfigurationError(
                f"max_inflight must be >= 0 (0 = unbounded), "
                f"got {max_inflight}"
            )
        if int(max_inflight_per_model) < 0:
            raise ConfigurationError(
                f"max_inflight_per_model must be >= 0 (0 = no per-model "
                f"quota), got {max_inflight_per_model}"
            )
        # Finite too: ``retry_after_header`` rounds it to whole seconds,
        # and ``int(inf)`` would turn every shed into a 500.
        if not 0 < float(retry_after) < math.inf:
            raise ConfigurationError(
                f"retry_after must be finite and > 0 seconds, "
                f"got {retry_after}"
            )
        self.max_inflight = int(max_inflight)
        self.max_inflight_per_model = int(max_inflight_per_model)
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._inflight = 0
        self._per_model: Counter[str] = Counter()
        self._peak_inflight = 0
        self._admitted_total = 0
        self._shed_total = 0

    def acquire(self, model_name: str) -> None:
        """Admit one scoring request for ``model_name`` or shed it.

        Raises :class:`RequestShed` (429 at the HTTP layer) when either
        bound is at capacity; otherwise records the admission, which
        the caller must pair with exactly one :meth:`release`.
        """
        with self._lock:
            if 0 < self.max_inflight <= self._inflight:
                self._shed_total += 1
                raise RequestShed(
                    f"server at capacity "
                    f"({self._inflight} in-flight scoring requests); "
                    f"retry after {self.retry_after:g}s",
                    self.retry_after,
                )
            if (
                0
                < self.max_inflight_per_model
                <= self._per_model[model_name]
            ):
                self._shed_total += 1
                raise RequestShed(
                    f"model {model_name!r} at its concurrency quota "
                    f"({self.max_inflight_per_model}); "
                    f"retry after {self.retry_after:g}s",
                    self.retry_after,
                )
            self._inflight += 1
            self._per_model[model_name] += 1
            self._admitted_total += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)

    def release(self, model_name: str) -> None:
        """Return the slot taken by a successful :meth:`acquire`."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            remaining = self._per_model[model_name] - 1
            if remaining > 0:
                self._per_model[model_name] = remaining
            else:
                del self._per_model[model_name]

    def retry_after_header(self) -> str:
        """``Retry-After`` value: RFC 7231 wants integer seconds."""
        return str(max(1, int(math.ceil(self.retry_after))))

    def stats(self) -> dict:
        """Admission state for ``/metrics`` (per-worker)."""
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_inflight_per_model": self.max_inflight_per_model,
                "retry_after_s": self.retry_after,
                "inflight": self._inflight,
                "peak_inflight": self._peak_inflight,
                "admitted_total": self._admitted_total,
                "shed_total": self._shed_total,
            }
