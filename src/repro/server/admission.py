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

Zero-downtime retuning
----------------------
Both the admission knobs and the micro-batcher knobs reload in place on
``SIGHUP`` from a JSON *tuning file* (``repro serve --tuning-file``):
:func:`load_tuning_file` parses and validates it, and
``ScoringHTTPServer.apply_tuning`` applies it without dropping in-flight
requests.  In pre-fork mode the pool parent fans the signal out to
every worker.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter
from typing import Optional

from repro.core.exceptions import ConfigurationError
from repro.server.batching import check_batch_knobs

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
        _validate_admission_knobs(
            max_inflight, max_inflight_per_model, retry_after
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

    def reconfigure(
        self,
        max_inflight: Optional[int] = None,
        max_inflight_per_model: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> dict:
        """Retune the bounds in place (the ``SIGHUP`` reload path).

        Requests already admitted keep their slots; lowering a bound
        below the current in-flight count simply sheds new arrivals
        until the excess drains.  Returns the applied knobs.
        """
        _validate_admission_knobs(
            self.max_inflight if max_inflight is None else max_inflight,
            self.max_inflight_per_model
            if max_inflight_per_model is None
            else max_inflight_per_model,
            self.retry_after if retry_after is None else retry_after,
        )
        with self._lock:
            if max_inflight is not None:
                self.max_inflight = int(max_inflight)
            if max_inflight_per_model is not None:
                self.max_inflight_per_model = int(max_inflight_per_model)
            if retry_after is not None:
                self.retry_after = float(retry_after)
            return {
                "max_inflight": self.max_inflight,
                "max_inflight_per_model": self.max_inflight_per_model,
                "retry_after_s": self.retry_after,
            }

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


def _validate_admission_knobs(
    max_inflight, max_inflight_per_model, retry_after
) -> None:
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
    if not float(retry_after) > 0:
        raise ConfigurationError(
            f"retry_after must be > 0 seconds, got {retry_after}"
        )


# ----------------------------------------------------------------------
# SIGHUP tuning files
# ----------------------------------------------------------------------
#: Knobs a tuning file may set, mapped to their validators.  Everything
#: here can be retuned without a restart; knobs that change the process
#: topology (workers, host, port, models) deliberately cannot.
TUNING_KEYS = (
    "batch_window_ms",
    "max_batch_rows",
    "batch_policy",
    "max_inflight",
    "max_inflight_per_model",
    "retry_after_s",
)


def validate_tuning(tuning: dict) -> dict:
    """Check a tuning mapping; returns it, raises on any bad knob."""
    if not isinstance(tuning, dict):
        raise ConfigurationError(
            f"tuning must be a JSON object, got {type(tuning).__name__}"
        )
    unknown = sorted(set(tuning) - set(TUNING_KEYS))
    if unknown:
        raise ConfigurationError(
            f"unknown tuning keys {unknown}; supported: "
            f"{', '.join(TUNING_KEYS)}"
        )

    def _check_batch_key(key: str, **knob) -> None:
        # The batcher's own check judges the value; the prefix names
        # the tuning key it came from.
        try:
            check_batch_knobs(**knob)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None

    if "batch_window_ms" in tuning:
        _check_batch_key(
            "batch_window_ms", window=float(tuning["batch_window_ms"]) / 1e3
        )
    if "max_batch_rows" in tuning:
        _check_batch_key("max_batch_rows", max_rows=tuning["max_batch_rows"])
    if "batch_policy" in tuning:
        _check_batch_key("batch_policy", policy=tuning["batch_policy"])
    _validate_admission_knobs(
        tuning.get("max_inflight", 0),
        tuning.get("max_inflight_per_model", 0),
        tuning.get("retry_after_s", DEFAULT_RETRY_AFTER),
    )
    return tuning


def load_tuning_file(path) -> dict:
    """Read and validate a ``--tuning-file`` JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tuning = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read tuning file {path}: {exc}"
        ) from None
    return validate_tuning(tuning)
