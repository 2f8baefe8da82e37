"""Pre-fork multi-process worker mode for the scoring daemon.

One CPython process tops out well before the hardware does on many
small concurrent requests: each request pays GIL-serialised HTTP
parsing, JSON decode and solver dispatch even though the numpy inner
loops release the GIL.  ``repro serve --workers N`` therefore runs the
classic pre-fork design (nginx, gunicorn): the parent binds the
listening socket once, forks ``N`` workers that *share* it — every
worker calls ``accept`` on the same inherited file descriptor and the
kernel load-balances connections — and then does nothing but
supervise.  Each worker is the unmodified single-process daemon stack
(:class:`~repro.server.http.ScoringHTTPServer` +
:class:`~repro.server.registry.ModelRegistry` + per-worker
micro-batcher), so ``--workers 1`` and ``--workers N`` behave
identically per request.

Supervision and shutdown contract
---------------------------------
* A worker that dies unexpectedly is respawned into its slot; three
  consecutive sub-second deaths abort the pool with a non-zero exit
  (a crash loop should page the operator, not spin).
* ``SIGTERM``/``SIGINT`` to the parent begin a graceful drain: the
  signal is forwarded to every worker, each worker stops accepting,
  finishes its in-flight requests (handler threads are joined, every
  response carries ``Connection: close``), and exits ``0``.  Workers
  still alive after ``drain_grace`` seconds are killed hard.  The
  parent exits ``0`` on a clean drain.
* Hot reload is per-worker: each worker re-checks model mtimes on its
  own requests, so after overwriting a model file the fleet converges
  worker by worker (same eventual-consistency window as one process —
  see ``docs/ops.md``).
* ``SIGHUP`` to the parent is fanned out to every worker, which
  re-reads the ``--tuning-file`` and retunes its batching/admission
  knobs in place (:func:`install_tuning_reload`) — zero downtime, no
  in-flight request dropped.

Each worker writes its metrics to its own slot of a shared
memory-mapped counter file
(:class:`~repro.server.metrics.SharedMetricsStore`) — the same slot
store a single process keeps in memory — so ``GET /metrics`` answered
by any worker reports fleet totals.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import ConfigurationError
from repro.linalg.backend import resolve_backend
from repro.obs.accesslog import AccessLog
from repro.obs.trace import (
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_TRACE_BUFFER,
    TRACE_MODES,
    Tracer,
)
from repro.server.admission import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_RETRY_AFTER,
    _validate_admission_knobs,
    load_tuning_file,
)
from repro.server.http import ScoringHTTPServer, _validate_keepalive_timeout
from repro.server.metrics import ServerMetrics, SharedMetricsStore
from repro.server.registry import ModelRegistry
from repro.serving.batch import _validate_chunk_size

#: Seconds a draining worker gets to finish in-flight requests before
#: the parent escalates to ``SIGKILL``.
DEFAULT_DRAIN_GRACE = 30.0

#: A worker death this soon after its spawn counts towards the
#: crash-loop abort threshold.
_RAPID_DEATH_S = 1.0
_RAPID_DEATH_LIMIT = 3


class WorkerPool:
    """Bind once, fork ``workers`` daemons, supervise until shutdown.

    Parameters mirror the single-process ``ScoringHTTPServer`` knobs;
    ``model_specs`` is the parsed ``--model NAME=PATH`` list.  Workers
    build their own :class:`ModelRegistry` *after* the fork so every
    process owns private locks, file handles and hot-reload state.
    """

    def __init__(
        self,
        model_specs: Sequence[Tuple[str, str]],
        host: str = "127.0.0.1",
        port: int = 8000,
        workers: int = 2,
        chunk_size: Optional[int] = None,
        batch_window: float = 0.0,
        max_batch_rows: Optional[int] = None,
        batch_policy: str = "adaptive",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_inflight_per_model: int = 0,
        retry_after: float = DEFAULT_RETRY_AFTER,
        tuning_file: Optional[str] = None,
        check_mtime: bool = True,
        keepalive_timeout: float = 30.0,
        listen_backlog: int = 128,
        drain_grace: float = DEFAULT_DRAIN_GRACE,
        trace_mode: str = "off",
        trace_sample: int = DEFAULT_SAMPLE_EVERY,
        trace_buffer: int = DEFAULT_TRACE_BUFFER,
        access_log: Optional[str] = None,
        backend=None,
    ):
        if int(workers) < 1:
            raise ConfigurationError(
                f"--workers must be >= 1, got {workers}"
            )
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise ConfigurationError(
                "--workers > 1 needs os.fork; this platform lacks it"
            )
        # Same fail-fast contract as the single-process boot: a bad
        # knob must error here, before the socket binds — not surface
        # minutes later as a crash-looping worker fleet.
        _validate_chunk_size(chunk_size)
        _validate_keepalive_timeout(keepalive_timeout)
        _validate_admission_knobs(
            max_inflight, max_inflight_per_model, retry_after
        )
        if float(batch_window) < 0:
            raise ConfigurationError(
                f"batch window must be >= 0 seconds, got {batch_window}"
            )
        if max_batch_rows is not None and int(max_batch_rows) < 1:
            raise ConfigurationError(
                f"max_rows must be >= 1, got {max_batch_rows}"
            )
        if batch_policy not in ("adaptive", "fixed"):
            raise ConfigurationError(
                f"batch policy must be 'adaptive' or 'fixed', "
                f"got {batch_policy!r}"
            )
        if int(listen_backlog) < 1:
            raise ConfigurationError(
                f"listen_backlog must be >= 1, got {listen_backlog}"
            )
        if trace_mode not in TRACE_MODES:
            raise ConfigurationError(
                f"--trace must be one of {TRACE_MODES}, got {trace_mode!r}"
            )
        if int(trace_sample) < 1:
            raise ConfigurationError(
                f"--trace-sample must be >= 1, got {trace_sample}"
            )
        if int(trace_buffer) < 1:
            raise ConfigurationError(
                f"--trace-buffer must be >= 1, got {trace_buffer}"
            )
        # Validate in the parent so a bad backend name fails the
        # boot, not a worker fleet; workers resolve the spec again
        # after the fork.
        if backend is not None:
            resolve_backend(backend)
        self.model_specs = list(model_specs)
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.batch_window = float(batch_window)
        self.max_batch_rows = max_batch_rows
        self.batch_policy = batch_policy
        self.max_inflight = int(max_inflight)
        self.max_inflight_per_model = int(max_inflight_per_model)
        self.retry_after = float(retry_after)
        self.tuning_file = tuning_file
        self.check_mtime = bool(check_mtime)
        self.keepalive_timeout = float(keepalive_timeout)
        self.listen_backlog = int(listen_backlog)
        self.drain_grace = float(drain_grace)
        self.trace_mode = trace_mode
        self.trace_sample = int(trace_sample)
        self.trace_buffer = int(trace_buffer)
        self.access_log = access_log
        self.backend = backend
        self._socket: Optional[socket.socket] = None
        self._metrics_dir: Optional[str] = None
        self._pids: Dict[int, int] = {}  # pid -> slot
        self._spawned_at: Dict[int, float] = {}  # slot -> monotonic
        self._stopping = False
        self._stop_at = 0.0
        self._killed_hard = False

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def bind(self) -> Tuple[str, int]:
        """Create the shared listening socket; returns the bound address.

        Separate from :meth:`serve` so the caller can print the real
        port (``--port 0`` binds an ephemeral one) before any worker
        exists — the load-test harness and operators both key on that
        line.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(self.listen_backlog)
        # Non-blocking accepts: when one connection wakes the select
        # loop of *every* worker sharing the fd, the losers' accept()
        # must raise BlockingIOError (swallowed by socketserver's
        # noblock path) instead of parking in a blocking accept that
        # PEP 475 would retry straight through a shutdown signal —
        # which would wedge that worker's graceful drain until the
        # parent's SIGKILL escalation.  Accepted connections are
        # re-wrapped blocking by the handler machinery.
        sock.setblocking(False)
        self._socket = sock
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    def serve(self) -> int:
        """Fork the workers and supervise; returns the exit code."""
        if self._socket is None:
            self.bind()
        self._metrics_dir = tempfile.mkdtemp(prefix="repro-serve-metrics-")
        SharedMetricsStore(
            self._metrics_path, self.workers, create=True
        )
        if self.trace_mode != "off":
            # Shared trace spill directory: the worker that records a
            # trace and the worker that answers /v1/debug/trace/<id>
            # are usually different processes (fleet retrieval).
            os.mkdir(self._traces_dir)
        exit_code = 0
        try:
            # Handlers go in before the first fork so there is no
            # window in which a signal finds the default disposition
            # and kills the parent out from under its workers; each
            # child sheds them again first thing (see _spawn).
            signal.signal(signal.SIGTERM, self._request_stop)
            signal.signal(signal.SIGINT, self._request_stop)
            if hasattr(signal, "SIGHUP"):
                # Zero-downtime retune: fan the reload signal out so
                # every worker re-reads the tuning file in place.
                signal.signal(signal.SIGHUP, self._forward_reload)
            for slot in range(self.workers):
                self._spawn(slot)
            rapid_deaths = 0
            while self._pids:
                pid, raw = os.waitpid(-1, os.WNOHANG)
                if pid == 0:
                    if self._stopping:
                        self._escalate_if_overdue()
                    time.sleep(0.05)
                    continue
                slot = self._pids.pop(pid, None)
                if slot is None:
                    # Not one of ours: an embedding application's own
                    # child reaped by waitpid(-1).  Nothing to respawn.
                    continue
                if self._stopping:
                    if _exit_code(raw) != 0:
                        exit_code = 1
                    continue
                # Unexpected death: respawn, but refuse to fuel a
                # crash loop (a model file the workers cannot load,
                # say, would otherwise respawn forever).
                age = time.monotonic() - self._spawned_at[slot]
                rapid_deaths = (
                    rapid_deaths + 1 if age < _RAPID_DEATH_S else 0
                )
                print(
                    f"worker {slot} (pid {pid}) exited "
                    f"{_describe_exit(raw)}; respawning"
                )
                if rapid_deaths >= _RAPID_DEATH_LIMIT:
                    print(
                        "workers are crash-looping; shutting the pool down"
                    )
                    exit_code = 1
                    self._request_stop(signal.SIGTERM, None)
                    continue
                self._spawn(slot)
        finally:
            if self._socket is not None:
                self._socket.close()
            if self._metrics_dir is not None:
                shutil.rmtree(self._metrics_dir, ignore_errors=True)
        return exit_code

    @property
    def _metrics_path(self) -> str:
        assert self._metrics_dir is not None
        return os.path.join(self._metrics_dir, "metrics.mmap")

    @property
    def _traces_dir(self) -> str:
        assert self._metrics_dir is not None
        return os.path.join(self._metrics_dir, "traces")

    def _spawn(self, slot: int) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: shed the parent's inherited handlers (they would
            # forward signals to *its* pid table if they ever ran
            # here).  Until install_graceful_shutdown replaces them,
            # a shutdown signal during boot — model loading, server
            # construction — simply exits 0: nothing is in flight yet,
            # and the default disposition would make the parent count
            # a perfectly clean stop as a failed drain.
            _booting_exit = lambda signum, frame: os._exit(0)  # noqa: E731
            signal.signal(signal.SIGTERM, _booting_exit)
            signal.signal(signal.SIGINT, _booting_exit)
            if hasattr(signal, "SIGHUP"):
                # A retune arriving while this worker is still booting
                # has nothing to retune yet; ignore it until the real
                # reload handler is installed (the operator's next
                # SIGHUP lands on the whole fleet anyway).
                signal.signal(signal.SIGHUP, signal.SIG_IGN)
            self._worker_main(slot)  # never returns
            os._exit(70)  # pragma: no cover - unreachable
        self._pids[pid] = slot
        self._spawned_at[slot] = time.monotonic()
        # A stop signal can land between reaping a dead worker and
        # respawning it: _request_stop only signals the pids it can
        # see, so a replacement forked during that window must be
        # told to drain here or it would serve until the SIGKILL
        # escalation and turn a clean stop into a failed drain.
        if self._stopping:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:  # pragma: no cover - exited already
                pass

    def _forward_reload(self, signum, frame) -> None:
        """Parent ``SIGHUP`` handler: fan the retune out to workers."""
        for pid in list(self._pids):
            try:
                os.kill(pid, signal.SIGHUP)
            except ProcessLookupError:
                pass

    def _request_stop(self, signum, frame) -> None:
        """Parent signal handler: start the drain exactly once."""
        if self._stopping:
            return
        self._stopping = True
        self._stop_at = time.monotonic()
        for pid in list(self._pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    def _escalate_if_overdue(self) -> None:
        if (
            not self._killed_hard
            and time.monotonic() - self._stop_at > self.drain_grace
        ):
            self._killed_hard = True
            for pid in list(self._pids):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_main(self, slot: int) -> None:
        """Run one daemon on the inherited socket; exits the process."""
        status = 70  # EX_SOFTWARE unless we complete a clean drain
        try:
            registry = ModelRegistry(check_mtime=self.check_mtime)
            for name, path in self.model_specs:
                registry.register(name, path)
            store = SharedMetricsStore(self._metrics_path, self.workers)
            tracer = None
            if self.trace_mode != "off" or self.access_log is not None:
                tracer = Tracer(
                    mode=self.trace_mode,
                    sample_every=self.trace_sample,
                    capacity=self.trace_buffer,
                    spill_dir=(
                        self._traces_dir
                        if self.trace_mode != "off"
                        else None
                    ),
                    worker_slot=slot,
                    access_log=(
                        AccessLog(self.access_log)
                        if self.access_log is not None
                        else None
                    ),
                )
            server = ScoringHTTPServer(
                (self.host, self.port),
                registry,
                chunk_size=self.chunk_size,
                metrics=ServerMetrics(store.writer(slot)),
                batch_window=self.batch_window,
                max_batch_rows=self.max_batch_rows,
                batch_policy=self.batch_policy,
                max_inflight=self.max_inflight,
                max_inflight_per_model=self.max_inflight_per_model,
                retry_after=self.retry_after,
                listen_socket=self._socket,
                keepalive_timeout=self.keepalive_timeout,
                backend=self.backend,
                tracer=tracer,
            )
            server.worker_slot = slot
            # Graceful drain needs the in-flight handler threads to be
            # joined by server_close(), so they must not be daemonic
            # (the single-process default keeps daemon threads for
            # painless Ctrl-C, the pool owns its shutdown instead).
            server.daemon_threads = False
            server.block_on_close = True
            install_graceful_shutdown(server)
            install_tuning_reload(server, self.tuning_file)
            server.serve_forever(poll_interval=0.05)
            server.server_close()
            status = 0
        except Exception as exc:  # noqa: BLE001 - reported then exit
            print(f"worker {slot} failed: {exc}", flush=True)
        finally:
            # Never fall back into the parent's stack (pytest, CLI
            # error handling, atexit) from a forked child.
            os._exit(status)


def install_graceful_shutdown(server: ScoringHTTPServer) -> List[int]:
    """Drain-and-stop ``server`` on ``SIGTERM``/``SIGINT``.

    Shared by pool workers and the single-process CLI path (the
    satellite fix: the CLI previously only stopped on
    ``KeyboardInterrupt``).  The handler is async-signal-safe by
    construction: it only flips the drain flag and hands the blocking
    ``shutdown()`` call to a helper thread — calling ``shutdown()``
    from the handler itself would deadlock, because the handler
    interrupts the very ``serve_forever`` loop that must acknowledge
    the shutdown.
    """
    def _drain(signum, frame):
        server.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _drain)
            installed.append(signum)
        except ValueError:  # pragma: no cover - non-main thread
            break
    return installed


def install_tuning_reload(
    server: ScoringHTTPServer, tuning_file: Optional[str]
) -> bool:
    """Re-apply the ``--tuning-file`` knobs on ``SIGHUP``.

    Shared by pool workers and the single-process CLI path.  The
    handler re-reads and validates the file, then retunes the live
    server in place (``apply_tuning``) — no socket rebind, no process
    restart, no in-flight request dropped.  A missing or invalid file
    logs and changes nothing: a typo in a retune must never take a
    healthy daemon down.  Returns whether a handler was installed.
    """
    if not hasattr(signal, "SIGHUP"):  # pragma: no cover - non-POSIX
        return False

    def _reload(signum, frame):
        if tuning_file is None:
            print(
                "SIGHUP ignored: no --tuning-file to reload", flush=True
            )
            return
        try:
            applied = server.apply_tuning(load_tuning_file(tuning_file))
        except Exception as exc:  # noqa: BLE001 - keep serving
            print(f"tuning reload failed: {exc}", flush=True)
            return
        print(f"tuning reloaded from {tuning_file}: {applied}", flush=True)

    try:
        signal.signal(signal.SIGHUP, _reload)
    except ValueError:  # pragma: no cover - non-main thread
        return False
    return True


def _exit_code(raw_status: int) -> int:
    if os.WIFEXITED(raw_status):
        return os.WEXITSTATUS(raw_status)
    return 128 + os.WTERMSIG(raw_status)


def _describe_exit(raw_status: int) -> str:
    if os.WIFEXITED(raw_status):
        return f"with status {os.WEXITSTATUS(raw_status)}"
    return f"on signal {os.WTERMSIG(raw_status)}"
