"""Pre-fork multi-process worker mode for the scoring daemon.

One CPython process tops out well before the hardware does on many
small concurrent requests: each request pays GIL-serialised HTTP
parsing, JSON decode and solver dispatch even though the numpy inner
loops release the GIL.  ``repro serve --workers N`` therefore runs the
classic pre-fork design (nginx, gunicorn): the parent builds one
daemon — a bound :class:`~repro.server.http.ScoringHTTPServer` whose
constructor has checked every knob and whose
:class:`~repro.server.registry.ModelRegistry` holds the loaded models —
forks it ``N`` times, and then does nothing but supervise.  Every
worker calls ``accept`` on the same inherited socket, so the kernel
load-balances connections, and ``--workers 1`` and ``--workers N``
behave identically per request.

A worker only stamps its slot on the inherited server (metrics
writer, ``worker_slot``, the tracer's slot and spill directory) before
serving.  Forking a built server is safe because the parent never
serves: no handler or batcher thread exists and no lock is held at
fork time, and the registry keeps no file handles (an ``--access-log``
descriptor is opened ``O_APPEND``, so workers sharing it append whole
lines).  A respawn forks the same never-served parent server again.

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
* ``SIGHUP`` is ignored by the parent and, inherited across the
  fork, by every worker.  Serving knobs are set once, at boot: every
  worker, respawns included, serves the parent's boot flags, and
  changing a knob means restarting the daemon.

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
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.core.exceptions import ConfigurationError
from repro.server.http import ScoringHTTPServer
from repro.server.metrics import ServerMetrics, SharedMetricsStore

#: Seconds a draining worker gets to finish in-flight requests before
#: the parent escalates to ``SIGKILL``.
DEFAULT_DRAIN_GRACE = 30.0

#: A worker death this soon after its spawn counts towards the
#: crash-loop abort threshold.
_RAPID_DEATH_S = 1.0
_RAPID_DEATH_LIMIT = 3


class WorkerPool:
    """Fork a built daemon ``workers`` times and supervise until shutdown.

    ``server`` is a bound :class:`ScoringHTTPServer` that has never
    served a request: its constructor has already checked every
    serving knob and its registry holds the loaded models.  Each
    worker is a fork of it, so the workers share its listening socket
    and inherit its models.  ``drain_grace`` bounds a graceful stop
    before ``SIGKILL``.
    """

    def __init__(
        self,
        server: ScoringHTTPServer,
        workers: int = 2,
        drain_grace: float = DEFAULT_DRAIN_GRACE,
    ):
        if int(workers) < 1:
            raise ConfigurationError(
                f"--workers must be >= 1, got {workers}"
            )
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise ConfigurationError(
                "--workers > 1 needs os.fork; this platform lacks it"
            )
        self.server = server
        self.workers = int(workers)
        self.drain_grace = float(drain_grace)
        self._metrics_dir: Optional[str] = None
        self._store: Optional[SharedMetricsStore] = None
        self._pids: Dict[int, int] = {}  # pid -> slot
        self._spawned_at: Dict[int, float] = {}  # slot -> monotonic
        self._stopping = False
        self._stop_at = 0.0
        self._killed_hard = False

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def serve(self) -> int:
        """Fork the workers and supervise; returns the exit code."""
        # Non-blocking accepts: when one connection wakes the select
        # loop of *every* worker sharing the fd, the losers' accept()
        # must raise BlockingIOError (swallowed by socketserver's
        # noblock path) instead of parking in a blocking accept that
        # PEP 475 would retry straight through a shutdown signal —
        # which would wedge that worker's graceful drain until the
        # parent's SIGKILL escalation.  Accepted connections are
        # re-wrapped blocking by the handler machinery.
        self.server.socket.setblocking(False)
        self._metrics_dir = tempfile.mkdtemp(prefix="repro-serve-metrics-")
        self._store = SharedMetricsStore(
            os.path.join(self._metrics_dir, "metrics.mmap"),
            self.workers,
            create=True,
        )
        tracer = self.server.tracer
        if tracer is not None and tracer.mode != "off":
            # Shared trace spill directory: the worker that records a
            # trace and the worker that answers /v1/debug/trace/<id>
            # are usually different processes (fleet retrieval).
            os.mkdir(self._traces_dir)
        exit_code = 0
        try:
            # Handlers go in before the first fork so there is no
            # window in which a signal finds the default disposition
            # and kills the parent out from under its workers; each
            # child sheds the stop handlers again first thing (see
            # _spawn).  SIGHUP's default would do just that, so it is
            # ignored here, and every worker inherits the SIG_IGN.
            signal.signal(signal.SIGTERM, self._request_stop)
            signal.signal(signal.SIGINT, self._request_stop)
            signal.signal(signal.SIGHUP, signal.SIG_IGN)
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
                # crash loop (a worker killed again and again as soon
                # as it starts would otherwise respawn forever).
                age = time.monotonic() - self._spawned_at[slot]
                rapid_deaths = (
                    rapid_deaths + 1 if age < _RAPID_DEATH_S else 0
                )
                # Flushed: a child forked with this line still in the
                # stdout buffer would print it again.
                print(
                    f"worker {slot} (pid {pid}) exited "
                    f"{_describe_exit(raw)}; respawning",
                    flush=True,
                )
                if rapid_deaths >= _RAPID_DEATH_LIMIT:
                    print(
                        "workers are crash-looping; shutting the pool down",
                        flush=True,
                    )
                    exit_code = 1
                    self._request_stop(signal.SIGTERM, None)
                    continue
                self._spawn(slot)
        finally:
            self.server.server_close()
            shutil.rmtree(self._metrics_dir, ignore_errors=True)
        return exit_code

    @property
    def _traces_dir(self) -> str:
        assert self._metrics_dir is not None
        return os.path.join(self._metrics_dir, "traces")

    def _spawn(self, slot: int) -> None:
        # The signals stay blocked across the fork.  The child would
        # otherwise run the parent's inherited stop handler on a
        # SIGTERM landing before it sheds it: the signal is swallowed
        # and the worker serves on until the SIGKILL escalation turns
        # a clean stop into a failed drain.  In the parent, a stop
        # that lands mid-fork is held until the new pid is recorded,
        # so _request_stop signals it too.
        held = [signal.SIGTERM, signal.SIGINT]
        signal.pthread_sigmask(signal.SIG_BLOCK, held)
        pid = -1
        try:
            pid = os.fork()
            if pid == 0:
                # Child: shed the parent's handlers.  Until
                # install_graceful_shutdown replaces them, a shutdown
                # signal simply exits 0: nothing is in flight yet, and
                # the default disposition would make the parent count
                # a perfectly clean stop as a failed drain.
                _booting_exit = lambda signum, frame: os._exit(0)  # noqa: E731
                signal.signal(signal.SIGTERM, _booting_exit)
                signal.signal(signal.SIGINT, _booting_exit)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, held)
                self._worker_main(slot)  # never returns
                os._exit(70)  # pragma: no cover - unreachable
            self._pids[pid] = slot
            self._spawned_at[slot] = time.monotonic()
            # A stop can land between reaping a dead worker and
            # respawning it: _request_stop only signals the pids it
            # can see, so a replacement forked after the stop began
            # must be told to drain here.  (A stop held by the mask
            # runs _request_stop on unblock, which sees this pid.)
            if self._stopping:
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover - exited
                    pass
        finally:
            if pid != 0:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, held)

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
        """Stamp this worker's slot on the forked server and serve it;
        exits the process."""
        status = 70  # EX_SOFTWARE unless we complete a clean drain
        try:
            server = self.server
            server.metrics = ServerMetrics(self._store.writer(slot))
            server.worker_slot = slot
            tracer = server.tracer
            if tracer is not None:
                tracer.worker_slot = slot
                if tracer.mode != "off":
                    tracer.spill_dir = self._traces_dir
            install_graceful_shutdown(server)
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

    Shared by pool workers and the single-process CLI path.  The
    drain joins in-flight handler threads in ``server_close()``, so
    they are made non-daemonic here (the class default keeps daemon
    threads for an embedded server's painless exit).  The handler is
    async-signal-safe by
    construction: it only flips the drain flag and hands the blocking
    ``shutdown()`` call to a helper thread — calling ``shutdown()``
    from the handler itself would deadlock, because the handler
    interrupts the very ``serve_forever`` loop that must acknowledge
    the shutdown.
    """
    server.daemon_threads = False
    server.block_on_close = True

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


def _exit_code(raw_status: int) -> int:
    if os.WIFEXITED(raw_status):
        return os.WEXITSTATUS(raw_status)
    return 128 + os.WTERMSIG(raw_status)


def _describe_exit(raw_status: int) -> str:
    if os.WIFEXITED(raw_status):
        return f"with status {os.WEXITSTATUS(raw_status)}"
    return f"on signal {os.WTERMSIG(raw_status)}"
