"""A throwaway fleet of local shard daemons, for tests and CI.

``repro shard --local-workers N`` (and the kill-a-shard drill in the
load harness) need real, separate daemon *processes* — a thread-local
fake would never exercise connection death — but nothing about the
coordinator cares that they share a box.  :class:`LocalShardFleet`
spawns ``python -m repro serve`` subprocesses on ephemeral ports,
parses each boot line for the bound port, waits for ``/healthz``, and
tears everything down on exit.  :meth:`kill` SIGKILLs one member
mid-job, which is exactly the failure the coordinator's reroute path
is drilled against.
"""

from __future__ import annotations

import pathlib
import re
import signal
import subprocess
import sys
import time
import urllib.request
from typing import List, Optional, Sequence

from repro.core.exceptions import ConfigurationError
from repro.sharding.coordinator import ShardJobError

#: The daemon's boot line, e.g. ``serving 1 model(s) on http://127.0.0.1:43210``.
_BOOT_LINE = re.compile(r"serving .* on http://[^:]+:(\d+)")


class LocalShardFleet:
    """N local ``repro serve`` daemons on ephemeral ports.

    Use as a context manager::

        with LocalShardFleet("model.json", n_shards=3) as fleet:
            coordinator = ShardCoordinator(fleet.urls, fleet.model_name)
            ...

    Parameters
    ----------
    model_path:
        Saved model file (or manifest directory) every shard serves.
    n_shards:
        Daemons to spawn.
    model_name:
        Name the model registers under (``shard`` clients score
        against it).
    extra_args:
        Additional ``repro serve`` arguments appended to every
        daemon's command line (e.g. ``["--batch-window-ms", "2"]``).
    boot_timeout:
        Seconds to wait for each daemon's port line + first healthy
        ``/healthz``.
    """

    def __init__(
        self,
        model_path: str | pathlib.Path,
        n_shards: int = 3,
        model_name: str = "shard-model",
        extra_args: Sequence[str] = (),
        boot_timeout: float = 30.0,
    ):
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        self.model_path = str(model_path)
        self.n_shards = n_shards
        self.model_name = str(model_name)
        self.extra_args = list(extra_args)
        self.boot_timeout = float(boot_timeout)
        self._procs: List[subprocess.Popen] = []
        self.urls: List[str] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LocalShardFleet":
        try:
            for _ in range(self.n_shards):
                self._procs.append(self._spawn())
            for proc in self._procs:
                self.urls.append(self._await_boot(proc))
        except BaseException:
            self.terminate()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()

    def _spawn(self) -> subprocess.Popen:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--model",
            f"{self.model_name}={self.model_path}",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *self.extra_args,
        ]
        return subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _await_boot(self, proc: subprocess.Popen) -> str:
        deadline = time.monotonic() + self.boot_timeout
        port: Optional[int] = None
        assert proc.stdout is not None
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise ShardJobError(
                    f"shard daemon exited during boot "
                    f"(code {proc.poll()})"
                )
            match = _BOOT_LINE.search(line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            raise ShardJobError(
                f"shard daemon printed no port line within "
                f"{self.boot_timeout:g}s"
            )
        url = f"http://127.0.0.1:{port}"
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    f"{url}/healthz", timeout=1.0
                ) as response:
                    if response.status == 200:
                        return url
            except OSError:
                time.sleep(0.05)
        raise ShardJobError(
            f"shard daemon on {url} never answered /healthz within "
            f"{self.boot_timeout:g}s"
        )

    # ------------------------------------------------------------------
    def kill(self, index: int, sig: int = signal.SIGKILL) -> str:
        """Kill one shard (default SIGKILL — no drain, no goodbye).

        Returns the killed shard's URL so a drill can assert the
        coordinator rerouted exactly that shard's blocks.
        """
        proc = self._procs[index]
        url = self.urls[index]
        if proc.poll() is None:
            proc.send_signal(sig)
            proc.wait(timeout=10)
        return url

    def alive(self) -> List[str]:
        """URLs of the members still running."""
        return [
            url
            for url, proc in zip(self.urls, self._procs)
            if proc.poll() is None
        ]

    def terminate(self) -> None:
        """Stop every member (SIGTERM, then SIGKILL stragglers)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()
        self._procs = []
        self.urls = []
