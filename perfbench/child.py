"""Run a measurement in a fresh process and collect its result.

Batch and fit work runs in its own process so ``peak_rss_mb`` is that
process's high-water mark, not the benchmark's inputs and oracles.

The process is a plain ``python3 perfbench/child.py`` subprocess, not
a ``multiprocessing`` one: the spawn start method also starts a
resource-tracker process that outlives the run.  The child leads its
own process group, so whatever it starts (a shard fleet's daemons) is
stopped with it on every path out, a crash or a timeout included.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import tempfile
import traceback
from typing import Callable


class ChildError(RuntimeError):
    """The measuring process failed, hung or died."""


def _stop_group(process: subprocess.Popen) -> None:
    """Kill what is left of the child's process group, then reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def run_spawned(func: Callable, kwargs: dict, timeout: float) -> dict:
    """``func(**kwargs)`` in a fresh process; its (picklable) result.

    ``func`` must be a module-level function of a module in this
    directory, so the child can import it by name.
    """
    handle, result_path = tempfile.mkstemp(suffix=".pickle")
    os.close(handle)
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), result_path],
        stdin=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        try:
            process.communicate(pickle.dumps((func, kwargs)), timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildError(
                f"{func.__name__} gave no result in {timeout:g}s"
            ) from None
        with open(result_path, "rb") as stream:
            data = stream.read()
        if not data:
            raise ChildError(
                f"{func.__name__} died without a result "
                f"(exit code {process.returncode})"
            )
        reply = pickle.loads(data)
    finally:
        _stop_group(process)
        os.unlink(result_path)
    if "error" in reply:
        raise ChildError(f"{func.__name__} failed:\n{reply['error']}")
    return reply["ok"]


def _main(result_path: str) -> int:
    func, kwargs = pickle.loads(sys.stdin.buffer.read())
    try:
        reply = {"ok": func(**kwargs)}
    except Exception:  # noqa: BLE001 - reported to the parent
        reply = {"error": traceback.format_exc()}
    with open(result_path, "wb") as stream:
        pickle.dump(reply, stream)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1]))
