"""The repository's performance ledger: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice (untraced, then traced) and
prints every per-layer metric.  The last line of standard output is
the JSON result; the lines before it are the report.  What each metric
means per workload is in ``perfbench/README.md``; what each per-layer
metric should move is in ``perfbench/catalog.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent


def _environment() -> dict:
    import numpy

    from repro.linalg.backend import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend_auto": resolve_backend("auto").name,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src}/repro is missing "
              f"(run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    # Daemons and shard fleets are `python -m repro` subprocesses.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )

    import csv_batch
    import fit_bench
    import serve_small
    from catalog import MOVES
    from ledger import result_line

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = {
        "serve-small": serve_small.run,
        "csv-batch": csv_batch.run,
        "fit": fit_bench.run,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    trace = bool(args.trace)

    work_parent = root / ".perfbench-work"
    work_parent.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=work_parent))
    # Spill files (external sort, the coordinator's merge) stay in the
    # checkout too, in this process and every process it starts.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    try:
        outcome = workloads[args.workload](
            args.seed, args.seconds, trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_parent.iterdir()):
            work_parent.rmdir()

    metrics = spec["per_layer" if trace else "end_to_end"]
    expected = [metric["name"] for metric in metrics]
    units = {metric["name"]: metric["unit"] for metric in metrics}
    moves = {
        name: [m for w, m in pairs if w == args.workload]
        for name, pairs in MOVES.items()
    }
    if trace:
        for name in expected:
            if moves[name] and name not in outcome.values:
                raise RuntimeError(f"{args.workload} did not measure {name}")
        # A layer this workload never enters did no work in it.
        values = {name: outcome.values.get(name, 0.0) for name in expected}
    else:
        values = {name: outcome.values[name] for name in expected}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"why: {why[args.workload]}")
    for name in expected:
        target = ", ".join(moves.get(name, ()))
        print(f"  {name:46s} {values[name]:14.6g} {units[name]:6s}"
              + (f" -> {target}" if target else ""))
    print(f"  failed_share {outcome.tally.failed_share:.6g} "
          f"({outcome.tally.failed}/{outcome.tally.attempted}, "
          f"{outcome.tally.failures or 'no failures'})")
    print("report " + json.dumps(
        {"environment": _environment(), **outcome.report}, sort_keys=True
    ))
    print(result_line(outcome.correct, outcome.tally, values, expected,
                      units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
