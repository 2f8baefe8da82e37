"""csv-batch: one seeded CSV through the three bulk entry points.

``stream_score_csv``, ``stream_rank_csv`` (memory budget rows/8, so the
external sort spills ~8 runs) and ``ShardCoordinator.rank_csv`` over a
2-shard ``LocalShardFleet``, all with the CLI's defaults
(``backend="auto"``, default chunk size).  Every output is compared
byte for byte with the in-memory ``score_batch`` /
``build_ranking_list`` + ``save_ranking_csv`` oracle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import pathlib
import time

import numpy as np

import repro.serving.batch as batch
import repro.serving.stream as stream
import repro.sharding.coordinator as coordinator
from repro.core.scoring import build_ranking_list
from repro.data.countries import COUNTRY_ATTRIBUTES
from repro.data.loaders import save_ranking_csv
from repro.obs import engineprof
from repro.obs.engineprof import EngineProfile
from repro.obs.histogram import percentile_from_buckets
from repro.serving import (
    ExternalSorter,
    load_model,
    score_batch,
    stream_rank_csv,
    stream_score_csv,
)
from repro.sharding import LocalShardFleet, ShardCoordinator
from repro.sharding.rollup import fetch_shard_metrics

from calibrate import Speedometer, normalised
from child import run_spawned
from inputs import (
    MODEL_NAME,
    attribute_rows,
    fit_countries_model,
    best_restart_objective,
)
from ledger import Outcome, Tally, median
from spans import LayerClock, patched, profile_layers, vm_hwm_mb

N_ROWS = 40_000
DUPLICATE_SHARE = 0.01
N_SHARDS = 2
#: Fleets booted per run, one after another.  Each boot is a
#: ``setup_s`` sample, and each fleet measures an equal share of the
#: run: a fleet's speed varies with where its daemons land.
FLEETS = 3
MIN_ROUNDS = 2
JOBS = ("score", "rank", "shard")
SHARD_ENDPOINT = "POST /v1/models/{name}/rank-shard"


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_inputs(seed: int, workdir: pathlib.Path) -> dict:
    """The seeded CSV, the model, and the oracle digests."""
    model_path = workdir / "model.json"
    restarts = fit_countries_model(seed, model_path)
    rng = np.random.default_rng([seed, 2])
    X = attribute_rows(rng, N_ROWS)
    n_dup = int(N_ROWS * DUPLICATE_SHARE)
    X[rng.choice(N_ROWS, n_dup, replace=False)] = X[
        rng.integers(0, N_ROWS, n_dup)
    ]
    labels = [f"r{i:06d}" for i in range(N_ROWS)]
    csv_path = workdir / "objects.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", *COUNTRY_ATTRIBUTES])
        for label, row in zip(labels, X.tolist()):
            writer.writerow([label, *map(repr, row)])

    scores = score_batch(load_model(model_path), X, backend="auto")
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["label", "score"])
    for label, score in zip(labels, scores.tolist()):
        writer.writerow([label, repr(score)])
    oracle_rank = workdir / "oracle-rank.csv"
    save_ranking_csv(oracle_rank, build_ranking_list(scores, labels=labels))
    return {
        "csv_path": str(csv_path),
        "model_path": str(model_path),
        "score_digest": hashlib.sha256(
            buffer.getvalue().encode("utf-8")
        ).hexdigest(),
        "rank_digest": _sha256(oracle_rank),
        "objective": best_restart_objective(restarts),
        "tied_rows": int(N_ROWS - np.unique(scores).size),
    }


class _Probe:
    """Per-job layer timings: the benchmark's spans for one job."""

    def __init__(self):
        self.clock = LayerClock()
        self.started = self.wall = 0.0
        self.ranked_at = None
        self.sorter = None
        self.coordinator = None
        self.last_block_at = None

    def patches(self):
        clock = self.clock
        original_ranked = ExternalSorter.ranked

        def ranked(sorter, *args, **kwargs):
            self.ranked_at = time.perf_counter()
            self.sorter = sorter
            return original_ranked(sorter, *args, **kwargs)

        return patched(
            (stream, "iter_csv_chunks",
             clock.timed_iter("read", stream.iter_csv_chunks)),
            (coordinator, "iter_csv_chunks",
             clock.timed_iter("read", coordinator.iter_csv_chunks)),
            (batch, "score_batch", clock.timed("score", batch.score_batch)),
            (ExternalSorter, "add", clock.timed("add", ExternalSorter.add)),
            (ExternalSorter, "ranked", ranked),
        )

    def on_block(self, index, url, n_rows) -> None:
        self.last_block_at = time.perf_counter()


def _shard_buckets(urls) -> list:
    """Summed rank-shard latency buckets of the fleet's ``/metrics``."""
    total = None
    for url in urls:
        cells = fetch_shard_metrics(url)["latency_histograms"]["endpoints"]
        counts = cells.get(SHARD_ENDPOINT, {}).get("buckets")
        if counts is None:
            continue
        total = counts if total is None else [
            a + b for a, b in zip(total, counts)
        ]
    return total or []


def measure(inputs: dict, seconds: float, trace: bool, workdir: str) -> dict:
    """Runs in a spawned process: set-up, then job rounds."""
    workdir = pathlib.Path(workdir)
    csv_path, model_path = inputs["csv_path"], inputs["model_path"]
    expected = {
        "score": inputs["score_digest"],
        "rank": inputs["rank_digest"],
        "shard": inputs["rank_digest"],
    }
    tally = Tally()
    errors: list = []
    meter = Speedometer()
    fleet = LocalShardFleet(model_path, n_shards=N_SHARDS,
                            model_name=MODEL_NAME)

    def boot():
        loaded = load_model(model_path)
        fleet.__enter__()
        return loaded

    boots, per_round, shard_buckets = [], [], []
    retaken = 0
    walls = {job: [] for job in JOBS}
    norms = {job: [] for job in JOBS}
    traced_norms = {job: [] for job in JOBS}
    try:
        def run_job(job: str, probe: _Probe) -> bool:
            """One job; its wall time lands in ``probe``.  A job that
            raises or writes the wrong bytes is a counted failure."""
            output = workdir / f"out-{job}.csv"
            probe.started = time.perf_counter()
            try:
                if job == "score":
                    stream_score_csv(model, csv_path, output, backend="auto")
                elif job == "rank":
                    stream_rank_csv(model, csv_path, output, backend="auto",
                                    memory_budget_rows=N_ROWS // 8)
                else:
                    probe.coordinator = ShardCoordinator(
                        fleet.urls, MODEL_NAME, on_block=probe.on_block
                    )
                    probe.coordinator.rank_csv(csv_path, output)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.fail("error")
                errors.append(f"{job}: {exc!r}")
                return False
            probe.wall = time.perf_counter() - probe.started
            digest = _sha256(output)
            output.unlink()
            if digest != expected[job]:
                tally.fail("mismatch")
                errors.append(f"{job}: output differs from the oracle")
                return False
            tally.ok()
            return True

        def job_layers(job: str, probe: _Probe) -> dict:
            s = probe.clock.seconds
            end = probe.started + probe.wall
            out = {"read": s["read"], "score": s["score"], "add": s["add"]}
            if job == "score":
                out["unattributed"] = probe.wall - s["read"] - s["score"]
            elif job == "rank":
                out["merge_write"] = end - probe.ranked_at
                out["runs_spilled"] = probe.sorter.runs_spilled
                out["merge_passes"] = probe.sorter.merge_passes
                out["unattributed"] = probe.wall - (
                    s["read"] + s["score"] + s["add"] + out["merge_write"]
                )
            else:
                stats = probe.coordinator.stats()
                out["score_phase"] = probe.last_block_at - probe.started
                out["merge"] = end - probe.last_block_at
                out["max_share"] = max(stats["blocks_by_shard"].values()) / (
                    stats["n_blocks"]
                )
                out["retried"] = stats["retried_blocks"]
                out["unattributed"] = probe.wall - (
                    out["score_phase"] + out["merge"]
                )
            return out

        def rounds(meter: Speedometer, budget: float, traced: bool):
            """Job rounds for ``budget`` seconds: per job, the wall and
            the normalised seconds (see ``calibrate``)."""
            walls = {job: [] for job in JOBS}
            norms = {job: [] for job in JOBS}
            per_round = []
            n_rounds = 0
            start = time.perf_counter()
            while (time.perf_counter() - start < budget
                   or n_rounds < MIN_ROUNDS):
                n_rounds += 1
                layers = {}
                profile = EngineProfile()
                for job in JOBS:
                    probe = _Probe()
                    if traced:
                        with probe.patches(), engineprof.activate(profile):
                            _, kernel, ok = meter.time(run_job, job, probe)
                    else:
                        _, kernel, ok = meter.time(run_job, job, probe)
                    if ok:
                        walls[job].append(probe.wall)
                        norms[job].append(normalised([probe.wall], [kernel])[0])
                        if traced:
                            layers[job] = job_layers(job, probe)
                if traced and len(layers) == len(JOBS):
                    # The shard job's engine runs in the shard daemons,
                    # so the profile holds the two in-process jobs.
                    per_round.append(
                        {**_round_metrics(layers), **profile_layers(profile)}
                    )
            return walls, norms, per_round

        budget = seconds / FLEETS / (2 if trace else 1)
        for _ in range(FLEETS):
            fleet.terminate()
            wall, kernel, model = meter.time(boot)
            boots.append(normalised([wall], [kernel])[0])
            fleet_walls, fleet_norms, _ = rounds(meter, budget, traced=False)
            _extend(walls, fleet_walls)
            _extend(norms, fleet_norms)
            if trace:
                before = _shard_buckets(fleet.urls)
                traced_meter = Speedometer()
                _, fleet_norms, rows = rounds(traced_meter, budget, True)
                retaken += traced_meter.retaken
                after = _shard_buckets(fleet.urls)
                _extend(traced_norms, fleet_norms)
                per_round += rows
                delta = [b - a for a, b in zip(before, after)]
                shard_buckets = (
                    [a + b for a, b in zip(shard_buckets, delta)]
                    if shard_buckets else delta
                )
    finally:
        fleet.terminate()
    return {
        "setup_s": median(boots),
        "walls": walls,
        "norms": norms,
        "traced_norms": traced_norms,
        "per_round": per_round,
        "shard_buckets": shard_buckets,
        "kernel_s": median(meter.points),
        "retaken": meter.retaken + retaken,
        "tally": tally,
        "errors": errors[:10],
        "peak_rss_mb": vm_hwm_mb(),
    }


def _extend(into: dict, more: dict) -> None:
    for key, items in more.items():
        into[key].extend(items)


def _round_median(walls: dict) -> float:
    """Median seconds of one round (every job once)."""
    return median(map(sum, zip(*(walls[job] for job in JOBS))))


def _round_metrics(layers: dict) -> dict:
    score, rank, shard = layers["score"], layers["rank"], layers["shard"]
    return {
        "serving.stream.read_s": sum(layers[j]["read"] for j in JOBS),
        "serving.batch.score_s": score["score"] + rank["score"],
        "serving.extsort.add_s": rank["add"],
        "serving.extsort.merge_write_s": rank["merge_write"],
        "serving.extsort.runs_spilled": float(rank["runs_spilled"]),
        "serving.extsort.merge_passes": float(rank["merge_passes"]),
        "sharding.coordinator.score_phase_s": shard["score_phase"],
        "sharding.coordinator.merge_s": shard["merge"],
        "sharding.coordinator.max_shard_block_share": shard["max_share"],
        "sharding.coordinator.retried_blocks": float(shard["retried"]),
        "csv-batch.unattributed_s": sum(
            layers[j]["unattributed"] for j in JOBS
        ),
    }


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    inputs = make_inputs(seed, pathlib.Path(workdir))
    data = run_spawned(
        measure,
        {"inputs": inputs, "seconds": seconds, "trace": trace,
         "workdir": str(workdir)},
        timeout=2 * seconds + 90,
    )
    tally = data["tally"]
    raw_s = {job: median(data["walls"][job]) for job in JOBS}
    job_s = {job: median(data["norms"][job]) for job in JOBS}
    values = {
        "serve_p50.csv_score.fit_countries_ms": job_s["score"] * 1e3,
        "serve_p99.csv_rank.fit_journals_ms": job_s["rank"] * 1e3,
        "serve_rps.csv_shard_rows.fit_objects_per_s": N_ROWS / job_s["shard"],
        "fit_objective": inputs["objective"],
        "setup_s": data["setup_s"],
        "peak_rss_mb": data["peak_rss_mb"],
    }
    if trace:
        per_round = data["per_round"]
        values.update({
            name: median(r[name] for r in per_round) for name in per_round[0]
        })
        values["sharding.shard.execute_ms_p50"] = (
            percentile_from_buckets(data["shard_buckets"], 50) * 1e3
        )
        values["obs.trace_overhead"] = (
            _round_median(data["traced_norms"]) / _round_median(data["norms"])
            - 1.0
        )
    report = {
        "rows": N_ROWS,
        "tied_rows": inputs["tied_rows"],
        "jobs_per_path": len(data["walls"]["score"]),
        "kernel_ms": data["kernel_s"] * 1e3,
        "calibration_points_retaken": data["retaken"],
        "stream_score_rows_per_s": N_ROWS / raw_s["score"],
        "stream_rank_rows_per_s": N_ROWS / raw_s["rank"],
        "shard_rank_rows_per_s": N_ROWS / raw_s["shard"],
        "errors": data["errors"],
    }
    return Outcome(tally.failed == 0, tally, values, report)
