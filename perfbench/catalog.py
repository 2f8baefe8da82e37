"""Which end-to-end metric each per-layer metric should move.

``BENCHMARK.json`` at the repository root names the workloads, with
why each exists, and every metric with its unit and direction (and,
end to end, its bound).  This module adds what that file has no room
for: the ``(workload, end-to-end metric)`` pairs each per-layer metric
should move.  ``perfbench/README.md`` gives what each end-to-end slot
holds on each workload.
"""

from __future__ import annotations

from typing import Dict, Tuple

SERVE, CSV, FIT = "serve-small", "csv-batch", "fit"
P50 = "serve_p50.csv_score.fit_countries_ms"
P99 = "serve_p99.csv_rank.fit_journals_ms"
RATE = "serve_rps.csv_shard_rows.fit_objects_per_s"
#: ``failed / attempted`` of the result line (not a metric slot).
FAILED = "failed_share"

Moves = Tuple[Tuple[str, str], ...]


def _on(workload: str, *metrics: str) -> Moves:
    return tuple((workload, metric) for metric in metrics)


_SERVE_ALL = _on(SERVE, P50, P99, RATE)
_CSV_ALL = _on(CSV, P50, P99, RATE)
_FIT_ALL = _on(FIT, P50, P99, RATE)
_ENGINE = _on(SERVE, P50) + _on(CSV, P50, P99) + _FIT_ALL

MOVES: Dict[str, Moves] = {
    # serve-small: daemon spans, engine snapshots, /metrics deltas.
    "client.unattributed_ms": _SERVE_ALL,
    "server.http.parse_ms": _on(SERVE, P50),
    "server.http.validate_ms": _on(SERVE, P50),
    "server.http.serialize_ms": _on(SERVE, P50),
    "server.registry.lookup_ms": _on(SERVE, P50),
    "server.admission.admission_ms": _on(SERVE, P50),
    "server.admission.shed_share": _on(SERVE, FAILED),
    "server.batching.queue_ms": _on(SERVE, P50),
    "server.batching.requests_per_batch": _on(SERVE, RATE),
    "geometry.engine.execute_ms": _on(SERVE, P50),
    "geometry.engine.grid_scan_ms": _ENGINE,
    "geometry.engine.gss_ms": _ENGINE,
    "geometry.engine.newton_ms": _ENGINE,
    "geometry.engine.roots_ms": _on(SERVE, P50) + _on(CSV, P50, P99),
    "geometry.engine.newton_iterations_per_row": _on(SERVE, P50),
    "server.span_gap_ms": _on(SERVE, P50),
    "serve-small.unattributed_ms": _SERVE_ALL,
    # csv-batch: wrappers around the public serving/sharding entry points.
    "serving.stream.read_s": _CSV_ALL,
    "serving.batch.score_s": _on(CSV, P50, P99),
    "geometry.engine.compiles": _on(CSV, P50, P99) + _FIT_ALL,
    "serving.extsort.add_s": _on(CSV, P99),
    "serving.extsort.merge_write_s": _on(CSV, P99),
    "serving.extsort.runs_spilled": _on(CSV, P99),
    "serving.extsort.merge_passes": _on(CSV, P99),
    "sharding.coordinator.score_phase_s": _on(CSV, RATE),
    "sharding.coordinator.merge_s": _on(CSV, RATE),
    "sharding.shard.execute_ms_p50": _on(CSV, RATE),
    "sharding.coordinator.max_shard_block_share": _on(CSV, RATE),
    "sharding.coordinator.retried_blocks": _on(CSV, FAILED),
    "csv-batch.unattributed_s": _CSV_ALL,
    # fit: wrappers around core.learning's public step functions.
    "core.learning.iterations": _FIT_ALL + _on(FIT, "fit_objective"),
    "core.learning.converged_share": _FIT_ALL + _on(FIT, "fit_objective"),
    "core.learning.projection_step_s": _FIT_ALL,
    "core.learning.control_point_step_s": _FIT_ALL,
    "core.learning.objective_s": _FIT_ALL,
    "geometry.engine.warm_start_hit_share": _FIT_ALL,
    "geometry.engine.newton_iterations": _FIT_ALL,
    "fit.unattributed_s": _FIT_ALL,
    # Every workload: (traced / untraced) - 1 of its headline time.
    "obs.trace_overhead": _SERVE_ALL + _CSV_ALL + _FIT_ALL,
}
