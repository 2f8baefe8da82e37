"""Unit tests for :mod:`repro.obs` — the tracing/profiling layer.

Everything here runs without a server: histogram arithmetic (whose
bucket bounds are part of the shared-store format and therefore
golden-valued), trace/span bookkeeping, the tracer's ring + spill
retention, engine-profile accumulation across threads, the JSON
access log, and the Prometheus text renderer with its stdlib linter.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro.obs import (
    BATCH_FILL_BUCKETS,
    LATENCY_BUCKET_BOUNDS,
    N_LATENCY_BUCKETS,
    NULL_TRACE,
    AccessLog,
    EngineProfile,
    Trace,
    TraceError,
    Tracer,
    activate,
    bucket_index,
    current,
    lint_exposition,
    percentile_from_buckets,
    render_exposition,
)
from repro.obs.histogram import HISTOGRAM_FORMAT_VERSION
from repro.obs.prometheus import MetricFamily


def _histogram(samples) -> tuple:
    """``(bucket_counts, sum_seconds)`` of latency samples — the pair
    the metrics store keeps per endpoint."""
    counts = np.zeros(N_LATENCY_BUCKETS)
    for seconds in samples:
        counts[bucket_index(seconds)] += 1.0
    return counts, float(sum(samples))


class TestHistogramFormat:
    """The bucket layout is an on-disk format: golden-pin it."""

    def test_format_version_pins_bounds(self):
        # Bump HISTOGRAM_FORMAT_VERSION if (and only if) these change.
        assert HISTOGRAM_FORMAT_VERSION == 1
        assert len(LATENCY_BUCKET_BOUNDS) == 32
        assert N_LATENCY_BUCKETS == 33
        assert LATENCY_BUCKET_BOUNDS[0] == pytest.approx(1e-4)
        assert LATENCY_BUCKET_BOUNDS[1] == pytest.approx(1e-4 * math.sqrt(2))
        assert LATENCY_BUCKET_BOUNDS[-1] == pytest.approx(
            1e-4 * 2.0 ** (31 / 2.0)
        )
        assert BATCH_FILL_BUCKETS == (1, 2, 4, 8, 16, 32)

    def test_bounds_strictly_ascending(self):
        assert all(
            a < b
            for a, b in zip(LATENCY_BUCKET_BOUNDS, LATENCY_BUCKET_BOUNDS[1:])
        )

    def test_bucket_index_le_semantics(self):
        # A sample exactly on an edge belongs to that edge's bucket.
        assert bucket_index(0.0) == 0
        assert bucket_index(1e-4) == 0
        assert bucket_index(1.00001e-4) == 1
        # Beyond the last finite edge: overflow bucket.
        assert bucket_index(100.0) == len(LATENCY_BUCKET_BOUNDS)

    def test_observe_then_percentile_roundtrip(self):
        counts, _ = _histogram(
            [ms / 1e3 for ms in (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)]
        )
        assert counts.sum() == 10
        p50 = percentile_from_buckets(counts, 50)
        # The estimate is bucket-resolution accurate (~±19%).
        assert 10e-3 <= p50 <= 30e-3
        assert percentile_from_buckets(counts, 99) >= p50

    def test_merge_is_exact_addition(self):
        a_samples = [ms / 1e3 for ms in (1, 4, 9)]
        b_samples = [ms / 1e3 for ms in (2, 8, 32, 128)]
        a, b = _histogram(a_samples), _histogram(b_samples)
        # Bucketing the union of two workers' samples == adding their
        # bucket vectors: the merge the store does across slots.
        merged = _histogram(a_samples + b_samples)
        assert merged[0].sum() == 7
        assert merged[1] == pytest.approx(a[1] + b[1])
        np.testing.assert_array_equal(merged[0], a[0] + b[0])

    def test_empty_histogram_percentile_is_zero(self):
        assert percentile_from_buckets(_histogram([])[0], 99) == 0.0
        assert percentile_from_buckets([0] * N_LATENCY_BUCKETS, 50) == 0.0

    def test_overflow_rank_reports_largest_finite_edge(self):
        counts = [0] * N_LATENCY_BUCKETS
        counts[-1] = 5  # everything in overflow
        assert percentile_from_buckets(counts, 99) == pytest.approx(
            LATENCY_BUCKET_BOUNDS[-1]
        )

    def test_percentile_interpolates_within_bucket(self):
        counts = [0] * N_LATENCY_BUCKETS
        counts[4] = 100
        lower, upper = LATENCY_BUCKET_BOUNDS[3], LATENCY_BUCKET_BOUNDS[4]
        p10 = percentile_from_buckets(counts, 10)
        p90 = percentile_from_buckets(counts, 90)
        assert lower <= p10 < p90 <= upper


class TestTrace:
    def test_null_trace_is_inert_and_shared(self):
        with NULL_TRACE.span("anything") as span:
            pass
        with NULL_TRACE.span("other") as other:
            pass
        assert span is other  # one shared no-op CM: no allocations
        NULL_TRACE.set("k", "v")
        NULL_TRACE.set_engine({})
        assert NULL_TRACE.enabled is False
        assert NULL_TRACE.record is False

    def test_span_timing_and_stages(self):
        trace = Trace("req-1")
        with trace.span("parse"):
            pass
        trace.add_span("execute", trace.t0, trace.t0 + 0.25)
        stages = trace.stages_ms()
        assert set(stages) == {"parse", "execute"}
        assert stages["execute"] == pytest.approx(250.0)

    def test_repeated_span_names_accumulate(self):
        trace = Trace("req-2")
        trace.add_span("execute", 0.0, 0.1)
        trace.add_span("execute", 0.2, 0.3)
        assert trace.stages_ms()["execute"] == pytest.approx(200.0)
        assert len(trace.to_dict()["spans"]) == 2

    def test_to_dict_shape(self):
        trace = Trace("req-3")
        with trace.span("parse"):
            pass
        trace.set("batch", {"id": "7-1", "requests": 2, "rows": 4})
        trace.set_engine({"phases_ms": {"newton": 1.0}})
        trace.duration = 0.5
        payload = trace.to_dict()
        assert payload["request_id"] == "req-3"
        assert payload["duration_ms"] == pytest.approx(500.0)
        assert payload["batch"]["id"] == "7-1"
        assert payload["engine"]["phases_ms"]["newton"] == 1.0
        assert payload["stages_ms"].keys() == {"parse"}
        json.dumps(payload)  # must be JSON-serialisable


class TestTracer:
    def test_mode_validation(self):
        with pytest.raises(TraceError):
            Tracer(mode="noisy")
        with pytest.raises(TraceError):
            Tracer(mode="on", sample_every=0)
        with pytest.raises(TraceError):
            Tracer(mode="on", capacity=0)

    def test_off_mode_returns_null_trace(self):
        tracer = Tracer(mode="off")
        assert tracer.begin("x") is NULL_TRACE

    def test_on_mode_records_and_serves(self):
        tracer = Tracer(mode="on", capacity=4)
        trace = tracer.begin("abc")
        with trace.span("execute"):
            pass
        tracer.finish(trace, "POST x", "/x", "POST", 200, rows=3)
        payload = tracer.get("abc")
        assert payload is not None
        assert payload["status"] == 200
        assert payload["rows"] == 3
        assert "execute" in payload["stages_ms"]

    def test_ring_evicts_oldest(self):
        tracer = Tracer(mode="on", capacity=2)
        for i in range(3):
            trace = tracer.begin(f"id-{i}")
            tracer.finish(trace, "e", "/", "GET", 200)
        assert tracer.get("id-0") is None
        assert tracer.get("id-1") is not None
        assert tracer.get("id-2") is not None

    def test_latest_wins_on_id_reuse(self):
        tracer = Tracer(mode="on", capacity=4)
        first = tracer.begin("dup")
        tracer.finish(first, "e", "/", "GET", 200)
        second = tracer.begin("dup")
        tracer.finish(second, "e", "/", "GET", 404)
        assert tracer.get("dup")["status"] == 404

    def test_sampled_mode_records_every_nth(self):
        tracer = Tracer(mode="sampled", sample_every=4, capacity=64)
        recorded = [tracer.begin(f"s-{i}").record for i in range(12)]
        assert recorded == [True, False, False, False] * 3

    def test_record_ok_false_never_stores(self):
        tracer = Tracer(mode="on", capacity=4)
        trace = tracer.begin("poll", record_ok=False)
        assert trace.record is False
        # Without an access log there is nothing to time either.
        assert trace is NULL_TRACE

    def test_spill_survives_ring_eviction(self, tmp_path):
        tracer = Tracer(mode="on", capacity=1, spill_dir=str(tmp_path))
        for i in range(3):
            trace = tracer.begin(f"sp-{i}")
            tracer.finish(trace, "e", "/", "GET", 200)
        # Evicted from the ring, still on disk.
        assert tracer.get("sp-0") is not None
        assert tracer.get("sp-0")["request_id"] == "sp-0"

    def test_cross_tracer_retrieval_via_spill(self, tmp_path):
        # Two tracers sharing a spill dir model two pool workers.
        writer = Tracer(mode="on", spill_dir=str(tmp_path), worker_slot=0)
        reader = Tracer(mode="on", spill_dir=str(tmp_path), worker_slot=1)
        trace = writer.begin("fleet-1")
        writer.finish(trace, "e", "/", "GET", 200)
        payload = reader.get("fleet-1")
        assert payload is not None
        assert payload["worker"] == 0

    def test_get_rejects_unsafe_ids(self, tmp_path):
        tracer = Tracer(mode="on", spill_dir=str(tmp_path))
        assert tracer.get("../etc/passwd") is None
        assert tracer.get("") is None

    def test_stats_gauges(self):
        tracer = Tracer(mode="sampled", sample_every=8, capacity=16)
        stats = tracer.stats()
        assert stats["mode"] == "sampled"
        assert stats["sample_every"] == 8
        assert stats["capacity"] == 16
        assert stats["buffered"] == 0


class TestEngineProfile:
    def test_accumulates_phases_and_counters(self):
        profile = EngineProfile()
        profile.add_phase("newton", 0.010, rows=100)
        profile.add_phase("newton", 0.005, rows=50)
        profile.count("newton_iterations", 7)
        snap = profile.snapshot()
        assert snap["phases_ms"]["newton"] == pytest.approx(15.0, abs=0.01)
        assert snap["phase_rows"]["newton"] == 150
        assert snap["counters"]["newton_iterations"] == 7

    def test_totals_flat_keys(self):
        profile = EngineProfile()
        profile.add_phase("grid_scan", 0.002, rows=10)
        profile.count("warm_start_hits", 9)
        totals = profile.totals()
        assert totals["grid_scan_seconds"] == pytest.approx(0.002)
        assert totals["grid_scan_rows"] == 10.0
        assert totals["warm_start_hits"] == 9.0

    def test_activate_scopes_current(self):
        assert current() is None
        profile = EngineProfile()
        with activate(profile):
            assert current() is profile
        assert current() is None

    def test_engine_instrumentation_feeds_active_profile(self):
        # The geometry engine reports phases into whatever profile is
        # active — the contract the server's profiling rides on.
        from repro.geometry.bezier import BezierCurve
        from repro.geometry.engine import ProjectionEngine

        rng = np.random.default_rng(0)
        curve = BezierCurve(rng.uniform(size=(3, 4)))
        X = rng.uniform(size=(16, 3))
        profile = EngineProfile()
        with activate(profile):
            compiled = ProjectionEngine(curve).compile(X)
            s_best, lo, hi = compiled.bracket(n_grid=32)
            compiled.solve_gss(lo, hi)
        snap = profile.snapshot()
        assert snap["phase_rows"].get("grid_scan") == 16
        assert snap["phases_ms"].get("grid_scan", 0) > 0
        assert snap["phase_rows"].get("gss") == 16
        # Nothing is recorded when no profile is active.
        compiled.bracket(n_grid=32)
        assert profile.snapshot()["phase_rows"]["grid_scan"] == 16

    def test_profile_is_thread_safe(self):
        profile = EngineProfile()

        def work():
            for _ in range(1000):
                profile.count("newton_iterations", 1)
                profile.add_phase("newton", 0.000001, rows=1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = profile.snapshot()
        assert snap["counters"]["newton_iterations"] == 4000
        assert snap["phase_rows"]["newton"] == 4000


class TestAccessLog:
    def test_writes_one_json_line_per_request(self, tmp_path):
        path = tmp_path / "access.log"
        log = AccessLog(str(path))
        log.write({"request_id": "a", "status": 200})
        log.write({"request_id": "b", "status": 404})
        log.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["request_id"] == "a"
        assert json.loads(lines[1])["status"] == 404

    def test_write_never_raises(self, tmp_path):
        path = tmp_path / "access.log"
        log = AccessLog(str(path))
        log.close()
        log.write({"request_id": "after-close"})  # must not raise


class TestPrometheusRenderer:
    def test_counter_render_and_lint(self):
        fam = MetricFamily("repro_requests_total", "counter", "Requests.")
        fam.add_sample(3, labels={"endpoint": "GET /healthz"})
        text = render_exposition([fam])
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="GET /healthz"} 3' in text
        assert lint_exposition(text) == []

    def test_counter_name_must_end_total(self):
        with pytest.raises(ValueError):
            MetricFamily("repro_requests", "counter", "bad name")

    def test_label_escaping(self):
        fam = MetricFamily("repro_x_total", "counter", "Escapes.")
        fam.add_sample(1, labels={"path": 'a"b\\c\nd'})
        text = render_exposition([fam])
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert lint_exposition(text) == []

    def test_histogram_family_is_cumulative_with_inf(self):
        fam = MetricFamily(
            "repro_request_duration_seconds", "histogram", "Latency."
        )
        counts = [0] * N_LATENCY_BUCKETS
        counts[0], counts[1], counts[-1] = 2, 3, 1
        fam.add_histogram(
            counts, 0.5, LATENCY_BUCKET_BOUNDS, labels={"endpoint": "e"}
        )
        text = render_exposition([fam])
        assert lint_exposition(text) == []
        # le values are cumulative and end at +Inf == _count.
        lines = [
            line for line in text.splitlines() if line.startswith("repro_")
        ]
        inf_line = next(line for line in lines if 'le="+Inf"' in line)
        count_line = next(line for line in lines if "_count{" in line)
        assert inf_line.rsplit(" ", 1)[1] == count_line.rsplit(" ", 1)[1]
        first = next(line for line in lines if f'le="{LATENCY_BUCKET_BOUNDS[0]}"' in line)
        assert first.rsplit(" ", 1)[1] == "2"

    def test_lint_catches_malformed_exposition(self):
        assert lint_exposition("repro_orphan 1\n") != []  # no TYPE/HELP
        bad = (
            "# HELP repro_x_total h\n"
            "# TYPE repro_x_total counter\n"
            "repro_x_total nope\n"
        )
        assert lint_exposition(bad) != []

    def test_lint_requires_trailing_newline(self):
        fam = MetricFamily("repro_ok_total", "counter", "h")
        fam.add_sample(1)
        text = render_exposition([fam])
        assert text.endswith("\n")
        assert lint_exposition(text.rstrip("\n")) != []
