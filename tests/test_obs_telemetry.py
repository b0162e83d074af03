"""Unit tests for the telemetry layer: registry, spans, sinks, schemas.

The dynamic isolation contract (telemetry on/off payload byte-identity)
lives in ``tests/test_obs_isolation.py``; here we pin the mechanics the
sinks and the CLI rely on — metric semantics, span nesting, the Chrome
trace document, the ``repro-metrics/1`` JSONL stream, Prometheus text
exposition, the webhook, and the dependency-free schema validator.
"""

import json
import math
import threading

import pytest

from repro.obs.log import WEBHOOK_SCHEMA, ProgressWebhook
from repro.obs.metrics import MetricsWriter, prometheus_text, write_prometheus
from repro.obs.schema import (
    validate_metrics_file,
    validate_trace_file,
    validate_webhook_file,
)
from repro.obs.telemetry import (
    MAX_SPANS,
    MetricsRegistry,
    Recorder,
    recorder,
)
from repro.obs.trace import trace_document, trace_events, write_trace


@pytest.fixture
def rec():
    r = Recorder()
    r.enable()
    return r


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_accumulates_and_is_shared_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits", engine="numpy").add()
        reg.counter("hits", engine="numpy").add(2.0)
        reg.counter("hits", engine="python").add()
        values = {c.labels: c.value for c in reg.counters()}
        assert values[(("engine", "numpy"),)] == 3.0
        assert values[(("engine", "python"),)] == 1.0

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1", b="2").add()
        reg.counter("c", b="2", a="1").add()
        assert len(reg.counters()) == 1
        assert reg.counters()[0].value == 2.0

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4.0)
        g.add(-1.0)
        assert reg.gauge("depth").value == 3.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)
        assert h.cumulative_buckets() == [(0.1, 1), (1.0, 3), (math.inf, 4)]

    def test_snapshot_is_plain_json(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").add()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(0.2)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"] == [{"name": "c", "labels": {"k": "v"}, "value": 1.0}]
        assert snap["histograms"][0]["count"] == 1


# --------------------------------------------------------------------------- #
# Recorder
# --------------------------------------------------------------------------- #


class TestRecorder:
    def test_disabled_recorder_records_nothing(self):
        r = Recorder()
        r.count("c")
        r.gauge_set("g", 1.0)
        r.observe("h", 0.1)
        with r.span("s"):
            pass
        with r.stage("build"):
            pass
        assert r.registry.snapshot() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        assert r.span_snapshot() == []
        assert r.elapsed_seconds() == 0.0

    def test_span_nesting_records_parent_and_depth(self, rec):
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        spans = {s.name: s for s in rec.span_snapshot()}
        assert spans["outer"].depth == 0 and spans["outer"].parent is None
        assert spans["inner"].depth == 1 and spans["inner"].parent == "outer"
        # Children close before parents, so the inner interval nests.
        outer, inner = spans["outer"], spans["inner"]
        assert inner.start_us >= outer.start_us
        assert inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us

    def test_span_observe_feeds_histogram(self, rec):
        with rec.span("s", observe="lat_seconds"):
            pass
        (h,) = rec.registry.histograms()
        assert h.name == "lat_seconds" and h.count == 1

    def test_span_args_survive(self, rec):
        with rec.span("cell", category="grid", scenario="congested"):
            pass
        (span,) = rec.span_snapshot()
        assert span.category == "grid"
        assert span.args == {"scenario": "congested"}

    def test_span_recorded_on_exception(self, rec):
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in rec.span_snapshot()] == ["doomed"]

    def test_stage_fires_hook_after_close(self, rec):
        closed = []
        rec.install_stage_hook(closed.append)
        with rec.stage("build", kind="grid"):
            assert closed == []
        assert closed == ["build"]
        (span,) = rec.span_snapshot()
        assert span.category == "stage" and span.args == {"kind": "grid"}

    def test_event_reaches_subscribed_sinks(self, rec):
        events = []
        sink = lambda name, **fields: events.append((name, fields))  # noqa: E731
        with rec.subscribed(sink):
            assert rec.sinks == (sink,)
            rec.event("cell-landed", cell=3)
        rec.event("after", cell=4)
        assert events == [("cell-landed", {"cell": 3})]
        assert rec.sinks == ()

    def test_events_flow_while_metrics_are_off(self):
        off = Recorder()
        events = []
        with off.subscribed(lambda name, **fields: events.append(name)):
            off.event("progress", message="cell 1/1")
        assert events == ["progress"]
        assert not off.enabled and off.registry.counters() == []

    def test_raising_sink_is_counted_and_skipped(self, rec):
        events = []

        def broken(name, **fields):
            raise OSError("stderr is gone")

        with rec.subscribed(broken, lambda name, **fields: events.append(name)):
            rec.event("progress", message="x")
            rec.event("progress", message="y")
        assert events == ["progress", "progress"]
        (counter,) = [
            c for c in rec.registry.counters() if c.name == "obs_sink_errors_total"
        ]
        assert counter.value == 2.0

    def test_reset_keeps_subscribed_sinks(self, rec):
        events = []
        with rec.subscribed(lambda name, **fields: events.append(name)):
            rec.reset()
            rec.event("kept")
        assert events == ["kept"]

    def test_reset_clears_everything_and_disables(self, rec):
        rec.count("c")
        with rec.span("s"):
            pass
        rec.reset()
        assert not rec.enabled
        assert rec.span_snapshot() == []
        assert rec.registry.counters() == []

    def test_snapshot_meta_fields(self, rec):
        with rec.span("s"):
            pass
        snap = rec.snapshot()
        assert snap["n_spans"] == 1
        assert snap["spans_dropped"] == 0
        assert snap["elapsed_seconds"] >= 0.0
        assert isinstance(snap["pid"], int)

    def test_span_overflow_is_counted_not_silent(self, rec):
        rec.spans = [None] * MAX_SPANS  # simulate a full buffer
        with rec.span("overflow"):
            pass
        assert rec.spans_dropped == 1
        assert len(rec.spans) == MAX_SPANS

    def test_threaded_counting_is_consistent(self, rec):
        def bump():
            for _ in range(1000):
                rec.count("hits")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        (c,) = rec.registry.counters()
        assert c.value == 4000.0

    def test_process_recorder_is_a_singleton(self):
        assert recorder() is recorder()


# --------------------------------------------------------------------------- #
# Chrome trace sink
# --------------------------------------------------------------------------- #


class TestTrace:
    def test_trace_events_complete_phase_and_metadata(self, rec):
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        events = trace_events(rec.span_snapshot(), pid=7)
        phases = [e["ph"] for e in events]
        assert phases.count("M") >= 2  # process_name + >=1 thread_name
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"outer", "inner"}
        inner = next(e for e in xs if e["name"] == "inner")
        assert inner["args"]["parent"] == "outer"
        assert all(e["pid"] == 7 for e in events)

    def test_write_trace_roundtrips_and_validates(self, rec, tmp_path):
        with rec.span("s"):
            pass
        target = write_trace(tmp_path / "trace.json", rec)
        document = json.loads(target.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["schema"] == "repro-trace/1"
        assert validate_trace_file(target) == []

    def test_trace_document_reports_dropped_spans(self, rec):
        rec._spans_dropped = 3
        assert trace_document(rec)["otherData"]["spans_dropped"] == 3


# --------------------------------------------------------------------------- #
# Metrics sinks
# --------------------------------------------------------------------------- #


class TestMetricsWriter:
    def test_jsonl_snapshots_are_sequenced_and_valid(self, rec, tmp_path):
        rec.count("c")
        writer = MetricsWriter(tmp_path / "metrics.jsonl")
        writer.write_snapshot(rec, reason="stage:build")
        rec.count("c")
        writer.write_snapshot(rec, reason="final")
        lines = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert [line["seq"] for line in lines] == [0, 1]
        assert [line["reason"] for line in lines] == ["stage:build", "final"]
        assert lines[1]["counters"][0]["value"] == 2.0
        assert validate_metrics_file(tmp_path / "metrics.jsonl") == []

    def test_writer_truncates_previous_run(self, rec, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("stale garbage\n")
        MetricsWriter(path).write_snapshot(rec, reason="final")
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["seq"] == 0


class TestPrometheus:
    def test_text_format_counter_gauge_histogram(self, rec, tmp_path):
        rec.count("repro_cells_total", scheduler="set10")
        rec.gauge_set("repro_workers_alive", 2)
        rec.registry.histogram("lat", bounds=(0.5,)).observe(0.1)
        text = prometheus_text(rec)
        assert "# TYPE repro_cells_total counter" in text
        assert 'repro_cells_total{scheduler="set10"} 1' in text
        assert "repro_workers_alive 2" in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.1" in text
        assert "lat_count 1" in text
        target = write_prometheus(tmp_path / "m.prom", rec)
        assert target.read_text() == text

    def test_label_values_are_escaped(self, rec):
        rec.count("c", path='a"b\\c')
        assert 'c{path="a\\"b\\\\c"} 1' in prometheus_text(rec)

    def test_empty_registry_yields_empty_text(self):
        assert prometheus_text(Recorder()) == ""


# --------------------------------------------------------------------------- #
# Event sinks + webhook
# --------------------------------------------------------------------------- #


class TestLogAndWebhook:
    def test_webhook_subscribes_as_event_sink(self, rec, tmp_path):
        target = tmp_path / "events.jsonl"
        hook = ProgressWebhook(str(target), recorder=rec, stamp={"spec": "g"})
        with rec.subscribed(hook.emit):
            rec.event("campaign-start", n_cells=6)
            rec.event("run-start", spec="own", kind="grid")
        first, second = [json.loads(l) for l in target.read_text().splitlines()]
        assert first["event"] == "campaign-start"
        assert first["n_cells"] == 6 and first["spec"] == "g"
        assert first["elapsed_seconds"] >= 0.0
        assert second["spec"] == "own"  # an event's own field wins
        assert validate_webhook_file(target) == []

    def test_webhook_file_mode_appends_valid_events(self, rec, tmp_path):
        target = tmp_path / "progress.jsonl"
        hook = ProgressWebhook(str(target), recorder=rec)
        hook.emit("run-start", spec="grid")
        hook.emit("run-complete", spec="grid")
        assert hook.sent == 2 and hook.errors == 0
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert [line["seq"] for line in lines] == [0, 1]
        assert all(line["schema"] == WEBHOOK_SCHEMA for line in lines)
        assert validate_webhook_file(target) == []

    def test_webhook_failure_is_counted_never_raised(self, rec, tmp_path):
        hook = ProgressWebhook(str(tmp_path / "progress.jsonl"), recorder=rec)
        hook.target = str(tmp_path)  # a directory: append must fail
        hook.emit("doomed")
        assert hook.errors == 1 and hook.sent == 0
        (counter,) = [
            c for c in rec.registry.counters() if c.name == "obs_webhook_errors"
        ]
        assert counter.value == 1.0


# --------------------------------------------------------------------------- #
# Schema validator
# --------------------------------------------------------------------------- #


class TestSchemaValidator:
    def test_rejects_wrong_types_and_missing_keys(self, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        errors = validate_trace_file(bad)
        assert any("displayTimeUnit" in e for e in errors)
        assert any("missing required key" in e for e in errors)

    def test_rejects_unparseable_file(self, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text("{not json")
        assert validate_trace_file(bad)

    def test_empty_jsonl_is_an_error(self, tmp_path):
        empty = tmp_path / "metrics.jsonl"
        empty.write_text("")
        assert validate_metrics_file(empty) == [f"{empty}: no snapshot lines"]

    def test_cli_entry_point(self, rec, tmp_path, capsys):
        from repro.obs.schema import main

        with rec.span("s"):
            pass
        target = write_trace(tmp_path / "trace.json", rec)
        assert main(["trace", str(target)]) == 0
        assert main(["nope", str(target)]) == 2
