"""Unit tests for :mod:`repro.obs`: the tracing core, the metrics
registry, the exporters, and span propagation through the worker pool.

The propagation tests are the load-bearing ones: spans started inside
``parallel_map`` worker *processes* must come back attached to the
correct parent span of the caller's trace, and a ``retry_serial``
healing pass must leave a visible mark on the trace.
"""

import os

import pytest

from repro.obs import (TRACER, Counter, Gauge, Histogram,
                       MetricsRegistry, Tracer, add_attributes,
                       current_context, get_registry, make_family,
                       parse_prometheus, render_prometheus, span,
                       span_tree, trace, trace_to_dict)
from repro.util.parallel import parallel_map


# ----------------------------------------------------------------------
# Metrics instruments
# ----------------------------------------------------------------------

class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_test_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_partition_series(self):
        counter = Counter("repro_test_total", "", ("op",))
        counter.inc(op="get")
        counter.inc(op="get")
        counter.inc(op="put")
        assert counter.value(op="get") == 2
        assert counter.value(op="put") == 1
        assert counter.value(op="del") == 0

    def test_negative_increment_raises(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("repro_test_total").inc(-1)

    def test_wrong_labels_raise(self):
        counter = Counter("repro_test_total", "", ("op",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(tier="memory")

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("0bad name")

    def test_unlabeled_series_renders_before_first_event(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_idle_total", "never touched")
        series = parse_prometheus(registry.render())
        assert series["repro_test_idle_total"][()] == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_test_level")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value() == 6.0


class TestHistogram:
    def test_observe_fills_cumulative_buckets(self):
        hist = Histogram("repro_test_seconds", "",
                         buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(56.05)
        rows = {sample.labels: sample.value
                for sample in hist.collect().samples
                if sample.name.endswith("_bucket")}
        assert rows[(("le", "0.1"),)] == 1
        assert rows[(("le", "1"),)] == 3
        assert rows[(("le", "10"),)] == 4
        assert rows[(("le", "+Inf"),)] == 5

    def test_nonpositive_bucket_raises(self):
        with pytest.raises(ValueError, match="positive"):
            Histogram("repro_test_seconds", buckets=(0.0, 1.0))


class TestRegistry:
    def test_get_or_make_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", "help")
        assert registry.counter("repro_test_total") is first
        assert registry.get("repro_test_total") is first
        assert registry.get("repro_missing") is None

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", labels=("op",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("repro_test_total", labels=("tier",))

    def test_collectors_merge_into_collect(self):
        registry = MetricsRegistry()

        def collector():
            return [make_family("counter", "repro_legacy_total",
                                "from a stats object", 7)]

        registry.register_collector(collector)
        series = parse_prometheus(registry.render())
        assert series["repro_legacy_total"][()] == 7.0
        registry.unregister_collector(collector)
        assert "repro_legacy_total" not in \
            parse_prometheus(registry.render())

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


# ----------------------------------------------------------------------
# Exporters: render <-> parse
# ----------------------------------------------------------------------

class TestExposition:
    def test_round_trip_through_parse(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_rt_total", "a counter",
                                   labels=("op",))
        counter.inc(3, op="get")
        registry.gauge("repro_rt_level", "a gauge").set(-2.5)
        registry.histogram("repro_rt_seconds", "a histogram",
                           buckets=(1.0,)).observe(0.5)
        series = parse_prometheus(registry.render())
        assert series["repro_rt_total"][(("op", "get"),)] == 3.0
        assert series["repro_rt_level"][()] == -2.5
        assert series["repro_rt_seconds_bucket"][(("le", "1"),)] == 1.0
        assert series["repro_rt_seconds_count"][()] == 1.0

    def test_render_merges_same_family_across_registries(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("repro_shared_total", "shared",
                     labels=("side",)).inc(side="left")
        right.counter("repro_shared_total", "shared",
                      labels=("side",)).inc(side="right")
        text = render_prometheus([left, right])
        assert text.count("# TYPE repro_shared_total counter") == 1
        series = parse_prometheus(text)
        assert series["repro_shared_total"][(("side", "left"),)] == 1.0
        assert series["repro_shared_total"][(("side", "right"),)] == 1.0

    def test_parse_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus("}{ nonsense")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_prometheus("repro_x_total not_a_number")

    def test_parse_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus('repro_x_total{op=unquoted} 1')

    def test_label_values_are_escaped_and_recovered(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total", "",
                         labels=("path",)).inc(path='a"b\\c')
        series = parse_prometheus(registry.render())
        assert series["repro_esc_total"][(("path", 'a"b\\c'),)] == 1.0

    def test_hostile_label_values_round_trip_unchanged(self):
        values = ["C:\\new", "C:\\\\new", "trailing\\", "\\n",
                  'say "hi"', '\\"', "two\nlines", "}", "a} 7",
                  '{"k": 1}', ""]
        registry = MetricsRegistry()
        counter = registry.counter("repro_rt_total", "",
                                   labels=("path", "op"))
        for count, value in enumerate(values, start=1):
            counter.inc(count, path=value, op=value[::-1])
        series = parse_prometheus(registry.render())
        assert series["repro_rt_total"] == {
            (("path", value), ("op", value[::-1])): float(count)
            for count, value in enumerate(values, start=1)}


# ----------------------------------------------------------------------
# Tracing core
# ----------------------------------------------------------------------

class TestTracing:
    def test_span_is_noop_outside_a_trace(self):
        with span("orphan", key="value") as current:
            assert current is None
        assert current_context() is None
        assert not add_attributes(ignored=True)

    def test_nested_spans_chain_parent_ids(self):
        with trace("root", who="test") as root:
            assert current_context().trace_id == root.trace_id
            with span("outer") as outer:
                with span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert outer.parent_id == root.span_id
        spans = TRACER.pop(root.trace_id)
        assert [s.name for s in spans] == ["inner", "outer", "root"]
        assert {s.trace_id for s in spans} == {root.trace_id}

    def test_exception_marks_span_and_propagates(self):
        with pytest.raises(KeyError), trace("root") as root, \
                span("failing"):
            raise KeyError("boom")
        spans = TRACER.pop(root.trace_id)
        failing = next(s for s in spans if s.name == "failing")
        assert failing.attributes["error"] == "KeyError"

    def test_add_attributes_hits_innermost_live_span(self):
        with trace("root") as root, span("work"):
            assert add_attributes(rows=42)
        spans = TRACER.pop(root.trace_id)
        work = next(s for s in spans if s.name == "work")
        assert work.attributes["rows"] == 42

    def test_tracer_ring_is_bounded(self):
        ring = Tracer(max_traces=2)
        for trace_id in ("a", "b", "c"):
            ring.save(trace_id, [])
        assert ring.ids() == ("b", "c")
        assert ring.last() == "c"
        assert ring.get("a") == []
        assert ring.pop("c") == []
        assert ring.ids() == ("b",)

    def test_trace_to_dict_sums_stages_and_nests(self):
        with trace("root") as root:
            with span("stage"):
                pass
            with span("stage"):
                pass
        artifact = trace_to_dict(root.trace_id,
                                 TRACER.pop(root.trace_id))
        assert set(artifact["stages"]) == {"root", "stage"}
        assert artifact["stages"]["stage"] == pytest.approx(
            sum(s["duration_s"] for s in artifact["spans"]
                if s["name"] == "stage"))
        tree = artifact["tree"]
        assert [node["name"] for node in tree] == ["root"]
        assert [child["name"] for child in tree[0]["children"]] \
            == ["stage", "stage"]
        assert artifact["wall_s"] == tree[0]["duration_s"]

    def test_span_tree_promotes_orphans_to_roots(self):
        nodes = [{"span_id": "a", "parent_id": "gone", "name": "x",
                  "start_unix": 1.0},
                 {"span_id": "b", "parent_id": "a", "name": "y",
                  "start_unix": 2.0}]
        roots = span_tree(nodes)
        assert [r["name"] for r in roots] == ["x"]
        assert [c["name"] for c in roots[0]["children"]] == ["y"]


# ----------------------------------------------------------------------
# Cross-process propagation through the worker pool
# ----------------------------------------------------------------------

def traced_square(value):
    with span("task.square", value=value) as current:
        if current is not None:
            current.attributes["pid"] = os.getpid()
        return value * value


def traced_die_once(payload):
    value, flag_path = payload
    if value == 2 and _trip(flag_path):
        os._exit(17)  # a SIGKILLed worker, as the pool sees it
    return traced_square(value)


def _trip(flag_path):
    try:
        fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class TestWorkerPropagation:
    def test_worker_spans_land_under_the_correct_parent(self):
        with trace("unit.root") as root, span("fanout") as fan:
            fan_id = fan.span_id
            results = parallel_map(traced_square, list(range(6)),
                                   workers=2)
        assert results == [i * i for i in range(6)]
        spans = TRACER.pop(root.trace_id)
        tasks = [s for s in spans if s.name == "task.square"]
        assert len(tasks) == 6
        assert {s.parent_id for s in tasks} == {fan_id}
        assert {s.trace_id for s in tasks} == {root.trace_id}
        # The tasks genuinely ran in worker processes, not in-line.
        assert os.getpid() not in {s.attributes["pid"] for s in tasks}

    def test_serial_path_records_spans_inline(self):
        with trace("unit.root") as root, span("fanout") as fan:
            parallel_map(traced_square, [1, 2, 3], workers=1)
        spans = TRACER.pop(root.trace_id)
        tasks = [s for s in spans if s.name == "task.square"]
        assert len(tasks) == 3
        assert {s.parent_id for s in tasks} == {fan.span_id}
        assert {s.attributes["pid"] for s in tasks} == {os.getpid()}

    def test_untraced_parallel_map_is_unchanged(self):
        assert parallel_map(traced_square, [1, 2], workers=2) == [1, 4]
        assert TRACER.last() is None or not any(
            s.name == "task.square" for s in TRACER.get(TRACER.last()))

    def test_retry_serial_heal_is_visible_on_the_trace(self, tmp_path):
        retry_counter = get_registry().counter(
            "repro_pool_serial_retries_total")
        before = retry_counter.value()
        flag = str(tmp_path / "died")
        payloads = [(i, flag) for i in range(6)]
        with trace("unit.root") as root, span("fanout") as fan:
            results = parallel_map(traced_die_once, payloads,
                                   workers=2, retry_serial=True)
        assert results == [i * i for i in range(6)]
        assert os.path.exists(flag), "the kill hook must have fired"
        spans = TRACER.pop(root.trace_id)
        fanout = next(s for s in spans if s.span_id == fan.span_id)
        assert fanout.attributes["pool.retry_serial"] >= 1
        assert fanout.attributes["pool.retry_ids"]
        # Healed tasks re-ran in the parent process, inside the trace.
        pids = {s.attributes["pid"] for s in spans
                if s.name == "task.square"}
        assert os.getpid() in pids
        assert retry_counter.value() >= before + 1
