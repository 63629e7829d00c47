"""Request-level tracing tests: span trees, critical paths, control instants.

* **Accounting closure** — each request's critical path tiles its root
  span exactly: the per-category latency breakdown sums to the root-span
  duration, so the ``TraceAnalyzer`` columns can never silently drop (or
  double-count) simulated time.
* **Pure observation** — tracing never feeds back (full and sampled, at
  every batch size and topology, alone and composed with every other
  feature) is pinned by the twin matrix, ``tests/test_serving_twins.py``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.serving import (
    NULL_TRACER,
    EngineConfig,
    ServerModel,
    SloPolicy,
    TraceAnalyzer,
    Tracer,
    validate_chrome_trace,
)
from serving_harness import build_engine, bursty_events

#: The traced pipeline most tests replay (``tests/test_serving_twins.py``
#: pins tracing bit-invisible across batch sizes and topologies).
TRACED = {"tracing": {}, "max_batch_size": 8, "coalescing_window": 30, "n_shards": 3}


# ----------------------------------------------------------------------
# Control-plane instants
# ----------------------------------------------------------------------
class TestControlInstants:
    def test_every_shed_decision_leaves_an_admission_instant(self, serving_parts):
        engine = build_engine(
            serving_parts, **{**TRACED, "coalescing_window": 0},
            server=ServerModel(0.5), slo_policy=SloPolicy(max_queue_depth=4), admission_mode="shed",
        )
        served = engine.replay(bursty_events(np.random.default_rng(9100)))
        # Shed requests never enter the queue, so they never get a root span
        # — but each shed decision leaves an admission.shed control instant.
        shed = [span for span in engine.tracer.spans() if span.name == "admission.shed"]
        assert engine.admission.requests_shed > 0
        assert len(shed) == engine.admission.requests_shed
        assert all(span.cat == "control" and span.attrs["reasons"] for span in shed)
        assert len(engine.tracer.roots()) == len(served)
        engine.close()

    def test_a_failure_schedule_leaves_ring_instants(self, serving_parts):
        events = bursty_events(np.random.default_rng(9200))
        schedule = [
            (events[len(events) // 3][0], "fail", 1),
            (events[2 * len(events) // 3][0], "recover", 1),
        ]
        engine = build_engine(serving_parts, **TRACED, replication=2, failure_schedule=schedule)
        engine.replay(events)
        ring_events = [span for span in engine.tracer.spans() if span.name.startswith("ring.")]
        assert [span.name for span in ring_events] == ["ring.fail", "ring.recover"]
        assert all(span.cat == "control" and span.attrs["shard_index"] == 1 for span in ring_events)
        engine.close()


# ----------------------------------------------------------------------
# Span-tree structure and the KV attribution
# ----------------------------------------------------------------------
class TestSpanTrees:
    def test_every_request_gets_the_full_child_set(self, serving_parts):
        events = bursty_events(np.random.default_rng(9300))
        engine = build_engine(serving_parts, **TRACED)
        engine.replay(events)
        analyzer = TraceAnalyzer(engine.tracer.spans())
        assert len(analyzer.roots) == len(events)
        for root in analyzer.roots:
            names = sorted(child.name for child in analyzer.children(root))
            assert names == [
                "predict",
                "queue.wait",
                "session.window",
                "update.apply",
                "update.wave_wait",
            ]
            # Children stay inside the root interval, and the root closes at
            # its latest child.
            children = analyzer.children(root)
            assert all(root.start <= child.start <= child.end <= root.end for child in children)
            assert root.end == max(child.end for child in children)
        engine.close()

    def test_predict_spans_carry_kv_attribution(self, serving_parts):
        events = bursty_events(np.random.default_rng(9400))
        engine = build_engine(serving_parts, **TRACED)
        served = engine.replay(events)
        analyzer = TraceAnalyzer(engine.tracer.spans())
        predicts = [
            child
            for root in analyzer.roots
            for child in analyzer.children(root)
            if child.name == "predict"
        ]
        # Per-request KV attribution sums to the store's serve-path meters
        # exactly — same numbers the predictions themselves report.
        assert sum(span.attrs["kv_lookups"] for span in predicts) == sum(
            prediction.kv_lookups for prediction in served
        )
        assert sum(span.attrs["kv_bytes"] for span in predicts) == sum(
            prediction.bytes_fetched for prediction in served
        )
        engine.close()

    def test_arena_layout_traces_gather_and_scatter(self, serving_parts):
        events = bursty_events(np.random.default_rng(9500))
        engine = build_engine(serving_parts, **{**TRACED, "n_shards": 2, "state_layout": "arena"})
        engine.replay(events)
        names = {span.name for span in engine.tracer.spans()}
        assert "kv.gather_states" in names and "kv.scatter_states" in names
        gathers = [span for span in engine.tracer.spans() if span.name == "kv.gather_states"]
        assert all(span.kind == "instant" for span in gathers)
        # Shard attribution: every gather names a real shard of the pool.
        shard_names = {shard.name for shard in engine.store.shards}
        assert {span.attrs["shard"] for span in gathers} <= shard_names
        engine.close()

    def test_batch_lane_spans_accumulate_wave_kv_traffic(self, serving_parts):
        events = bursty_events(np.random.default_rng(9600))
        engine = build_engine(serving_parts, **{**TRACED, "max_batch_size": 16})
        engine.replay(events)
        waves = [span for span in engine.tracer.spans() if span.name == "apply_wave"]
        assert waves and all(span.attrs["kv_ops"] > 0 for span in waves)
        assert sum(span.attrs["wave_size"] for span in waves) == engine.updates_applied
        engine.close()


# ----------------------------------------------------------------------
# Critical paths: the breakdown tiles the root span exactly
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_critical_path_tiles_the_root_interval(self, serving_parts):
        for trial in range(3):
            events = bursty_events(np.random.default_rng(9700 + trial))
            engine = build_engine(serving_parts, **{**TRACED, "max_batch_size": (1, 7, 64)[trial]})
            engine.replay(events)
            analyzer = TraceAnalyzer(engine.tracer.spans())
            assert analyzer.roots
            for root in analyzer.roots:
                path = analyzer.critical_path(root)
                # Contiguous tiling of [root.start, root.end] ...
                assert path[0][1] == root.start and path[-1][2] == root.end
                for (_, _, high), (_, low, _) in zip(path, path[1:]):
                    assert high == low
                # ... so the segment durations sum to the root duration.
                total = sum(high - low for _, low, high in path)
                assert math.isclose(total, root.duration, rel_tol=0.0, abs_tol=1e-6)
            engine.close()

    def test_breakdown_columns_sum_to_the_duration(self, serving_parts):
        events = bursty_events(np.random.default_rng(9800))
        engine = build_engine(serving_parts, **TRACED)
        engine.replay(events)
        analyzer = TraceAnalyzer(engine.tracer.spans())
        for row in analyzer.table():
            parts = (
                row["queue_s"]
                + row["compute_s"]
                + row["session_window_s"]
                + row["update_defer_s"]
                + row["other_s"]
            )
            assert math.isclose(parts, row["duration_s"], rel_tol=0.0, abs_tol=1e-6)
        slowest = analyzer.slowest()
        assert analyzer.breakdown(slowest)["duration_s"] == max(
            row["duration_s"] for row in analyzer.table()
        )
        summary = analyzer.summary()
        assert summary["trace_requests"] == len(analyzer.roots)
        assert set(summary) == {
            "trace_requests",
            "trace_mean_duration_s",
            "trace_queue_s",
            "trace_compute_s",
            "trace_session_window_s",
            "trace_update_defer_s",
            "trace_other_s",
            "trace_kv_bytes",
        }
        engine.close()


# ----------------------------------------------------------------------
# Sampling: stable request-hash cohorts, like the canary router
# ----------------------------------------------------------------------
class TestSampling:
    def test_sampling_is_deterministic_and_a_subset(self, serving_parts):
        events = bursty_events(np.random.default_rng(9900))

        def trace_roots(sample_pct):
            engine = build_engine(serving_parts, **{**TRACED, "tracing": {"sample_pct": sample_pct}})
            engine.replay(events)
            roots = {(root.attrs["user_id"], root.start) for root in engine.tracer.roots()}
            engine.close()
            return roots

        full = trace_roots(100)
        sampled = trace_roots(35)
        assert full == {(user_id, float(timestamp)) for timestamp, user_id, _, _ in events}
        assert sampled < full
        assert sampled  # 35% of 150 requests cannot round to zero
        # Replaying the identical workload samples the identical cohort.
        assert trace_roots(35) == sampled


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_chrome_trace_validates_and_round_trips(self, serving_parts):
        events = bursty_events(np.random.default_rng(10100))
        engine = build_engine(serving_parts, **TRACED)
        engine.replay(events)
        trace = engine.tracer.chrome_trace()
        validate_chrome_trace(trace)
        assert json.loads(json.dumps(trace)) == trace
        assert trace["metadata"]["spans"] == len(engine.tracer.spans())
        assert trace["metadata"]["clock"] == "simulated-seconds"
        # Timestamps are microseconds relative to the earliest span.
        timed = [event for event in trace["traceEvents"] if event["ph"] != "M"]
        assert min(event["ts"] for event in timed) == 0.0
        # Request trees land on per-request thread lanes; the control plane
        # stays on lane 0 and the batch lane on 1.
        lanes = {event["tid"] for event in timed}
        assert 1 in lanes and len(lanes) > 2
        engine.close()

    def test_validate_chrome_trace_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "ts": 0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "ts": 0, "dur": 1}]}
            )


# ----------------------------------------------------------------------
# Config plumbing and the inert tracer
# ----------------------------------------------------------------------
class TestConfigAndNullTracer:
    def test_tracing_block_fills_the_default_sample_pct(self):
        config = EngineConfig(backend="hidden_state", session_length=600, tracing={})
        assert config.tracing == {"sample_pct": 100}
        assert EngineConfig(backend="hidden_state", session_length=600).tracing is None

    @pytest.mark.parametrize(
        "block",
        [
            {"sample_rate": 50},
            {"sample_pct": 0},
            {"sample_pct": 101},
            {"sample_pct": True},
            {"sample_pct": "50"},
        ],
    )
    def test_tracing_block_rejects_bad_shapes(self, block):
        with pytest.raises(ValueError):
            EngineConfig(backend="hidden_state", session_length=600, tracing=block)

    def test_tracer_rejects_bad_sample_pct(self):
        with pytest.raises(ValueError):
            Tracer(0)
        with pytest.raises(TypeError):
            Tracer(sample_pct=True)

    def test_null_tracer_is_inert(self):
        NULL_TRACER.control_event("autoscale.tick", 0.0, replicas=1)
        NULL_TRACER.admission_event("shed", 0.0, user_id=3)
        NULL_TRACER.kv_op("get", "kv", 1, 8)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.roots() == []
