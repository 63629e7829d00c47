"""Precompute decision layer and serving substrate tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BudgetPolicy,
    FixedThresholdPolicy,
    PrecisionTargetPolicy,
    plan_timeshift,
    simulate_precompute,
)
from repro.data import HistoryBatch, UserLog, make_dataset, user_split
from repro.data.schema import context_columns
from repro.models import GBDTModel, PredictionResult, RNNModel, RNNModelConfig, TaskSpec
from repro.serving import (
    EngineConfig,
    KeyValueStore,
    OnlineExperiment,
    ServingEngine,
    StreamEvent,
    StreamProcessor,
    dequantize_state,
    estimate_serving_costs,
    quantization_error,
    quantize_state,
)


def _result(labels, scores) -> PredictionResult:
    n = len(labels)
    return PredictionResult(
        y_true=np.asarray(labels, dtype=float),
        y_score=np.asarray(scores, dtype=float),
        user_ids=np.zeros(n, dtype=np.int64),
        prediction_times=np.arange(n, dtype=np.int64),
    )


class TestPolicies:
    def test_fixed_threshold(self):
        policy = FixedThresholdPolicy(0.5)
        assert policy.decide([0.4, 0.5, 0.9]).tolist() == [False, True, True]
        with pytest.raises(ValueError):
            FixedThresholdPolicy(1.5)

    def test_precision_target_policy_meets_constraint(self):
        labels = np.array([1, 1, 0, 1, 0, 0, 0, 0])
        scores = np.array([0.95, 0.9, 0.85, 0.8, 0.7, 0.3, 0.2, 0.1])
        policy = PrecisionTargetPolicy(0.75).fit(labels, scores)
        outcome = simulate_precompute(_result(labels, scores), policy)
        assert outcome.precision >= 0.75
        assert outcome.recall == pytest.approx(1.0)
        with pytest.raises(RuntimeError):
            PrecisionTargetPolicy(0.5).decide([0.3])

    def test_budget_policy_limits_precompute_rate(self):
        scores = np.linspace(0, 1, 100)
        policy = BudgetPolicy(0.2).fit(scores)
        outcome = simulate_precompute(_result(np.ones(100), scores), policy)
        assert outcome.precompute_rate <= 0.25


class TestOutcomeAccounting:
    def test_counts_are_consistent(self):
        labels = [1, 0, 1, 0, 1]
        scores = [0.9, 0.8, 0.2, 0.1, 0.6]
        outcome = simulate_precompute(_result(labels, scores), FixedThresholdPolicy(0.5))
        assert outcome.n_precomputes == 3
        assert outcome.successful_prefetches == 2
        assert outcome.wasted_precomputes == 1
        assert outcome.missed_accesses == 1
        assert outcome.precision == pytest.approx(2 / 3)
        assert outcome.recall == pytest.approx(2 / 3)

    def test_timeshift_plan_capacity_accounting(self):
        labels = [1, 1, 0, 0, 1]
        scores = [0.9, 0.1, 0.8, 0.2, 0.7]
        plan = plan_timeshift(_result(labels, scores), FixedThresholdPolicy(0.5))
        assert plan.peak_compute_without == 3
        assert plan.peak_compute_with == 1  # one access was not precomputed
        assert plan.offpeak_compute == 3
        assert plan.peak_reduction == pytest.approx(2 / 3)
        assert plan.overhead_ratio == pytest.approx((1 + 3) / 3)


class TestKVStoreAndStream:
    def test_kv_store_counts_operations_and_bytes(self):
        store = KeyValueStore()
        assert store.get("missing") is None
        store.put("a", np.zeros(4, dtype=np.float32))
        store.put("b", {"x": 1.0})
        assert store.get("a") is not None
        assert store.n_keys == 2
        assert store.stats.gets == 2 and store.stats.hits == 1 and store.stats.misses == 1
        assert store.total_bytes >= 16
        assert store.delete("a") and not store.delete("a")

    def test_stream_fires_timers_in_order_with_buffered_events(self):
        stream = StreamProcessor()
        fired: list[tuple[str, int]] = []
        stream.publish(StreamEvent("context", "s1", 100, {"v": 1}))
        stream.publish(StreamEvent("access", "s1", 150, {"v": 2}))
        stream.set_timer(300, "s1", lambda key, events: fired.append((key, len(events))))
        stream.set_timer(200, "s2", lambda key, events: fired.append((key, len(events))))
        assert stream.advance_to(250) == 1
        assert fired == [("s2", 0)]
        stream.flush()
        assert fired == [("s2", 0), ("s1", 2)]
        with pytest.raises(ValueError):
            stream.publish(StreamEvent("late", "x", 10))

    def test_flush_on_empty_stream_is_a_no_op(self):
        stream = StreamProcessor()
        stream.advance_to(500)
        assert stream.flush() == 0
        assert stream.clock == 500 and stream.waves_fired == 0

    def test_timer_set_exactly_at_the_current_clock_fires(self):
        stream = StreamProcessor()
        stream.advance_to(100)
        fired: list[str] = []
        stream.set_timer(100, "now", lambda key, events: fired.append(key))
        # Advancing to the current clock is legal and fires the due timer.
        assert stream.advance_to(100) == 1
        assert fired == ["now"] and stream.clock == 100

    def test_barrier_deregistration_mid_replay(self):
        stream = StreamProcessor()
        calls: list[str] = []
        handle = stream.register_barrier(lambda: calls.append("a"))
        stream.register_barrier(lambda: calls.append("b"))
        stream.set_timer(10, "t1", lambda key, events: None)
        stream.advance_to(10)
        assert calls == ["a", "b"]
        stream.deregister_barrier(handle)
        stream.set_timer(20, "t2", lambda key, events: None)
        stream.advance_to(20)
        assert calls == ["a", "b", "b"]
        with pytest.raises(KeyError):
            stream.deregister_barrier(handle)

    def test_queue_detach_deregisters_its_barrier(self):
        from repro.serving import MicroBatchQueue

        class Recorder:
            def __init__(self):
                self.batches = []

            def predict_batch(self, requests):
                self.batches.append(len(requests))
                return [None] * len(requests)

        stream = StreamProcessor()
        retired = MicroBatchQueue(Recorder(), max_batch_size=8, stream=stream)
        live_backend = Recorder()
        live = MicroBatchQueue(live_backend, max_batch_size=8, stream=stream)
        retired.detach()
        retired.detach()  # idempotent
        retired.submit(1, None, 0)
        live.submit(2, None, 0)
        stream.set_timer(5, "t", lambda key, events: None)
        stream.advance_to(5)
        # Only the live queue's barrier fired; the detached queue kept its
        # request pending instead of scoring it behind the caller's back.
        assert retired.pending == 1 and live.pending == 0
        assert live_backend.batches == [1]

    def test_out_of_time_order_submit_advances_the_shared_clock(self):
        """Pin the documented contract: a request stamped past due timers
        advances the stream clock, so an earlier-stamped publish is rejected —
        callers must replay in global time order."""
        from repro.serving import MicroBatchQueue

        class Echo:
            def predict_batch(self, requests):
                return [r.timestamp for r in requests]

        stream = StreamProcessor()
        queue = MicroBatchQueue(Echo(), max_batch_size=100, stream=stream)
        stream.set_timer(50, "t", lambda key, events: None)
        queue.submit(1, None, 10)
        delivered = queue.submit(2, None, 80)  # past the due timer
        assert delivered == [10]  # the earlier request scored pre-update
        assert stream.clock == 80 and stream.timers_fired == 1
        with pytest.raises(ValueError):
            stream.publish(StreamEvent("context", "late", 60))

    def test_quantization_round_trip_error_is_small(self):
        rng = np.random.default_rng(0)
        state = rng.normal(scale=0.5, size=128)
        quantized, scale = quantize_state(state)
        assert quantized.dtype == np.int8
        restored = dequantize_state(quantized, scale)
        assert np.max(np.abs(restored - state)) <= scale
        report = quantization_error(rng.normal(size=(4, 64)))
        assert report["storage_reduction"] == 4.0
        assert report["mean_abs_error"] < 0.05


@pytest.fixture(scope="module")
def small_trained_models():
    dataset = make_dataset("mobiletab", seed=13, n_users=40, n_days=14)
    split = user_split(dataset, test_fraction=0.25, seed=0)
    task = TaskSpec(kind="session", rnn_loss_days=10)
    gbdt = GBDTModel(depths=(3,)).fit(split.train, task)
    rnn = RNNModel(
        RNNModelConfig(hidden_size=16, mlp_hidden=16, epochs=2, early_stopping_patience=None, seed=0)
    ).fit(split.train, task)
    return dataset, split, task, gbdt, rnn


class TestServingServices:
    def test_hidden_state_service_matches_offline_model(self, small_trained_models):
        dataset, split, task, _, rnn = small_trained_models
        service = ServingEngine.build(
            EngineConfig(backend="hidden_state", session_length=dataset.session_length, extra_lag=60),
            network=rnn.network,
            builder=rnn.builder,
        )
        store, stream = service.store, service.stream
        user = max(split.test.users, key=len)
        served = []
        for index in range(len(user)):
            timestamp = int(user.timestamps[index])
            context = user.context_row(index)
            stream.advance_to(timestamp)
            served.append(service.predict(user.user_id, context, timestamp).probability)
            service.observe_session(user.user_id, context, timestamp, bool(user.accesses[index]))
        stream.flush()
        assert service.updates_applied == len(user)
        assert store.stats.puts == len(user)

        # Offline (batch) predictions with the same update lag must agree.
        alone = dataset.subset([user.user_id])
        offline = rnn.predict_examples(alone, TaskSpec(kind="session", eval_days=dataset.n_days).eval_examples(alone))
        assert np.allclose(np.asarray(served), offline, atol=1e-8)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "ROADMAP item 8: offline aggregation features count every session that "
            "started before the prediction, the served agg: record only those whose "
            "window (session length + extra lag) has closed"
        ),
    )
    def test_aggregation_service_matches_offline_model(self, small_trained_models):
        dataset, split, _, gbdt, _ = small_trained_models
        service = ServingEngine.build(
            EngineConfig(backend="aggregation", session_length=dataset.session_length, extra_lag=60),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )
        stream = service.stream
        user = max(split.test.users, key=len)
        served = []
        for index in range(len(user)):
            timestamp = int(user.timestamps[index])
            context = user.context_row(index)
            stream.advance_to(timestamp)
            served.append(service.predict(user.user_id, context, timestamp).probability)
            service.observe_session(user.user_id, context, timestamp, bool(user.accesses[index]))
        stream.flush()
        assert service.updates_applied == len(user)

        alone = dataset.subset([user.user_id])
        offline = gbdt.predict_examples(alone, TaskSpec(kind="session", eval_days=dataset.n_days).eval_examples(alone))
        served = np.asarray(served)
        # The user has sessions that start within δ of the one before, and
        # every prediction without one is already served bit for bit: the gap
        # below is item 8's and nothing else.  (Not an ``assert``: a broken
        # premise must fail the test, not satisfy its xfail.)
        within_delta = np.diff(user.timestamps, prepend=-np.inf) < dataset.session_length + 60
        if not within_delta.any() or not np.array_equal(served[~within_delta], offline[~within_delta]):
            pytest.fail("the replayed user does not isolate item 8's gap")
        assert np.array_equal(served, offline)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "ROADMAP item 8(c): the served agg: record keeps 28 days of sessions, but the "
            "log-bucketed elapsed features still tell an access up to 30 days back from none"
        ),
    )
    def test_an_access_just_past_the_history_window_is_served_as_offline(self, small_trained_models):
        """An accessed session at tA, an unaccessed one at tB = tA + 28 d + 1 s
        and a query once B's write has landed, 28.015 days after tA: the
        served record has evicted A, so its since_access features read "no
        access" where the offline log reads 28.015 days."""
        dataset, _, _, gbdt, _ = small_trained_models
        featurizer = gbdt.featurizer
        service = ServingEngine.build(
            EngineConfig(backend="aggregation", session_length=dataset.session_length, extra_lag=60),
            featurizer=featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )
        context = {"unread_count": 3, "active_tab": 1}
        t_a = dataset.start_time
        t_b = t_a + 28 * 86400 + 1
        query = t_b + dataset.session_length + 60 + 1
        service.observe_session(7, context, t_a, True)
        service.stream.advance_to(t_b)
        service.observe_session(7, context, t_b, False)
        service.stream.advance_to(query)
        record = service.store.peek("agg:7")
        log = UserLog(7, [t_a, t_b], [1, 0], {name: [value, value] for name, value in context.items()})
        columns = context_columns([context], dataset.schema.names())
        served = featurizer.transform_user(HistoryBatch.of_records([record], dataset.schema.names()), [0], [query], *columns)
        offline = featurizer.transform_user(HistoryBatch.of_logs([log]), [0], [query], *columns)
        names = featurizer.feature_names()
        moved = {names[i] for i in np.flatnonzero(served[0] != offline[0])}
        # Not an ``assert``: a broken premise must fail the test, not satisfy its xfail.
        if record["timestamps"] != [t_b] or any(not name.endswith(".since_access.bucket") for name in moved):
            pytest.fail("the replay does not isolate item 8(c)'s gap")
        assert np.array_equal(served, offline)

    def test_aggregation_service_charges_twenty_lookups(self, small_trained_models):
        dataset, split, task, gbdt, _ = small_trained_models
        service = ServingEngine.build(
            EngineConfig(backend="aggregation", session_length=dataset.session_length),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )
        user = split.test.users[0]
        timestamp = int(user.timestamps[0]) if len(user) else dataset.start_time
        prediction = service.predict(user.user_id, user.context_row(0) if len(user) else {"unread_count": 0, "active_tab": 0}, timestamp)
        assert prediction.kv_lookups == 20
        service.observe_session(user.user_id, user.context_row(0) if len(user) else {"unread_count": 0, "active_tab": 0}, timestamp, True)
        # The history write lands at window close.
        service.stream.flush()
        assert service.storage_bytes > 0

    def test_cost_model_reports_rnn_cheaper_to_serve_but_heavier_to_run(self, small_trained_models):
        dataset, split, task, gbdt, rnn = small_trained_models
        reports = estimate_serving_costs(rnn.network, gbdt.estimator, gbdt.featurizer)
        assert reports["gbdt"].kv_lookups_per_prediction == 20
        assert reports["rnn"].kv_lookups_per_prediction == 1
        assert reports["rnn"].model_flops_per_prediction > reports["gbdt"].model_flops_per_prediction
        ratio = reports["gbdt"].total_cost_per_prediction / reports["rnn"].total_cost_per_prediction
        assert ratio > 5.0

    def test_online_experiment_produces_daily_series_and_outcomes(self, small_trained_models):
        dataset, split, task, gbdt, rnn = small_trained_models
        live = make_dataset("mobiletab", seed=99, n_users=15, n_days=14)
        report = OnlineExperiment({"gbdt": gbdt, "rnn": rnn}, task=task, precision_target=0.5).run(
            split.train, live
        )
        assert set(report.arms) == {"gbdt", "rnn"}
        for arm in report.arms.values():
            assert len(arm.daily_pr_auc) == live.n_days
            assert arm.outcome.n_examples == live.n_sessions
        uplift = report.successful_prefetch_uplift("rnn", "gbdt")
        assert np.isfinite(uplift) or uplift == float("inf")
