"""Model lifecycle: registry round-trips and the rollout bit-invisibility pins.

The subsystem is only admissible under the repo's invariant-pinned-scaling
discipline if the whole machinery is invisible until the moment it is asked
to matter:

* a rollout whose schedule ends in rollback must leave the engine
  bit-identical to a registry-free engine — served predictions, stored
  control state, store traffic meters — at every batch size and store
  topology (pinned by the twin matrix, ``tests/test_serving_twins.py``);
* a rollout promoted to 100% must serve bits identical to an engine built
  directly on the promoted version, because the shadow arm scored every
  micro-batch and applied every wave since build;
* the hot swap itself must not drain the queue: no flush, no drop, delivery
  cursor monotone.

The registry refuses what it cannot verify: tampered, unsigned or
non-finite weights.  The failover coverage pins the shadow arm's version-prefixed KV namespace
through a replicated fail/recover cycle: shadow state survives failover
bit-exactly and never leaks into the control namespace.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import make_dataset, sessions_in_time_order, user_split
from repro.models import RNNModel, RNNModelConfig, TaskSpec
from repro.serving import ModelRegistry, ModelVersion, SessionWave
from repro.serving.registry import _weights_digest
from repro.serving.twins import first_difference
from serving_harness import build_engine


@pytest.fixture(scope="module")
def trained():
    dataset = make_dataset("mobiletab", seed=29, n_users=28, n_days=10)
    split = user_split(dataset, test_fraction=0.3, seed=0)
    task = TaskSpec(kind="session", rnn_loss_days=6)
    rnn = RNNModel(
        RNNModelConfig(hidden_size=12, mlp_hidden=12, epochs=1, early_stopping_patience=None, seed=0)
    ).fit(split.train, task)
    events = [
        (int(timestamp), user.user_id, user.context_row(index), bool(user.accesses[index]))
        for timestamp, user, index in sessions_in_time_order(split.test.users)
    ]
    return dataset, rnn, events


@pytest.fixture(scope="module")
def versions(trained):
    """A frozen two-version registry: the live control and a perturbed candidate."""
    _, rnn, _ = trained
    control = ModelVersion.from_network("control", rnn.network)
    rng = np.random.default_rng(31)
    candidate = ModelVersion(
        "candidate",
        control.config,
        {
            name: array + 0.05 * rng.standard_normal(array.shape)
            for name, array in control.weights.items()
        },
    )
    registry = ModelRegistry([control, candidate]).freeze()
    return control, candidate, registry


def rollout_engine(trained, versions, *, batch_size, **overrides):
    """An engine over the trained model; a ``model=`` pin serves it from the
    frozen two-version registry, ``network=`` replaces the control network."""
    dataset, rnn, _ = trained
    if "model" in overrides:
        overrides["models"] = versions[2]
    return build_engine(
        (None, rnn.builder, rnn.network),
        max_batch_size=batch_size,
        session_length=dataset.session_length,
        **overrides,
    )


def records_under(engine, prefix):
    """Stored records under ``prefix``, read unmetered so meters stay comparable."""
    return {
        key: engine.store.peek(key)
        for key in sorted(engine.store.keys())
        if key.startswith(prefix)
    }


def served_tuples(predictions):
    return [(p.user_id, p.timestamp, p.kv_lookups, p.bytes_fetched) for p in predictions]


# ----------------------------------------------------------------------
# The registry: versioned artifacts with provenance.
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_version_round_trips_through_json_bit_exactly(self, versions):
        control, _, _ = versions
        revived = ModelVersion.from_dict(json.loads(json.dumps(control.to_dict())))
        assert revived.provenance == control.provenance
        assert revived.config == control.config
        for name, array in control.weights.items():
            np.testing.assert_array_equal(revived.weights[name], array)

    def test_build_network_is_deterministic(self, versions):
        _, candidate, _ = versions
        first, second = candidate.build_network(), candidate.build_network()
        for name, array in first.state_dict().items():
            np.testing.assert_array_equal(second.state_dict()[name], array)

    def test_tampered_weights_fail_provenance_verification(self, versions):
        control, _, _ = versions
        payload = control.to_dict()
        name = next(iter(payload["weights"]))
        payload["weights"][name] = (np.asarray(payload["weights"][name]) + 1.0).tolist()
        with pytest.raises(ValueError, match="provenance verification"):
            ModelVersion.from_dict(payload)

    def test_a_payload_without_provenance_is_refused(self, versions):
        """Stripping the digest must not turn verification into recomputation:
        edited weights with no ``provenance`` key (or an empty one) never load."""
        control, _, _ = versions
        payload = control.to_dict()
        name = next(iter(payload["weights"]))
        payload["weights"][name] = (np.asarray(payload["weights"][name]) + 1.0).tolist()
        for stripped in ({k: v for k, v in payload.items() if k != "provenance"}, {**payload, "provenance": ""}):
            with pytest.raises(ValueError, match="missing ModelVersion fields: \\['provenance'\\]"):
                ModelVersion.from_dict(stripped)
        with pytest.raises(ValueError, match="missing ModelVersion fields"):
            ModelRegistry.from_dict({"versions": [stripped], "frozen": True})

    def test_non_finite_weights_are_refused(self, versions):
        control, _, _ = versions
        name = next(iter(control.weights))
        for bad in (np.nan, np.inf):
            weights = {**control.weights, name: np.full_like(control.weights[name], bad)}
            with pytest.raises(ValueError, match=f"weight {name!r} is not finite"):
                ModelVersion("poisoned", control.config, weights)
            # Signing the bad weights does not help: the digest matches, the values do not pass.
            payload = {
                **control.to_dict(),
                "weights": {key: array.tolist() for key, array in weights.items()},
                "provenance": _weights_digest(control.config, weights),
            }
            with pytest.raises(ValueError, match="not finite"):
                ModelVersion.from_dict(json.loads(json.dumps(payload)))

    def test_unknown_and_missing_fields_rejected(self, versions):
        control, _, _ = versions
        payload = control.to_dict()
        with pytest.raises(ValueError, match="unknown ModelVersion fields"):
            ModelVersion.from_dict({**payload, "blessed": True})
        payload.pop("weights")
        with pytest.raises(ValueError, match="missing ModelVersion fields"):
            ModelVersion.from_dict(payload)

    def test_registry_round_trips_and_stays_frozen(self, versions):
        control, candidate, registry = versions
        revived = ModelRegistry.from_dict(json.loads(json.dumps(registry.to_dict())))
        assert revived.list_versions() == ["control", "candidate"]
        assert revived.frozen
        assert revived.get("control").provenance == control.provenance
        assert revived.get("candidate").provenance == candidate.provenance
        with pytest.raises(ValueError, match="unknown ModelRegistry fields"):
            ModelRegistry.from_dict({"versions": [], "sealed": True})

    def test_register_is_idempotent_for_identical_bits_only(self, trained):
        _, rnn, _ = trained
        registry = ModelRegistry()
        first = registry.register(ModelVersion.from_network("v1", rnn.network))
        assert registry.register(ModelVersion.from_network("v1", rnn.network)) is first
        perturbed = ModelVersion(
            "v1",
            first.config,
            {name: array + 1.0 for name, array in first.weights.items()},
        )
        with pytest.raises(ValueError, match="different\\s+bits"):
            registry.register(perturbed)

    def test_freeze_blocks_registration_and_get_names_the_known_versions(self, trained):
        _, rnn, _ = trained
        registry = ModelRegistry([ModelVersion.from_network("v1", rnn.network)]).freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            registry.register(ModelVersion.from_network("v2", rnn.network))
        with pytest.raises(KeyError, match="registered: \\['v1'\\]"):
            registry.get("v9")
        assert "v1" in registry and len(registry) == 1


# ----------------------------------------------------------------------
# Pin (b): a 100%-promoted arm == an engine built on the promoted version.
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promoted_arm_matches_engine_built_directly_on_candidate(self, trained, versions):
        _, _, events = trained
        _, candidate, _ = versions
        t0, tend = events[0][0], events[-1][0]
        span = tend - t0
        swap_at = t0 + (2 * span) // 3
        arm = rollout_engine(
            trained,
            versions,
            batch_size=7,
            model="control",
            rollout={
                "candidate": "candidate",
                "stages": ((t0 - 1, 5), (t0 + span // 3, 50), (swap_at, 100)),
                "gates": {},
            },
        )
        direct = rollout_engine(
            trained, versions, batch_size=7, network=candidate.build_network()
        )
        arm_served = arm.replay(events)
        direct_served = direct.replay(events)

        rollout = arm.rollout
        assert rollout.promoted and rollout.promotions == 1 and not rollout.rolled_back
        assert rollout.serving_version == "candidate"
        assert rollout.stage_history == [
            f"stage:5@{t0 - 1}",
            f"stage:50@{t0 + span // 3}",
            f"stage:100@{swap_at}",
        ]

        # Every request after the swap is served by the candidate, and —
        # because the shadow scored every batch and applied every wave since
        # build — its bits match the engine that ran the candidate from the
        # start.  (Comparing by index is sound: delivery is exactly-once in
        # submission order, pinned below in the hot-swap test.)
        post_swap = [index for index, event in enumerate(events) if event[0] >= swap_at]
        assert post_swap, "the schedule must swap mid-stream"
        np.testing.assert_array_equal(
            np.asarray([arm_served[index].probability for index in post_swap]),
            np.asarray([direct_served[index].probability for index in post_swap]),
        )
        assert [served_tuples(arm_served)[index] for index in post_swap] == [
            served_tuples(direct_served)[index] for index in post_swap
        ]

        # End-state shadow records == the direct engine's control records.
        shadow = {
            key[len("candidate:"):]: value
            for key, value in records_under(arm, "candidate:").items()
        }
        assert first_difference(shadow, records_under(direct, "hidden:")) is None
        arm.close()
        direct.close()


class TestWavePassThrough:
    def test_the_shadow_arm_is_handed_the_wave_the_control_arm_applied(self, trained, versions):
        """A stream-fired wave is one columnar object from the control arm's
        ``apply_wave`` through ``wave_listeners`` into the shadow arm's
        ``apply_wave`` — passed on, never rebuilt row by row."""
        _, _, events = trained
        arm = rollout_engine(
            trained,
            versions,
            batch_size=7,
            model="control",
            rollout={"candidate": "candidate", "stages": ((events[-1][0] + 10**6, 5),), "gates": {}},
        )
        control, shadow = arm.rollout.control, arm.rollout.shadow
        applied = {"control": [], "listener": [], "shadow": []}
        for name, backend in (("control", control), ("shadow", shadow)):
            def spy(wave, _apply=backend.apply_wave, _seen=applied[name]):
                _seen.append(wave)
                _apply(wave)
            backend.apply_wave = spy
        control.wave_listeners.append(applied["listener"].append)
        arm.replay(events)
        assert applied["control"] and all(isinstance(wave, SessionWave) for wave in applied["control"])
        for name in ("listener", "shadow"):
            assert len(applied[name]) == len(applied["control"])
            assert all(seen is wave for seen, wave in zip(applied[name], applied["control"]))
        assert sum(len(wave) for wave in applied["control"]) == len(events)
        assert control.updates_applied == shadow.updates_applied == len(events)
        arm.close()


# ----------------------------------------------------------------------
# Pin (c): the hot swap never drains the queue.
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_promotion_leaves_the_pending_batch_and_cursor_untouched(self, trained, versions):
        _, _, events = trained
        swap_at = events[0][0] + 10_000
        arm = rollout_engine(
            trained,
            versions,
            batch_size=64,
            model="control",
            rollout={"candidate": "candidate", "stages": ((swap_at, 100),), "gates": {}},
        )
        submitted = events[:5]
        for timestamp, user_id, context, _ in submitted:
            assert arm.submit(user_id, context, timestamp) == []
        assert arm.pending == len(submitted)

        # The stage timer fires alone (barrier-exempt): the swap happens with
        # the micro-batch still open — nothing flushed, nothing dropped.
        assert arm.advance_to(swap_at) == []
        assert arm.rollout.promoted
        assert arm.pending == len(submitted)
        assert arm.queue.batches_flushed == 0

        # The pending requests score at their normal flush point — now on the
        # candidate — and the delivery cursor stays monotone in submission order.
        served = arm.flush()
        assert arm.queue.batches_flushed == 1
        assert [(p.user_id, p.timestamp) for p in served] == [
            (user_id, timestamp) for timestamp, user_id, _, _ in submitted
        ]
        assert arm.rollout.serving_version == "candidate"
        arm.close()


# ----------------------------------------------------------------------
# Satellite: the shadow namespace under replication-3 failover.
# ----------------------------------------------------------------------
class TestShadowNamespaceFailover:
    def test_shadow_state_survives_fail_recover_and_never_leaks(self, trained, versions):
        _, _, events = trained
        t0, tend = events[0][0], events[-1][0]
        span = tend - t0
        topology = {"n_shards": 4, "replication": 3, "store_name": "lifecycle-ha"}
        rollout = {"candidate": "candidate", "stages": ((t0 - 1, 5),), "gates": {}}
        schedule = ((t0 + span // 4, "fail", 0), (t0 + (3 * span) // 4, "recover", 0))

        baseline = rollout_engine(trained, versions, batch_size=16, **topology)
        twin = rollout_engine(
            trained, versions, batch_size=16, model="control", rollout=rollout, **topology
        )
        faulted = rollout_engine(
            trained,
            versions,
            batch_size=16,
            model="control",
            rollout=rollout,
            failure_schedule=schedule,
            **topology,
        )
        base_served = baseline.replay(events)
        twin_served = twin.replay(events)
        fault_served = faulted.replay(events)

        # The fault really happened, and rehydration put keys back.
        assert faulted.store.shard_failures == 1 and faulted.store.shard_recoveries == 1
        assert faulted.store.keys_rehydrated > 0

        # Combined invisibility: rollout + fail/recover together still serve
        # the registry-free engine's bits and store the same control state.
        np.testing.assert_array_equal(
            np.asarray([p.probability for p in fault_served]),
            np.asarray([p.probability for p in base_served]),
        )
        np.testing.assert_array_equal(
            np.asarray([p.probability for p in twin_served]),
            np.asarray([p.probability for p in base_served]),
        )
        base_records = records_under(baseline, "hidden:")
        fault_records = records_under(faulted, "hidden:")
        assert first_difference(fault_records, base_records) is None

        # Shadow state survived the failover bit-exactly: the faulted arm's
        # candidate namespace equals the no-failure twin's, and the failed
        # shard provably owned replicas of shadow keys (the fault bit them).
        twin_shadow = records_under(twin, "candidate:")
        fault_shadow = records_under(faulted, "candidate:")
        assert twin_shadow and first_difference(fault_shadow, twin_shadow) is None
        victim = faulted.store.shards[0].name
        assert any(victim in faulted.store.owner_names(key) for key in fault_shadow)

        # No leak in either direction: every key is control- or shadow-namespaced.
        assert set(faulted.store.keys()) == set(fault_records) | set(fault_shadow)
        baseline.close()
        twin.close()
        faulted.close()
