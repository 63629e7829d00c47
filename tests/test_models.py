"""Model-layer tests: task specs, baselines, the RNN and its update-lag rule."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data import make_dataset, user_split
from repro.metrics import pr_auc
from repro.models import (
    GBDTModel,
    LogisticRegressionModel,
    PercentageModel,
    PredictionResult,
    RNNModel,
    RNNModelConfig,
    TaskSpec,
    build_prediction_spec,
)
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="bogus")
        with pytest.raises(ValueError):
            TaskSpec(train_days=0)

    def test_session_eval_examples_live_in_final_days(self, tiny_mobiletab):
        task = TaskSpec(kind="session", eval_days=5)
        examples = task.eval_examples(tiny_mobiletab)
        boundary = tiny_mobiletab.day_boundary(5)
        assert len(examples) and np.all(examples.prediction_times >= boundary)

    def test_peak_task_examples_have_day_indices(self, tiny_timeshift):
        task = TaskSpec(kind="peak", eval_days=4)
        examples = task.eval_examples(tiny_timeshift)
        assert set(examples.days.tolist()) == set(range(tiny_timeshift.n_days - 4, tiny_timeshift.n_days))
        assert np.all(examples.sessions == -1)  # no session, so no context


class TestPredictionResult:
    def test_from_examples_alignment_and_merge(self, tiny_mobiletab):
        task = TaskSpec(kind="session")
        examples = task.eval_examples(tiny_mobiletab)
        n = len(examples)
        result = PredictionResult.from_examples(examples, np.linspace(0, 1, n), "m")
        assert len(result) == n
        merged = result.merge(result)
        assert len(merged) == 2 * n
        with pytest.raises(ValueError):
            PredictionResult.from_examples(examples, np.zeros(n + 1))


class TestPercentageModel:
    def test_matches_hand_computed_formula(self, handcrafted_dataset):
        task = TaskSpec(kind="session")
        model = PercentageModel().fit(handcrafted_dataset, task)
        alpha = handcrafted_dataset.positive_rate  # 0.5
        examples = task.eval_examples(handcrafted_dataset)
        scores = model.predict_examples(handcrafted_dataset, examples)[examples.owners == 0]
        # User 0 sessions: A = [1, 0, 1, 0]; P(A_n) = (alpha + sum_prior) / n
        expected = [
            (alpha + 0) / 1,
            (alpha + 1) / 2,
            (alpha + 1) / 3,
            (alpha + 2) / 4,
        ]
        assert np.allclose(scores, expected)

    def test_peak_variant_uses_day_history(self, tiny_timeshift):
        task = TaskSpec(kind="peak")
        model = PercentageModel().fit(tiny_timeshift, task)
        result = model.evaluate(tiny_timeshift, task)
        assert np.all((result.y_score >= 0) & (result.y_score <= 1))


def _small_models():
    from repro.ml import GBDTConfig, LogisticRegressionConfig

    return [
        PercentageModel(),
        LogisticRegressionModel(estimator_config=LogisticRegressionConfig(max_iter=20)),
        GBDTModel(gbdt_config=GBDTConfig(n_rounds=4), depths=(2,)),
        RNNModel(RNNModelConfig(hidden_size=4, mlp_hidden=4, epochs=1, early_stopping_patience=None)),
    ]


class TestUnknownUsers:
    """Every model refuses rows whose user is not the dataset's user at that
    owner, with one message (the percentage model once scored an unknown
    user on the peak task as a new one, α / (day + 1))."""

    @pytest.mark.parametrize("kind", ["session", "peak"])
    def test_every_model_refuses_an_unknown_user(self, tiny_timeshift, kind):
        task = TaskSpec(kind=kind, eval_days=3)
        examples = task.eval_examples(tiny_timeshift)
        stranger = examples.user_ids.copy()
        stranger[-1] = 10**6
        misowned = examples.owners.copy()
        misowned[0] = len(tiny_timeshift.users)
        for model in _small_models():
            model.fit(tiny_timeshift, task)
            assert len(model.predict_examples(tiny_timeshift, examples)) == len(examples)
            with pytest.raises(KeyError, match="examples reference unknown user 1000000"):
                model.predict_examples(tiny_timeshift, dataclasses.replace(examples, user_ids=stranger))
            with pytest.raises(KeyError, match="examples reference unknown user"):
                model.predict_examples(tiny_timeshift, dataclasses.replace(examples, owners=misowned))


class TestTabularModels:
    @pytest.fixture(scope="class")
    def mobiletab_split(self):
        dataset = make_dataset("mobiletab", seed=5, n_users=60, n_days=21)
        return dataset, user_split(dataset, test_fraction=0.2, seed=0)

    def test_lr_and_gbdt_beat_random_scores(self, mobiletab_split):
        dataset, split = mobiletab_split
        task = TaskSpec(kind="session")
        rng = np.random.default_rng(0)
        for model in (LogisticRegressionModel(), GBDTModel(depths=(3,))):
            model.fit(split.train, task)
            result = model.evaluate(split.test, task)
            random_auc = pr_auc(result.y_true, rng.random(len(result)))
            assert pr_auc(result.y_true, result.y_score) > random_auc + 0.05
            assert np.all((result.y_score >= 0) & (result.y_score <= 1))

    def test_gbdt_records_depth_search(self, mobiletab_split):
        dataset, split = mobiletab_split
        model = GBDTModel(depths=(2, 4))
        model.fit(split.train, TaskSpec(kind="session"))
        assert model.best_depth_ in (2, 4)
        assert model.n_lookup_groups == 20

    def test_unfitted_model_raises(self, mobiletab_split):
        dataset, split = mobiletab_split
        with pytest.raises(RuntimeError):
            GBDTModel().predict_examples(split.test, TaskSpec().eval_examples(split.test))


class TestPredictionSpec:
    def test_update_lag_rule_matches_paper(self):
        # Sessions at t = 0, 100, 1000; lag delta = 250.
        timestamps = np.array([0, 100, 1000])
        spec = build_prediction_spec(
            sequence_timestamps=timestamps,
            prediction_times=np.array([0, 100, 1000, 5000]),
            labels=np.zeros(4),
            features=None,
            update_lag=250,
            n_delta_buckets=50,
        )
        # k is the number of sessions with t_k < t - delta.
        assert spec.k_index.tolist() == [0, 0, 2, 3]
        # Gap is measured back to t_k (or 0 when k = 0).
        assert spec.gap_buckets[0] == 0 and spec.gap_buckets[1] == 0
        assert spec.gap_buckets[2] > 0

    def test_misaligned_spec_rejected(self):
        with pytest.raises(ValueError):
            build_prediction_spec(np.array([0]), np.array([1, 2]), np.zeros(1), None, 10, 50)


class TestRNNNetwork:
    def test_input_dimensions_follow_config(self):
        config = RNNNetworkConfig(feature_dim=7, hidden_size=8, mlp_hidden=8, n_delta_buckets=10)
        network = RNNPrecomputeNetwork(config)
        assert config.update_input_dim == 7 + 10 + 1
        assert config.predict_input_dim == 7 + 10
        update = network.build_update_inputs(np.zeros((3, 7)), np.zeros(3), np.zeros(3, dtype=int))
        assert update.shape == (3, 18)
        predict = network.build_predict_inputs(np.zeros((3, 7)), np.zeros(3, dtype=int))
        assert predict.shape == (3, 17)
        probs = network.predict_proba(network.initial_state(3), predict)
        assert probs.shape == (3, 1)
        assert np.all((probs.numpy() > 0) & (probs.numpy() < 1))

    def test_timeshift_network_needs_no_context(self):
        config = RNNNetworkConfig(feature_dim=5, hidden_size=4, mlp_hidden=4, predict_uses_context=False)
        network = RNNPrecomputeNetwork(config)
        predict = network.build_predict_inputs(None, np.array([3, 7]))
        assert predict.shape == (2, config.n_delta_buckets)

    def test_latent_cross_changes_predictions(self):
        base_kwargs = dict(feature_dim=5, hidden_size=6, mlp_hidden=6)
        with_cross = RNNPrecomputeNetwork(RNNNetworkConfig(latent_cross=True, **base_kwargs))
        without_cross = RNNPrecomputeNetwork(RNNNetworkConfig(latent_cross=False, **base_kwargs))
        assert with_cross.num_parameters() > without_cross.num_parameters()


class TestRNNModel:
    @pytest.fixture(scope="class")
    def trained(self):
        dataset = make_dataset("mobiletab", seed=9, n_users=40, n_days=14)
        split = user_split(dataset, test_fraction=0.2, seed=0)
        task = TaskSpec(kind="session", rnn_loss_days=10)
        model = RNNModel(
            RNNModelConfig(hidden_size=16, mlp_hidden=16, epochs=3, early_stopping_patience=None, seed=0)
        )
        model.fit(split.train, task)
        return model, split, task

    def test_fit_produces_training_curve_and_predictions(self, trained):
        model, split, task = trained
        assert len(model.training_curve_) >= 3
        assert model.training_curve_[0].loss > 0
        result = model.evaluate(split.test, task)
        assert len(result) > 0
        assert np.all((result.y_score > 0) & (result.y_score < 1))

    def test_learns_better_than_random(self, trained):
        model, split, task = trained
        result = model.evaluate(split.test, task)
        rng = np.random.default_rng(0)
        assert pr_auc(result.y_true, result.y_score) > pr_auc(result.y_true, rng.random(len(result)))

    def test_state_dict_and_hidden_size(self, trained):
        model, _, _ = trained
        state = model.state_dict()
        assert any(key.startswith("cell.") for key in state)
        assert model.hidden_state_size == 16

    def test_epoch_and_batch_resolution(self):
        config = RNNModelConfig(target_steps=100, batch_users=10, max_epochs=20)
        assert config.resolve_batch_users(1000) == 10
        assert config.resolve_epochs(1000) == 1
        assert config.resolve_batch_users(30) < 10
        assert config.resolve_epochs(30) <= 20

    def test_peak_task_training(self, tiny_timeshift):
        task = TaskSpec(kind="peak", rnn_loss_days=10)
        model = RNNModel(RNNModelConfig(hidden_size=12, mlp_hidden=12, epochs=2, early_stopping_patience=None, seed=0))
        split = user_split(tiny_timeshift, test_fraction=0.25, seed=1)
        model.fit(split.train, task)
        result = model.evaluate(split.test, task)
        assert len(result) == split.test.n_users * task.eval_days
