"""Tests for the ScorePredictor training/inference workflow (Figure 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import evaluate_predictions
from repro.predictor import PredictorDataset, ScorePredictor, TrainingSample
from repro.predictor.training import PREDICTOR_NAMES


class TestTrainingSampleAndDataset:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            TrainingSample(group_id=0, flat_stats={}, measured_time_s=0.0)

    def test_dataset_grouping(self, tiny_dataset):
        assert tiny_dataset.group_ids() == [1, 2]
        assert len(tiny_dataset.group(1)) + len(tiny_dataset.group(2)) == len(tiny_dataset)

    def test_exclude_and_only(self, tiny_dataset):
        without = tiny_dataset.exclude_groups([1])
        assert without.group_ids() == [2]
        only = tiny_dataset.only_groups([1])
        assert only.group_ids() == [1]

    def test_split_preserves_groups_and_fraction(self, tiny_dataset):
        train, test = tiny_dataset.train_test_split(test_fraction=0.25, seed=0)
        assert set(train.group_ids()) == set(tiny_dataset.group_ids())
        assert set(test.group_ids()) == set(tiny_dataset.group_ids())
        assert len(train) + len(test) == len(tiny_dataset)
        for group_id in tiny_dataset.group_ids():
            assert len(test.group(group_id)) >= 1

    def test_split_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.train_test_split(test_fraction=0.0)

    def test_split_is_deterministic(self, tiny_dataset):
        first = tiny_dataset.train_test_split(0.3, seed=11)[1]
        second = tiny_dataset.train_test_split(0.3, seed=11)[1]
        assert [s.implementation_id for s in first.samples] == [
            s.implementation_id for s in second.samples
        ]


class TestScorePredictor:
    def test_fit_requires_samples(self):
        with pytest.raises(ValueError):
            ScorePredictor("linreg").fit(PredictorDataset())

    def test_predict_requires_fit(self, tiny_dataset):
        predictor = ScorePredictor("linreg")
        with pytest.raises(RuntimeError):
            predictor.predict_with_means(tiny_dataset.samples[0].flat_stats, {})

    def test_single_group_prediction_required(self, tiny_dataset):
        predictor = ScorePredictor("linreg").fit(tiny_dataset)
        with pytest.raises(ValueError):
            predictor.predict_dataset(tiny_dataset.samples)

    @pytest.mark.parametrize("model_name", ["linreg", "xgboost"])
    def test_scores_correlate_with_times(self, tiny_dataset, model_name):
        train, test = tiny_dataset.train_test_split(0.3, seed=1)
        predictor = ScorePredictor(model_name, seed=0).fit(train)
        group_samples = test.group(1)
        scores = predictor.predict_dataset(group_samples, window="exact")
        times = [s.measured_time_s for s in group_samples]
        correlation = np.corrcoef(scores, times)[0, 1]
        assert correlation > 0.3
        metrics = evaluate_predictions(times, scores)
        assert metrics.r_top1 <= 100.0

    def test_window_modes_produce_scores(self, tiny_dataset):
        predictor = ScorePredictor("linreg").fit(tiny_dataset)
        samples = tiny_dataset.group(2)
        for window in ("exact", "known", "static", "dynamic"):
            scores = predictor.predict_dataset(samples, window=window, window_size=4)
            assert scores.shape == (len(samples),)
            assert np.isfinite(scores).all()

    @pytest.mark.parametrize("model_name", ["linreg", "xgboost"])
    @pytest.mark.parametrize("window", ["exact", "known"])
    def test_fixed_mean_windows_score_in_one_batch(self, tiny_dataset, model_name, window):
        """One ``model.predict`` call gives the per-sample ``predict_with_means`` scores.

        Tree walks are row by row, so the xgboost scores are bit-identical; a
        BLAS product may block a batch differently from a single row, so the
        linear scores may move in the last bits.
        """
        predictor = ScorePredictor(model_name, seed=0).fit(tiny_dataset)
        samples = tiny_dataset.group(1)
        if window == "known":
            means = predictor.group_statistics[1].feature_means
        else:
            means = predictor.extractor.group_means([s.flat_stats for s in samples])
        calls = []
        predict = predictor.model.predict
        predictor.model.predict = lambda features: calls.append(len(features)) or predict(features)
        scores = predictor.predict_dataset(samples, window=window)
        assert calls == [len(samples)]
        per_sample = [predictor.predict_with_means(s.flat_stats, means) for s in samples]
        if model_name == "xgboost":
            assert np.array_equal(scores, per_sample)
        else:
            tolerance = 1e3 * np.finfo(float).eps
            np.testing.assert_allclose(scores, per_sample, rtol=tolerance, atol=tolerance)

    def test_known_window_requires_trained_group(self, tiny_dataset):
        train = tiny_dataset.exclude_groups([2])
        predictor = ScorePredictor("linreg").fit(train)
        with pytest.raises(KeyError):
            predictor.predict_dataset(tiny_dataset.group(2), window="known")

    def test_unknown_window_mode(self, tiny_dataset):
        predictor = ScorePredictor("linreg").fit(tiny_dataset)
        with pytest.raises(ValueError):
            predictor.predict_dataset(tiny_dataset.group(1), window="sliding")

    def test_generalizes_to_unseen_group(self, tiny_dataset):
        """The Figure 5 property: a predictor works on a group it never saw."""
        train = tiny_dataset.exclude_groups([2])
        predictor = ScorePredictor("linreg").fit(train)
        samples = tiny_dataset.group(2)
        scores = predictor.predict_dataset(samples, window="exact")
        times = [s.measured_time_s for s in samples]
        assert np.corrcoef(scores, times)[0, 1] > 0.0

    def test_score_function_for_simulator_runner(self, tiny_dataset):
        predictor = ScorePredictor("linreg").fit(tiny_dataset)
        score_fn = predictor.score_function(window="dynamic")

        class FakeSimulation:
            def __init__(self, stats):
                self._stats = stats

            def flat_stats(self):
                return self._stats

        sample = tiny_dataset.samples[0]
        value = score_fn(FakeSimulation(sample.flat_stats), None)
        assert np.isfinite(value)

    def test_all_predictor_names_construct(self):
        for name in PREDICTOR_NAMES:
            assert ScorePredictor(name).model is not None
