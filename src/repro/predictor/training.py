"""Score-predictor training and inference (Sections III-C to III-E).

One :class:`ScorePredictor` is trained per target architecture and kernel
type.  Its training data are paired records — simulator statistics and the
measured reference run time — for many implementations of several groups.
Features and targets are normalised per group (Equation 2); at inference time
the group means are either known, or approximated with a static/dynamic
window when the group was never seen (Section III-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.predictor.bayes_opt import BayesianGPModel
from repro.predictor.dnn import DNNRegressor
from repro.predictor.features import (
    DynamicWindow,
    FeatureExtractor,
    GroupStatistics,
    StaticWindow,
)
from repro.predictor.linear import LinearRegressionModel
from repro.predictor.xgboost import GradientBoostedTrees
from repro.utils.rng import new_generator

#: The predictor families compared in the paper (Tables III-V).
PREDICTOR_NAMES = ("linreg", "dnn", "bayes", "xgboost")


def make_model(name: str, seed: int = 0, **overrides):
    """Create one of the paper's predictor models with its tuned configuration.

    The configurations follow Section IV-C: linear regression with RSS loss; a
    (128, 128, 64, 32, 16, 1) tanh DNN with MAE loss and Adam; a Gaussian
    process tuned by Bayesian optimisation with MSE loss; and XGBoost with
    column subsample 0.6, learning rate 0.05, depth 3, alpha 0, lambda 0.1,
    300 trees, minimum child weight 1 and row subsample 0.8.
    """
    key = name.strip().lower()
    if key in ("linreg", "linear", "mlr"):
        return LinearRegressionModel(loss=overrides.pop("loss", "rss"), **overrides)
    if key == "dnn":
        defaults = dict(
            hidden_layers=(128, 128, 64, 32, 16),
            activation="tanh",
            loss="mae",
            learning_rate=1e-3,
            epochs=150,
            random_state=seed,
        )
        defaults.update(overrides)
        return DNNRegressor(**defaults)
    if key in ("bayes", "bayesian", "gp"):
        defaults = dict(loss="mse", random_state=seed)
        defaults.update(overrides)
        return BayesianGPModel(**defaults)
    if key in ("xgboost", "xgb", "gbt"):
        defaults = dict(
            colsample_bytree=0.6,
            learning_rate=0.05,
            max_depth=3,
            reg_alpha=0.0,
            reg_lambda=0.1,
            n_estimators=300,
            min_child_weight=1.0,
            subsample=0.8,
            loss="mse",
            random_state=seed,
        )
        defaults.update(overrides)
        return GradientBoostedTrees(**defaults)
    raise KeyError(f"unknown predictor {name!r}; available: {PREDICTOR_NAMES}")


@dataclass
class TrainingSample:
    """One implementation: its simulator statistics and its reference run time."""

    group_id: int
    flat_stats: Dict[str, float]
    measured_time_s: float
    implementation_id: str = ""

    def __post_init__(self) -> None:
        if self.measured_time_s <= 0:
            raise ValueError("measured_time_s must be positive")


@dataclass
class PredictorDataset:
    """A collection of training samples grouped by kernel group."""

    samples: List[TrainingSample] = field(default_factory=list)
    arch: str = ""
    kernel_type: str = ""

    def add(self, sample: TrainingSample) -> None:
        """Append one sample."""
        self.samples.append(sample)

    def extend(self, samples: Iterable[TrainingSample]) -> None:
        """Append many samples."""
        self.samples.extend(samples)

    def group_ids(self) -> List[int]:
        """Sorted group identifiers present in the dataset."""
        return sorted({sample.group_id for sample in self.samples})

    def group(self, group_id: int) -> List[TrainingSample]:
        """All samples of one group."""
        return [sample for sample in self.samples if sample.group_id == group_id]

    def exclude_groups(self, group_ids: Sequence[int]) -> "PredictorDataset":
        """Dataset without the listed groups (used for the Figure 5 experiment)."""
        excluded = set(group_ids)
        return PredictorDataset(
            samples=[s for s in self.samples if s.group_id not in excluded],
            arch=self.arch,
            kernel_type=self.kernel_type,
        )

    def only_groups(self, group_ids: Sequence[int]) -> "PredictorDataset":
        """Dataset restricted to the listed groups."""
        included = set(group_ids)
        return PredictorDataset(
            samples=[s for s in self.samples if s.group_id in included],
            arch=self.arch,
            kernel_type=self.kernel_type,
        )

    def train_test_split(
        self, test_fraction: float = 0.2, seed: int = 0
    ) -> Tuple["PredictorDataset", "PredictorDataset"]:
        """Random split keeping ``test_fraction`` of every group for testing."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        rng = new_generator(seed, "dataset_split", self.arch, self.kernel_type)
        train = PredictorDataset(arch=self.arch, kernel_type=self.kernel_type)
        test = PredictorDataset(arch=self.arch, kernel_type=self.kernel_type)
        for group_id in self.group_ids():
            group_samples = self.group(group_id)
            n_test = max(1, int(round(len(group_samples) * test_fraction)))
            order = rng.permutation(len(group_samples))
            test_indices = set(order[:n_test].tolist())
            for index, sample in enumerate(group_samples):
                (test if index in test_indices else train).add(sample)
        return train, test

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (
            f"PredictorDataset(arch={self.arch!r}, kernel={self.kernel_type!r}, "
            f"groups={self.group_ids()}, samples={len(self.samples)})"
        )


class ScorePredictor:
    """A trained score predictor for one architecture and kernel type."""

    def __init__(
        self,
        model_name: str = "xgboost",
        model=None,
        extractor: Optional[FeatureExtractor] = None,
        seed: int = 0,
    ):
        self.model_name = model_name
        self.model = model if model is not None else make_model(model_name, seed=seed)
        self.extractor = extractor or FeatureExtractor()
        self.seed = seed
        self.group_statistics: Dict[int, GroupStatistics] = {}
        self.fitted = False

    # -- training (Figure 4-I) ---------------------------------------------
    def fit(self, dataset: PredictorDataset) -> "ScorePredictor":
        """Train on paired (simulator statistics, measured run time) records."""
        if not dataset.samples:
            raise ValueError("cannot train on an empty dataset")
        self.group_statistics = {}
        features: List[np.ndarray] = []
        targets: List[float] = []
        for group_id in dataset.group_ids():
            group_samples = dataset.group(group_id)
            # Featurize each sample exactly once: the raw features feed both
            # the group means and the final vectors.
            raw = [self.extractor.raw_features(s.flat_stats) for s in group_samples]
            stats = GroupStatistics(
                feature_means=self.extractor.group_means_from_raw(raw),
                time_mean=float(np.mean([s.measured_time_s for s in group_samples])),
            )
            self.group_statistics[group_id] = stats
            for sample_raw, sample in zip(raw, group_samples):
                features.append(self.extractor.vector_from_raw(sample_raw, stats.feature_means))
                targets.append(stats.normalize_time(sample.measured_time_s))
        self.model.fit(np.asarray(features), np.asarray(targets))
        self.fitted = True
        return self

    # -- inference (Figure 4-II) -----------------------------------------------
    def predict_with_means(
        self,
        flat_stats: Mapping[str, float],
        group_means: Mapping[str, float],
        digest: Optional[str] = None,
    ) -> float:
        """Score one implementation given (estimated) group feature means.

        ``digest`` (the result's ``sim_digest``) routes featurization through
        the shared feature cache, so scoring a memoized or deduplicated
        candidate never re-extracts its features.
        """
        if not self.fitted:
            raise RuntimeError("the predictor has not been trained")
        vector = self.extractor.vector(flat_stats, group_means, digest=digest)
        return float(self.model.predict(vector[None, :])[0])

    def predict_dataset(
        self,
        samples: Sequence[TrainingSample],
        window: str = "exact",
        window_size: int = 64,
    ) -> np.ndarray:
        """Scores for a batch of implementations of *one* group.

        ``window`` selects how the group means are obtained:

        * ``"exact"``     — from all provided samples (training-time behaviour);
        * ``"known"``     — from the statistics stored during training
          (requires the group to have been trained on);
        * ``"static"``    — from the first ``window_size`` samples (Section III-E);
        * ``"dynamic"``   — running means updated sample by sample.
        """
        if not samples:
            return np.zeros(0)
        group_ids = {sample.group_id for sample in samples}
        if len(group_ids) != 1:
            raise ValueError("predict_dataset expects samples of a single group")
        group_id = group_ids.pop()

        if window in ("known", "exact"):
            if window == "known":
                if group_id not in self.group_statistics:
                    raise KeyError(f"group {group_id} was not part of the training data")
                means = self.group_statistics[group_id].feature_means
            else:
                means = self.extractor.group_means([s.flat_stats for s in samples])
            if not self.fitted:
                raise RuntimeError("the predictor has not been trained")
            # The means are fixed, so every sample is scored in one model call.
            vectors = [self.extractor.vector(s.flat_stats, means) for s in samples]
            return np.asarray(self.model.predict(np.asarray(vectors)), dtype=float)
        if window == "static":
            estimator = StaticWindow(self.extractor, window_size=window_size)
        elif window == "dynamic":
            estimator = DynamicWindow(self.extractor)
        else:
            raise ValueError(f"unknown window mode {window!r}")

        scores = []
        for sample in samples:
            estimator.observe(sample.flat_stats)
            scores.append(self.predict_with_means(sample.flat_stats, estimator.means()))
        return np.asarray(scores)

    # -- integration with the simulator runner -----------------------------------
    def score_function(self, window: str = "dynamic", window_size: int = 64):
        """A per-batch score function suitable for :class:`SimulatorRunner`.

        The returned callable keeps a window estimator across calls, mirroring
        the batch-wise generation of the Auto-Scheduler (Section III-E).
        """
        if window == "static":
            estimator = StaticWindow(self.extractor, window_size=window_size)
        else:
            estimator = DynamicWindow(self.extractor)

        def score(simulation_result, measure_input) -> float:
            flat_stats = simulation_result.flat_stats()
            digest = getattr(simulation_result, "sim_digest", "") or None
            estimator.observe(flat_stats, digest=digest)
            return self.predict_with_means(flat_stats, estimator.means(), digest=digest)

        return score

    def __repr__(self) -> str:
        return (
            f"ScorePredictor(model={self.model_name}, "
            f"trained_groups={sorted(self.group_statistics)})"
        )
