"""Tests for the predictor model families and hyper-parameter search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predictor import (
    BayesianGPModel,
    BayesianOptimizer,
    ConstantKernel,
    DNNRegressor,
    GaussianProcessRegressor,
    GradientBoostedTrees,
    LinearRegressionModel,
    RBF,
    WhiteKernel,
    get_loss,
    grid_search,
    mae,
    make_model,
    mse,
    rss,
)


def linear_data(n=200, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    weights = np.array([1.5, -2.0, 0.5, 3.0])
    targets = features @ weights + 0.7 + noise * rng.normal(size=n)
    return features, targets


def nonlinear_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(-2, 2, size=(n, 3))
    targets = np.sin(features[:, 0]) + features[:, 1] ** 2 - 0.5 * features[:, 2]
    return features, targets


class TestLosses:
    def test_values(self):
        y = np.array([1.0, 2.0, 3.0])
        p = np.array([1.0, 3.0, 5.0])
        assert mse(y, p) == pytest.approx(5 / 3)
        assert mae(y, p) == pytest.approx(1.0)
        assert rss(y, p) == pytest.approx(5.0)

    def test_lookup(self):
        assert get_loss("MAE") is mae
        with pytest.raises(KeyError):
            get_loss("huber")


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        features, targets = linear_data()
        model = LinearRegressionModel().fit(features, targets)
        np.testing.assert_allclose(model.coefficients_, [1.5, -2.0, 0.5, 3.0], atol=1e-6)
        assert model.intercept_ == pytest.approx(0.7, abs=1e-6)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegressionModel().predict(np.zeros((1, 3)))

    def test_collinear_features_do_not_blow_up(self):
        features, targets = linear_data()
        doubled = np.hstack([features, features])
        predictions = LinearRegressionModel().fit(doubled, targets).predict(doubled)
        assert mse(targets, predictions) < 1e-6

    def test_rejects_unsupported_loss(self):
        with pytest.raises(ValueError):
            LinearRegressionModel(loss="mae")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(np.zeros((5, 2)), np.zeros(4))


class TestDNN:
    def test_fits_linear_function(self):
        features, targets = linear_data(n=300)
        model = DNNRegressor(hidden_layers=(32, 16), epochs=120, patience=40, random_state=0)
        model.fit(features, targets)
        predictions = model.predict(features)
        assert mae(targets, predictions) < 0.4

    def test_reproducible_with_seed(self):
        features, targets = linear_data(n=80)
        a = DNNRegressor(hidden_layers=(16,), epochs=20, random_state=3).fit(features, targets)
        b = DNNRegressor(hidden_layers=(16,), epochs=20, random_state=3).fit(features, targets)
        np.testing.assert_allclose(a.predict(features), b.predict(features))

    def test_mse_loss_variant(self):
        features, targets = linear_data(n=100)
        model = DNNRegressor(hidden_layers=(16,), loss="mse", epochs=30).fit(features, targets)
        assert np.isfinite(model.predict(features)).all()

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            DNNRegressor(loss="rss")

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DNNRegressor().predict(np.zeros((1, 4)))


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(-1, 1, size=(30, 2))
        targets = np.sin(features[:, 0] * 3) + features[:, 1]
        kernel = ConstantKernel(1.0) * RBF(0.5) + WhiteKernel(1e-6)
        model = GaussianProcessRegressor(kernel).fit(features, targets)
        predictions = model.predict(features)
        assert mse(targets, predictions) < 1e-3

    def test_std_is_small_at_training_points(self):
        features = np.linspace(0, 1, 10)[:, None]
        targets = np.squeeze(features) ** 2
        model = GaussianProcessRegressor(ConstantKernel(1.0) * RBF(0.3) + WhiteKernel(1e-6))
        model.fit(features, targets)
        _, std_train = model.predict(features, return_std=True)
        _, std_far = model.predict(np.array([[5.0]]), return_std=True)
        assert std_train.mean() < std_far[0]

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            RBF(0.0)
        with pytest.raises(ValueError):
            ConstantKernel(-1.0)
        with pytest.raises(ValueError):
            WhiteKernel(-0.1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor(RBF(1.0)).predict(np.zeros((1, 2)))


class TestBayesianOptimizer:
    def test_finds_maximum_of_smooth_function(self):
        def objective(x, y):
            return -((x - 2.0) ** 2) - (y - 0.5) ** 2

        optimizer = BayesianOptimizer(
            objective, {"x": (0.1, 10.0), "y": (0.1, 10.0)}, n_initial=6, n_iterations=18, seed=0
        )
        best = optimizer.maximize()
        assert best.value > -1.0

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda: 0, {})

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(lambda x: 0, {"x": (2.0, 1.0)})

    def test_best_requires_run(self):
        optimizer = BayesianOptimizer(lambda x: x, {"x": (0.1, 1.0)})
        with pytest.raises(RuntimeError):
            _ = optimizer.best


class TestBayesianGPModel:
    def test_fit_predict_nonlinear(self):
        features, targets = nonlinear_data(n=120)
        model = BayesianGPModel(n_initial=4, n_iterations=6, random_state=0)
        model.fit(features, targets)
        predictions = model.predict(features)
        assert mse(targets, predictions) < np.var(targets)
        assert set(model.best_params_) == {"C", "RBF_scale", "noise"}

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            BayesianGPModel().predict(np.zeros((1, 3)))


class TestGradientBoostedTrees:
    def test_fits_nonlinear_function(self):
        features, targets = nonlinear_data(n=400)
        model = GradientBoostedTrees(
            n_estimators=150, learning_rate=0.1, max_depth=3, random_state=0
        )
        model.fit(features, targets)
        predictions = model.predict(features)
        assert mse(targets, predictions) < 0.15 * np.var(targets)

    def test_better_than_mean_baseline_out_of_sample(self):
        features, targets = nonlinear_data(n=500)
        model = GradientBoostedTrees(n_estimators=120, learning_rate=0.1, random_state=1)
        model.fit(features[:350], targets[:350])
        predictions = model.predict(features[350:])
        baseline = np.full(150, targets[:350].mean())
        assert mse(targets[350:], predictions) < 0.5 * mse(targets[350:], baseline)

    def test_deterministic_given_seed(self):
        features, targets = nonlinear_data(n=150)
        a = GradientBoostedTrees(n_estimators=40, random_state=7).fit(features, targets)
        b = GradientBoostedTrees(n_estimators=40, random_state=7).fit(features, targets)
        np.testing.assert_allclose(a.predict(features), b.predict(features))

    def test_constant_targets_give_constant_predictions(self):
        features = np.random.default_rng(0).normal(size=(50, 3))
        targets = np.full(50, 2.5)
        model = GradientBoostedTrees(n_estimators=20).fit(features, targets)
        np.testing.assert_allclose(model.predict(features), targets, atol=1e-9)

    def test_unsupported_loss(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(loss="mae")

    def test_get_params_round_trip(self):
        model = GradientBoostedTrees(max_depth=5)
        params = model.get_params()
        clone = GradientBoostedTrees(**params)
        assert clone.max_depth == 5

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))


class TestGridSearch:
    def test_picks_best_depth(self):
        features, targets = nonlinear_data(n=200)
        result = grid_search(
            lambda **p: GradientBoostedTrees(n_estimators=40, random_state=0, **p),
            {"max_depth": [1, 3]},
            features,
            targets,
            n_folds=3,
            seed=0,
        )
        assert result.best_params["max_depth"] == 3
        assert len(result.all_results) == 2

    def test_validation(self):
        features, targets = linear_data(n=10)
        with pytest.raises(ValueError):
            grid_search(lambda **p: LinearRegressionModel(), {}, features, targets)
        with pytest.raises(ValueError):
            grid_search(
                lambda **p: LinearRegressionModel(), {"ridge": [0.1]}, features[:2], targets[:2],
                n_folds=5,
            )


class TestMakeModel:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("linreg", LinearRegressionModel),
            ("dnn", DNNRegressor),
            ("bayes", BayesianGPModel),
            ("xgboost", GradientBoostedTrees),
        ],
    )
    def test_factory(self, name, expected):
        assert isinstance(make_model(name), expected)

    def test_paper_xgboost_configuration(self):
        model = make_model("xgboost")
        assert model.colsample_bytree == pytest.approx(0.6)
        assert model.learning_rate == pytest.approx(0.05)
        assert model.max_depth == 3
        assert model.n_estimators == 300

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_model("random_forest")


# ---------------------------------------------------------------------------
# gradient-boosted trees: exact against the per-column search they replaced
# ---------------------------------------------------------------------------

import sys  # noqa: E402

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.predictor.xgboost as xgboost_module  # noqa: E402
from repro.predictor import ScorePredictor  # noqa: E402


class _OracleNode:
    def __init__(self, value):
        self.feature, self.threshold, self.value = -1, 0.0, value
        self.left = self.right = None


class _OracleTree:
    """One column at a time, one node object per node: the search the 2-D pass replaced.

    ``searched`` counts the nodes that ran the column loop (one ``argsort``
    per sampled column each).
    """

    def __init__(self, params):
        self.max_depth = params["max_depth"]
        self.min_child_weight = params["min_child_weight"]
        self.reg_lambda = params["reg_lambda"]
        self.reg_alpha = params["reg_alpha"]
        self.gamma = params["gamma"]
        self.searched = 0

    def _leaf_weight(self, grad_sum, hess_sum):
        if grad_sum > self.reg_alpha:
            numerator = grad_sum - self.reg_alpha
        elif grad_sum < -self.reg_alpha:
            numerator = grad_sum + self.reg_alpha
        else:
            return 0.0
        return -numerator / (hess_sum + self.reg_lambda)

    def _score(self, grad_sum, hess_sum):
        weight = self._leaf_weight(grad_sum, hess_sum)
        return -(grad_sum * weight + 0.5 * (hess_sum + self.reg_lambda) * weight**2)

    def _score_vector(self, grad_sums, hess_sums):
        numerator = np.where(
            grad_sums > self.reg_alpha,
            grad_sums - self.reg_alpha,
            np.where(grad_sums < -self.reg_alpha, grad_sums + self.reg_alpha, 0.0),
        )
        weights = -numerator / (hess_sums + self.reg_lambda)
        return -(grad_sums * weights + 0.5 * (hess_sums + self.reg_lambda) * weights**2)

    def build(self, features, gradients, hessians, feature_indices, depth=0):
        grad_sum = float(gradients.sum())
        hess_sum = float(hessians.sum())
        node = _OracleNode(self._leaf_weight(grad_sum, hess_sum))
        if depth >= self.max_depth or features.shape[0] < 2 or hess_sum < 2 * self.min_child_weight:
            return node
        self.searched += 1
        parent_score = self._score(grad_sum, hess_sum)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for feature in feature_indices:
            column = features[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            grad_cumulative = np.cumsum(gradients[order])[:-1]
            hess_cumulative = np.cumsum(hessians[order])[:-1]
            right_grad = grad_sum - grad_cumulative
            right_hess = hess_sum - hess_cumulative
            valid = (
                (np.diff(sorted_values) > 1e-12)
                & (hess_cumulative >= self.min_child_weight)
                & (right_hess >= self.min_child_weight)
            )
            if not valid.any():
                continue
            gains = (
                self._score_vector(grad_cumulative, hess_cumulative)
                + self._score_vector(right_grad, right_hess)
                - parent_score
                - self.gamma
            )
            gains = np.where(valid, gains, -np.inf)
            position = int(np.argmax(gains))
            if gains[position] > best_gain:
                best_gain = float(gains[position])
                best_feature = int(feature)
                best_threshold = float(0.5 * (sorted_values[position] + sorted_values[position + 1]))
        if best_feature < 0:
            return node
        mask = features[:, best_feature] <= best_threshold
        node.feature, node.threshold = best_feature, best_threshold
        node.left = self.build(
            features[mask], gradients[mask], hessians[mask], feature_indices, depth + 1
        )
        node.right = self.build(
            features[~mask], gradients[~mask], hessians[~mask], feature_indices, depth + 1
        )
        return node


def _oracle_predict_into(node, features, rows, output):
    if node.left is None or rows.size == 0:
        output[rows] = node.value
        return
    mask = features[rows, node.feature] <= node.threshold
    _oracle_predict_into(node.left, features, rows[mask], output)
    _oracle_predict_into(node.right, features, rows[~mask], output)


def _oracle_tree_predict(root, features):
    output = np.zeros(features.shape[0])
    _oracle_predict_into(root, features, np.arange(features.shape[0]), output)
    return output


def _oracle_preorder(node):
    rows = [(node.feature, node.threshold, node.value)]
    if node.left is not None:
        rows += _oracle_preorder(node.left) + _oracle_preorder(node.right)
    return rows


class _OracleEnsemble:
    """The boosting loop around :class:`_OracleTree`, adding one tree at a time."""

    def __init__(self, params):
        self.params = params
        self.roots = []
        self.searched = 0

    def fit(self, features, targets):
        p = self.params
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        rng = np.random.default_rng(p["random_state"])
        n_samples, n_features = features.shape
        self.base = float(targets.mean())
        predictions = np.full(n_samples, self.base)
        n_columns = max(1, int(round(p["colsample_bytree"] * n_features)))
        n_rows = max(2, int(round(p["subsample"] * n_samples)))
        for _ in range(p["n_estimators"]):
            gradients = predictions - targets
            hessians = np.ones(n_samples)
            rows = (
                rng.choice(n_samples, size=n_rows, replace=False)
                if n_rows < n_samples
                else np.arange(n_samples)
            )
            columns = (
                rng.choice(n_features, size=n_columns, replace=False)
                if n_columns < n_features
                else np.arange(n_features)
            )
            tree = _OracleTree(p)
            root = tree.build(features[rows], gradients[rows], hessians[rows], columns)
            self.searched += tree.searched
            self.roots.append(root)
            predictions += p["learning_rate"] * _oracle_tree_predict(root, features)
        return self

    def predict(self, features):
        features = np.asarray(features, dtype=float)
        predictions = np.full(features.shape[0], self.base)
        for root in self.roots:
            predictions += self.params["learning_rate"] * _oracle_tree_predict(root, features)
        return predictions


def assert_same_ensemble(model, oracle, probes):
    """Every tree's preorder ``(feature, threshold, value)`` and every prediction match."""
    assert len(model._trees) == len(oracle.roots)
    for tree, root in zip(model._trees, oracle.roots):
        want = np.array(_oracle_preorder(root), dtype=float)
        got = np.column_stack([tree.feature, tree.threshold, tree.value])
        assert np.array_equal(got, want, equal_nan=True)
    for row in range(probes.shape[0]):
        assert np.array_equal(
            model.predict(probes[row : row + 1]), oracle.predict(probes[row : row + 1]),
            equal_nan=True,
        )
    assert np.array_equal(model.predict(probes), oracle.predict(probes), equal_nan=True)


@st.composite
def boosting_problems(draw):
    """Small fits with ties, constant and mirrored columns, constant or NaN targets and
    split-blocking weights."""
    n_samples = draw(st.integers(2, 64), label="n_samples")
    n_features = draw(st.integers(1, 7), label="n_features")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    levels = draw(st.sampled_from([2, 3, 0]), label="levels")  # 0: continuous values
    if levels:
        features = rng.integers(0, levels, size=(n_samples, n_features)).astype(float)
    else:
        features = rng.normal(size=(n_samples, n_features))
    for column in draw(st.sets(st.integers(0, n_features - 1)), label="constant"):
        features[:, column] = 1.5
    if n_features > 1 and draw(st.booleans(), label="mirrored"):
        # The same partition from the other end: equal gains, summed in another order.
        features[:, -1] = -features[:, 0]
    targets = np.round(rng.normal(size=n_samples), draw(st.sampled_from([1, 8])))
    if draw(st.booleans(), label="constant_target"):
        targets[:] = 1.5  # every gain is exactly 0, which must not split
    if draw(st.booleans(), label="nan_target"):
        targets[rng.integers(n_samples)] = np.nan
    params = dict(
        n_estimators=draw(st.integers(1, 8), label="n_estimators"),
        learning_rate=draw(st.sampled_from([0.05, 0.3]), label="learning_rate"),
        max_depth=draw(st.integers(1, 5), label="max_depth"),
        subsample=draw(st.sampled_from([0.5, 0.8, 1.0]), label="subsample"),
        colsample_bytree=draw(st.sampled_from([0.4, 0.6, 1.0]), label="colsample_bytree"),
        reg_alpha=draw(st.sampled_from([0.0, 0.05, 0.5]), label="reg_alpha"),
        reg_lambda=draw(st.sampled_from([0.1, 1.0]), label="reg_lambda"),
        min_child_weight=draw(st.sampled_from([1.0, 3.0, 1e3]), label="min_child_weight"),
        gamma=draw(st.sampled_from([0.0, 0.01, 0.2]), label="gamma"),
        random_state=draw(st.integers(0, 3), label="random_state"),
    )
    probes = np.vstack([features, rng.normal(size=(3, n_features))])
    return features, targets, params, probes


class TestGradientBoostedTreesExact:
    """The 2-D split search and the table walk reproduce the per-column oracle bit for bit."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=boosting_problems())
    def test_matches_per_column_oracle(self, problem):
        features, targets, params, probes = problem
        model = GradientBoostedTrees(**params).fit(features, targets)
        oracle = _OracleEnsemble(params).fit(features, targets)
        assert_same_ensemble(model, oracle, probes)

    @pytest.mark.parametrize("seed", range(4))
    def test_complementary_tied_columns(self, seed):
        """Columns ``x`` and ``1 - x`` of 0/1 values: every split ties across columns.

        Their gains agree up to the order of the tied rows in the prefix sums,
        so only a stable sort and first-column tie-breaking match the oracle.
        """
        rng = np.random.default_rng(seed)
        binary = rng.integers(0, 2, size=(48, 3)).astype(float)
        features = np.hstack([binary, 1.0 - binary])
        targets = np.round(rng.normal(size=48), 1)
        params = GradientBoostedTrees(
            n_estimators=20, max_depth=4, subsample=1.0, colsample_bytree=1.0, random_state=seed
        ).get_params()
        model = GradientBoostedTrees(**params).fit(features, targets)
        oracle = _OracleEnsemble(params).fit(features, targets)
        assert_same_ensemble(model, oracle, features)

    def test_score_predictor_matches_oracle(self, tiny_dataset):
        predictor = ScorePredictor("xgboost", seed=0)
        captured = {}
        fit = predictor.model.fit

        def capturing_fit(features, targets):
            captured.update(features=features, targets=targets)
            return fit(features, targets)

        predictor.model.fit = capturing_fit
        predictor.fit(tiny_dataset)
        oracle = _OracleEnsemble(predictor.model.get_params())
        oracle.fit(captured["features"], captured["targets"])
        assert_same_ensemble(predictor.model, oracle, captured["features"])
        for group_id in tiny_dataset.group_ids():
            samples = tiny_dataset.group(group_id)
            means = predictor.extractor.group_means([s.flat_stats for s in samples])
            vectors = np.asarray([predictor.extractor.vector(s.flat_stats, means) for s in samples])
            want = [float(oracle.predict(vector[None, :])[0]) for vector in vectors]
            assert np.array_equal(predictor.predict_dataset(samples, window="exact"), want)

    def test_one_argsort_per_searched_node(self, monkeypatch):
        """Counts sorts rather than time: a per-column search fails here deterministically.

        The per-column oracle sorts once per sampled column at every node it
        searches; the 2-D pass sorts once per such node, so never more than
        once per node of the fitted trees.
        """
        rng = np.random.default_rng(0)
        features = rng.normal(size=(45, 20))
        targets = features[:, 0] - 2.0 * features[:, 3] + rng.normal(size=45)
        params = GradientBoostedTrees(n_estimators=60, random_state=0).get_params()
        oracle = _OracleEnsemble(params).fit(features, targets)
        calls = {"argsort": 0}
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename == xgboost_module.__file__:
                calls["argsort"] += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        model = GradientBoostedTrees(**params).fit(features, targets)
        per_column_sorts = oracle.searched * int(round(params["colsample_bytree"] * 20))
        assert calls["argsort"] == oracle.searched < per_column_sorts
        assert calls["argsort"] <= sum(tree.value.size for tree in model._trees)
