"""Gradient-boosted regression trees (Section III-D.4), XGBoost style.

Trees are fitted sequentially on the gradient/hessian statistics of the loss;
splits maximise the regularised gain and leaf weights include L1/L2
regularisation, mirroring XGBoost's objective.  The hyper-parameters exposed
are the ones the paper tunes by grid search: learning rate, maximum depth,
number of trees, row/column subsampling, ``alpha``/``lambda`` regularisation
and the minimum child weight.

Layout.  A fitted :class:`_RegressionTree` is five parallel arrays filled in
preorder (the root is node 0, a node's left subtree follows it directly):
``feature``, ``threshold``, ``left``, ``right`` and ``value``.  A leaf has
``feature == -1`` and points to itself on both sides, so a walk of ``depth``
steps needs no leaf test: ``features[:, -1]`` is a valid column, and either
side of the comparison lands back on the leaf.  After fitting,
:class:`GradientBoostedTrees` pads the trees into ``(n_trees, max_nodes)``
tables and scores every row against every tree in one walk.

Exactness.  The split search handles all sampled columns of a node in one
2-D pass, and the result is bit-identical to searching one column at a time:

* ``argsort(..., axis=0, kind="stable")`` orders each column exactly as the
  stable 1-D sort does, ties by row position;
* ``cumsum(..., axis=0)`` is ``add.accumulate``, which adds sequentially along
  the axis, so each prefix sum is the 1-D running sum bit for bit;
* the gain is elementwise, ``argmax`` per column picks the first maximum (a
  NaN gain wins it and disqualifies the column, as ``NaN > best`` is false),
  and across columns the first column with the largest gain ``> 0`` wins in
  sampling order, which is the strict ``>`` of a column-by-column scan.

Ensemble predictions add ``[base; lr * leaf_values]`` with one
``add.accumulate`` over the tree axis, the same tree-by-tree float order as
adding one tree at a time.
"""

from __future__ import annotations

from typing import List

import numpy as np


class _RegressionTree:
    """A single depth-limited regression tree on gradient statistics."""

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        reg_alpha: float,
        gamma: float,
    ):
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.reg_alpha = reg_alpha
        self.gamma = gamma
        self.feature = np.zeros(0, dtype=np.intp)
        self.threshold = np.zeros(0)
        self.left = np.zeros(0, dtype=np.intp)
        self.right = np.zeros(0, dtype=np.intp)
        self.value = np.zeros(0)
        #: Longest root-to-leaf path; a walk of this many steps reaches every leaf.
        self.depth = 0

    # -- XGBoost leaf weight / gain ----------------------------------------
    def _leaf_weight(self, grad_sum: float, hess_sum: float) -> float:
        if grad_sum > self.reg_alpha:
            numerator = grad_sum - self.reg_alpha
        elif grad_sum < -self.reg_alpha:
            numerator = grad_sum + self.reg_alpha
        else:
            return 0.0
        return -numerator / (hess_sum + self.reg_lambda)

    def _score(self, grad_sum: float, hess_sum: float) -> float:
        weight = self._leaf_weight(grad_sum, hess_sum)
        return -(grad_sum * weight + 0.5 * (hess_sum + self.reg_lambda) * weight**2)

    def _score_vector(self, grad_sums: np.ndarray, hess_sums: np.ndarray) -> np.ndarray:
        """Vectorised node score for arrays of gradient/hessian sums."""
        numerator = np.where(
            grad_sums > self.reg_alpha,
            grad_sums - self.reg_alpha,
            np.where(grad_sums < -self.reg_alpha, grad_sums + self.reg_alpha, 0.0),
        )
        weights = -numerator / (hess_sums + self.reg_lambda)
        return -(grad_sums * weights + 0.5 * (hess_sums + self.reg_lambda) * weights**2)

    # -- construction -----------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray,
    ) -> "_RegressionTree":
        nodes: List[list] = []
        self.depth = 0
        self._build(features[:, feature_indices], gradients, hessians, feature_indices, 0, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)
        return self

    def _build(
        self,
        columns: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        feature_indices: np.ndarray,
        depth: int,
        nodes: List[list],
    ) -> None:
        """Append the subtree on ``columns`` (the sampled columns) to ``nodes`` in preorder.

        Each entry is ``[feature, threshold, left, right, value]``.
        """
        grad_sum = float(gradients.sum())
        hess_sum = float(hessians.sum())
        index = len(nodes)
        node = [-1, 0.0, index, index, self._leaf_weight(grad_sum, hess_sum)]
        nodes.append(node)
        self.depth = max(self.depth, depth)
        if depth >= self.max_depth or columns.shape[0] < 2 or hess_sum < 2 * self.min_child_weight:
            return

        order = np.argsort(columns, axis=0, kind="stable")
        sorted_values = np.take_along_axis(columns, order, axis=0)
        grad_cumulative = np.cumsum(gradients[order], axis=0)[:-1]
        hess_cumulative = np.cumsum(hessians[order], axis=0)[:-1]
        right_grad = grad_sum - grad_cumulative
        right_hess = hess_sum - hess_cumulative
        valid = (
            (np.diff(sorted_values, axis=0) > 1e-12)
            & (hess_cumulative >= self.min_child_weight)
            & (right_hess >= self.min_child_weight)
        )
        gains = (
            self._score_vector(grad_cumulative, hess_cumulative)
            + self._score_vector(right_grad, right_hess)
            - self._score(grad_sum, hess_sum)
            - self.gamma
        )
        gains = np.where(valid, gains, -np.inf)
        positions = np.argmax(gains, axis=0)
        column_gains = gains[positions, np.arange(columns.shape[1])]
        # NaN > 0 is false, so a column whose first maximum is NaN never wins.
        column_gains = np.where(column_gains > 0.0, column_gains, -np.inf)
        best = int(np.argmax(column_gains))
        if not column_gains[best] > 0.0:
            return

        position = positions[best]
        threshold = float(0.5 * (sorted_values[position, best] + sorted_values[position + 1, best]))
        mask = columns[:, best] <= threshold
        node[0] = int(feature_indices[best])
        node[1] = threshold
        node[2] = len(nodes)
        self._build(
            columns[mask], gradients[mask], hessians[mask], feature_indices, depth + 1, nodes
        )
        node[3] = len(nodes)
        self._build(
            columns[~mask], gradients[~mask], hessians[~mask], feature_indices, depth + 1, nodes
        )

    # -- inference ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self.value.size:
            raise RuntimeError("the tree has not been fitted")
        rows = np.arange(features.shape[0])
        nodes = np.zeros(features.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = features[rows, self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return self.value[nodes]


class GradientBoostedTrees:
    """XGBoost-style gradient boosting for regression (squared-error loss)."""

    def __init__(
        self,
        n_estimators: int = 300,
        learning_rate: float = 0.05,
        max_depth: int = 3,
        subsample: float = 0.8,
        colsample_bytree: float = 0.6,
        reg_alpha: float = 0.0,
        reg_lambda: float = 0.1,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
        loss: str = "mse",
        random_state: int = 0,
    ):
        if loss != "mse":
            raise ValueError("gradient boosting is implemented for the mse loss")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.reg_alpha = reg_alpha
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.gamma = gamma
        self.loss = loss
        self.random_state = random_state
        self._trees: List[_RegressionTree] = []
        self._base_prediction = 0.0
        self.n_features_: int = 0

    def get_params(self) -> dict:
        """Hyper-parameters as a dictionary (used by grid search)."""
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "subsample": self.subsample,
            "colsample_bytree": self.colsample_bytree,
            "reg_alpha": self.reg_alpha,
            "reg_lambda": self.reg_lambda,
            "min_child_weight": self.min_child_weight,
            "gamma": self.gamma,
            "loss": self.loss,
            "random_state": self.random_state,
        }

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostedTrees":
        """Fit the boosted ensemble; returns ``self``."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        rng = np.random.default_rng(self.random_state)
        n_samples, n_features = features.shape
        self.n_features_ = n_features
        self._trees = []
        self._base_prediction = float(targets.mean())
        predictions = np.full(n_samples, self._base_prediction)
        hessians = np.ones(n_samples)  # d2/dpred2 of 0.5*(pred-y)^2

        n_columns = max(1, int(round(self.colsample_bytree * n_features)))
        n_rows = max(2, int(round(self.subsample * n_samples)))

        for _ in range(self.n_estimators):
            gradients = predictions - targets  # d/dpred of 0.5*(pred-y)^2
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
            tree = _RegressionTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                reg_alpha=self.reg_alpha,
                gamma=self.gamma,
            ).fit(features[rows], gradients[rows], hessians[rows], columns)
            self._trees.append(tree)
            predictions += self.learning_rate * tree.predict(features)
        self._stack_trees()
        return self

    def _stack_trees(self) -> None:
        """Pad the fitted trees into ``(n_trees, max_nodes)`` tables for :meth:`predict`.

        A walk starts at node 0 and only follows ``left``/``right``, so it
        never reaches the padding.
        """
        width = max((tree.value.size for tree in self._trees), default=0)
        shape = (len(self._trees), width)
        self._feature = np.full(shape, -1, dtype=np.intp)
        self._threshold = np.zeros(shape)
        self._left = np.zeros(shape, dtype=np.intp)
        self._right = np.zeros(shape, dtype=np.intp)
        self._value = np.zeros(shape)
        for t, tree in enumerate(self._trees):
            size = tree.value.size
            self._feature[t, :size] = tree.feature
            self._threshold[t, :size] = tree.threshold
            self._left[t, :size] = tree.left
            self._right[t, :size] = tree.right
            self._value[t, :size] = tree.value
        self._depth = max((tree.depth for tree in self._trees), default=0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features``."""
        if not self._trees:
            raise RuntimeError("the model has not been fitted")
        features = np.asarray(features, dtype=float)
        n_rows = features.shape[0]
        trees = np.arange(len(self._trees))[:, None]
        rows = np.arange(n_rows)[None, :]
        nodes = np.zeros((len(self._trees), n_rows), dtype=np.intp)
        for _ in range(self._depth):
            go_left = features[rows, self._feature[trees, nodes]] <= self._threshold[trees, nodes]
            nodes = np.where(go_left, self._left[trees, nodes], self._right[trees, nodes])
        terms = np.empty((len(self._trees) + 1, n_rows))
        terms[0] = self._base_prediction
        np.multiply(self.learning_rate, self._value[trees, nodes], out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]

    def __repr__(self) -> str:
        return (
            f"GradientBoostedTrees(n_estimators={self.n_estimators}, max_depth={self.max_depth}, "
            f"learning_rate={self.learning_rate})"
        )
