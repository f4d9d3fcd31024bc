"""Small from-scratch binary classifiers with a uniform fit/scores API.

All models work on float feature matrices and 0/1 integer labels.  Every
model exposes real-valued `scores` (higher means more likely class 1) so
the evaluation code can always compute an AUC; `predict` thresholds
those scores into hard labels at one half (`labels`).

When a training fold contains a single class, every model falls back to
majority voting and emits a warning rather than failing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

CLASSIFIER_NAMES = (
    "zero-r",
    "one-r",
    "knn-1",
    "knn-3",
    "knn-10",
    "gaussian-nb",
    "decision-tree",
    "logistic",
    "random-forest",
)


class ClassifierError(ValueError):
    pass


def _check_training(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ClassifierError("feature matrix must be 2-dimensional")
    if y.shape != (X.shape[0],):
        raise ClassifierError("labels must align with feature rows")
    if X.shape[0] == 0:
        raise ClassifierError("cannot fit on an empty training set")
    if not np.isin(y, (0, 1)).all():
        raise ClassifierError("labels must be 0 or 1")
    return X, y


def _standardizer(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


class BaseClassifier:
    name = "base"
    # majority voters (zero-r, one-r) prefer class 0 on an exact one-half tie
    strict_majority = False

    def __init__(self) -> None:
        self._fallback: ZeroR | None = None
        self._trained = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        X, y = _check_training(X, y)
        if np.unique(y).size < 2 and not isinstance(self, ZeroR):
            warnings.warn(
                f"{self.name}: single-class training data, "
                "falling back to majority vote",
                stacklevel=2,
            )
            self._fallback = ZeroR()
            self._fallback.fit(X, y)
            self._trained = True
            return self
        self._fallback = None
        self._fit(X, y)
        self._trained = True
        return self

    def _require_trained(self) -> None:
        if not self._trained:
            raise ClassifierError(f"{self.name}: fit() must run before scoring")

    def scores(self, X: np.ndarray) -> np.ndarray:
        self._require_trained()
        X = np.asarray(X, dtype=np.float64)
        if self._fallback is not None:
            return self._fallback.scores(X)
        return self._scores(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.labels(self.scores(X))

    def labels(self, scores: np.ndarray) -> np.ndarray:
        """Hard 0/1 labels from scores this model computed."""
        model = self if self._fallback is None else self._fallback
        scores = np.asarray(scores)
        above = scores > 0.5 if model.strict_majority else scores >= 0.5
        return above.astype(np.int64)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroR(BaseClassifier):
    """Majority-class baseline; constant score equal to class-1 prevalence."""

    name = "zero-r"
    strict_majority = True

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ZeroR":
        X, y = _check_training(X, y)
        self._fit(X, y)
        self._trained = True
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._rate = float(y.mean())

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self._rate)


class OneR(BaseClassifier):
    """Single best feature, discretized into equal-frequency bins.

    Each bin must hold at least `min_bucket` training rows (the classic
    small-bucket guard), the winning feature is the one with the highest
    training accuracy, and ties go to the lower feature index.
    """

    name = "one-r"
    strict_majority = True

    def __init__(self, min_bucket: int = 6) -> None:
        super().__init__()
        if min_bucket < 1:
            raise ClassifierError("min_bucket must be positive")
        self.min_bucket = min_bucket

    @property
    def feature(self) -> int:
        """Index of the winning feature (valid after fit)."""
        self._require_trained()
        return self._feature

    def _bin_edges(self, values: np.ndarray) -> np.ndarray:
        n = values.shape[0]
        bins = max(1, min(10, n // self.min_bucket))
        if bins == 1:
            return np.empty(0)
        quantiles = np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])
        return np.unique(quantiles)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        best = (-1.0, 0, np.empty(0), np.zeros(1))
        for f in range(X.shape[1]):
            edges = self._bin_edges(X[:, f])
            assigned = np.searchsorted(edges, X[:, f], side="right")
            n_bins = edges.shape[0] + 1
            pos = np.bincount(assigned, weights=y, minlength=n_bins)
            tot = np.bincount(assigned, minlength=n_bins).astype(np.float64)
            overall = float(y.mean())
            rate = np.where(tot > 0, pos / np.where(tot > 0, tot, 1.0), overall)
            majority = (rate > 0.5).astype(np.int64)
            correct = np.where(majority[assigned] == y, 1, 0).sum()
            accuracy = correct / y.shape[0]
            if accuracy > best[0]:
                best = (accuracy, f, edges, rate)
        _, self._feature, self._edges, self._rate = best

    def _apply(self, X: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._edges, X[:, self._feature], side="right")

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self._rate[self._apply(X)]


class KNearest(BaseClassifier):
    """k-nearest neighbours on internally standardized features.

    Neighbour ties at equal distance break toward the lower training row
    index so results do not depend on sort stability.
    """

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise ClassifierError("k must be positive")
        self.k = k
        self.name = f"knn-{k}"

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._mean, self._std = _standardizer(X)
        self._train = (X - self._mean) / self._std
        self._labels = y

    def _scores(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self._mean) / self._std
        k = min(self.k, self._train.shape[0])
        d2 = ((Z[:, None, :] - self._train[None, :, :]) ** 2).sum(axis=2)
        order = np.lexsort((np.arange(d2.shape[1])[None, :].repeat(d2.shape[0], 0), d2))
        nearest = order[:, :k]
        return self._labels[nearest].mean(axis=1)


class GaussianNB(BaseClassifier):
    """Per-feature gaussian likelihoods; score is the class-1 posterior."""

    name = "gaussian-nb"

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._log_prior = np.empty(2)
        self._mean = np.empty((2, X.shape[1]))
        self._var = np.empty((2, X.shape[1]))
        floor = 1e-9 * max(1.0, float(X.var(axis=0).max()))
        for c in (0, 1):
            rows = X[y == c]
            self._log_prior[c] = np.log(rows.shape[0] / X.shape[0])
            self._mean[c] = rows.mean(axis=0)
            self._var[c] = np.maximum(rows.var(axis=0), floor)

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], 2))
        for c in (0, 1):
            ll = -0.5 * (
                np.log(2.0 * np.pi * self._var[c])
                + (X - self._mean[c]) ** 2 / self._var[c]
            ).sum(axis=1)
            out[:, c] = self._log_prior[c] + ll
        return out

    def _scores(self, X: np.ndarray) -> np.ndarray:
        lj = self._log_joint(X)
        shifted = lj - lj.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs[:, 1]


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "rate")

    def __init__(self, rate: float) -> None:
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: "_TreeNode | None" = None
        self.right: "_TreeNode | None" = None
        self.rate = rate


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
) -> tuple[int, float] | None:
    n = rows.shape[0]
    pos_total = float(y[rows].sum())
    p = pos_total / n
    parent_gini = 2.0 * p * (1.0 - p)
    best_gain = 1e-12
    best: tuple[int, float] | None = None
    for f in features:
        values = X[rows, f]
        order = np.argsort(values, kind="mergesort")
        sv = values[order]
        sy = y[rows][order]
        cum_pos = np.cumsum(sy)
        left_n = np.arange(1, n)
        usable = (sv[1:] > sv[:-1]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not usable.any():
            continue
        lp = cum_pos[:-1] / left_n
        rp = (pos_total - cum_pos[:-1]) / (n - left_n)
        weighted = (
            left_n * 2.0 * lp * (1.0 - lp) + (n - left_n) * 2.0 * rp * (1.0 - rp)
        ) / n
        gain = np.where(usable, parent_gini - weighted, -np.inf)
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            # boundary sits between sorted positions idx and idx+1
            best = (int(f), float((sv[idx] + sv[idx + 1]) / 2.0))
    return best


class DecisionTree(BaseClassifier):
    """CART-style binary tree: gini impurity, midpoint thresholds.

    Feature scan order is ascending and improvements must be strict, so
    the tree shape is deterministic for a given training set.
    """

    name = "decision-tree"

    def __init__(
        self,
        max_depth: int | None = None,
        min_leaf: int = 1,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min_leaf < 1:
            raise ClassifierError("min_leaf must be positive")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self._rng = rng

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._root = self._build(X, y, np.arange(X.shape[0]), depth=0)

    def _build(
        self, X: np.ndarray, y: np.ndarray, rows: np.ndarray, depth: int
    ) -> _TreeNode:
        rate = float(y[rows].mean())
        node = _TreeNode(rate)
        if rate in (0.0, 1.0) or rows.shape[0] < 2 * self.min_leaf:
            return node
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        d = X.shape[1]
        if self.max_features is not None and self.max_features < d:
            assert self._rng is not None
            features = np.sort(
                self._rng.choice(d, size=self.max_features, replace=False)
            )
        else:
            features = np.arange(d)
        split = _best_split(X, y, rows, features, self.min_leaf)
        if split is None:
            return node
        node.feature, node.threshold = split
        mask = X[rows, node.feature] <= node.threshold
        node.left = self._build(X, y, rows[mask], depth + 1)
        node.right = self._build(X, y, rows[~mask], depth + 1)
        return node

    def _scores(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            node = self._root
            while node.feature is not None:
                assert node.left is not None and node.right is not None
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.rate
        return out


class LogisticRegression(BaseClassifier):
    """Newton-optimized logistic model with a tiny ridge penalty.

    Features are standardized internally; the ridge keeps the Hessian
    invertible on separable folds.
    """

    name = "logistic"

    def __init__(self, ridge: float = 1e-8, max_iter: int = 60) -> None:
        super().__init__()
        self.ridge = ridge
        self.max_iter = max_iter

    def _design(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self._mean) / self._std
        return np.hstack([np.ones((Z.shape[0], 1)), Z])

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._mean, self._std = _standardizer(X)
        D = self._design(X)
        beta = np.zeros(D.shape[1])
        for _ in range(self.max_iter):
            z = np.clip(D @ beta, -35.0, 35.0)
            p = 1.0 / (1.0 + np.exp(-z))
            w = np.maximum(p * (1.0 - p), 1e-12)
            grad = D.T @ (y - p) - self.ridge * beta
            hess = (D * w[:, None]).T @ D + self.ridge * np.eye(D.shape[1])
            step = np.linalg.solve(hess, grad)
            beta = beta + step
            if float(np.max(np.abs(step))) < 1e-10:
                break
        self._beta = beta

    def _scores(self, X: np.ndarray) -> np.ndarray:
        z = np.clip(self._design(X) @ self._beta, -35.0, 35.0)
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class RandomForest(BaseClassifier):
    """Bagged gini trees with sqrt(d) feature subsampling per split."""

    n_trees: int = 100
    min_leaf: int = 1
    seed: int = 0
    name: str = field(default="random-forest", init=False)

    def __post_init__(self) -> None:
        super().__init__()
        if self.n_trees < 1:
            raise ClassifierError("n_trees must be positive")

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        max_features = max(1, int(np.sqrt(d)))
        self._trees: list[DecisionTree] = []
        for _ in range(self.n_trees):
            rows = rng.integers(0, n, size=n)
            Xb, yb = X[rows], y[rows]
            tree = DecisionTree(
                min_leaf=self.min_leaf, max_features=max_features, rng=rng
            )
            if np.unique(yb).size < 2:
                # degenerate bootstrap; a depth-0 tree still votes its rate
                tree._root = _TreeNode(float(yb.mean()))
                tree._fallback = None
            else:
                tree._fit(Xb, yb)
            self._trees.append(tree)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(X.shape[0])
        for tree in self._trees:
            votes += tree._scores(X)
        return votes / len(self._trees)


def make_classifier(name: str, seed: int = 0) -> BaseClassifier:
    """Instantiate one of CLASSIFIER_NAMES with its default settings."""
    if name == "zero-r":
        return ZeroR()
    if name == "one-r":
        return OneR()
    if name.startswith("knn-"):
        try:
            k = int(name.split("-", 1)[1])
        except ValueError:
            raise ClassifierError(f"unknown classifier: {name}") from None
        return KNearest(k)
    if name == "gaussian-nb":
        return GaussianNB()
    if name == "decision-tree":
        return DecisionTree()
    if name == "logistic":
        return LogisticRegression()
    if name == "random-forest":
        return RandomForest(seed=seed)
    raise ClassifierError(f"unknown classifier: {name}")
