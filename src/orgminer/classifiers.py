"""Small from-scratch binary classifiers with a uniform fit/scores API.

All models work on float feature matrices and 0/1 integer labels.  Every
model exposes real-valued `scores` (higher means more likely class 1) so
the evaluation code can always compute an AUC; `predict` thresholds
those scores into hard labels at one half (`labels`).

When a training fold contains a single class, every model falls back to
majority voting and emits a warning rather than failing.

The decision tree and the random forest grow count-weighted trees (ones
for the tree, bootstrap counts for the forest) into flat node arrays that
score all rows level by level.
"""

from __future__ import annotations

import warnings

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

# the one configuration of the models: the fewest training rows in a one-r
# bin, the logistic model's ridge and cap on Newton steps, and the number
# of trees in a forest. Trees have no depth cap and may split to one row.
_MIN_BUCKET = 6
_RIDGE = 1e-8
_NEWTON_STEPS = 60
_N_TREES = 100


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


# a feature column whose largest |value| passes this enters every model
# scaled by a power of two, so no square or variance overflows
_HUGE = 2.0**500


def _exponents(X: np.ndarray) -> np.ndarray:
    """Per column, the power of two that brings a column past ``_HUGE`` into
    [0.5, 1), and 0 for the rest. ``np.ldexp`` by it is exact away from
    subnormals, so z-scores, orderings and split points keep their bits."""
    peak = np.abs(X).max(axis=0)
    return np.where(peak > _HUGE, -np.frexp(peak)[1], 0)


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
        self._exponents = _exponents(X)
        self._fit(np.ldexp(X, self._exponents), y)
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
        return self._scores(np.ldexp(X, self._exponents))

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

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._rate = float(y.mean())

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self._rate)


class OneR(BaseClassifier):
    """Single best feature, discretized into equal-frequency bins.

    Each bin must hold at least `_MIN_BUCKET` training rows (the classic
    small-bucket guard), the winning feature is the one with the highest
    training accuracy, and ties go to the lower feature index.
    """

    name = "one-r"
    strict_majority = True

    @property
    def feature(self) -> int:
        """Index of the winning feature (valid after fit)."""
        self._require_trained()
        return self._feature

    def _bin_edges(self, values: np.ndarray) -> np.ndarray:
        n = values.shape[0]
        bins = max(1, min(10, n // _MIN_BUCKET))
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


# bytes of the test x train x feature difference tensor KNearest scores at once
_KNN_CHUNK_BYTES = 32 * 2**20


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
        step = max(1, _KNN_CHUNK_BYTES // max(1, self._train.nbytes))  # rows a chunk
        out = np.empty(Z.shape[0])
        for start in range(0, Z.shape[0], step):
            z = Z[start : start + step, None, :]
            d2 = ((z - self._train[None, :, :]) ** 2).sum(axis=2)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            tied = d2 == kth  # ties at the k-th distance fill up to k, lowest rows first
            room = k - (d2 < kth).sum(axis=1, keepdims=True)
            nearest = (d2 < kth) | (tied & (np.cumsum(tied, axis=1) <= room))
            out[start : start + step] = (nearest @ self._labels) / k
        return out


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


class _Trees:
    """CART trees in flat node arrays, one per array of row counts; a row
    counted c times weighs as c copies of it.

    Each feature is sorted once. Growth is depth first, left child first.
    A splittable node draws ``max_features`` candidates from ``rng`` when
    that is below the feature count, scans each over its rows with a
    positive count, and splits at the midpoint of the boundary with the
    best gini gain. Node i sends a row whose
    ``feature[i]`` value is at most ``threshold[i]`` to ``children[i, 0]``,
    any other (NaN too) to ``children[i, 1]``; a leaf is its own child.
    """

    def __init__(self, X, y, counts, max_features, rng) -> None:
        d = X.shape[1]
        n_draw = max_features if max_features is not None and max_features < d else 0
        order = np.argsort(X, axis=0, kind="mergesort").T  # d x n
        every = np.arange(d)
        values = X.T[every[:, None], order]
        feature, threshold, children, rate, roots = [], [], [], [], []
        self.depth = 0

        def best_split(member, tot, pos, features):
            # each candidate feature sees the node's rows in its own order
            keep = member[order[features]]
            sv = values[features][keep].reshape(len(features), -1)
            cum_n = weight[features][keep].reshape(sv.shape).cumsum(axis=1)
            cum_pos = weight_pos[features][keep].reshape(sv.shape).cumsum(axis=1)
            left_n, left_pos = cum_n[:, :-1], cum_pos[:, :-1]
            right_n = tot - left_n
            usable = sv[:, 1:] > sv[:, :-1]
            if not usable.any():
                return None
            p = pos / tot
            lp = left_pos / left_n
            rp = (pos - left_pos) / right_n
            weighted = (
                left_n * 2.0 * lp * (1.0 - lp) + right_n * 2.0 * rp * (1.0 - rp)
            ) / tot
            gain = np.where(usable, 2.0 * p * (1.0 - p) - weighted, -np.inf)
            best, best_gain = None, 1e-12
            for row, j in enumerate(gain.argmax(axis=1)):
                if gain[row, j] > best_gain:
                    best, best_gain = (row, j), gain[row, j]
            if best is None:
                return None
            row, j = best
            cut = float((sv[row, j] + sv[row, j + 1]) / 2.0)
            if cut >= sv[row, j + 1]:  # rounded onto the larger value, which would go left
                cut = float(sv[row, j])
            return int(features[row]), cut, int(cum_n[row, j]), int(cum_pos[row, j])

        def grow(member, tot, pos, depth) -> int:
            i = len(rate)
            rate.append(pos / tot)
            feature.append(0)
            threshold.append(0.0)
            children.append([i, i])
            self.depth = max(self.depth, depth)
            if pos in (0, tot):
                return i
            features = np.sort(rng.choice(d, n_draw, replace=False)) if n_draw else every
            split = best_split(member, tot, pos, features)
            if split is None:
                return i
            feature[i], threshold[i], left_tot, left_pos = split
            left = X[:, feature[i]] <= threshold[i]
            children[i] = [
                grow(member & left, left_tot, left_pos, depth + 1),
                grow(member & ~left, tot - left_tot, pos - left_pos, depth + 1),
            ]
            return i

        for c in counts:
            cy = c * y
            weight, weight_pos = c[order], cy[order]  # read by best_split
            roots.append(grow(c > 0, int(c.sum()), int(cy.sum()), 0))
        arrays = map(np.array, (feature, threshold, children, rate, roots))
        self.feature, self.threshold, self.children, self.rate, self.roots = arrays

    def leaf_rates(self, X: np.ndarray) -> np.ndarray:
        """Trees x rows array of the rate of the leaf each row reaches."""
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        rows = np.arange(X.shape[0])
        for _ in range(self.depth):
            right = ~(X[rows, self.feature[node]] <= self.threshold[node])
            node = self.children[node, right.astype(np.intp)]
        return self.rate[node]


class DecisionTree(BaseClassifier):
    """CART-style binary tree: gini impurity, midpoint thresholds.

    Feature scan order is ascending and improvements must be strict, so
    the tree shape is deterministic for a given training set.
    """

    name = "decision-tree"

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        ones = np.ones(X.shape[0], dtype=np.int64)
        self._trees = _Trees(X, y, [ones], None, None)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return self._trees.leaf_rates(X)[0]


class LogisticRegression(BaseClassifier):
    """Newton-optimized logistic model with a tiny ridge penalty.

    Features are standardized internally; the ridge keeps the Hessian
    invertible on separable folds.
    """

    name = "logistic"

    def _design(self, X: np.ndarray) -> np.ndarray:
        Z = (X - self._mean) / self._std
        return np.hstack([np.ones((Z.shape[0], 1)), Z])

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._mean, self._std = _standardizer(X)
        D = self._design(X)
        beta = np.zeros(D.shape[1])
        for _ in range(_NEWTON_STEPS):
            z = np.clip(D @ beta, -35.0, 35.0)
            p = 1.0 / (1.0 + np.exp(-z))
            w = np.maximum(p * (1.0 - p), 1e-12)
            grad = D.T @ (y - p) - _RIDGE * beta
            hess = (D * w[:, None]).T @ D + _RIDGE * np.eye(D.shape[1])
            step = np.linalg.solve(hess, grad)
            beta = beta + step
            if float(np.max(np.abs(step))) < 1e-10:
                break
        self._beta = beta

    def _scores(self, X: np.ndarray) -> np.ndarray:
        z = np.clip(self._design(X) @ self._beta, -35.0, 35.0)
        return 1.0 / (1.0 + np.exp(-z))


class RandomForest(BaseClassifier):
    """Bagged gini trees with sqrt(d) feature subsampling per split."""

    name = "random-forest"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        # lazy, so each bootstrap is drawn after the previous tree's feature draws
        counts = (
            np.bincount(rng.integers(0, n, size=n), minlength=n)
            for _ in range(_N_TREES)
        )
        max_features = max(1, int(np.sqrt(d)))
        self._trees = _Trees(X, y, counts, max_features, rng)

    def _scores(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(X.shape[0])
        for rates in self._trees.leaf_rates(X):  # summed in tree order
            votes += rates
        return votes / len(self._trees.roots)


def make_classifier(name: str, seed: int = 0) -> BaseClassifier:
    """The model named ``name``, as in CLASSIFIER_NAMES; ``seed`` seeds a forest."""
    fixed = {"zero-r": ZeroR, "one-r": OneR, "gaussian-nb": GaussianNB,
             "decision-tree": DecisionTree, "logistic": LogisticRegression}
    if name in fixed:
        return fixed[name]()
    if name == "random-forest":
        return RandomForest(seed)
    if name.startswith("knn-"):
        try:
            k = int(name.split("-", 1)[1])
        except ValueError:
            raise ClassifierError(f"unknown classifier: {name}") from None
        return KNearest(k)
    raise ClassifierError(f"unknown classifier: {name}")
