import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orgminer.classifiers import (
    CLASSIFIER_NAMES,
    ClassifierError,
    DecisionTree,
    GaussianNB,
    KNearest,
    LogisticRegression,
    OneR,
    RandomForest,
    ZeroR,
    make_classifier,
)


def blob_data(seed: int, n: int = 120, gap: float = 3.0):
    """Two well-separated Gaussian blobs; label 1 sits at +gap."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(0.0, 1.0, size=(half, 2))
    X1 = rng.normal(gap, 1.0, size=(n - half, 2))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return X[order], y[order]


def test_factory_knows_every_name():
    for name in CLASSIFIER_NAMES:
        clf = make_classifier(name, seed=1)
        assert clf.name == name
    with pytest.raises(ClassifierError):
        make_classifier("svm")


def test_fit_rejects_bad_shapes_and_labels():
    clf = ZeroR()
    with pytest.raises(ClassifierError):
        clf.fit(np.zeros(4), np.zeros(4))  # X must be 2-D
    with pytest.raises(ClassifierError):
        clf.fit(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ClassifierError):
        clf.fit(np.zeros((4, 2)), np.array([0, 1, 2, 1]))


def test_scores_before_fit_rejected():
    with pytest.raises(ClassifierError):
        ZeroR().scores(np.zeros((2, 2)))


def test_zero_r_constant_prevalence():
    X = np.zeros((5, 1))
    y = np.array([1, 1, 0, 1, 0])
    clf = ZeroR().fit(X, y)
    assert clf.scores(np.zeros((3, 1))) == pytest.approx([0.6, 0.6, 0.6])
    assert clf.predict(np.zeros((3, 1))).tolist() == [1, 1, 1]


def test_one_r_picks_the_informative_feature():
    rng = np.random.default_rng(0)
    n = 200
    informative = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(5, 1, n // 2)])
    noise = rng.normal(0, 1, n)
    X = np.column_stack([noise, informative])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    clf = OneR().fit(X, y)
    assert clf.feature == 1
    preds = clf.predict(X)
    assert (preds == y).mean() > 0.9


def test_knn_memorizes_training_points():
    X, y = blob_data(1)
    clf = KNearest(1).fit(X, y)
    assert (clf.predict(X) == y).all()


def test_knn_ties_break_deterministically():
    # Two training points equidistant from the query, opposite labels:
    # the lower row index wins, so the score is that neighbor's label.
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    clf = KNearest(1).fit(X, y)
    assert clf.scores(np.array([[1.0]]))[0] == pytest.approx(1.0)


def test_gaussian_nb_separates_blobs():
    X, y = blob_data(2)
    clf = GaussianNB().fit(X, y)
    assert (clf.predict(X) == y).mean() > 0.95
    s = clf.scores(X)
    assert np.all((0.0 <= s) & (s <= 1.0))


def test_gaussian_nb_handles_zero_variance_feature():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    clf = GaussianNB().fit(X, y)  # constant column must not divide by zero
    assert np.isfinite(clf.scores(X)).all()


def test_decision_tree_fits_interval_concept():
    # y = 1 only inside (0.3, 0.7): needs two chained splits on one feature.
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = ((X[:, 0] > 0.3) & (X[:, 0] < 0.7)).astype(int)
    clf = DecisionTree().fit(X, y)
    assert (clf.predict(X) == y).all()


def test_decision_tree_splits_between_adjacent_doubles():
    lo, hi = 1.0 + 2**-52, 1.0 + 2**-51  # their midpoint rounds up to hi
    X = np.array([[lo], [lo], [hi], [hi]])
    y = np.array([0, 0, 1, 1])
    assert DecisionTree().fit(X, y).scores(X).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_decision_tree_is_deterministic():
    X, y = blob_data(3)
    s1 = DecisionTree().fit(X, y).scores(X)
    s2 = DecisionTree().fit(X, y).scores(X)
    assert s1 == pytest.approx(s2, abs=0.0)


def test_logistic_matches_closed_form_on_balanced_symmetric_data():
    X, y = blob_data(4, n=400, gap=6.0)
    clf = LogisticRegression().fit(X, y)
    assert (clf.predict(X) == y).mean() > 0.99
    s = clf.scores(X)
    assert np.all((s > 0.0) & (s < 1.0))  # clipped sigmoid never saturates to 0/1


def test_random_forest_seeded_reproducibility():
    X, y = blob_data(5)
    a = RandomForest(seed=9).fit(X, y).scores(X)
    b = RandomForest(seed=9).fit(X, y).scores(X)
    c = RandomForest(seed=10).fit(X, y).scores(X)
    assert a == pytest.approx(b, abs=0.0)
    assert not np.allclose(a, c)  # different seed, different bootstrap


def test_random_forest_beats_coin_flip():
    X, y = blob_data(6)
    clf = RandomForest(seed=0).fit(X, y)
    assert (clf.predict(X) == y).mean() > 0.95


def test_single_class_training_falls_back_to_zero_r():
    X = np.zeros((4, 2))
    y = np.ones(4, dtype=int)
    for name in CLASSIFIER_NAMES:
        clf = make_classifier(name, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clf.fit(X, y)
        if name != "zero-r":
            assert any("single-class" in str(w.message) for w in caught)
        assert clf.scores(X) == pytest.approx([1.0] * 4)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=15)
def test_all_classifiers_score_in_unit_interval(seed):
    X, y = blob_data(seed, n=60)
    for name in CLASSIFIER_NAMES:
        clf = make_classifier(name, seed=0).fit(X, y)
        s = clf.scores(X)
        assert s.shape == (60,)
        assert np.all((0.0 <= s) & (s <= 1.0)), name
