import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from orgminer import (
    MEASURES,
    CentralityConfig,
    UnlabeledNodesError,
    auc_rank_statistic,
    build_instances,
    centrality_table,
    cross_validate,
    evaluate,
    generate_world,
    hidden_manager_report,
    precision_at_k,
    rank_nodes,
    stratified_folds,
)
from bruteforce import auc_trapezoid
from orgminer.leadership import (
    _ranks,
    accuracy_percent,
    classifier_table_bytes,
    f_measure,
    hidden_table_bytes,
    precision_table_bytes,
)

from conftest import (
    leadership_world_spec, org_members, random_graph, star_graph, two_community_spec,
)


@pytest.fixture(scope="module")
def small_table():
    return centrality_table(random_graph(0, 12, 0.35))


# -- ranking ------------------------------------------------------------------


def test_rank_nodes_descending_score_then_ascending_id(small_table):
    ranked = rank_nodes(small_table, "dg")
    scores = [s for _, s in ranked.entries]
    assert scores == sorted(scores, reverse=True)
    for (u, su), (v, sv) in zip(ranked.entries, ranked.entries[1:]):
        if su == sv:
            assert u < v


def test_rank_nodes_star_center_first():
    table = centrality_table(star_graph(5))
    assert rank_nodes(table, "dg").top(1) == (0,)
    assert rank_nodes(table, "cl").top(1) == (0,)


def test_rank_nodes_unknown_measure(small_table):
    with pytest.raises(KeyError):
        rank_nodes(small_table, "fame")


def test_precision_at_k_hand_case():
    table = centrality_table(star_graph(2))  # ranking: 0 (center), then 1, 2
    ranked = rank_nodes(table, "dg")
    labels = {0: True, 1: False, 2: True}
    assert precision_at_k(ranked, labels, 1) == 1.0
    assert precision_at_k(ranked, labels, 2) == 0.5
    assert precision_at_k(ranked, labels, 3) == pytest.approx(2 / 3)


def test_precision_at_k_requires_labels():
    table = centrality_table(star_graph(2))
    ranked = rank_nodes(table, "dg")
    with pytest.raises(UnlabeledNodesError) as exc:
        precision_at_k(ranked, {0: True}, 2)
    assert "1" in str(exc.value)
    with pytest.raises(ValueError):
        precision_at_k(ranked, {0: True}, 0)
    with pytest.raises(ValueError):
        precision_at_k(ranked, {0: True}, 99)


def test_hidden_manager_report_bookkeeping_identity():
    table = centrality_table(star_graph(4))
    ranked = rank_nodes(table, "dg")
    labels = {0: True, 1: True, 2: False, 3: True, 4: False}
    disclosure = {0: False, 1: True, 3: False}
    report = hidden_manager_report(ranked, labels, disclosure, k=5)
    assert report.managers_in_top_k == 3
    assert report.hidden_count == 2
    assert report.hidden_fraction == pytest.approx(2 / 3)
    # identity: hidden fraction + observed disclosure fraction = 1
    observed = sum(disclosure[v] for v in (0, 1, 3)) / 3
    assert report.hidden_fraction == pytest.approx(1.0 - observed)


def test_hidden_manager_report_no_managers_in_top_k():
    table = centrality_table(star_graph(4))
    ranked = rank_nodes(table, "dg")
    labels = {v: False for v in range(5)}
    report = hidden_manager_report(ranked, labels, {}, k=3)
    assert report.managers_in_top_k == 0
    assert report.hidden_fraction == 0.0


# -- metrics -------------------------------------------------------------------


def test_accuracy_is_in_percent():
    assert accuracy_percent([1, 0, 1, 0], [1, 0, 0, 0]) == 75.0


def test_f_measure_hand_values():
    assert f_measure([1, 1, 0, 0], [1, 0, 1, 0]) == pytest.approx(0.5)
    assert f_measure([1, 1, 0], [0, 0, 0]) == 0.0  # nothing predicted positive
    assert f_measure([0, 0], [0, 0]) == 0.0


def test_auc_rank_statistic_hand_values():
    assert auc_rank_statistic([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert auc_rank_statistic([0.1, 0.2, 0.9], [1, 1, 0]) == 0.0
    assert auc_rank_statistic([4, 3, 2, 1], [1, 0, 1, 0]) == pytest.approx(0.75)
    # all-tied scores: AUC collapses to 0.5 by the tie correction
    assert auc_rank_statistic([5, 5, 5, 5], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_auc_degenerate_labels():
    with pytest.raises(ValueError):
        auc_rank_statistic([1, 2], [1, 1])


# a few distinct values, so most arrays tie heavily
_TIE_VALUES = st.sampled_from(
    (0.0, -0.0, 1.0, 1.0 + 2**-52, -2.5, 1e300, np.inf, -np.inf, np.nan, 7.0)
)


@given(arrays(np.float64, st.integers(0, 40), elements=_TIE_VALUES))
@settings(max_examples=300)
def test_ranks_match_scipy_rankdata(s):
    assert np.array_equal(_ranks(s), scipy.stats.rankdata(s), equal_nan=True)


@given(arrays(np.float64, st.integers(1, 60), elements=st.floats(-3, 3, width=16)))
def test_ranks_match_scipy_rankdata_on_rounded_floats(s):
    assert np.array_equal(_ranks(s), scipy.stats.rankdata(s))


def test_pipeline_runs_without_importing_scipy_stats(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(two_community_spec(3).to_dict()), encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    cfg = f"PipelineConfig(out_dir={str(tmp_path / 'out')!r}, world_spec={str(spec)!r})"
    script = (
        "import sys\n"
        "from orgminer import PipelineConfig, run_pipeline\n"
        f"run_pipeline({cfg})\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip().splitlines()[-1] == "False"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_auc_rank_statistic_matches_trapezoid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    fast = auc_rank_statistic(scores, labels)
    slow = auc_trapezoid(scores, labels)
    assert fast == pytest.approx(slow, abs=1e-9)


# -- folds --------------------------------------------------------------------


@given(
    n_pos=st.integers(min_value=3, max_value=40),
    n_neg=st.integers(min_value=3, max_value=40),
    folds=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=40)
def test_stratified_folds_balance(n_pos, n_neg, folds, seed):
    if n_pos + n_neg < folds:
        return
    y = np.array([1] * n_pos + [0] * n_neg)
    assignment = stratified_folds(y, folds, seed)
    assert assignment.shape == y.shape
    assert set(np.unique(assignment)) <= set(range(folds))
    sizes = np.bincount(assignment, minlength=folds)
    assert sizes.max() - sizes.min() <= 1
    for cls in (0, 1):
        counts = np.bincount(assignment[y == cls], minlength=folds)
        assert counts.max() - counts.min() <= 1


def test_stratified_folds_validation():
    with pytest.raises(ValueError):
        stratified_folds([0, 1], folds=1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds([0, 1], folds=3, seed=0)


def test_stratified_folds_deterministic_per_seed():
    y = [0, 1] * 20
    a = stratified_folds(y, 5, seed=3)
    b = stratified_folds(y, 5, seed=3)
    c = stratified_folds(y, 5, seed=4)
    assert (a == b).all()
    assert not (a == c).all()


# -- cross-validation -----------------------------------------------------------


@pytest.fixture(scope="module")
def world_instances():
    world = generate_world(leadership_world_spec(0, size=160))
    members = org_members(world)
    sub = world.graph.subgraph(members)
    table = centrality_table(sub, CentralityConfig(tol=1e-10, max_iter=100000))
    labels = {v: v in world.truth.managers for v in members}
    return world, table, build_instances(table, labels)


def test_zero_r_cv_exact_values(world_instances):
    _, _, (X, y) = world_instances
    row = cross_validate("zero-r", X, y, folds=10, seed=0)
    majority = max(y.mean(), 1 - y.mean())
    assert row.accuracy == pytest.approx(100.0 * majority, abs=1e-12)
    assert row.f1 == 0.0
    assert row.auc == pytest.approx(0.5, abs=1e-12)
    assert row.folds == 10


def test_informed_classifiers_beat_zero_r(world_instances):
    _, _, (X, y) = world_instances
    zr = cross_validate("zero-r", X, y, folds=10, seed=0)
    for kind in ("logistic", "random-forest", "knn-3"):
        row = cross_validate(kind, X, y, folds=10, seed=0)
        assert row.auc > zr.auc + 0.2, kind


def test_cross_validate_deterministic(world_instances):
    _, _, (X, y) = world_instances
    a = cross_validate("random-forest", X, y, folds=5, seed=7)
    b = cross_validate("random-forest", X, y, folds=5, seed=7)
    assert a == b


def test_evaluate_bundles_everything(world_instances):
    world, table, _ = world_instances
    members = org_members(world)
    labels = {v: v in world.truth.managers for v in members}
    disclosure = {v: world.truth.disclosure[v] for v in members}
    report = evaluate(table, labels, disclosure, kinds=("zero-r", "logistic"),
                      folds=5, seed=1, ks=(10, 20), hidden_k=20)
    assert {r.classifier for r in report.classifier_rows} == {"zero-r", "logistic"}
    assert set(report.precision) == set(table.measures)
    assert report.hidden.measure == "cl"
    assert 0.0 <= report.hidden.hidden_fraction <= 1.0
    for per in report.precision.values():
        assert set(per) == {10, 20}


def test_report_table_emitters(world_instances):
    world, table, _ = world_instances
    members = org_members(world)
    labels = {v: v in world.truth.managers for v in members}
    disclosure = {v: world.truth.disclosure[v] for v in members}
    report = evaluate(table, labels, disclosure, kinds=("zero-r",), folds=5, seed=0,
                      ks=(10, 20), hidden_k=20)
    prec = precision_table_bytes(report.precision).decode()
    assert prec.startswith("measure,p_at_10,p_at_20")
    assert len(prec.strip().splitlines()) == 1 + len(table.measures)
    clf = classifier_table_bytes(report.classifier_rows).decode()
    assert "zero-r" in clf
    hid = hidden_table_bytes(report.hidden).decode()
    assert hid.splitlines()[1].startswith("cl,20,")


def test_build_instances_rejects_nonfinite_features():
    table = centrality_table(random_graph(1, 8, 0.4))
    table.values[0, MEASURES.index("dg")] = float("nan")
    with pytest.raises(ValueError):
        build_instances(table, {v: False for v in table.nodes})


def test_build_instances_shapes(world_instances):
    _, table, (X, y) = world_instances
    assert X.shape == (len(table.nodes), 8)
    assert y.shape == (len(table.nodes),)
    assert set(np.unique(y)) <= {0, 1}
