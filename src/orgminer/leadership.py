"""Ranking-based and classifier-based detection of management roles.

Two routes to the same question, who holds a leadership position:

* rank nodes by a centrality measure and inspect the top of the list
  (precision@k against known labels, plus accounting of managers who do
  not disclose their position), and
* train small classifiers on the eight centrality values of labeled
  nodes and evaluate them with stratified k-fold cross-validation
  (accuracy as a percentage, F1 on the manager class, tie-corrected
  rank-statistic AUC).

Ties in rankings always break toward the smaller node id so every
report is a pure function of (scores, labels, seed).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .centrality import MEASURES, CentralityError, CentralityTable
from .classifiers import make_classifier
from .graph import table_bytes


class UnlabeledNodesError(ValueError):
    """Raised when a computation needs labels that were not provided."""

    def __init__(self, nodes: Iterable[int]) -> None:
        self.nodes = tuple(sorted(set(nodes)))
        listing = ", ".join(str(v) for v in self.nodes)
        super().__init__(f"labels required for nodes: {listing}")


@dataclass(frozen=True)
class RankedList:
    measure: str
    entries: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, k: int) -> tuple[int, ...]:
        if k < 0 or k > len(self.entries):
            raise ValueError(f"k={k} out of range for list of {len(self.entries)}")
        return tuple(node for node, _ in self.entries[:k])


def rank_nodes(table: CentralityTable, measure: str) -> RankedList:
    """Nodes by descending score, ties toward the smaller node id. A
    measure the table lacks is a ``CentralityError``."""
    if measure not in table.measures:
        raise CentralityError(f"measure {measure!r} not present in table")
    scores = table.values[:, MEASURES.index(measure)]
    nodes = np.array(table.nodes, dtype=np.int64)
    order = np.lexsort((nodes, -scores))
    return RankedList(measure, tuple(zip(nodes[order].tolist(), scores[order].tolist())))


def precision_at_k(ranked: RankedList, labels: Mapping[int, bool], k: int) -> float:
    if k < 1 or k > len(ranked):
        raise ValueError(f"k={k} out of range for list of {len(ranked)}")
    top = ranked.top(k)
    missing = [v for v in top if v not in labels]
    if missing:
        raise UnlabeledNodesError(missing)
    return sum(1 for v in top if labels[v]) / k


@dataclass(frozen=True)
class HiddenManagerReport:
    """Managers in a top-k list, split by whether they disclose the role."""

    measure: str
    k: int
    managers_in_top_k: int
    hidden_count: int

    @property
    def hidden_fraction(self) -> float:
        if self.managers_in_top_k == 0:
            return 0.0
        return self.hidden_count / self.managers_in_top_k


def hidden_manager_report(
    ranked: RankedList,
    manager_labels: Mapping[int, bool],
    disclosure: Mapping[int, bool],
    k: int,
) -> HiddenManagerReport:
    if k < 1 or k > len(ranked):
        raise ValueError(f"k={k} out of range for list of {len(ranked)}")
    top = ranked.top(k)
    missing = [v for v in top if v not in manager_labels]
    if missing:
        raise UnlabeledNodesError(missing)
    managers = [v for v in top if manager_labels[v]]
    missing_disclosure = [v for v in managers if v not in disclosure]
    if missing_disclosure:
        raise UnlabeledNodesError(missing_disclosure)
    hidden = sum(1 for v in managers if not disclosure[v])
    return HiddenManagerReport(ranked.measure, k, len(managers), hidden)


# -- classifier instances and metrics -------------------------------------------


def build_instances(
    table: CentralityTable, manager_labels: Mapping[int, bool]
) -> tuple[np.ndarray, np.ndarray]:
    """The feature rows (MEASURES column order) of the labeled nodes, in
    table order, and their 0/1 manager labels."""
    labeled = [i for i, v in enumerate(table.nodes) if v in manager_labels]
    X = table.feature_matrix()[labeled]
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature for node {table.nodes[labeled[bad[0]]]}")
    y = np.array([bool(manager_labels[table.nodes[i]]) for i in labeled], dtype=np.int64)
    return X, y


def stratified_folds(labels: Sequence[int], folds: int, seed: int) -> np.ndarray:
    """Assign a fold id to every instance, preserving class proportions.

    Each class is shuffled and dealt cyclically; the deal cursor carries
    over between classes so fold sizes also stay within one of each
    other.  Per class, fold counts differ by at most one.
    """
    y = np.asarray(labels)
    n = y.shape[0]
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if n < folds:
        raise ValueError(f"{n} instances cannot fill {folds} folds")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    cursor = 0
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        for j, row in enumerate(idx):
            fold_of[row] = (cursor + j) % folds
        cursor = (cursor + idx.shape[0]) % folds
    return fold_of


def _ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of ``s``, ties given the mean of their ranks; all NaN
    when any score is NaN. The same floats as ``scipy.stats.rankdata``,
    without importing scipy.stats."""
    if np.isnan(s).any():
        return np.full(s.shape[0], np.nan)
    order = np.argsort(s, kind="mergesort")
    sv = s[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    ends = np.append(starts[1:], s.shape[0])
    ranks = np.empty(s.shape[0])
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc_rank_statistic(scores: Sequence[float], labels: Sequence[int]) -> float:
    """AUC as the tie-corrected Mann-Whitney statistic on average ranks."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    positives = int(y.sum())
    negatives = y.shape[0] - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def accuracy_percent(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape[0] == 0:
        raise ValueError("no predictions to score")
    return 100.0 * float((y_true == y_pred).mean())


def f_measure(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 on the manager (positive) class; 0 when nothing positive is predicted."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


@dataclass(frozen=True)
class CrossValidationRow:
    classifier: str
    accuracy: float
    f1: float
    auc: float
    folds: int
    fallback_folds: int


def cross_validate(
    kind: str, X: np.ndarray, y: np.ndarray, folds: int, seed: int
) -> CrossValidationRow:
    """Held-out metrics over a stratified fold split.

    Accuracy and F are pooled counts over all held-out predictions; AUC
    is the mean of per-fold rank AUCs. Per fold, a constant scorer is
    all ties, so its AUC is exactly 0.5; pooling instead would let
    between-fold prevalence differences leak rank information.
    """
    if np.unique(y).size < 2:
        raise ValueError("cross-validation needs both classes present")
    fold_of = stratified_folds(y, folds, seed)
    pooled_pred = np.empty(y.shape[0], dtype=np.int64)
    fallback_folds = 0
    fold_aucs: list[float] = []
    for f in range(folds):
        test = fold_of == f
        train = ~test
        if np.unique(y[train]).size < 2:
            fallback_folds += 1
        model = make_classifier(kind, seed=seed)
        model.fit(X[train], y[train])
        scores = model.scores(X[test])
        pooled_pred[test] = model.labels(scores)
        if np.unique(y[test]).size == 2:
            fold_aucs.append(auc_rank_statistic(scores, y[test]))
    if not fold_aucs:
        raise ValueError(
            "no fold had both classes in its test split; AUC is undefined"
        )
    return CrossValidationRow(
        classifier=kind,
        accuracy=accuracy_percent(y, pooled_pred),
        f1=f_measure(y, pooled_pred),
        auc=float(np.mean(fold_aucs)),
        folds=folds,
        fallback_folds=fallback_folds,
    )


# -- consolidated evaluation ------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    classifier_rows: tuple[CrossValidationRow, ...]
    precision: dict[str, dict[int, float]]
    hidden: HiddenManagerReport


def ranking(
    table: CentralityTable,
    manager_labels: Mapping[int, bool],
    disclosure: Mapping[int, bool],
    ks: Sequence[int],
    hidden_k: int,
) -> tuple[dict[str, dict[int, float]], HiddenManagerReport]:
    """Precision@k per measure, and the hidden managers in the cl top `hidden_k`."""
    precision: dict[str, dict[int, float]] = {}
    for measure in table.measures:
        ranked = rank_nodes(table, measure)
        precision[measure] = {
            k: precision_at_k(ranked, manager_labels, k) for k in ks
        }
    hidden = hidden_manager_report(
        rank_nodes(table, "cl"), manager_labels, disclosure, k=hidden_k
    )
    return precision, hidden


def cross_validate_all(
    table: CentralityTable,
    manager_labels: Mapping[int, bool],
    kinds: Sequence[str],
    folds: int,
    seed: int,
    submit: Callable[..., Callable[[], CrossValidationRow]] = partial,
) -> tuple[CrossValidationRow, ...]:
    """One cross-validation row per kind, in order.
    ``submit(cross_validate, kind, X, y, folds, seed)`` returns a call that
    gives the kind's row; every kind is submitted before any row is asked
    for, so a ``submit`` that starts a job elsewhere runs it beside the
    rest. The default, ``functools.partial``, runs each in turn here."""
    X, y = build_instances(table, manager_labels)
    jobs = [submit(cross_validate, kind, X, y, folds, seed) for kind in kinds]
    return tuple(job() for job in jobs)


def evaluate(
    table: CentralityTable,
    manager_labels: Mapping[int, bool],
    disclosure: Mapping[int, bool],
    kinds: Sequence[str],
    folds: int,
    seed: int,
    ks: Sequence[int],
    hidden_k: int,
    submit: Callable[..., Callable[[], CrossValidationRow]] = partial,
) -> EvalReport:
    """The ranking, then the cross-validation as ``cross_validate_all``
    runs it with ``submit``."""
    precision, hidden = ranking(table, manager_labels, disclosure, ks, hidden_k)
    rows = cross_validate_all(table, manager_labels, kinds, folds, seed, submit)
    return EvalReport(rows, precision, hidden)


def precision_table_bytes(precision: Mapping[str, Mapping[int, float]]) -> bytes:
    ks = sorted({k for per in precision.values() for k in per})
    return table_bytes(
        ["measure", *(f"p_at_{k}" for k in ks)],
        ([m, *(precision[m][k] for k in ks)] for m in MEASURES if m in precision),
    )


def classifier_table_bytes(rows: Sequence[CrossValidationRow]) -> bytes:
    header = ("classifier", "accuracy_pct", "f_measure", "auc", "folds", "fallback_folds")
    return table_bytes(header, map(astuple, rows))


def hidden_table_bytes(report: HiddenManagerReport) -> bytes:
    header = [f.name for f in fields(HiddenManagerReport)] + ["hidden_fraction"]
    return table_bytes(header, [[*astuple(report), report.hidden_fraction]])
