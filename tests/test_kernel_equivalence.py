"""The analysis kernels against straightforward reference versions.

The references are the earlier implementations: trees grown node by node
on a materialized bootstrap with one sort per candidate feature, a full
lexsort for the nearest neighbours, a greedy-modularity heap that holds
every adjacent pair, the world generator's scalar pair decoder and
rejection sampler, a social graph of per-node adjacency sets and an
edge-tuple set, a shortest-path sweep that kept every BFS distance and
one predecessor-count array per level, a centrality table of
per-measure dicts with a ranking sorted in Python, community roles and a
report that walked every member twice, and classifier instances built
as one tuple per node. The kernels must give the same bits.
"""

from __future__ import annotations

import heapq
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import astuple, dataclass, field

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from orgminer import (
    MEASURES,
    CentralityError,
    CentralityTable,
    GraphError,
    Partition,
    Profile,
    RankedList,
    SocialGraph,
    betweenness_centrality,
    build_instances,
    centrality_table,
    classifiers,
    closeness_centrality,
    communicability_centrality,
    community_report,
    degree_centrality,
    eigenvector_centrality,
    hits,
    infer_roles,
    load_centrality,
    pagerank,
    rank_nodes,
)
from orgminer.centrality import _shortest_path_sweep
from orgminer.classifiers import DecisionTree, KNearest, RandomForest
from orgminer.community import (
    CommunityReportRow,
    MergeStep,
    RoleRule,
    _internal_link_counts,
    _majority,
    detect_communities,
    normalize_position,
    report_table_bytes,
)
from orgminer.synthworld import _distinct_indices, _pairs_from_indices, generate_world

from conftest import random_graph, small_graphs, two_community_spec
from test_synthworld import PINNED_WORLDS

# -- reference tree ensembles ------------------------------------------------------


class RefNode:
    def __init__(self, rate: float) -> None:
        self.feature: int | None = None
        self.threshold = 0.0
        self.left: RefNode | None = None
        self.right: RefNode | None = None
        self.rate = rate


def ref_best_split(X, y, rows, features, min_leaf):
    n = rows.shape[0]
    pos_total = float(y[rows].sum())
    p = pos_total / n
    parent_gini = 2.0 * p * (1.0 - p)
    best_gain = 1e-12
    best = None
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
            best = (int(f), float((sv[idx] + sv[idx + 1]) / 2.0))
    return best


def ref_build(X, y, rows, depth, min_leaf, max_depth, max_features, rng):
    rate = float(y[rows].mean())
    node = RefNode(rate)
    if rate in (0.0, 1.0) or rows.shape[0] < 2 * min_leaf:
        return node
    if max_depth is not None and depth >= max_depth:
        return node
    d = X.shape[1]
    if max_features is not None and max_features < d:
        features = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        features = np.arange(d)
    split = ref_best_split(X, y, rows, features, min_leaf)
    if split is None:
        return node
    node.feature, node.threshold = split
    mask = X[rows, node.feature] <= node.threshold
    args = (min_leaf, max_depth, max_features, rng)
    node.left = ref_build(X, y, rows[mask], depth + 1, *args)
    node.right = ref_build(X, y, rows[~mask], depth + 1, *args)
    return node


def ref_tree_scores(root, X):
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = root
        while node.feature is not None:
            node = node.left if X[i, node.feature] <= node.threshold else node.right
        out[i] = node.rate
    return out


def ref_forest_scores(X, y, X_test, n_trees, min_leaf, seed):
    rng = np.random.default_rng(seed)
    n, d = X.shape
    max_features = max(1, int(np.sqrt(d)))
    votes = np.zeros(X_test.shape[0])
    for _ in range(n_trees):
        rows = rng.integers(0, n, size=n)
        Xb, yb = X[rows], y[rows]
        if np.unique(yb).size < 2:
            root = RefNode(float(yb.mean()))
        else:
            root = ref_build(Xb, yb, np.arange(n), 0, min_leaf, None, max_features, rng)
        votes += ref_tree_scores(root, X_test)
    return votes / n_trees


def ref_knn_scores(model: KNearest, X):
    Z = (X - model._mean) / model._std
    k = min(model.k, model._train.shape[0])
    d2 = ((Z[:, None, :] - model._train[None, :, :]) ** 2).sum(axis=2)
    order = np.lexsort((np.arange(d2.shape[1])[None, :].repeat(d2.shape[0], 0), d2))
    return model._labels[order[:, :k]].mean(axis=1)


# -- reference greedy modularity ------------------------------------------------------


def ref_merges(g) -> tuple[MergeStep, ...]:
    m = g.num_edges
    if m == 0:
        return ()
    between = {v: {} for v in g.nodes}
    for u, v in g.edges():
        between[u][v] = 1
        between[v][u] = 1
    degree_sum = {v: g.degree(v) for v in g.nodes}
    version = {v: 0 for v in g.nodes}

    def gain(a, b):
        return between[a][b] / m - degree_sum[a] * degree_sum[b] / (2.0 * m * m)

    heap = [(-gain(u, v), u, v, 0, 0) for u in g.nodes for v in between[u] if u < v]
    heapq.heapify(heap)
    q = -sum((d / (2.0 * m)) ** 2 for d in degree_sum.values())
    merges = []
    while heap:
        neg_dq, a, b, va, vb = heapq.heappop(heap)
        if version.get(a) != va or version.get(b) != vb:
            continue
        dq = -neg_dq
        if dq <= 0.0:
            break
        q += dq
        merges.append(MergeStep(a, b, dq, q))
        degree_sum[a] += degree_sum.pop(b)
        absorbed = between.pop(b)
        mine = between[a]
        mine.pop(b, None)
        for other, count in absorbed.items():
            if other == a:
                continue
            mine[other] = mine.get(other, 0) + count
            between[other].pop(b, None)
            between[other][a] = mine[other]
        version[a] += 1
        del version[b]
        for other in mine:
            x, y = (a, other) if a < other else (other, a)
            heapq.heappush(heap, (-gain(x, y), x, y, version[x], version[y]))
    return tuple(merges)


# -- reference edge sampling -----------------------------------------------------------


def ref_pair_from_index(k: int, n: int) -> tuple[int, int]:
    b = 2 * n - 1
    i = (b - math.isqrt(b * b - 8 * k)) // 2
    while i > 0 and i * (2 * n - i - 1) // 2 > k:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= k:
        i += 1
    start = i * (2 * n - i - 1) // 2
    return i, k - start + i + 1


def ref_distinct_indices(rng: np.random.Generator, total: int, m: int) -> np.ndarray:
    if m >= total:
        return np.arange(total, dtype=np.int64)
    if m > total // 3:
        return rng.permutation(total)[:m]
    chosen: set[int] = set()
    out = np.empty(m, dtype=np.int64)
    filled = 0
    while filled < m:
        draw = rng.integers(0, total, size=m - filled)
        for k in draw:
            key = int(k)
            if key not in chosen:
                chosen.add(key)
                out[filled] = key
                filled += 1
                if filled == m:
                    break
    return out


# -- reference social graph ------------------------------------------------------------


class RefGraph:
    """The set-based graph build: one adjacency set per node, one canonical
    tuple per edge, checked edge by edge in input order."""

    def __init__(self, nodes, edges):
        node_set = {int(v) for v in nodes}
        adj: dict[int, set[int]] = {v: set() for v in node_set}
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u not in adj or v not in adj:
                raise GraphError(f"edge ({u}, {v}) references an unknown node")
            edge_set.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self.nodes = tuple(sorted(node_set))
        self.adj = {v: frozenset(adj[v]) for v in self.nodes}
        self.edges = sorted(edge_set)

    def adjacency_matrix(self) -> sp.csr_array:
        index = {v: i for i, v in enumerate(self.nodes)}
        rows, cols = [], []
        for u, v in self.edges:
            rows += [index[u], index[v]]
            cols += [index[v], index[u]]
        n = len(self.nodes)
        return sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))


# -- data ------------------------------------------------------------------------------

# few distinct values, so rows and values repeat
VALUES = (-3.0, 0.0, 0.25, 1.0, 1.0 + 2**-52, 7.5)


@st.composite
def labeled_rows(draw, max_rows: int = 24):
    n = draw(st.integers(min_value=2, max_value=max_rows))
    d = draw(st.integers(min_value=1, max_value=4))
    cells = draw(st.lists(st.sampled_from(VALUES), min_size=n * d, max_size=n * d))
    X = np.array(cells).reshape(n, d)
    y = np.array(draw(st.lists(st.sampled_from((0, 0, 1)), min_size=n, max_size=n)))
    if np.unique(y).size < 2:
        y[0] ^= 1  # both classes, so no model falls back to majority vote
    test_cells = draw(st.lists(st.sampled_from(VALUES), min_size=d, max_size=8 * d))
    X_test = np.array(test_cells[: len(test_cells) // d * d]).reshape(-1, d)
    return X, y, np.vstack([X, X_test])


@given(labeled_rows(), st.sampled_from((1, 2, 5)), st.sampled_from((None, 1, 3)))
def test_decision_tree_matches_reference(data, min_leaf, max_depth):
    X, y, X_test = data
    tree = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(X, y)
    root = ref_build(X, y, np.arange(X.shape[0]), 0, min_leaf, max_depth, None, None)
    assert np.array_equal(tree.scores(X_test), ref_tree_scores(root, X_test))


@given(labeled_rows(max_rows=12), st.sampled_from((1, 2, 5)), st.integers(0, 1000))
@settings(max_examples=25)
def test_random_forest_matches_reference(data, min_leaf, seed):
    X, y, X_test = data
    forest = RandomForest(n_trees=15, min_leaf=min_leaf, seed=seed).fit(X, y)
    want = ref_forest_scores(X, y, X_test, 15, min_leaf, seed)
    assert np.array_equal(forest.scores(X_test), want)


def test_random_forest_matches_reference_with_single_class_bootstraps():
    # one positive row in five: about a third of the bootstraps miss it
    X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    y = np.array([0, 0, 0, 0, 1])
    forest = RandomForest(n_trees=40, seed=3).fit(X, y)
    assert np.array_equal(forest.scores(X), ref_forest_scores(X, y, X, 40, 1, 3))


@given(labeled_rows(), st.sampled_from((1, 2, 3, 10, 50)))
def test_knn_matches_reference(data, k):
    X, y, X_test = data
    model = KNearest(k).fit(X, y)
    assert np.array_equal(model.scores(X_test), ref_knn_scores(model, X_test))


# 40 training rows x 3 features x 8 bytes: 960 bytes of tensor per test row
@pytest.mark.parametrize("budget", [1, 2000, 5000])
def test_knn_scores_in_chunks_like_one_pass(monkeypatch, budget):
    rng = np.random.default_rng(7)
    X = rng.integers(0, 3, size=(40, 3)).astype(float)
    y = (rng.random(40) < 0.4).astype(int)
    X_test = rng.integers(0, 3, size=(23, 3)).astype(float)
    model = KNearest(5).fit(X, y)
    whole = model.scores(X_test)
    monkeypatch.setattr(classifiers, "_KNN_CHUNK_BYTES", budget)
    assert np.array_equal(model.scores(X_test), whole)
    assert np.array_equal(whole, ref_knn_scores(model, X_test))


# -- edge sampling -----------------------------------------------------------------------


def test_pair_decoder_matches_reference_on_every_index():
    for n in range(61):
        total = n * (n - 1) // 2
        i, j = _pairs_from_indices(np.arange(total, dtype=np.int64), n)
        assert list(zip(i.tolist(), j.tolist())) == [
            ref_pair_from_index(k, n) for k in range(total)
        ]


def _check_row_bounds(n: int, rows: np.ndarray) -> None:
    """Row i's first and last index decode to (i, i + 1) and (i, n - 1), as
    the reference gives at a sample of the rows."""
    starts = rows * (2 * n - rows - 1) // 2
    ends = starts + (n - 2 - rows)
    for ks, cols in ((starts, rows + 1), (ends, np.full_like(rows, n - 1))):
        i, j = _pairs_from_indices(ks, n)
        assert np.array_equal(i, rows) and np.array_equal(j, cols)
    for row, start, end in zip(*(a[::997].tolist() for a in (rows, starts, ends))):
        assert ref_pair_from_index(start, n) == (row, row + 1)
        assert ref_pair_from_index(end, n) == (row, n - 1)


def test_pair_decoder_matches_reference_at_every_row_bound_of_a_huge_triangle():
    n = 2**25
    for lo in range(0, n - 1, 2**14):  # cache-sized blocks
        _check_row_bounds(n, np.arange(lo, min(lo + 2**14, n - 1), dtype=np.int64))


def test_pair_decoder_nudges_rows_the_float_root_misses():
    # at n = 2**28 the float root puts most row ends one row too high
    n = 2**28
    rows = np.r_[0:n - 1:4099, n - 1000:n - 1].astype(np.int64)
    _check_row_bounds(n, rows)


@given(
    st.integers(1, 3000).flatmap(lambda total: st.tuples(st.just(total), st.integers(0, total))),
    st.integers(0, 2**32 - 1),
)
def test_distinct_indices_match_reference(total_m, seed):
    total, m = total_m
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _distinct_indices(rng, total, m)
    want = ref_distinct_indices(ref_rng, total, m)
    assert np.array_equal(got, np.sort(want))  # the same set, ascending
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- greedy modularity -------------------------------------------------------------------


@given(small_graphs(max_nodes=14))
def test_greedy_merges_match_reference(g):
    assert detect_communities(g).merges == ref_merges(g)


def test_greedy_merges_match_reference_on_acceptance_worlds():
    for i in range(50):
        g = random_graph(1000 + i, 4 + (i % 7), (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5])
        assert detect_communities(g).merges == ref_merges(g)
    for seed in range(10):
        for disclosure in (1.0, 0.4):
            world = generate_world(two_community_spec(seed, disclosure=disclosure))
            sub = world.graph.subgraph(sorted(world.truth.all_members()))
            assert detect_communities(sub).merges == ref_merges(sub)


# -- shortest-path sweep ----------------------------------------------------------


def ref_shortest_path_sweep(g: SocialGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep with an int64 distance array, one float32 predecessor-count
    array per level and fresh coefficient arrays per product."""
    n = g.num_nodes
    A = g.adjacency_matrix()
    cl, bc, lc = np.zeros((3, n))
    for start in range(0, n, 256):
        sources = np.arange(start, min(start + 256, n))
        B = len(sources)
        cols = np.arange(B)
        dist = np.full((n, B), -1, dtype=np.int64)
        dist[sources, cols] = 0
        frontier = np.zeros((n, B), dtype=bool)
        frontier[sources, cols] = True
        sigma = np.zeros((n, B))
        sigma[sources, cols] = 1.0
        masks = [frontier]
        # npreds[level]: how many neighbours each node has on level - 1, read
        # on that level's mask; float32 holds these small counts exactly
        npreds = [np.empty(0)]
        while True:
            preds = A @ frontier.astype(np.float64)
            new = (preds > 0) & (dist < 0)
            if not new.any():
                break
            dist[new] = len(masks)
            paths = A @ np.where(frontier, sigma, 0.0)
            np.copyto(sigma, paths, where=new)
            masks.append(new)
            npreds.append(preds.astype(np.float32))
            frontier = new
        finite = dist >= 0
        r = finite.sum(axis=0)  # includes the source itself
        totals = np.where(finite, dist, 0).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cl[sources] = np.where(
                totals > 0,
                ((r - 1) / (n - 1)) * ((r - 1) / np.where(totals > 0, totals, 1)),
                0.0,
            )

        delta = np.zeros((n, B))
        flow = np.where(dist > 0, 1.0, 0.0)  # one packet per reachable target
        initial = flow.copy()
        for level in range(len(masks) - 1, 0, -1):
            mask = masks[level]
            prev = masks[level - 1]
            coeff = np.zeros((n, B))
            np.divide(1.0 + delta, sigma, out=coeff, where=mask)
            contrib = A @ coeff
            np.add(delta, contrib * sigma, out=delta, where=prev)
            coeff = np.zeros((n, B))
            np.divide(flow, npreds[level], out=coeff, where=mask)
            contrib = A @ coeff
            np.add(flow, contrib, out=flow, where=prev)
        delta[sources, cols] = 0.0
        bc += delta.sum(axis=1)
        through = flow - initial
        through[sources, cols] = 0.0
        lc += through.sum(axis=1)
    if n < 3:
        return cl, np.zeros(n), np.zeros(n)
    bc /= 2.0  # each unordered pair was accumulated from both endpoints
    bc /= (n - 1) * (n - 2) / 2.0
    lc /= (n - 1) * (n - 2)  # ordered pairs
    return cl, bc, lc


@st.composite
def sweep_graphs(draw):
    """Up to four random components, some isolated nodes, at small sizes and
    at sizes around the 256-source block."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from((255, 256, 257, 600))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    component = rng.integers(0, draw(st.integers(1, 4)), size=n)
    component[: draw(st.integers(0, min(5, n - 1)))] = -1  # isolated
    degree = draw(st.sampled_from((0.5, 2.0, 6.0, 30.0)))
    u, v = np.triu_indices(n, 1)
    same = (component[u] == component[v]) & (component[u] >= 0)
    keep = same & (rng.random(u.size) < degree / n)
    return SocialGraph(range(n), np.column_stack((u[keep], v[keep])))


def _assert_sweeps_equal(g):
    for got, want in zip(_shortest_path_sweep(g), ref_shortest_path_sweep(g)):
        assert np.array_equal(got, want)


@given(sweep_graphs())
def test_shortest_path_sweep_matches_reference(g):
    _assert_sweeps_equal(g)


def test_shortest_path_sweep_matches_reference_on_acceptance_worlds():
    for i in range(50):
        _assert_sweeps_equal(
            random_graph(1000 + i, 4 + (i % 7), (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5])
        )
    for seed in range(10):
        for disclosure in (1.0, 0.4):
            world = generate_world(two_community_spec(seed, disclosure=disclosure))
            _assert_sweeps_equal(world.graph)
            _assert_sweeps_equal(world.graph.subgraph(sorted(world.truth.all_members())))


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shortest_path_sweep_peak_is_at_most_60_percent_of_the_reference():
    g = random_graph(7, 600, 0.02)
    g.adjacency_matrix()  # built once and cached, outside both traces
    assert _traced_peak(_shortest_path_sweep, g) <= 0.6 * _traced_peak(ref_shortest_path_sweep, g)


# -- social graph ------------------------------------------------------------------------


@st.composite
def edge_lists(draw):
    """Node ids (negative ones too) and edges between them, with duplicates
    in both orientations; sometimes a self-loop or an unknown endpoint
    spliced in; as Python ints, numpy ints or one ndarray."""
    nodes = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=14, unique=True))
    known = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(known, known).filter(lambda e: e[0] != e[1]), max_size=30))
    if edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=5))]
    unknown = st.integers(-40, 40).filter(lambda x: x not in nodes)
    loop = lambda v: (v, v)  # noqa: E731
    bad = st.one_of(known.map(loop), unknown.map(loop),
                    st.tuples(known, unknown), st.tuples(unknown, known))
    for at, e in draw(st.lists(st.tuples(st.integers(0, len(edges)), bad), max_size=2)):
        edges.insert(at, e)
    form = draw(st.sampled_from(("python", "numpy", "ndarray")))
    if form == "numpy":
        edges = [(np.int64(u), np.int32(v)) for u, v in edges]
    elif form == "ndarray":
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return nodes + nodes[:2], edges  # repeated node ids collapse too


@given(edge_lists())
@settings(max_examples=200)
def test_graph_matches_set_based_reference(data):
    nodes, edges = data
    try:
        ref = RefGraph(nodes, edges)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            SocialGraph(nodes, edges)
        assert str(got.value) == str(exc)
        return
    g = SocialGraph(nodes, edges)
    assert g.nodes == ref.nodes
    assert g.edges() == ref.edges
    assert g.num_edges == len(ref.edges)
    assert all(g.neighbors(v) == ref.adj[v] for v in ref.nodes)
    assert all(g.sorted_neighbors(v) == tuple(sorted(ref.adj[v])) for v in ref.nodes)
    assert g.degree_sequence() == tuple(len(ref.adj[v]) for v in ref.nodes)
    probe = range(min(ref.nodes) - 1, max(ref.nodes) + 2)
    assert all(g.has_edge(u, v) == (v in ref.adj.get(u, ())) for u in probe for v in probe)
    got, want = g.adjacency_matrix(), ref.adjacency_matrix()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))
        assert getattr(got, part).dtype == getattr(want, part).dtype
    keep = ref.nodes[::2]
    sub = g.subgraph(keep)
    assert sub == SocialGraph(keep, [(u, v) for u, v in ref.edges if u in keep and v in keep])


def test_crawl_sized_world_graph_holds_under_half_the_set_based_memory():
    # The 20,000-node world of the crawl benchmark, seed 1 (86,902 edges).
    # Built from these inputs, the set-based graph held 23.3 MB: a frozenset
    # per node, a tuple per edge and a set of them, a node index and the
    # profile map. The CSR graph holds about 3 MB.
    world = generate_world(PINNED_WORLDS["crawl-20k"][0])
    nodes, edges, profiles = world.graph.nodes, world.graph.edges(), world.graph.profiles
    assert len(edges) == 86902
    del world
    tracemalloc.start()
    try:
        g = SocialGraph(nodes, edges, profiles)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == len(edges)
    assert live < 23.3e6 / 2


# -- centrality table ------------------------------------------------------------------


@dataclass
class RefTable:
    """The table as one dict of node -> score per measure, the hub vector as
    a dict, and a feature matrix rebuilt column by column on each call."""

    nodes: tuple[int, ...]
    scores: dict[str, dict[int, float]]
    hub_scores: dict[int, float] | None = None
    failures: dict[str, str] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(m for m in MEASURES if m in self.scores)

    def feature_matrix(self) -> np.ndarray:
        if self.failures:
            raise CentralityError(f"table is partial; failed measures: {sorted(self.failures)}")
        out = np.empty((len(self.nodes), len(MEASURES)))
        for j, measure in enumerate(MEASURES):
            column = self.scores[measure]
            out[:, j] = [column[v] for v in self.nodes]
        return out

    def to_csv_bytes(self) -> bytes:
        columns = list(self.measures)
        header = ["node"] + columns + (["hits_hub"] if self.hub_scores else [])
        lines = [",".join(header)]
        for v in self.nodes:
            row = [str(v)] + [repr(self.scores[m][v]) for m in columns]
            if self.hub_scores:
                row.append(repr(self.hub_scores[v]))
            lines.append(",".join(row))
        iteration_notes = self.provenance.get("iterations", {})
        if iteration_notes:
            noted = " ".join(f"{m}={iteration_notes[m]}" for m in sorted(iteration_notes))
            lines.append(f"# iterations: {noted}")
        for measure in sorted(self.failures):
            lines.append(f"# failed: {measure}: {self.failures[measure]}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_csv_bytes(cls, data: bytes) -> "RefTable":
        lines = [ln for ln in data.decode("utf-8").splitlines() if ln.strip() and not ln.startswith("#")]
        header = lines[0].split(",")
        measure_cols = [h for h in header[1:] if h != "hits_hub"]
        nodes = []
        scores: dict[str, dict[int, float]] = {m: {} for m in measure_cols}
        hub: dict[int, float] = {}
        for line in lines[1:]:
            cells = line.split(",")
            v = int(cells[0])
            nodes.append(v)
            for name, cell in zip(header[1:], cells[1:]):
                if name == "hits_hub":
                    hub[v] = float(cell)
                else:
                    scores[name][v] = float(cell)
        failures = {m: "absent from table" for m in MEASURES if m not in measure_cols}
        return cls(tuple(nodes), scores, hub or None, failures)


def ref_rank_nodes(table: RefTable, measure: str) -> RankedList:
    scores = table.scores[measure]
    ordered = sorted(((v, scores[v]) for v in table.nodes), key=lambda ns: (-ns[1], ns[0]))
    return RankedList(measure, tuple((int(n), float(s)) for n, s in ordered))


def ref_centrality_table(g: SocialGraph, measures, provenance: dict) -> RefTable:
    """Each measure from its public dict-valued function, at the defaults."""
    solvers = {
        "dg": degree_centrality, "cl": closeness_centrality,
        "bc": betweenness_centrality, "hits": hits, "pr": pagerank,
        "ec": eigenvector_centrality, "cc": communicability_centrality,
        "lc": load_centrality,
    }
    table = RefTable(g.nodes, {}, provenance=provenance)
    for measure in (m for m in MEASURES if m in measures):
        try:
            result = solvers[measure](g)
        except CentralityError as exc:
            table.failures[measure] = str(exc)
        else:
            if measure == "hits":
                table.scores["hits"], table.hub_scores = result
            else:
                table.scores[measure] = result
    return table


def _exact(ranked: RankedList) -> list[tuple[int, str]]:
    return [(type(n).__name__ + str(n), s.hex()) for n, s in ranked.entries]  # keeps -0.0


def _assert_tables_agree(table: CentralityTable, ref: RefTable) -> None:
    assert table.nodes == ref.nodes
    assert table.measures == ref.measures
    assert table.failures == ref.failures
    assert table.hub_scores == ref.hub_scores
    assert table.to_csv_bytes() == ref.to_csv_bytes()
    for measure in table.measures:
        assert _exact(rank_nodes(table, measure)) == _exact(ref_rank_nodes(ref, measure))
    try:
        want = ref.feature_matrix()
    except (CentralityError, KeyError):
        with pytest.raises(CentralityError):
            table.feature_matrix()
    else:
        assert table.feature_matrix().tobytes() == want.tobytes()


@given(small_graphs(max_nodes=10), st.sets(st.sampled_from(MEASURES), min_size=1))
@example(SocialGraph(range(4), []), set(MEASURES))  # edgeless: ec fails
@example(SocialGraph(range(5), [(0, 1), (2, 3)]), set(MEASURES))  # tied scores
def test_centrality_table_matches_dict_reference(g, measures):
    table = centrality_table(g, measures=measures)
    ref = ref_centrality_table(g, measures, {"iterations": table.provenance["iterations"]})
    _assert_tables_agree(table, ref)
    data = table.to_csv_bytes()
    _assert_tables_agree(CentralityTable.from_csv_bytes(data), RefTable.from_csv_bytes(data))


@st.composite
def tied_tables(draw):
    """Dict tables over unordered node ids whose scores come from a pool of
    six values, -0.0 and 0.0 among them, so most ranks are decided by ties."""
    nodes = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True))
    measures = draw(st.sets(st.sampled_from(MEASURES), min_size=1))
    pool = st.sampled_from((0.0, -0.0, 1.0, 0.5, -2.5, 5e-324))
    scores = {m: {v: draw(pool) for v in nodes} for m in measures}
    hub = {v: draw(pool) for v in nodes} if draw(st.booleans()) else None
    return RefTable(tuple(nodes), scores, hub)


@given(tied_tables())
@example(RefTable((3, 1, 2), {m: {3: 0.0, 1: -0.0, 2: 0.0} for m in MEASURES}, None))
def test_table_read_from_csv_matches_dict_reference(ref):
    data = ref.to_csv_bytes()
    _assert_tables_agree(CentralityTable.from_csv_bytes(data), RefTable.from_csv_bytes(data))


# -- community roles and report ----------------------------------------------------


@dataclass(frozen=True)
class RefRole:
    community: int
    size: int
    internal_links: int
    position: str | None
    position_support: float
    location: str | None
    location_support: float
    manager_count: int
    low_confidence: bool


def ref_infer_roles(g, partition, manager_labels=None, min_support=0.3, min_labeled=3,
                    rules=None):
    links = _internal_link_counts(g, partition.assignment)
    out = []
    for comm, members in partition.communities().items():
        position_votes: Counter[str] = Counter()
        position_voters = 0
        location_votes: Counter[str] = Counter()
        managers = 0
        for v in members:
            profile = g.profile(v)
            if profile is None:
                continue
            if manager_labels is not None and v in manager_labels:
                managers += 1 if manager_labels[v] else 0
            elif profile.is_manager:
                managers += 1
            if profile.position is not None:
                position_voters += 1
                category = normalize_position(profile.position, rules)
                if category is not None:
                    position_votes[category] += 1
            if profile.location is not None:
                location_votes[profile.location] += 1
        position, position_count = _majority(position_votes)
        location, location_count = _majority(location_votes)
        location_voters = sum(location_votes.values())
        position_support = position_count / position_voters if position_voters else 0.0
        location_support = location_count / location_voters if location_voters else 0.0
        low_confidence = (
            position_voters < min_labeled
            or position_support < min_support
            or location_voters < min_labeled
            or location_support < min_support
        )
        out.append(RefRole(comm, len(members), links.get(comm, 0), position, position_support,
                           location, location_support, managers, low_confidence))
    return out


def ref_community_report(g, partition, roles, rules=None):
    role_by_comm = {role.community: role for role in roles}
    links = _internal_link_counts(g, partition.assignment)
    rows = []
    for comm, members in partition.communities().items():
        disclosed = 0
        classified = 0
        for v in members:
            profile = g.profile(v)
            if profile is None or profile.position is None:
                continue
            disclosed += 1
            if normalize_position(profile.position, rules) is not None:
                classified += 1
        role = role_by_comm.get(comm)
        if role is None or role.low_confidence or role.position is None:
            description = "unclassified (low confidence)"
        else:
            where = role.location if role.location is not None else "unknown location"
            description = f"{role.position} / {where}"
        rows.append(CommunityReportRow(comm, len(members), links.get(comm, 0), disclosed,
                                       classified, description))
    return tuple(rows)


def _assert_roles_agree(g, partition, rules=None) -> None:
    roles = infer_roles(g, partition, rules)
    ref_roles = ref_infer_roles(g, partition, rules=rules)
    assert [
        (r.community, r.size, r.internal_links, r.position, r.position_support,
         r.location, r.location_support, r.low_confidence) for r in roles
    ] == [astuple(r)[:7] + (r.low_confidence,) for r in ref_roles]
    rows, ref_rows = community_report(roles), ref_community_report(g, partition, ref_roles, rules)
    assert rows == ref_rows
    assert report_table_bytes(rows) == report_table_bytes(ref_rows)


_POSITIONS = (None, "software engineer", "Sales Manager", "account  executive", "cook",
              "Head of Support", "intern", "  senior   ENGINEER ")
_LOCATIONS = (None, "east", "west", "north, annex")
_CUSTOM_RULES = (RoleRule("Kitchen", ("cook", "chef")), RoleRule("Eng", ("engineer",)))


@st.composite
def profiled_partitions(draw):
    """A graph whose nodes may carry a profile with a position and a location
    from small pools, cut into up to four communities of arbitrary ids."""
    g = draw(small_graphs(max_nodes=14))
    profiles = {}
    for v in g.nodes:
        if draw(st.booleans()):
            position = draw(st.sampled_from(_POSITIONS))
            profiles[v] = Profile(node=v, position=position,
                                  location=draw(st.sampled_from(_LOCATIONS)))
    ids = draw(st.lists(st.integers(-5, 50), min_size=1, max_size=4, unique=True))
    assignment = {v: draw(st.sampled_from(ids)) for v in g.nodes}
    rules = draw(st.sampled_from((None, _CUSTOM_RULES)))
    return g.with_profiles(profiles), Partition(assignment, 0.0), rules


@given(profiled_partitions())
def test_community_report_matches_two_pass_reference(case):
    _assert_roles_agree(*case)


def test_community_report_matches_two_pass_reference_on_acceptance_worlds():
    for seed in range(10):
        for disclosure in (1.0, 0.4):
            world = generate_world(two_community_spec(seed, disclosure=disclosure))
            sub = world.graph.subgraph(sorted(world.truth.all_members()))
            _assert_roles_agree(sub, detect_communities(sub))


# -- classifier instances ----------------------------------------------------------


@dataclass(frozen=True)
class RefInstance:
    node: int
    features: tuple[float, ...]
    is_manager: bool


def ref_build_instances(table, manager_labels) -> list[RefInstance]:
    out = []
    for node, row in zip(table.nodes, table.feature_matrix().tolist()):
        if node not in manager_labels:
            continue
        if not all(map(math.isfinite, row)):
            raise ValueError(f"non-finite feature for node {node}")
        out.append(RefInstance(node, tuple(row), bool(manager_labels[node])))
    return out


def ref_instances_to_arrays(instances) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([inst.features for inst in instances], dtype=np.float64)
    y = np.array([1 if inst.is_manager else 0 for inst in instances], dtype=np.int64)
    return X, y


def _assert_instances_agree(table: CentralityTable, labels) -> None:
    try:
        ref = ref_build_instances(table, labels)
    except (CentralityError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            build_instances(table, labels)
        return
    want_X, want_y = ref_instances_to_arrays(ref)
    X, y = build_instances(table, labels)
    if ref:  # the reference has no columns when no node is labeled
        assert X.dtype == want_X.dtype and X.shape == want_X.shape
        assert X.tobytes() == want_X.tobytes()
    else:
        assert X.shape == (0, len(MEASURES))
    assert y.dtype == want_y.dtype and np.array_equal(y, want_y)


@st.composite
def labelings(draw, nodes):
    """Labels for a random subset of ``nodes``, with ids outside it too."""
    labeled = draw(st.lists(st.sampled_from(nodes), unique=True)) if nodes else []
    labels = {v: draw(st.booleans()) for v in labeled}
    labels.update({10**6 + i: True for i in range(draw(st.integers(0, 2)))})
    return labels


@given(small_graphs(max_nodes=10), st.data())
@example(SocialGraph(range(4), []), None)  # edgeless: ec fails, no matrix
def test_build_instances_matches_tuple_reference(g, data):
    table = centrality_table(g)
    labels = {v: True for v in g.nodes} if data is None else data.draw(labelings(g.nodes))
    _assert_instances_agree(table, labels)


@st.composite
def full_tables_from_csv(draw):
    """Tables read back from CSV with every measure, scores from a pool with
    -0.0, the smallest subnormal and, now and then, a non-finite value."""
    nodes = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=10, unique=True))
    pool = (0.0, -0.0, 1.0, 0.5, -2.5, 5e-324)
    if draw(st.booleans()):
        pool += (math.inf, math.nan)
    scores = {m: {v: draw(st.sampled_from(pool)) for v in nodes} for m in MEASURES}
    data = RefTable(tuple(nodes), scores).to_csv_bytes()
    return CentralityTable.from_csv_bytes(data)


@given(full_tables_from_csv(), st.data())
def test_build_instances_from_csv_matches_tuple_reference(table, data):
    _assert_instances_agree(table, data.draw(labelings(list(table.nodes))))
