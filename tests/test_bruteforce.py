"""The oracles themselves need anchors: known closed-form values and
cross-checks between independent routes, so a bug in a reference
computation cannot silently bless the fast path."""

import math

import numpy as np
import pytest
from hypothesis import given

from bruteforce import (
    auc_trapezoid,
    best_partition_bruteforce,
    enumerate_shortest_paths,
    floyd_warshall_distances,
    oracle_betweenness,
    oracle_closeness,
    oracle_communicability,
    oracle_load,
    oracle_pagerank_power,
    oracle_pagerank_solve,
    set_partitions,
)
from orgminer.community import modularity

from conftest import complete_graph, path_graph, random_graph, small_graphs, star_graph


def test_set_partitions_counts_are_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, expected in bell.items():
        assert sum(1 for _ in set_partitions(n)) == expected


def test_set_partitions_yields_independent_lists():
    parts = list(set_partitions(3))
    assert len(set(map(tuple, parts))) == 5  # no aliased duplicates


def test_floyd_warshall_matches_bfs_on_path():
    g = path_graph(4)
    D = floyd_warshall_distances(g)
    assert D[0, 3] == 3 and D[1, 2] == 1 and D[0, 0] == 0


@given(small_graphs())
def test_floyd_warshall_symmetry_and_triangle_inequality(g):
    D = floyd_warshall_distances(g)
    finite = np.isfinite(D)
    assert np.array_equal(D, D.T)
    for k in range(g.num_nodes):
        via = D[:, [k]] + D[[k], :]
        mask = finite & np.isfinite(via)
        assert np.all(D[mask] <= via[mask] + 1e-9)


def test_enumerate_shortest_paths_square():
    # 4-cycle: two geodesics between opposite corners.
    g = random_graph(0, 4, 0.0, force_edge=False)
    g = type(g)(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    paths = sorted(enumerate_shortest_paths(g, 0, 2))
    assert paths == [(0, 1, 2), (0, 3, 2)]


def test_oracle_betweenness_path_anchor():
    bc = oracle_betweenness(path_graph(3))
    assert bc == {0: 0.0, 1: 1.0, 2: 0.0}


def test_oracle_load_equals_betweenness_on_trees():
    # Flow never splits on a tree, so the two notions coincide.
    g = star_graph(4)
    assert oracle_load(g) == pytest.approx(oracle_betweenness(g))


def test_pagerank_power_and_solve_agree():
    g = random_graph(5, 12, 0.3)
    p1 = oracle_pagerank_power(g, damping=0.85)
    p2 = oracle_pagerank_solve(g, damping=0.85)
    v1 = np.array([p1[v] for v in g.nodes])
    v2 = np.array([p2[v] for v in g.nodes])
    assert np.max(np.abs(v1 - v2)) < 1e-10
    assert math.isclose(v1.sum(), 1.0, abs_tol=1e-12)


def test_oracle_closeness_two_disjoint_edges():
    g = type(path_graph(2))(range(4), [(0, 1), (2, 3)])
    cl = oracle_closeness(g)
    # Component of size 2 in a 4-node graph: (1/3) * (1/1) = 1/3.
    assert all(math.isclose(cl[v], 1 / 3) for v in g.nodes)


def test_oracle_communicability_k2():
    cc = oracle_communicability(path_graph(2))
    assert cc[0] == pytest.approx(math.cosh(1.0), abs=1e-12)


def test_best_partition_two_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = type(path_graph(2))(range(6), edges)
    q, part = best_partition_bruteforce(g)
    assert q == pytest.approx(0.5)
    groups = {}
    for v, c in part.items():
        groups.setdefault(c, set()).add(v)
    assert sorted(map(sorted, groups.values())) == [[0, 1, 2], [3, 4, 5]]


def test_best_partition_matches_modularity_function():
    g = random_graph(9, 7, 0.45)
    q, part = best_partition_bruteforce(g)
    assert modularity(g, part) == pytest.approx(q, abs=1e-12)


def test_best_partition_respects_size_cap():
    with pytest.raises(ValueError):
        best_partition_bruteforce(complete_graph(13))


def test_auc_trapezoid_hand_values():
    # Perfect separation, reversal, and a 50/50 tie block.
    assert auc_trapezoid([0.9, 0.8, 0.1], [1, 1, 0]) == pytest.approx(1.0)
    assert auc_trapezoid([0.1, 0.2, 0.9], [1, 1, 0]) == pytest.approx(0.0)
    assert auc_trapezoid([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_auc_trapezoid_known_mixed_case():
    # scores 4,3,2,1 with labels 1,0,1,0: pairs (4>3),(4>1),(2>1) concordant,
    # (2<3) discordant -> AUC = 3/4.
    assert auc_trapezoid([4, 3, 2, 1], [1, 0, 1, 0]) == pytest.approx(0.75)
