import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgminer import (
    CentralityConfig,
    CentralityError,
    CentralityTable,
    ConvergenceError,
    GraphError,
    MEASURES,
    SocialGraph,
    betweenness_centrality,
    centrality_table,
    closeness_centrality,
    communicability_centrality,
    degree_centrality,
    load_centrality,
)
from orgminer import centrality
from bruteforce import (
    oracle_betweenness,
    oracle_closeness,
    oracle_communicability,
    oracle_degree,
    oracle_eigenvector,
    oracle_hits,
    oracle_load,
    oracle_pagerank_solve,
)

from conftest import (
    complete_graph,
    connected_graphs,
    path_graph,
    random_graph,
    small_graphs,
    star_graph,
)


def cycle_graph(n: int) -> SocialGraph:
    return SocialGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def as_vector(scores: dict[int, float], g: SocialGraph) -> np.ndarray:
    return np.array([scores[v] for v in g.nodes])


def solve(g: SocialGraph, measure: str) -> np.ndarray:
    """One measure's column of the table, at a tight tolerance."""
    table = centrality_table(g, CentralityConfig(tol=1e-12), measures=(measure,))
    assert not table.failures
    return table.values[:, MEASURES.index(measure)]


# -- hand anchors ---------------------------------------------------------------


def test_path3_closeness_anchor():
    cl = closeness_centrality(path_graph(3))
    assert cl[1] == pytest.approx(1.0)
    assert cl[0] == pytest.approx(2 / 3)
    assert cl[2] == pytest.approx(2 / 3)


def test_path3_betweenness_anchor():
    assert betweenness_centrality(path_graph(3)).tolist() == [0.0, 1.0, 0.0]


def test_k2_communicability_is_cosh_one():
    cc = communicability_centrality(path_graph(2))
    assert cc[0] == pytest.approx(math.cosh(1.0), abs=1e-6)
    assert cc[1] == pytest.approx(math.cosh(1.0), abs=1e-6)


def test_triangle_communicability_closed_form():
    # Eigenvalues of K3 are (2, -1, -1); each diagonal entry of expm is
    # (e^2 + 2/e) / 3.
    cc = communicability_centrality(complete_graph(3))
    expected = (math.e**2 + 2 / math.e) / 3
    for v in (0, 1, 2):
        assert cc[v] == pytest.approx(expected, abs=1e-10)


def test_complete_graph_normalizations():
    g = complete_graph(5)
    assert degree_centrality(g) == pytest.approx(np.ones(5))
    assert closeness_centrality(g) == pytest.approx(np.ones(5))
    assert betweenness_centrality(g) == pytest.approx(np.zeros(5))
    assert load_centrality(g) == pytest.approx(np.zeros(5))


def test_star_center_has_unit_betweenness_and_load():
    g = star_graph(4)
    assert betweenness_centrality(g)[0] == pytest.approx(1.0)
    assert load_centrality(g)[0] == pytest.approx(1.0)
    assert degree_centrality(g)[0] == pytest.approx(1.0)
    assert degree_centrality(g)[1] == pytest.approx(0.25)


def test_two_disjoint_edges_component_scaled_closeness():
    g = SocialGraph(range(4), [(0, 1), (2, 3)])
    cl = closeness_centrality(g)
    # Reachable set of size 2 in a 4-node graph scales by (2-1)/(4-1).
    assert cl == pytest.approx(np.full(4, 1 / 3))


def test_pagerank_uniform_on_vertex_transitive_graphs():
    for g in (cycle_graph(7), complete_graph(6), cycle_graph(4)):
        pr = solve(g, "pr")
        assert pr == pytest.approx(np.full(g.num_nodes, 1.0 / g.num_nodes), abs=1e-9)


@given(small_graphs())
def test_pagerank_sums_to_one(g):
    pr = solve(g, "pr")
    assert sum(pr.tolist()) == pytest.approx(1.0, abs=1e-9)


def test_hits_equals_eigenvector_on_undirected():
    g = random_graph(2, 9, 0.35)
    table = centrality_table(g, CentralityConfig(tol=1e-12), measures=("hits", "ec"))
    hits, ec = table.values[:, MEASURES.index("hits")], table.values[:, MEASURES.index("ec")]
    assert np.array_equal(hits, ec)
    assert table.iterations["hits"] == table.iterations["ec"]


@st.composite
def spectral_graphs(draw):
    """Up to three components, some isolated nodes, and edges only across
    two sides when the graph is to be bipartite."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    component = rng.integers(0, draw(st.integers(1, 3)), size=n)
    component[: draw(st.integers(0, n - 1))] = -1  # isolated
    side = rng.integers(0, 2, size=n) if draw(st.booleans()) else np.arange(n)
    u, v = np.triu_indices(n, 1)
    keep = (component[u] == component[v]) & (component[u] >= 0) & (side[u] != side[v])
    keep &= rng.random(u.size) < draw(st.sampled_from((0.2, 0.5, 1.0)))
    return SocialGraph(range(n), np.column_stack((u[keep], v[keep])))


@given(spectral_graphs())
@example(star_graph(6))  # bipartite
@example(SocialGraph(range(7), [(0, 1), (1, 2), (0, 2), (3, 4)]))  # isolated, disconnected
def test_hits_column_is_the_ec_column(g):
    table = centrality_table(g, measures=("hits", "ec"))
    assert table.failures.get("hits") == table.failures.get("ec")
    if "ec" in table.measures:
        hits, ec = table.values[:, MEASURES.index("hits")], table.values[:, MEASURES.index("ec")]
        assert np.array_equal(hits, ec)


def test_edgeless_graph_fails_hits_as_it_fails_ec():
    table = centrality_table(SocialGraph(range(3), []), measures=("hits", "ec"))
    assert table.measures == ()
    assert table.failures == {
        "hits": "eigenvector centrality needs at least one edge",
        "ec": "eigenvector centrality needs at least one edge",
    }


def test_eigenvector_converges_on_bipartite_graph():
    # Star graphs have spectrum symmetric around zero; the identity shift
    # must still converge to the Perron direction.
    g = star_graph(5)
    oracle = oracle_eigenvector(g)
    assert solve(g, "ec") == pytest.approx(as_vector(oracle, g), abs=1e-8)


# -- frozen example: load and betweenness genuinely differ ----------------------

_LOAD_DIFFERS_GRAPH = random_graph(1, 10, 0.3)

_FROZEN_BC = {
    0: 0.0,
    1: 5 / 216,
    2: 25 / 108,
    3: 5 / 12,
    4: 5 / 216,
    5: 0.0,
    6: 7 / 108,
    7: 35 / 54,
    8: 0.0,
    9: 7 / 108,
}

_FROZEN_LC = {
    0: 0.0,
    1: 7 / 288,
    2: 11 / 48,
    3: 5 / 12,
    4: 7 / 288,
    5: 0.0,
    6: 19 / 288,
    7: 31 / 48,
    8: 0.0,
    9: 19 / 288,
}


def test_load_differs_from_betweenness_when_flow_splits():
    g = _LOAD_DIFFERS_GRAPH
    bc = betweenness_centrality(g)
    lc = load_centrality(g)
    for v in g.nodes:
        assert bc[v] == pytest.approx(_FROZEN_BC[v], abs=1e-12)
        assert lc[v] == pytest.approx(_FROZEN_LC[v], abs=1e-12)
    gaps = [abs(bc[v] - lc[v]) for v in g.nodes]
    assert max(gaps) > 1e-3  # the measures are not interchangeable here


def test_load_equals_betweenness_on_star():
    g = star_graph(6)
    bc = betweenness_centrality(g)
    lc = load_centrality(g)
    assert lc == pytest.approx(bc, abs=1e-12)


# -- oracle agreement ------------------------------------------------------------

_ORACLES = {
    "dg": oracle_degree,
    "cl": oracle_closeness,
    "bc": oracle_betweenness,
    "hits": lambda g: oracle_hits(g)[0],
    "pr": oracle_pagerank_solve,
    "ec": oracle_eigenvector,
    "cc": oracle_communicability,
    "lc": oracle_load,
}


@pytest.mark.parametrize("seed", range(12))
def test_all_measures_match_oracles_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    g = random_graph(seed * 101 + 7, n, float(rng.choice([0.15, 0.3, 0.55])))
    cfg = CentralityConfig(tol=1e-10, max_iter=200000)
    table = centrality_table(g, cfg)
    assert not table.failures
    for measure, oracle in _ORACLES.items():
        want = as_vector(oracle(g), g)
        got = as_vector(table.scores[measure], g)
        assert got == pytest.approx(want, abs=1e-8), measure


@given(connected_graphs(min_nodes=3, max_nodes=8))
@settings(max_examples=25)
def test_betweenness_matches_oracle_property(g):
    want = oracle_betweenness(g)
    assert betweenness_centrality(g) == pytest.approx(as_vector(want, g), abs=1e-10)


@given(connected_graphs(min_nodes=3, max_nodes=8))
@settings(max_examples=25)
def test_load_matches_oracle_property(g):
    want = oracle_load(g)
    assert load_centrality(g) == pytest.approx(as_vector(want, g), abs=1e-10)


# -- structural properties --------------------------------------------------------


@given(small_graphs(min_nodes=3, max_nodes=9))
@settings(max_examples=25)
def test_permutation_equivariance(g):
    # Relabeling nodes must permute the scores, nothing more.
    perm = {v: (v * 7 + 3) % 1000 + 100 for v in g.nodes}
    h = SocialGraph(perm.values(), [(perm[u], perm[v]) for u, v in g.edges()])
    cfg = CentralityConfig(tol=1e-11, max_iter=100000)
    tg = centrality_table(g, cfg, measures=("dg", "cl", "bc", "lc", "pr"))
    th = centrality_table(h, cfg, measures=("dg", "cl", "bc", "lc", "pr"))
    for m in ("dg", "cl", "bc", "lc", "pr"):
        for v in g.nodes:
            assert tg.scores[m][v] == pytest.approx(th.scores[m][perm[v]], abs=1e-9)


def test_adding_edge_raises_degree_centrality():
    g = path_graph(4)
    before = degree_centrality(g)
    h = SocialGraph(g.nodes, g.edges() + [(0, 3)])
    after = degree_centrality(h)
    assert after[0] > before[0] and after[3] > before[3]
    assert after[1] == before[1]


# -- failure handling ----------------------------------------------------------


def test_solver_out_of_iterations_is_a_table_failure():
    g = random_graph(3, 8, 0.4)
    with pytest.raises(ConvergenceError, match="pagerank did not converge in 2 iterations"):
        centrality._pagerank_vector(g, 1e-15, 2)
    table = centrality_table(g, CentralityConfig(tol=1e-15, max_iter=2), measures=("dg", "pr"))
    assert table.failures == {"pr": "pagerank did not converge in 2 iterations"}
    assert table.measures == ("dg",) and table.iterations == {}
    assert np.isnan(table.values[:, MEASURES.index("pr")]).all()


def test_edgeless_graph_fails_ec_but_keeps_other_measures():
    g = SocialGraph(range(3), [])
    table = centrality_table(g)
    assert "ec" in table.failures
    assert table.scores["dg"] == {0: 0.0, 1: 0.0, 2: 0.0}
    assert table.scores["cc"] == {0: 1.0, 1: 1.0, 2: 1.0}  # expm(0) = I
    with pytest.raises(CentralityError):
        table.feature_matrix()


def test_unknown_measure_rejected():
    with pytest.raises(CentralityError):
        centrality_table(path_graph(3), measures=("dg", "katz"))


def test_iteration_counts_recorded():
    table = centrality_table(random_graph(4, 10, 0.3))
    its = table.iterations
    assert {"pr", "ec", "hits"} <= set(its)
    assert all(count >= 1 for count in its.values())


# -- serialization ----------------------------------------------------------


def test_table_csv_round_trip():
    g = random_graph(6, 8, 0.4)
    table = centrality_table(g)
    back = CentralityTable.from_csv_bytes(table.to_csv_bytes())
    assert back.nodes == table.nodes
    for m in table.measures:
        for v in table.nodes:
            assert back.scores[m][v] == table.scores[m][v]  # repr() is exact
    assert b"hits_hub" not in table.to_csv_bytes()


# A table as older versions wrote it, with the HITS hub vector as a ninth
# column; the CI workflow ranks the same bytes through `orgminer rank`.
LEGACY_TABLE = b"""\
node,dg,cl,bc,hits,pr,ec,cc,lc,hits_hub
0,0.3333333333333333,0.6,0.0,0.2818452000949734,0.14140849549132234,0.2818452018532794,1.6611137559132978,0.0,0.2818451993677602
1,1.0,1.0,0.6666666666666666,0.6116284577411836,0.36673586756567456,0.6116284582882063,3.4921487880491964,0.6666666666666666,0.6116284575149419
2,0.6666666666666666,0.75,0.0,0.5227207250839427,0.24592781847150164,0.5227207242898813,2.782980402210385,0.0,0.5227207254123566
3,0.6666666666666666,0.75,0.0,0.5227207250839427,0.24592781847150164,0.5227207242898813,2.782980402210386,0.0,0.5227207254123566
# iterations: ec=20 hits=11 pr=41
"""


def test_a_table_with_a_hub_column_loads_without_it():
    table = CentralityTable.from_csv_bytes(LEGACY_TABLE)
    assert table.measures == MEASURES and not table.failures
    assert not hasattr(table, "hub")
    rows = [line.split(",") for line in LEGACY_TABLE.decode().splitlines()[1:5]]
    assert table.values.tolist() == [[float(c) for c in row[1:9]] for row in rows]
    assert b"hits_hub" not in table.to_csv_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("node,dg,cl\n0,0.5,1.0\n1,0.5\n", "<bytes>:3: row has 2 cells, the header 3"),
        ("# note\nnode,dg\n0,0.5\n1,x\n", "<bytes>:4: bad score: could not convert"),
        ("node,dg\n0,0.5\nx,0.5\n", "<bytes>:3: node id must be an integer, got 'x'"),
        ("node,dg\n0,0.5\n1,0.5\n0,0.25\n", "lists a node twice"),
        ("node,dg\n0,0.5\n9223372036854775808,0.5\n", "9223372036854775808 does not fit"),
        ("node,dg,katz\n0,0.5,1.0\n", "unknown measures"),
    ],
)
def test_malformed_table_is_a_typed_error(text, message):
    with pytest.raises(GraphError, match=message):
        CentralityTable.from_csv_bytes(text.encode())


def test_feature_matrix_column_order():
    g = random_graph(7, 9, 0.4)
    table = centrality_table(g)
    X = table.feature_matrix()
    assert X.shape == (9, 8)
    for j, m in enumerate(MEASURES):
        assert X[:, j] == pytest.approx(as_vector(table.scores[m], g))


# -- communicability above the dense budget ---------------------------------------


def _disconnected_graph() -> SocialGraph:
    # a dense 30-node component, a sparse 40-node one, a path, and isolated nodes
    parts = [random_graph(5, 30, 0.5), random_graph(6, 40, 0.08), path_graph(5)]
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.num_nodes
    return SocialGraph(range(offset + 4), edges)


LANCZOS_GRAPHS = {
    "random": lambda: random_graph(11, 300, 0.06),
    "dense random": lambda: random_graph(12, 120, 0.6),
    "bipartite": lambda: SocialGraph(
        range(70), [(i, j) for i in range(30) for j in range(30, 70) if (i + 2 * j) % 3]
    ),
    "disconnected": _disconnected_graph,
}


@pytest.mark.parametrize("name", LANCZOS_GRAPHS)
def test_lanczos_communicability_matches_dense(monkeypatch, name):
    g = LANCZOS_GRAPHS[name]()
    dense = communicability_centrality(g)
    monkeypatch.setattr(centrality, "_DENSE_BUDGET", 40 * g.num_nodes**2 - 1)
    approx = communicability_centrality(g)
    assert np.max(np.abs(approx - dense) / dense) <= 1e-10
    isolated = [i for i, v in enumerate(g.nodes) if g.degree(v) == 0]
    assert all(approx[i] == 1.0 for i in isolated)
    assert (name == "disconnected") == bool(isolated)


def test_lanczos_out_of_steps_is_a_centrality_error(monkeypatch):
    monkeypatch.setattr(centrality, "_DENSE_BUDGET", 0)
    monkeypatch.setattr(centrality, "_LANCZOS_STEPS", 2)
    with pytest.raises(CentralityError, match="unconverged in 2 steps"):
        communicability_centrality(random_graph(11, 300, 0.06))


def test_communicability_over_budget_runs_lanczos_without_a_dense_allocation(monkeypatch):
    # large enough that Lanczos' n x 256 blocks stay under one n x n array
    g = random_graph(3, 1500, 0.005)
    needed = 40 * g.num_nodes**2  # five n x n float64 arrays
    monkeypatch.setattr(centrality, "_DENSE_BUDGET", needed - 1)
    tracemalloc.start()
    try:
        table = centrality_table(g, measures=("cc",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.measures == ("cc",) and not table.failures
    assert peak < g.num_nodes**2 * 8


@pytest.mark.parametrize("path", ["dense", "lanczos"])
def test_communicability_overflow_is_a_failure_not_inf(monkeypatch, path):
    # K_712 has lambda_max = 711 > ln(max float) ~ 709.78, so e^711 is inf
    g = complete_graph(712)
    if path == "lanczos":
        monkeypatch.setattr(centrality, "_DENSE_BUDGET", 0)
    with pytest.raises(CentralityError, match="overflows float64"):
        communicability_centrality(g)
    table = centrality_table(g, measures=("cc",))
    assert "overflows float64" in table.failures["cc"]
    assert table.measures == ()
    assert b"inf" not in table.to_csv_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validation_rejects_a_non_finite_score(bad):
    table = centrality_table(random_graph(2, 9, 0.4))
    centrality._validate_table(table)
    for j, measure in enumerate(MEASURES):
        column = table.values[:, j].copy()
        table.values[3, j] = bad
        with pytest.raises(CentralityError, match=f"{measure} has a non-finite score"):
            centrality._validate_table(table)
        table.values[:, j] = column


def test_import_loads_neither_scipy_linalg_nor_scipy_stats():
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import orgminer, orgminer.cli\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.stats') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
