"""Output checks for the benchmark workloads.

Every check recomputes what it compares against from the workload's
inputs, with numpy and scipy and without calling orgminer, or tests a
property the method must have. No check compares against a stored copy
of an earlier output. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# scipy.sparse.csgraph and scipy.sparse.linalg are imported where they are
# used. orgminer loads them only by way of scipy.stats; importing them here
# would put them into a worker's set-up even once orgminer stops doing so.

MEASURES = ("dg", "cl", "bc", "hits", "pr", "ec", "cc", "lc")


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float, what: str) -> None:
    require(
        abs(a - b) <= rel * max(abs(a), abs(b), 1e-300),
        f"{what}: {a!r} != {b!r} (relative tolerance {rel})",
    )


# -- reading artifacts --------------------------------------------------------------


def _data_lines(path: Path) -> list[str]:
    """Lines of a text artifact without comments and blank lines."""
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = _data_lines(path)
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _edge_pairs(path: Path) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in line.split()) for line in _data_lines(path)]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- graph helpers --------------------------------------------------------------------


class GraphData:
    """A graph rebuilt from its node and edge lists."""

    def __init__(self, nodes, edges):
        self.nodes = sorted(int(v) for v in nodes)
        index = {v: i for i, v in enumerate(self.nodes)}
        self.edges = [(int(u), int(v)) for u, v in edges]
        n = len(self.nodes)
        rows = [index[u] for u, _ in self.edges] + [index[v] for _, v in self.edges]
        cols = [index[v] for _, v in self.edges] + [index[u] for u, _ in self.edges]
        self.A = sp.csr_array(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=np.float64
        )
        self.A.sum_duplicates()
        self.degree = np.diff(self.A.indptr)

    def vector(self, scores: dict[int, float]) -> np.ndarray:
        return np.array([scores[v] for v in self.nodes], dtype=np.float64)

    def ordered_path_sum(self, block: int = 256) -> float:
        """Sum of (d - 1) over ordered reachable pairs s != t, in blocks of
        sources so the distance matrix never sits in memory whole."""
        from scipy.sparse.csgraph import shortest_path

        n = len(self.nodes)
        total = 0.0
        for start in range(0, n, block):
            d = shortest_path(
                self.A, unweighted=True, indices=np.arange(start, min(start + block, n))
            )
            reach = np.isfinite(d) & (d > 0)
            total += float((d[reach] - 1.0).sum())
        return total

    def lambda_max(self) -> float:
        from scipy.sparse.linalg import eigsh

        return float(eigsh(self.A, k=1, which="LA")[0][0])


def modularity(edges, assignment: dict[int, int]) -> float:
    m = len(edges)
    internal: dict[int, int] = {}
    degree: dict[int, int] = {}
    for u, v in edges:
        cu, cv = assignment[u], assignment[v]
        degree[cu] = degree.get(cu, 0) + 1
        degree[cv] = degree.get(cv, 0) + 1
        if cu == cv:
            internal[cu] = internal.get(cu, 0) + 1
    return sum(internal.get(c, 0) / m - (d / (2.0 * m)) ** 2 for c, d in degree.items())


# -- pipeline-600 ---------------------------------------------------------------------


def check_pipeline_dir(out: Path, reference: dict[str, str] | None, seed: int) -> dict[str, str]:
    """Check one pipeline output directory; return the sha256 of every file.

    ``reference`` holds the hashes of an earlier repetition of the same
    run, which must be byte-identical. Without one, the centrality table,
    the communities and the community report are also checked against the
    analyzed graph rebuilt from ``crawled_edges.txt``; ``seed`` picks the
    sampled nodes.
    """
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    hashes = {p.name: sha256_file(p) for p in sorted(out.iterdir())}
    listed = manifest["artifacts"]
    require(
        set(listed) | {"manifest.json"} == set(hashes),
        f"manifest lists {sorted(listed)}, directory holds {sorted(hashes)}",
    )
    for name, digest in listed.items():
        if name != "manifest.json":
            require(hashes[name] == digest, f"{name}: sha256 differs from the manifest")
    if reference is not None:
        changed = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
        require(not changed, f"rerun is not byte-identical: {changed}")

    labels = {int(r["node"]): r for r in _csv_rows(out / "world_labels.csv")}
    table = {int(r["node"]): r for r in _csv_rows(out / "centrality.csv")}
    analyzed = sorted(table)
    managers = {v for v in analyzed if labels[v]["is_manager"] == "true"}

    cv = {r["classifier"]: r for r in _csv_rows(out / "cv_report.csv")}
    zero_r = cv["zero-r"]
    majority = max(len(managers), len(analyzed) - len(managers))
    require(float(zero_r["auc"]) == 0.5, f"zero-r AUC {zero_r['auc']} is not 0.5")
    require(
        float(zero_r["accuracy_pct"]) == 100.0 * (majority / len(analyzed)),
        f"zero-r accuracy {zero_r['accuracy_pct']} is not the majority share "
        f"{majority}/{len(analyzed)}",
    )

    ranking = _csv_rows(out / "ranking_report.csv")
    for row in ranking:
        measure = row["measure"]
        ordered = sorted(analyzed, key=lambda v: (-float(table[v][measure]), v))
        for column, value in row.items():
            if column == "measure":
                continue
            k = int(column.removeprefix("p_at_"))
            expected = sum(1 for v in ordered[:k] if v in managers) / k
            require(
                float(value) == expected,
                f"precision@{k} of {measure}: reported {value}, recomputed {expected!r}",
            )

    assignment = {int(r["node"]): int(r["community"]) for r in _csv_rows(out / "communities.csv")}
    edges = _edge_pairs(out / "crawled_edges.txt")
    q = modularity(edges, assignment)
    match = re.search(r"^communities: (\d+) at Q=(-?\d+\.\d+)$", (out / "report.txt").read_text(), re.M)
    require(match is not None, "report.txt has no communities line")
    require(int(match.group(1)) == len(set(assignment.values())), "reported community count")
    require(
        abs(float(match.group(2)) - q) <= 0.5e-4 + 1e-12,
        f"reported Q={match.group(2)}, recomputed {q:.6f}",
    )
    if reference is None:  # later repetitions are byte-identical to this one
        g = GraphData(analyzed, edges)
        scores = {m: {v: float(table[v][m]) for v in analyzed} for m in MEASURES}
        check_centrality(g, scores, np.random.default_rng(seed))
        check_partition(g, assignment)
        disclosed = {v for v in analyzed if labels[v]["discloses_position"] == "true"}
        check_report(g, assignment, disclosed, _csv_rows(out / "community_report.csv"))
    return hashes


# -- analysis of the crawled graph ---------------------------------------------------


def check_centrality(
    g: GraphData, scores: dict[str, dict[int, float]], rng: np.random.Generator,
    samples: int = 32,
) -> None:
    from scipy.sparse.csgraph import shortest_path
    from scipy.sparse.linalg import expm_multiply

    require(set(scores) == set(MEASURES), f"table holds {sorted(scores)}")
    n = len(g.nodes)
    v = {m: g.vector(scores[m]) for m in MEASURES}

    require(np.array_equal(v["dg"], g.degree / (n - 1)), "dg differs from degree/(n-1)")

    sources = np.sort(rng.choice(n, size=min(samples, n), replace=False))
    d = shortest_path(g.A, unweighted=True, indices=sources)
    finite = np.isfinite(d)
    reach = finite.sum(axis=1)
    totals = np.where(finite, d, 0.0).sum(axis=1)
    expected = np.where(
        totals > 0, ((reach - 1) / (n - 1)) * ((reach - 1) / np.maximum(totals, 1)), 0.0
    )
    worst = float(np.max(np.abs(v["cl"][sources] - expected) / np.maximum(expected, 1e-300)))
    require(worst <= 1e-12, f"cl differs from shortest_path on sampled sources by {worst:.3g}")

    ordered = g.ordered_path_sum()
    _close(float(v["bc"].sum()) * (n - 1) * (n - 2) / 2.0, ordered / 2.0, 1e-9, "sum of bc")
    _close(float(v["lc"].sum()) * (n - 1) * (n - 2), ordered, 1e-9, "sum of lc")

    nodes = np.sort(rng.choice(n, size=min(8, n), replace=False))
    basis = np.zeros((n, len(nodes)))
    basis[nodes, np.arange(len(nodes))] = 1.0
    exact = expm_multiply(g.A, basis)[nodes, np.arange(len(nodes))]
    worst = float(np.max(np.abs(v["cc"][nodes] - exact) / exact))
    require(worst <= 1e-8, f"cc differs from expm_multiply on sampled nodes by {worst:.3g}")

    pr = v["pr"]
    _close(float(pr.sum()), 1.0, 1e-9, "sum of pr")
    damping = 0.85
    deg = g.degree.astype(np.float64)
    dangling = deg == 0
    step = (1 - damping) / n + damping * (
        g.A @ np.where(dangling, 0.0, pr / np.where(dangling, 1.0, deg)) + pr[dangling].sum() / n
    )
    residual = float(np.max(np.abs(step - pr)))
    require(residual <= 1e-8, f"pr fixed-point residual {residual:.3g}")

    ec = v["ec"]
    require(float(ec.min()) >= 0.0, "ec has a negative entry")
    _close(float(np.linalg.norm(ec)), 1.0, 1e-12, "norm of ec")
    lam = float(ec @ (g.A @ ec))
    _close(lam, g.lambda_max(), 1e-6, "ec Rayleigh quotient against the top eigenvalue")
    residual = float(np.max(np.abs(g.A @ ec - lam * ec)))
    require(residual <= 1e-5 * lam, f"ec eigen-residual {residual:.3g}")
    gap = float(np.max(np.abs(v["hits"] - ec)))
    require(gap <= 1e-6, f"hits differs from ec by {gap:.3g}")


def check_partition(g: GraphData, assignment: dict[int, int]) -> None:
    """The partition covers the graph, and greedy merging has stopped: no
    two adjacent communities would raise Q by merging."""
    require(set(assignment) == set(g.nodes), "partition does not cover the graph")
    m = len(g.edges)
    between: dict[tuple[int, int], int] = {}
    degree: dict[int, int] = {}
    for u, v in g.edges:
        a, b = assignment[u], assignment[v]
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        if a != b:
            key = (a, b) if a < b else (b, a)
            between[key] = between.get(key, 0) + 1
    for (a, b), count in between.items():
        gain = count / m - degree[a] * degree[b] / (2.0 * m * m)
        require(gain <= 1e-12, f"communities {a} and {b} still have merge gain {gain:.3g}")


def check_report(g: GraphData, assignment: dict[int, int], disclosed: set[int], rows) -> None:
    """One report row per community, with its size, internal links and
    disclosed positions."""
    sizes: dict[int, int] = {}
    shown: dict[int, int] = {}
    for v, c in assignment.items():
        sizes[c] = sizes.get(c, 0) + 1
        shown[c] = shown.get(c, 0) + (v in disclosed)
    links: dict[int, int] = {}
    for u, v in g.edges:
        if assignment[u] == assignment[v]:
            links[assignment[u]] = links.get(assignment[u], 0) + 1
    got = {
        int(r["community"]): (int(r["size"]), int(r["internal_links"]), int(r["disclosed_positions"]))
        for r in rows
    }
    want = {c: (s, links.get(c, 0), shown[c]) for c, s in sizes.items()}
    require(got == want, "report: community sizes, internal links or disclosed positions differ")


# -- crawl-20k -------------------------------------------------------------------------


class CrawlTruth:
    """What a crawl to frontier exhaustion must find, from the ground truth."""

    def __init__(self, world_edges, members, seeds):
        members = set(members)
        adj: dict[int, list[int]] = {}
        for u, v in world_edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        component = {s for s in seeds if s in members}
        stack = list(component)
        while stack:
            u = stack.pop()
            for w in adj.get(u, ()):
                if w in members and w not in component:
                    component.add(w)
                    stack.append(w)
        self.confirmed = component
        self.fetched = set(seeds) | component | {w for u in component for w in adj.get(u, ())}
        self.edges = {
            (u, v) if u < v else (v, u)
            for u, v in world_edges
            if u in component and v in component
        }


def check_crawl(truth: CrawlTruth, result, what: str) -> None:
    state = result.state
    require(state.confirmed == truth.confirmed, f"{what}: confirmed set differs from the org component")
    require(state.crawled == truth.fetched, f"{what}: fetched set differs from component plus neighbours")
    require(result.stats.fetched == len(truth.fetched), f"{what}: fetched a profile twice")
    require(set(result.graph.nodes) == truth.confirmed, f"{what}: graph nodes differ")
    require(set(result.graph.edges()) == truth.edges, f"{what}: kept edges differ from world edges")
    require(result.stats.stop_reason == "frontier-exhausted", f"{what}: stopped by {result.stats.stop_reason}")


def check_same_state(resumed, uninterrupted) -> None:
    require(
        resumed.state.to_json_bytes() == uninterrupted.state.to_json_bytes(),
        "checkpointed crawl ends in a different state than the uninterrupted one",
    )
