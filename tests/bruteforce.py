"""Naive reference computations used to cross-check the fast paths.

Everything here trades speed for obviousness and stays independent of
the implementations it checks: betweenness enumerates literal shortest
paths with exact rational counts, load simulates one packet per ordered
pair, the spectral scores come from a dense eigendecomposition rather
than an iteration, pagerank from a dense power method (or a linear
solve), communicability from a truncated Taylor series, and the best
modularity partition from exhaustive set-partition search. The world
generator's profile loop and fingerprint are kept here in their first,
one-draw-per-node and one-format-per-edge form.

Intended for small graphs (tens of nodes) inside tests.
"""

from __future__ import annotations

import hashlib
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from orgminer.graph import Profile, SocialGraph
from orgminer.synthworld import (
    _BACKGROUND_EMPLOYERS,
    CATEGORY_POSITIONS,
    MANAGEMENT_POSITIONS,
)
from orgminer.utils import stable_json


def _adjacency_dict(g: SocialGraph) -> dict[int, tuple[int, ...]]:
    return {v: g.sorted_neighbors(v) for v in g.nodes}


def _bfs_distances(adj: dict[int, tuple[int, ...]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def oracle_degree(g: SocialGraph) -> dict[int, float]:
    n = g.num_nodes
    dense = g.adjacency_matrix().toarray()
    row_sums = dense.sum(axis=1)
    if n <= 1:
        return {v: 0.0 for v in g.nodes}
    return {v: float(row_sums[i]) / (n - 1) for i, v in enumerate(g.nodes)}


def floyd_warshall_distances(g: SocialGraph) -> np.ndarray:
    """All-pairs shortest-path lengths; inf where unreachable."""
    n = g.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges():
        iu, iv = g.index_of(u), g.index_of(v)
        dist[iu, iv] = dist[iv, iu] = 1.0
    for k in range(n):
        middle = dist[:, [k]] + dist[[k], :]
        np.minimum(dist, middle, out=dist)
    return dist


def oracle_closeness(g: SocialGraph) -> dict[int, float]:
    n = g.num_nodes
    if n <= 1:
        return {v: 0.0 for v in g.nodes}
    dist = floyd_warshall_distances(g)
    out: dict[int, float] = {}
    for i, v in enumerate(g.nodes):
        finite = np.isfinite(dist[i])
        r = int(finite.sum())
        total = float(dist[i][finite].sum())
        if total <= 0:
            out[v] = 0.0
        else:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def enumerate_shortest_paths(
    g: SocialGraph, s: int, t: int
) -> Iterator[tuple[int, ...]]:
    """Yield every shortest s-t path as a node tuple (empty if unreachable)."""
    adj = _adjacency_dict(g)
    dist = _bfs_distances(adj, s)
    if t not in dist:
        return

    def backwalk(v: int) -> Iterator[tuple[int, ...]]:
        if v == s:
            yield (s,)
            return
        for u in adj[v]:
            if dist.get(u, -2) == dist[v] - 1:
                for prefix in backwalk(u):
                    yield prefix + (v,)

    yield from backwalk(t)


def oracle_betweenness(g: SocialGraph) -> dict[int, float]:
    """Betweenness by literal path enumeration with exact path ratios."""
    n = g.num_nodes
    nodes = g.nodes
    if n < 3:
        return {v: 0.0 for v in nodes}
    adj = _adjacency_dict(g)
    totals: dict[int, Fraction] = {v: Fraction(0) for v in nodes}
    for i, s in enumerate(nodes):
        dist = _bfs_distances(adj, s)
        for t in nodes[i + 1 :]:
            if t not in dist or t == s:
                continue
            interior_counts: dict[int, int] = {}
            path_count = 0
            for path in enumerate_shortest_paths(g, s, t):
                path_count += 1
                for v in path[1:-1]:
                    interior_counts[v] = interior_counts.get(v, 0) + 1
            for v, count in interior_counts.items():
                totals[v] += Fraction(count, path_count)
    norm = (n - 1) * (n - 2) // 2
    return {v: float(totals[v]) / norm for v in nodes}


def oracle_load(g: SocialGraph) -> dict[int, float]:
    """Load by simulating one unit packet per ordered reachable pair."""
    n = g.num_nodes
    nodes = g.nodes
    if n < 3:
        return {v: 0.0 for v in nodes}
    adj = _adjacency_dict(g)
    dist = {s: _bfs_distances(adj, s) for s in nodes}
    load = {v: 0.0 for v in nodes}
    for s in nodes:
        ds = dist[s]
        for t in nodes:
            if t == s or t not in ds:
                continue
            dt = dist[t]
            length = ds[t]
            flow = {s: 1.0}
            for level in range(1, length + 1):
                incoming: dict[int, float] = {}
                for v, amount in flow.items():
                    successors = [
                        w
                        for w in adj[v]
                        if ds[w] == level and dt.get(w, -1) == length - level
                    ]
                    share = amount / len(successors)
                    for w in successors:
                        incoming[w] = incoming.get(w, 0.0) + share
                flow = incoming
                if level < length:
                    for v, amount in flow.items():
                        load[v] += amount
    norm = (n - 1) * (n - 2)
    return {v: load[v] / norm for v in nodes}


# -- spectral oracles -----------------------------------------------------------


def oracle_perron_direction(g: SocialGraph, tie_tol: float = 1e-9) -> np.ndarray:
    """Limit of shifted power iteration from all-ones, in closed form.

    Projects the all-ones start vector onto the dominant eigenspace of
    A + I (the projection is basis-independent, so exact eigenvalue ties
    from isomorphic components are handled correctly).
    """
    n = g.num_nodes
    dense = g.adjacency_matrix().toarray() + np.eye(n)
    eigenvalues, vectors = np.linalg.eigh(dense)
    top = eigenvalues[-1]
    keep = eigenvalues >= top - tie_tol * max(1.0, abs(top))
    space = vectors[:, keep]
    x = space @ (space.T @ np.ones(n))
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValueError("all-ones start is orthogonal to the dominant eigenspace")
    return x / norm


def oracle_eigenvector(g: SocialGraph) -> dict[int, float]:
    x = oracle_perron_direction(g)
    return {v: float(x[i]) for i, v in enumerate(g.nodes)}


def oracle_hits(g: SocialGraph) -> tuple[dict[int, float], dict[int, float]]:
    scores = oracle_eigenvector(g)
    return scores, dict(scores)


def _google_matrix(g: SocialGraph, damping: float) -> np.ndarray:
    n = g.num_nodes
    dense = g.adjacency_matrix().toarray()
    deg = dense.sum(axis=0)
    M = np.where(deg > 0, dense / np.where(deg > 0, deg, 1.0), 1.0 / n)
    return damping * M + (1.0 - damping) / n


def oracle_pagerank_power(
    g: SocialGraph,
    damping: float = 0.85,
    tol: float = 1e-13,
    max_iter: int = 200000,
) -> dict[int, float]:
    n = g.num_nodes
    G = _google_matrix(g, damping)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x_new = G @ x
        if float(np.max(np.abs(x_new - x))) < tol:
            x = x_new
            break
        x = x_new
    return {v: float(x[i]) for i, v in enumerate(g.nodes)}


def oracle_pagerank_solve(g: SocialGraph, damping: float = 0.85) -> dict[int, float]:
    """Exact fixed point via a dense linear solve."""
    n = g.num_nodes
    dense = g.adjacency_matrix().toarray()
    deg = dense.sum(axis=0)
    M = np.where(deg > 0, dense / np.where(deg > 0, deg, 1.0), 1.0 / n)
    x = np.linalg.solve(np.eye(n) - damping * M, np.full(n, (1.0 - damping) / n))
    return {v: float(x[i]) for i, v in enumerate(g.nodes)}


def oracle_communicability(g: SocialGraph, max_terms: int = 400) -> dict[int, float]:
    """diag(expm(A)) by the Taylor series sum_k (A^k)/k!."""
    n = g.num_nodes
    dense = g.adjacency_matrix().toarray()
    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, max_terms + 1):
        term = term @ dense / k
        total += term
        if float(np.max(np.abs(term))) < 1e-16 * max(1.0, float(np.max(total))):
            break
    diag = np.diag(total)
    return {v: float(diag[i]) for i, v in enumerate(g.nodes)}


# -- exhaustive modularity ------------------------------------------------------


def set_partitions(n: int) -> Iterator[list[int]]:
    """All partitions of range(n) as restricted-growth label strings."""
    labels = [0] * n
    yield labels.copy()
    while True:
        i = n - 1
        while i > 0 and labels[i] > max(labels[:i]):
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        for j in range(i + 1, n):
            labels[j] = 0
        yield labels.copy()


def best_partition_bruteforce(g: SocialGraph) -> tuple[float, dict[int, int]]:
    """Maximum-modularity partition by exhaustive search (n <= 12)."""
    n = g.num_nodes
    if n > 12:
        raise ValueError("exhaustive partition search is capped at 12 nodes")
    nodes = g.nodes
    m = g.num_edges
    if m == 0:
        return 0.0, {v: i for i, v in enumerate(nodes)}
    eu = np.array([g.index_of(u) for u, _ in g.edges()])
    ev = np.array([g.index_of(v) for _, v in g.edges()])
    deg = np.array([g.degree(v) for v in nodes], dtype=np.float64)
    best_q = -np.inf
    best: list[int] = list(range(n))
    for labels in set_partitions(n):
        lab = np.asarray(labels)
        internal = np.count_nonzero(lab[eu] == lab[ev])
        deg_by_comm = np.bincount(lab, weights=deg)
        q = internal / m - float(((deg_by_comm / (2.0 * m)) ** 2).sum())
        if q > best_q + 1e-15:
            best_q = q
            best = list(labels)
    return float(best_q), {v: int(best[i]) for i, v in enumerate(nodes)}


# -- classifier-metric oracle ---------------------------------------------------


def auc_trapezoid(scores: Iterable[float], labels: Iterable[int]) -> float:
    """Area under the ROC curve by trapezoidal integration.

    Ties in the scores are grouped into single ROC steps, which produces
    the diagonal segments that make this match the rank-statistic form.
    """
    s = np.asarray(list(scores), dtype=np.float64)
    y = np.asarray(list(labels), dtype=np.int64)
    positives = int(y.sum())
    negatives = len(y) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    tpr = [0.0]
    fpr = [0.0]
    tp = fp = 0
    i = 0
    while i < len(s_sorted):
        j = i
        while j < len(s_sorted) and s_sorted[j] == s_sorted[i]:
            tp += int(y_sorted[j])
            fp += 1 - int(y_sorted[j])
            j += 1
        tpr.append(tp / positives)
        fpr.append(fp / negatives)
        i = j
    return float(np.trapezoid(tpr, fpr))


# -- world generation --------------------------------------------------------


def scalar_profiles(rng, spec, node_org, node_community, community_info, managers):
    """``synthworld._draw_profiles`` one node at a time, in ascending node
    order: one scalar draw per background employer, interleaved with the
    members' draws."""
    locations: dict[int, str] = {}
    disclosure: dict[int, bool] = {}
    profiles: dict[int, Profile] = {}
    for v in node_org:
        oi = node_org[v]
        if oi is None:
            employer = _BACKGROUND_EMPLOYERS[int(rng.integers(0, len(_BACKGROUND_EMPLOYERS)))]
            profiles[v] = Profile(
                node=v,
                name=f"user {v}",
                employers=(employer,),
                is_org_member=False,
                is_manager=False,
            )
            continue
        org = spec.orgs[oi]
        info = community_info[node_community[v]]
        keyword = org.name_keywords[int(rng.integers(0, len(org.name_keywords)))]
        employer = keyword if rng.random() < 0.8 else f"works at {keyword}"
        if v in managers:
            position = MANAGEMENT_POSITIONS[int(rng.integers(0, len(MANAGEMENT_POSITIONS)))]
        else:
            pool = CATEGORY_POSITIONS[info.category]
            position = pool[int(rng.integers(0, len(pool)))]
        discloses = bool(rng.random() < org.position_disclosure_rate)
        locations[v] = info.location
        disclosure[v] = discloses
        profiles[v] = Profile(
            node=v,
            name=f"user {v}",
            employers=(employer,),
            position=position if discloses else None,
            location=info.location if discloses else None,
            is_org_member=True,
            is_manager=v in managers,
            discloses_position=discloses,
        )
    return profiles, locations, disclosure


def scalar_fingerprint(spec, n: int, edges: Iterable[tuple[int, int]]) -> str:
    """``synthworld._world_fingerprint`` with one ``str.format`` per edge."""
    h = hashlib.sha256()
    h.update(stable_json(spec.to_dict()).encode("utf-8"))
    edges = list(edges)
    h.update(f"|n={n}|m={len(edges)}".encode("utf-8"))
    h.update("".join("{},{};".format(u, v) for u, v in edges).encode("utf-8"))
    return h.hexdigest()[:16]
