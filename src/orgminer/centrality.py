"""Eight per-node centrality measures with deterministic conventions.

Measures and conventions (n = node count, scores keyed by node id):

* ``dg``  degree / (n - 1); 0 on a singleton graph.
* ``cl``  component-scaled closeness: ((r-1)/(n-1)) * ((r-1)/sum d(v,u))
  over v's r-node reachable set; isolated nodes score 0.
* ``bc``  shortest-path betweenness via per-source dependency
  accumulation, normalized by (n-1)(n-2)/2; endpoints excluded.
* ``hits`` mutual-reinforcement fixed point. On an undirected graph the
  update degenerates so authority equals hub; both are the dominant
  (Perron) direction of the adjacency. The iteration carries an identity
  shift so bipartite graphs converge instead of oscillating.
* ``pr``  damped random walk (default 0.85); dangling mass spreads
  uniformly; scores sum to one.
* ``ec``  dominant adjacency eigenvector, nonnegative, unit Euclidean
  norm, power iteration from all-ones (same identity shift).
* ``cc``  communicability (subgraph) centrality diag(expm(A)) via dense
  symmetric eigendecomposition within a fixed memory budget (n <= 7327);
  above it Lanczos quadrature if ``approximate`` is set, else a
  ``CentralityError`` naming the bytes needed. Isolated nodes score 1.
* ``lc``  load centrality: unit packets routed along shortest paths,
  splitting equally at each hop, summed over ordered pairs and
  normalized by (n-1)(n-2).

cl, bc and lc come from one shortest-path sweep: a batched BFS per block
of sources. All reductions run in ascending-node-id order, so repeated
runs agree bit for bit on one platform.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .graph import GraphError, SocialGraph

MEASURES = ("dg", "cl", "bc", "hits", "pr", "ec", "cc", "lc")

_DEFAULT_TOL = 1e-8
_DEFAULT_MAX_ITER = 1000
_BLOCK = 256
_DENSE_BUDGET = 2**31  # bytes for communicability's dense path; n = 6000 needs 1.44e9
_LANCZOS_STEPS = 100


class CentralityError(GraphError):
    """A measure could not be computed for this graph."""


class ConvergenceError(CentralityError):
    """An iterative solver ran out of iterations; carries its last iterate."""

    def __init__(self, message: str, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class CentralityConfig:
    tol: float = _DEFAULT_TOL
    max_iter: int = _DEFAULT_MAX_ITER
    damping: float = 0.85
    approximate_communicability: bool = False


def _as_scores(g: SocialGraph, values: np.ndarray) -> dict[int, float]:
    return {v: float(values[i]) for i, v in enumerate(g.nodes)}


# -- degree --------------------------------------------------------------------


def degree_centrality(g: SocialGraph) -> dict[int, float]:
    n = g.num_nodes
    if n <= 1:
        return {v: 0.0 for v in g.nodes}
    return {v: g.degree(v) / (n - 1) for v in g.nodes}


# -- shortest paths (one sweep for cl / bc / lc) ----------------------------------


def _shortest_path_sweep(g: SocialGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closeness, betweenness and load from one batched BFS per block of
    sources. The forward pass fills the path counts sigma level by level;
    the backward pass accumulates the betweenness dependency (Brandes 2001)
    and the load equal-split flow, dividing by the predecessor counts that
    the product finding each level gives."""
    n = g.num_nodes
    A = g.adjacency_matrix()
    cl, bc, lc = np.zeros((3, n))
    for start in range(0, n, _BLOCK):
        sources = np.arange(start, min(start + _BLOCK, n))
        B = len(sources)
        cols = np.arange(B)
        seen = np.zeros((n, B), dtype=bool)
        seen[sources, cols] = True
        sigma = seen.astype(np.float64)
        totals = np.zeros(B, dtype=np.int64)  # each source's distance sum
        # npreds: how many neighbours each node has on the level before its
        # own, written at that level; float32 holds these small counts exactly
        npreds = np.zeros((n, B), dtype=np.float32)
        coeff = np.empty((n, B))
        masks = [seen.copy()]
        frontier = masks[0]
        while True:
            np.copyto(coeff, frontier)
            preds = A @ coeff
            new = (preds > 0) & ~seen
            if not new.any():
                break
            totals += len(masks) * new.sum(axis=0)
            seen |= new
            np.copyto(npreds, preds, where=new)
            coeff.fill(0.0)
            np.copyto(coeff, sigma, where=frontier)
            np.copyto(sigma, A @ coeff, where=new)
            masks.append(new)
            frontier = new
        reach = seen.sum(axis=0)  # includes the source itself
        with np.errstate(divide="ignore", invalid="ignore"):
            cl[sources] = np.where(
                totals > 0,
                ((reach - 1) / (n - 1)) * ((reach - 1) / np.where(totals > 0, totals, 1)),
                0.0,
            )

        delta = np.zeros((n, B))
        flow = (seen & ~masks[0]).astype(np.float64)  # one packet per reachable target
        for level in range(len(masks) - 1, 0, -1):
            mask, prev = masks[level], masks[level - 1]
            coeff.fill(0.0)
            np.add(delta, 1.0, out=coeff, where=mask)
            np.divide(coeff, sigma, out=coeff, where=mask)
            np.add(delta, np.multiply(A @ coeff, sigma, out=coeff), out=delta, where=prev)
            coeff.fill(0.0)
            np.divide(flow, npreds, out=coeff, where=mask)
            np.add(flow, A @ coeff, out=flow, where=prev)
        delta[sources, cols] = 0.0
        bc += delta.sum(axis=1)
        flow -= seen  # what passed through, less the packet each target keeps
        flow[sources, cols] = 0.0
        lc += flow.sum(axis=1)
    if n < 3:
        return cl, np.zeros(n), np.zeros(n)
    bc /= 2.0  # each unordered pair was accumulated from both endpoints
    bc /= (n - 1) * (n - 2) / 2.0
    lc /= (n - 1) * (n - 2)  # ordered pairs
    return cl, bc, lc


def closeness_centrality(g: SocialGraph) -> dict[int, float]:
    return _as_scores(g, _shortest_path_sweep(g)[0])


def betweenness_centrality(g: SocialGraph) -> dict[int, float]:
    return _as_scores(g, _shortest_path_sweep(g)[1])


def load_centrality(g: SocialGraph) -> dict[int, float]:
    return _as_scores(g, _shortest_path_sweep(g)[2])


# -- spectral measures ----------------------------------------------------------


def _degrees(A: sp.csr_array) -> np.ndarray:
    return np.asarray(A.sum(axis=1)).ravel()


def _pagerank_vector(
    g: SocialGraph, damping: float, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    n = g.num_nodes
    if not 0.0 < damping < 1.0:
        raise CentralityError("damping must lie strictly between 0 and 1")
    A = g.adjacency_matrix()
    deg = _degrees(A)
    dangling = deg == 0.0
    safe_deg = np.where(dangling, 1.0, deg)
    x = np.full(n, 1.0 / n)
    # Successive-iterate threshold scaled so the documented tol bounds the
    # distance to the true fixed point (contraction factor = damping).
    threshold = tol * (1.0 - damping) / damping
    for iteration in range(1, max_iter + 1):
        with_links = np.where(dangling, 0.0, x / safe_deg)
        dangling_mass = float(x[dangling].sum())
        x_new = (1.0 - damping) / n + damping * (A @ with_links + dangling_mass / n)
        delta = float(np.max(np.abs(x_new - x)))
        x = x_new
        if delta < threshold:
            return x, iteration
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations", _as_scores(g, x)
    )


def pagerank(
    g: SocialGraph,
    damping: float = 0.85,
    tol: float = _DEFAULT_TOL,
    max_iter: int = _DEFAULT_MAX_ITER,
) -> dict[int, float]:
    """Damped random-walk scores; dangling mass is spread uniformly."""
    if g.num_nodes == 0:
        return {}
    x, _ = _pagerank_vector(g, damping, tol, max_iter)
    return _as_scores(g, x)


def _eigenvector_vector(
    g: SocialGraph, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    n = g.num_nodes
    A = g.adjacency_matrix()
    x = np.full(n, 1.0 / np.sqrt(n))
    for iteration in range(1, max_iter + 1):
        y = A @ x + x  # identity shift: keeps bipartite spectra from oscillating
        y /= np.linalg.norm(y)
        delta = float(np.max(np.abs(y - x)))
        x = y
        if delta < tol:
            return x, iteration
    raise ConvergenceError(
        f"eigenvector centrality did not converge in {max_iter} iterations",
        _as_scores(g, x),
    )


def eigenvector_centrality(
    g: SocialGraph, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER
) -> dict[int, float]:
    """Dominant adjacency eigenvector, nonnegative, unit Euclidean norm."""
    if g.num_edges == 0:
        raise CentralityError("eigenvector centrality needs at least one edge")
    x, _ = _eigenvector_vector(g, tol, max_iter)
    return _as_scores(g, x)


def _hits_vectors(
    g: SocialGraph, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int]:
    n = g.num_nodes
    A = g.adjacency_matrix()
    authority = np.full(n, 1.0 / np.sqrt(n))
    hub = authority.copy()
    for iteration in range(1, max_iter + 1):
        a_new = A @ hub + hub
        a_new /= np.linalg.norm(a_new)
        h_new = A @ a_new + a_new
        h_new /= np.linalg.norm(h_new)
        done = (
            float(np.max(np.abs(a_new - authority))) < tol
            and float(np.max(np.abs(h_new - hub))) < tol
        )
        authority, hub = a_new, h_new
        if done:
            return authority, hub, iteration
    raise ConvergenceError(
        f"hits did not converge in {max_iter} iterations",
        (_as_scores(g, authority), _as_scores(g, hub)),
    )


def hits(
    g: SocialGraph, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER
) -> tuple[dict[int, float], dict[int, float]]:
    """Authority and hub scores from the mutual-reinforcement update.

    On an undirected graph the two roles coincide, so the returned
    vectors are equal: both converge to the Perron direction of the
    adjacency (the same identity shift as ``eigenvector_centrality``
    guarantees convergence on bipartite graphs).
    """
    if g.num_nodes == 0:
        raise CentralityError("hits needs a non-empty graph")
    authority, hub, _ = _hits_vectors(g, tol, max_iter)
    return _as_scores(g, authority), _as_scores(g, hub)


def communicability_centrality(
    g: SocialGraph, approximate: bool = False, tol: float = 1e-10
) -> dict[int, float]:
    """diag(expm(A)) per node (Estrada & Rodriguez-Velazquez 2005), by dense
    eigendecomposition while its working set fits ``_DENSE_BUDGET`` bytes.
    Above the budget, ``approximate=True`` runs Lanczos quadrature
    (Golub & Meurant) to ``tol`` relative; without it a ``CentralityError``
    names the bytes needed before any n x n array exists. Isolated nodes
    score exactly 1 either way."""
    n = g.num_nodes
    # five n x n float64 arrays: A, LAPACK's copy, syevd's 2n^2 workspace and
    # the eigenvectors (5.1 n^2 x 8 bytes of RSS measured at n=3000)
    needed = 40 * n * n
    if needed > _DENSE_BUDGET:
        if not approximate:
            raise CentralityError(
                f"dense communicability of {n} nodes needs {needed} bytes, "
                f"above the {_DENSE_BUDGET}-byte budget; pass approximate=True"
            )
        return _as_scores(g, _lanczos_communicability(g.adjacency_matrix(), tol))
    dense = g.adjacency_matrix().toarray()
    eigenvalues, vectors = np.linalg.eigh(dense)
    del dense
    np.square(vectors, out=vectors)
    return _as_scores(g, vectors @ np.exp(eigenvalues))


def _lanczos_communicability(A: sp.csr_array, tol: float) -> np.ndarray:
    """e_i' expm(A) e_i by Lanczos from e_i, one column per node and
    ``_BLOCK`` columns at a time. After k steps the estimate is
    e_1' expm(T_k) e_1, from one ``eigh`` of the live columns' stacked k x k
    tridiagonals. A column stops when its estimate moves by at most ``tol``
    relative, or when its Krylov space is exhausted (beta = 0, exact)."""
    n = A.shape[0]
    out = np.empty(n)
    for start in range(0, n, _BLOCK):
        live = np.arange(start, min(start + _BLOCK, n))  # nodes still iterating
        q = np.eye(n, len(live), -start)  # column j is e_(start + j)
        q_prev = np.zeros_like(q)  # the step before's q, then scratch
        alphas, betas = np.zeros((2, len(live), _LANCZOS_STEPS))
        last = np.full(len(live), np.nan)
        for k in range(_LANCZOS_STEPS):
            w = A @ q
            alphas[:, k] = np.einsum("ij,ij->j", q, w)
            w -= np.multiply(q_prev, betas[:, k - 1], out=q_prev)  # zero at k = 0
            w -= np.multiply(q, alphas[:, k], out=q_prev)
            betas[:, k] = np.sqrt(np.einsum("ij,ij->j", w, w))
            T, d = np.zeros((len(live), k + 1, k + 1)), np.arange(k + 1)
            T[:, d, d] = alphas[:, : k + 1]
            T[:, d[1:], d[:-1]] = T[:, d[:-1], d[1:]] = betas[:, :k]
            theta, U = np.linalg.eigh(T)
            step = np.einsum("ij,ij->i", U[:, 0, :] ** 2, np.exp(theta))
            done = betas[:, k] <= 1e-12
            done |= np.abs(step - last) <= tol * np.maximum(1.0, np.abs(step))
            out[live[done]] = step[done]
            keep = np.flatnonzero(~done)
            if not keep.size:
                break
            if keep.size < live.size:
                q, w = q.take(keep, axis=1), w.take(keep, axis=1)
            live, last, alphas, betas = live[keep], step[keep], alphas[keep], betas[keep]
            w /= betas[:, k]
            q_prev, q = q, w
        else:
            raise CentralityError(f"{len(live)} nodes' cc unconverged in {_LANCZOS_STEPS} steps")
    return out


# -- the combined table ---------------------------------------------------------


@dataclass
class CentralityTable:
    """Per-node scores for every computed measure, plus failure notes.

    ``scores['hits']`` is the authority vector (the value fed to feature
    matrices); the hub vector rides along in ``hub_scores``.
    """

    nodes: tuple[int, ...]
    scores: dict[str, dict[int, float]]
    hub_scores: dict[int, float] | None = None
    failures: dict[str, str] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(m for m in MEASURES if m in self.scores)

    def feature_matrix(self, nodes: Sequence[int] | None = None) -> np.ndarray:
        """n x 8 matrix in MEASURES order; requires every measure present."""
        if self.failures:
            raise CentralityError(
                f"table is partial; failed measures: {sorted(self.failures)}"
            )
        use = tuple(nodes) if nodes is not None else self.nodes
        out = np.empty((len(use), len(MEASURES)))
        for j, measure in enumerate(MEASURES):
            column = self.scores[measure]
            out[:, j] = [column[v] for v in use]
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
            noted = " ".join(
                f"{m}={iteration_notes[m]}" for m in sorted(iteration_notes)
            )
            lines.append(f"# iterations: {noted}")
        for measure in sorted(self.failures):
            lines.append(f"# failed: {measure}: {self.failures[measure]}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_csv_bytes(cls, data: bytes) -> "CentralityTable":
        lines = [
            ln
            for ln in data.decode("utf-8").splitlines()
            if ln.strip() and not ln.startswith("#")
        ]
        if not lines:
            raise CentralityError("empty centrality table")
        header = lines[0].split(",")
        if header[0] != "node":
            raise CentralityError("centrality table must start with a node column")
        measure_cols = [h for h in header[1:] if h != "hits_hub"]
        unknown = set(measure_cols) - set(MEASURES)
        if unknown:
            raise CentralityError(f"unknown measures in table: {sorted(unknown)}")
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
        return cls(
            nodes=tuple(nodes),
            scores=scores,
            hub_scores=hub or None,
            failures=failures,
        )


def _validate_table(g: SocialGraph, table: CentralityTable) -> None:
    n = g.num_nodes
    slack = 1e-9
    for measure in ("dg", "cl", "bc", "lc"):
        if measure in table.scores:
            vals = np.array([table.scores[measure][v] for v in table.nodes])
            if len(vals) and (vals.min() < -slack or vals.max() > 1 + slack):
                raise CentralityError(f"{measure} escaped [0, 1]")
    if "pr" in table.scores and n:
        total = sum(table.scores["pr"][v] for v in table.nodes)
        if abs(total - 1.0) > 1e-9:
            raise CentralityError(f"pagerank sums to {total!r}, not 1")
    for measure in ("ec", "hits"):
        if measure in table.scores and n:
            vec = np.array([table.scores[measure][v] for v in table.nodes])
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-6:
                raise CentralityError(f"{measure} is not unit-norm")
    if "cc" in table.scores:
        low = min(table.scores["cc"].values(), default=1.0)
        if low < 1.0 - 1e-9:
            raise CentralityError("communicability fell below 1")


def centrality_table(
    g: SocialGraph,
    config: CentralityConfig | None = None,
    measures: Sequence[str] = MEASURES,
) -> CentralityTable:
    """Compute the requested measures, recording failures instead of dying.

    A measure that cannot be computed (no edges for ``ec``, solver ran out
    of iterations, dense budget exceeded) becomes a ``failures`` entry; the
    table keeps every measure that did succeed.
    """
    if g.num_nodes == 0:
        raise CentralityError("centrality_table needs a non-empty graph")
    cfg = config or CentralityConfig()
    unknown = set(measures) - set(MEASURES)
    if unknown:
        raise CentralityError(f"unknown measures requested: {sorted(unknown)}")
    table = CentralityTable(nodes=g.nodes, scores={})
    iterations: dict[str, int] = {}
    seconds: dict[str, float] = {}

    def run(measure: str, fn):
        started = time.perf_counter()
        try:
            result = fn()
        except CentralityError as exc:
            table.failures[measure] = str(exc)
        else:
            if measure == "hits":
                table.scores["hits"], table.hub_scores = result
            else:
                table.scores[measure] = result
        seconds[measure] = time.perf_counter() - started

    def run_hits():
        authority, hub, count = _hits_vectors(g, cfg.tol, cfg.max_iter)
        iterations["hits"] = count
        return _as_scores(g, authority), _as_scores(g, hub)

    def run_pr():
        x, count = _pagerank_vector(g, cfg.damping, cfg.tol, cfg.max_iter)
        iterations["pr"] = count
        return _as_scores(g, x)

    def run_ec():
        if g.num_edges == 0:
            raise CentralityError("eigenvector centrality needs at least one edge")
        x, count = _eigenvector_vector(g, cfg.tol, cfg.max_iter)
        iterations["ec"] = count
        return _as_scores(g, x)

    shortest_paths = functools.cache(lambda: _shortest_path_sweep(g))

    runners = {
        "dg": lambda: degree_centrality(g),
        "cl": lambda: _as_scores(g, shortest_paths()[0]),
        "bc": lambda: _as_scores(g, shortest_paths()[1]),
        "hits": run_hits,
        "pr": run_pr,
        "ec": run_ec,
        "cc": lambda: communicability_centrality(g, cfg.approximate_communicability),
        "lc": lambda: _as_scores(g, shortest_paths()[2]),
    }
    for measure in (m for m in MEASURES if m in measures):
        run(measure, runners[measure])
    table.provenance = {"iterations": iterations, "seconds": seconds}
    _validate_table(g, table)
    return table
