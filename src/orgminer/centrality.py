"""Eight per-node centrality measures with deterministic conventions.

Each measure is a float64 array in ascending-node-id order (n = node
count); ``centrality_table`` collects them into one table. Measures and
conventions:

* ``dg``  degree / (n - 1); 0 on a singleton graph.
* ``cl``  component-scaled closeness: ((r-1)/(n-1)) * ((r-1)/sum d(v,u))
  over v's r-node reachable set; isolated nodes score 0.
* ``bc``  shortest-path betweenness via per-source dependency
  accumulation, normalized by (n-1)(n-2)/2; endpoints excluded.
* ``hits`` the HITS authority score. On an undirected graph authority
  equals hub, and both are the dominant (Perron) adjacency eigenvector,
  so the column is the ``ec`` vector, bit for bit, and fails as ``ec``
  does.
* ``pr``  damped random walk (damping 0.85); dangling mass spreads
  uniformly; scores sum to one.
* ``ec``  dominant adjacency eigenvector, nonnegative, unit Euclidean
  norm, power iteration from all-ones. The iteration carries an identity
  shift so bipartite graphs converge instead of oscillating.
* ``cc``  communicability (subgraph) centrality diag(expm(A)) via dense
  symmetric eigendecomposition within a fixed memory budget (n <= 7327),
  Lanczos quadrature above it. A score past the float64 range (largest
  eigenvalue above ln(max float) ~ 709.78) is a ``CentralityError``.
  Isolated nodes score 1.
* ``lc``  load centrality: unit packets routed along shortest paths,
  splitting equally at each hop, summed over ordered pairs and
  normalized by (n-1)(n-2).

cl, bc and lc come from one shortest-path sweep: a batched BFS per block
of sources. All reductions run in ascending-node-id order, so repeated
runs agree bit for bit on one platform.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import GraphError, GraphParseError, SocialGraph, parse_node_id, read_table, table_bytes

MEASURES = ("dg", "cl", "bc", "hits", "pr", "ec", "cc", "lc")

_DEFAULT_TOL = 1e-8
_DEFAULT_MAX_ITER = 1000
_BLOCK = 256
_DENSE_BUDGET = 2**31  # bytes for communicability's dense path; n = 6000 needs 1.44e9
_LANCZOS_STEPS = 100
_LANCZOS_TOL = 1e-10  # relative
_DAMPING = 0.85


class CentralityError(GraphError):
    """A measure could not be computed for this graph."""


class ConvergenceError(CentralityError):
    """An iterative solver ran out of iterations."""


@dataclass(frozen=True)
class CentralityConfig:
    tol: float = _DEFAULT_TOL
    max_iter: int = _DEFAULT_MAX_ITER


# -- degree --------------------------------------------------------------------


def degree_centrality(g: SocialGraph) -> np.ndarray:
    n = g.num_nodes
    if n <= 1:
        return np.zeros(n)
    return np.diff(g.adjacency_matrix().indptr) / (n - 1)


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


def closeness_centrality(g: SocialGraph) -> np.ndarray:
    return _shortest_path_sweep(g)[0]


def betweenness_centrality(g: SocialGraph) -> np.ndarray:
    return _shortest_path_sweep(g)[1]


def load_centrality(g: SocialGraph) -> np.ndarray:
    return _shortest_path_sweep(g)[2]


# -- spectral measures ----------------------------------------------------------


def _pagerank_vector(g: SocialGraph, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Damped random-walk scores; dangling mass is spread uniformly."""
    n, damping = g.num_nodes, _DAMPING
    A = g.adjacency_matrix()
    deg = np.asarray(A.sum(axis=1)).ravel()
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
    raise ConvergenceError(f"pagerank did not converge in {max_iter} iterations")


def _eigenvector_vector(
    g: SocialGraph, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Dominant adjacency eigenvector, nonnegative, unit Euclidean norm."""
    if g.num_edges == 0:
        raise CentralityError("eigenvector centrality needs at least one edge")
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
    raise ConvergenceError(f"eigenvector centrality did not converge in {max_iter} iterations")


# HITS on an undirected graph is ec. The name stays because perfbench/layers.py
# times hits at it; an alias, not a call, so a traced run counts ec's solve once.
_hits_vectors = _eigenvector_vector


def communicability_centrality(g: SocialGraph) -> np.ndarray:
    """diag(expm(A)) per node (Estrada & Rodriguez-Velazquez 2005), by dense
    eigendecomposition while its working set fits ``_DENSE_BUDGET`` bytes,
    above it by Lanczos quadrature (Golub & Meurant) to ``_LANCZOS_TOL``
    relative, with no n x n array. Isolated nodes score exactly 1 either
    way. A score that overflows float64 is a ``CentralityError``, on either
    path."""
    n = g.num_nodes
    # five n x n float64 arrays: A, LAPACK's copy, syevd's 2n^2 workspace and
    # the eigenvectors (5.1 n^2 x 8 bytes of RSS measured at n=3000)
    if 40 * n * n > _DENSE_BUDGET:
        x = _lanczos_communicability(g.adjacency_matrix())
    else:
        dense = g.adjacency_matrix().toarray()
        eigenvalues, vectors = np.linalg.eigh(dense)
        del dense
        np.square(vectors, out=vectors)
        with np.errstate(over="ignore", invalid="ignore"):
            x = vectors @ np.exp(eigenvalues)
    if not np.isfinite(x).all():
        raise CentralityError("communicability overflows float64: lambda_max > ln(max float)")
    return x


def _lanczos_communicability(A: "scipy.sparse.csr_array") -> np.ndarray:
    """e_i' expm(A) e_i by Lanczos from e_i, one column per node and
    ``_BLOCK`` columns at a time. After k steps the estimate is
    e_1' expm(T_k) e_1, from one ``eigh`` of the live columns' stacked k x k
    tridiagonals. A column stops when its estimate moves by at most
    ``_LANCZOS_TOL`` relative, when its Krylov space is exhausted (beta = 0,
    exact), or when it overflows."""
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
            with np.errstate(over="ignore", invalid="ignore"):  # the caller raises
                step = np.einsum("ij,ij->i", U[:, 0, :] ** 2, np.exp(theta))
                done = (betas[:, k] <= 1e-12) | ~np.isfinite(step)
                done |= np.abs(step - last) <= _LANCZOS_TOL * np.maximum(1.0, np.abs(step))
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


@dataclass(frozen=True, eq=False)
class CentralityTable:
    """Per-node scores of the computed measures, plus failure notes.

    ``values`` is one float64 array of shape n x len(MEASURES): row i holds
    ``nodes[i]`` and column j holds ``MEASURES[j]``. Only the columns named
    in ``measures`` hold scores; a measure that failed (no edges for ``ec``
    and ``hits``, a solver out of iterations, Lanczos out of steps,
    communicability past the float64 range) is a ``failures`` entry and its
    column is NaN filler. ``iterations`` holds each iterative solver's
    iteration count. ``scores`` gives dicts keyed by node, built from the
    array on each access.
    """

    nodes: tuple[int, ...]
    values: np.ndarray
    measures: tuple[str, ...]
    failures: dict[str, str] = field(default_factory=dict)
    iterations: dict[str, int] = field(default_factory=dict)

    @property
    def scores(self) -> dict[str, dict[int, float]]:
        return {
            m: dict(zip(self.nodes, self.values[:, MEASURES.index(m)].tolist()))
            for m in self.measures
        }

    def feature_matrix(self) -> np.ndarray:
        """A copy of ``values``; requires every measure present."""
        if len(self.measures) < len(MEASURES):
            missing = [m for m in MEASURES if m not in self.measures]
            raise CentralityError(f"table is partial; missing measures: {missing}")
        return self.values.copy()

    def to_csv_bytes(self) -> bytes:
        columns = self.values[:, [MEASURES.index(m) for m in self.measures]]
        header = ["node", *self.measures]
        noted = " ".join(f"{m}={self.iterations[m]}" for m in sorted(self.iterations))
        notes = [f"# iterations: {noted}\n"] if self.iterations else []
        notes += [f"# failed: {m}: {self.failures[m]}\n" for m in sorted(self.failures)]
        rows = ([v, *row] for v, row in zip(self.nodes, columns.tolist()))
        return table_bytes(header, rows) + "".join(notes).encode("utf-8")

    @classmethod
    def from_csv_bytes(cls, source: str | Path | bytes) -> "CentralityTable":
        """Read a table that ``to_csv_bytes`` wrote, from a path or bytes. A
        bad node id or score, or a row whose width is not the header's, is a
        ``GraphParseError`` naming its file line. The ``hits_hub`` column of
        tables written by older versions is read and dropped."""
        name, _, header, rows = read_table(source)
        if header[0] != "node":
            raise CentralityError("centrality table must start with a node column")
        unknown = set(header[1:]) - set(MEASURES) - {"hits_hub"}
        if unknown:
            raise CentralityError(f"unknown measures in table: {sorted(unknown)}")
        nodes, scores = [], []
        for line_no, cells in rows:
            if len(cells) != len(header):
                raise GraphParseError(
                    name, line_no, f"row has {len(cells)} cells, the header {len(header)}"
                )
            nodes.append(parse_node_id(cells[0], name, line_no))
            try:
                scores.append(list(map(float, cells[1:])))
            except ValueError as exc:
                raise GraphParseError(name, line_no, f"bad score: {exc}") from None
        if len(set(nodes)) < len(nodes):
            raise CentralityError("centrality table lists a node twice")
        read = np.array(scores, dtype=np.float64).reshape(len(nodes), len(header) - 1)
        columns = dict(zip(header[1:], read.T))
        values = np.full((len(nodes), len(MEASURES)), np.nan)
        for j, m in enumerate(MEASURES):
            if m in columns:
                values[:, j] = columns[m]
        return cls(
            nodes=tuple(nodes),
            values=values,
            measures=tuple(m for m in MEASURES if m in columns),
            failures={m: "absent from table" for m in MEASURES if m not in columns},
        )


def _validate_table(table: CentralityTable) -> None:
    column = {m: table.values[:, MEASURES.index(m)] for m in table.measures}
    for measure, x in column.items():
        if not np.isfinite(x).all():
            raise CentralityError(f"{measure} has a non-finite score")
    slack = 1e-9
    for measure in ("dg", "cl", "bc", "lc"):
        if measure in column:
            if column[measure].min() < -slack or column[measure].max() > 1 + slack:
                raise CentralityError(f"{measure} escaped [0, 1]")
    if "pr" in column:
        total = sum(column["pr"].tolist())
        if abs(total - 1.0) > 1e-9:
            raise CentralityError(f"pagerank sums to {total!r}, not 1")
    for measure in ("ec", "hits"):
        if measure in column and abs(float(np.linalg.norm(column[measure])) - 1.0) > 1e-6:
            raise CentralityError(f"{measure} is not unit-norm")
    if "cc" in column and column["cc"].min() < 1.0 - 1e-9:
        raise CentralityError("communicability fell below 1")


def centrality_table(
    g: SocialGraph,
    config: CentralityConfig | None = None,
    measures: Sequence[str] = MEASURES,
) -> CentralityTable:
    """Compute the requested measures, recording failures instead of dying.

    A measure that cannot be computed (no edges for ``ec`` and ``hits``,
    solver ran out of iterations, Lanczos out of steps, communicability
    overflow) becomes a ``failures`` entry; the table keeps every measure
    that did succeed.
    """
    if g.num_nodes == 0:
        raise CentralityError("centrality_table needs a non-empty graph")
    cfg = config or CentralityConfig()
    unknown = set(measures) - set(MEASURES)
    if unknown:
        raise CentralityError(f"unknown measures requested: {sorted(unknown)}")
    values = np.full((g.num_nodes, len(MEASURES)), np.nan)
    present: list[str] = []
    failures: dict[str, str] = {}
    iterations: dict[str, int] = {}

    def run(measure: str, fn):
        try:
            values[:, MEASURES.index(measure)] = fn()
        except CentralityError as exc:
            failures[measure] = str(exc)
        else:
            present.append(measure)

    def iterate(measure: str, solver):
        x, iterations[measure] = solver(g, cfg.tol, cfg.max_iter)
        return x

    shortest_paths = functools.cache(lambda: _shortest_path_sweep(g))

    runners = {
        "dg": lambda: degree_centrality(g),
        "cl": lambda: shortest_paths()[0],
        "bc": lambda: shortest_paths()[1],
        "hits": lambda: iterate("hits", _hits_vectors),
        "pr": lambda: iterate("pr", _pagerank_vector),
        "ec": lambda: iterate("ec", _eigenvector_vector),
        "cc": lambda: communicability_centrality(g),
        "lc": lambda: shortest_paths()[2],
    }
    for measure in (m for m in MEASURES if m in measures):
        run(measure, runners[measure])
    table = CentralityTable(g.nodes, values, tuple(present), failures, iterations)
    _validate_table(table)
    return table
