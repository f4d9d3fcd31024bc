"""Undirected social graph with per-node profiles and canonical file formats.

The graph type is immutable after construction. Its topology is one
read-only compressed sparse row (CSR) adjacency of int64 arrays, built
by a few whole-array sorts and searches with no Python step per edge; it
is the layout ``adjacency_matrix`` hands to the analysis. Node ids are
any integers that fit in int64, negative ones included; a wider id is a
``GraphError``. Edges are unordered pairs without self-loops or
duplicates. Supported interchange formats:

* edge list: one ``u v`` pair per line, optional ``# nodes:`` header lines
  so isolated nodes survive a round trip;
* profiles: JSON Lines, one object per node (schema in README);
* labels: CSV with columns node, is_org_member, is_manager,
  discloses_position, community, location (any subset may be empty);
* exports: edge list, GraphML, DOT, and CSV tables.

This module also holds the table codec that every CSV table of the package
goes through: ``table_bytes`` writes one (a header row, ``\n`` line ends,
minimal quoting, ``None`` as an empty cell meaning unknown, a float as its
``repr`` so it reads back exactly, booleans as ``true``/``false``) and
``read_table`` parses one, numbering file lines past ``#`` comment lines so
that an error names the line a bad cell is on.

Every parser reads through ``utils.read_text``: a byte that is not UTF-8, like
a profiles line that is not JSON, is a ``GraphParseError`` naming line and column.
"""

from __future__ import annotations

import copy
import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .utils import json_message, read_text, sorted_unique

EXPORT_FORMATS = ("edge-list", "graphml", "dot", "csv")

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


class GraphError(Exception):
    """Malformed graph data or an invalid graph operation."""


class GraphParseError(GraphError):
    """A graph file failed to parse; carries the offending line number."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class Profile:
    """Public profile fields for one node.

    ``is_org_member`` and ``is_manager`` are optional ground-truth labels;
    ``None`` means unknown. A profile that discloses its position must
    actually carry one, and a manager label implies org membership.
    """

    node: int
    name: str | None = None
    employers: tuple[str, ...] = ()
    position: str | None = None
    location: str | None = None
    is_org_member: bool | None = None
    is_manager: bool | None = None
    discloses_position: bool = False

    def __post_init__(self):
        object.__setattr__(self, "employers", tuple(self.employers))
        if self.discloses_position and self.position is None:
            raise GraphError(
                f"profile {self.node}: discloses_position requires a position"
            )
        if self.is_manager and not self.is_org_member:
            raise GraphError(
                f"profile {self.node}: a manager label requires org membership"
            )

    def text_fields(self) -> tuple[str, ...]:
        """All free-text fields, for keyword matching."""
        fields = list(self.employers)
        if self.name:
            fields.append(self.name)
        if self.position:
            fields.append(self.position)
        return tuple(fields)


@dataclass(frozen=True)
class LabelRow:
    """One row of a label table. Missing columns stay ``None``."""

    node: int
    is_org_member: bool | None = None
    is_manager: bool | None = None
    discloses_position: bool | None = None
    community: int | None = None
    location: str | None = None


class SocialGraph:
    """Immutable simple undirected graph over integer node ids, held as one
    read-only CSR: the ascending node ids ``_ids``, and for the node at
    position ``i`` its neighbours' positions, ascending, at
    ``_indices[_indptr[i]:_indptr[i + 1]]``."""

    __slots__ = ("_ids", "_nodes", "_indptr", "_indices", "_profiles", "_matrix")

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        profiles: Mapping[int, Profile] | None = None,
    ):
        ids = sorted_unique(_id_array(nodes))
        pairs = _id_array(edges, pairs=True)
        bad = (pairs[:, 0] == pairs[:, 1]) | ~np.isin(pairs, ids).all(axis=1)
        if bad.any():  # the first bad edge, a self-loop before an unknown node
            u, v = pairs[np.argmax(bad)].tolist()
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            raise GraphError(f"edge ({u}, {v}) references an unknown node")
        # Both orientations as keys row * n + col: one sort orders the rows
        # and their neighbours, and drops duplicate edges in either orientation.
        n = len(ids)
        if n and int(ids[-1]) - int(ids[0]) == n - 1:
            # a contiguous id range, as in every generated world: a node's
            # position is its offset, with no binary search per endpoint
            pu, pv = (pairs - ids[0]).T
        else:
            pu, pv = ids.searchsorted(pairs).T
        keys = sorted_unique(np.concatenate((pu * n + pv, pv * n + pu)))
        indptr, indices = keys.searchsorted(np.arange(n + 1) * n), keys % n
        for a in (ids, indptr, indices):
            a.flags.writeable = False
        self._ids, self._indptr, self._indices = ids, indptr, indices
        self._nodes: tuple[int, ...] = tuple(ids.tolist())
        self._matrix = None
        self._set_profiles(profiles)

    def _set_profiles(self, profiles: Mapping[int, Profile] | None) -> None:
        self._profiles = dict(profiles or {})
        pids = _id_array(self._profiles)
        if len(dangling := np.sort(pids[~np.isin(pids, self._ids)])):
            raise GraphError(
                f"profiles reference nodes absent from the graph: {dangling.tolist()}"
            )

    # -- topology ---------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as ``(u, v)`` with ``u < v``, in ascending order."""
        rows = np.repeat(np.arange(len(self._ids)), np.diff(self._indptr))
        upper = rows < self._indices
        at = self._nodes.__getitem__  # the tuples share the graph's int objects
        lo, hi = rows[upper].tolist(), self._indices[upper].tolist()
        return list(zip(map(at, lo), map(at, hi)))

    def has_node(self, v: int) -> bool:
        i = self._ids.searchsorted(v)
        return bool(i < len(self._ids) and self._ids[i] == v)

    def sorted_neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbours of ``v`` in ascending id order, as the graph's own
        int objects (those of ``nodes``), so friend lists cached per node
        hold no int of their own."""
        p = self.index_of(v)
        row = self._indices[self._indptr[p] : self._indptr[p + 1]].tolist()
        return tuple(map(self._nodes.__getitem__, row))

    def degree(self, v: int) -> int:
        p = self.index_of(v)
        return int(self._indptr[p + 1] - self._indptr[p])

    def index_of(self, v: int) -> int:
        """Position of node ``v`` in ``nodes``; KeyError when absent."""
        if not self.has_node(v):
            raise KeyError(v)
        return int(self._ids.searchsorted(v))

    def adjacency_matrix(self) -> sp.csr_array:
        """CSR adjacency in ascending-node-id order (cached), on the graph's
        own read-only arrays."""
        if self._matrix is None:
            import scipy.sparse as sp  # on first use: a crawl never builds a matrix

            n = len(self._nodes)
            data = np.ones(len(self._indices), dtype=np.float64)
            self._matrix = sp.csr_array((data, self._indices, self._indptr), shape=(n, n))
        return self._matrix

    # -- profiles ---------------------------------------------------------

    @property
    def profiles(self) -> Mapping[int, Profile]:
        return dict(self._profiles)

    def profile(self, v: int) -> Profile | None:
        return self._profiles.get(v)

    def with_profiles(self, profiles: Mapping[int, Profile]) -> "SocialGraph":
        g = copy.copy(self)  # shares the read-only arrays
        g._set_profiles(profiles)
        return g

    def subgraph(self, keep: Iterable[int]) -> "SocialGraph":
        keep_ids = sorted_unique(_id_array(keep))
        unknown = keep_ids[~np.isin(keep_ids, self._ids)]
        if len(unknown):
            raise GraphError(f"subgraph references unknown nodes {unknown.tolist()}")
        rows, cols = np.repeat(self._ids, np.diff(self._indptr)), self._ids[self._indices]
        inside = np.isin(rows, keep_ids) & np.isin(cols, keep_ids)
        keep_set = set(keep_ids.tolist())
        profiles = {v: p for v, p in self._profiles.items() if v in keep_set}
        return SocialGraph(keep_ids, np.column_stack((rows[inside], cols[inside])), profiles)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (
            np.array_equal(self._ids, other._ids)
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and self._profiles == other._profiles
        )

    __hash__ = None  # mutable-profile payloads make hashing a trap

    def __repr__(self) -> str:
        return f"SocialGraph(n={self.num_nodes}, m={self.num_edges})"


_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1


def _too_wide(ids: Iterable) -> int | None:
    """The first of ``ids`` that does not fit in int64, if any."""
    return next((v for v in ids if not _ID_MIN <= v <= _ID_MAX), None)


def _id_array(values, pairs: bool = False) -> np.ndarray:
    """Node ids, or with ``pairs`` node-id pairs, as an int64 array of shape
    (n,) or (m, 2). An ndarray is taken as given; a GraphError names an id
    that does not fit in int64."""
    if not isinstance(values, np.ndarray):
        items = list(values)
        try:
            values = np.fromiter(chain.from_iterable(items) if pairs else items, dtype=np.int64)
        except OverflowError:
            wide = _too_wide(np.array(items, dtype=object).ravel())
            raise GraphError(f"node id {wide} does not fit in int64") from None
        if pairs and len(values) != 2 * len(items):
            raise GraphError("an edge must be a pair of node ids")
    values = values.astype(np.int64, copy=False)
    return values.reshape(-1, 2) if pairs else values


# -- profile (de)serialization ------------------------------------------------

def profile_to_dict(p: Profile) -> dict:
    out: dict = {"node": p.node}
    if p.name is not None:
        out["name"] = p.name
    if p.employers:
        out["employers"] = list(p.employers)
    if p.position is not None:
        out["position"] = p.position
    if p.location is not None:
        out["location"] = p.location
    if p.is_org_member is not None:
        out["is_org_member"] = p.is_org_member
    if p.is_manager is not None:
        out["is_manager"] = p.is_manager
    if p.discloses_position:
        out["discloses_position"] = True
    return out


_TEXT, _FLAG = ((str, type(None)), "a string or null"), ((bool, type(None)), "a bool or null")
_PROFILE_TYPES = {
    "name": _TEXT, "position": _TEXT, "location": _TEXT,
    "employers": ((list,), "a list of strings"),
    "is_org_member": _FLAG, "is_manager": _FLAG,
    "discloses_position": ((bool,), "a bool"),
}


def profile_from_dict(d: Mapping) -> Profile:
    """Decode a profile record. Keys starting with ``_`` are ignored; an
    unknown or missing key, or a value of the wrong JSON type, is a
    ``GraphError``."""
    unknown = set(d) - set(Profile.__dataclass_fields__)
    unknown = {k for k in unknown if not k.startswith("_")}
    if unknown:
        raise GraphError(f"unknown profile fields {sorted(unknown)}")
    if "node" not in d:
        raise GraphError("profile record lacks a node id")
    node = d["node"]
    if type(node) is not int:  # not a bool or a float either
        raise GraphError(f"profile node id must be an int, not {node!r}")
    for key, value in d.items():
        if key in _PROFILE_TYPES:
            types, expected = _PROFILE_TYPES[key]
            if not isinstance(value, types) or (
                key == "employers" and not all(isinstance(e, str) for e in value)
            ):
                raise GraphError(f"profile {node}: {key} must be {expected}, not {value!r}")
    return Profile(
        node=node,
        name=d.get("name"),
        employers=tuple(d.get("employers", ())),
        position=d.get("position"),
        location=d.get("location"),
        is_org_member=d.get("is_org_member"),
        is_manager=d.get("is_manager"),
        discloses_position=d.get("discloses_position", False),
    )


def profiles_to_jsonl_bytes(profiles: Mapping[int, Profile]) -> bytes:
    lines = [
        json.dumps(profile_to_dict(profiles[v]), sort_keys=True)
        for v in sorted(profiles)
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def load_profiles(source: str | Path | bytes) -> dict[int, Profile]:
    """Parse a JSON Lines profile file into a node -> Profile map."""
    name, text = read_text(source, GraphParseError)
    profiles: dict[int, Profile] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            column = exc.colno + len(raw) - len(raw.lstrip())  # the file's column
            raise GraphParseError(name, line_no, json_message(exc, column)) from None
        if not isinstance(record, dict):
            raise GraphParseError(name, line_no, "profile record must be an object")
        if any(k.startswith("_") for k in record):
            continue  # provenance record, not a profile
        try:
            p = profile_from_dict(record)
        except GraphError as exc:
            raise GraphParseError(name, line_no, str(exc)) from exc
        if p.node in profiles:
            raise GraphParseError(name, line_no, f"duplicate profile for node {p.node}")
        profiles[p.node] = p
    return profiles


# -- edge-list format ----------------------------------------------------------


def parse_edge_list(source: str | Path | bytes) -> SocialGraph:
    """Parse whitespace-separated integer pairs, one edge per line.

    ``# nodes: 3 7 9`` header lines declare nodes (needed for isolated
    ones); other ``#`` lines are comments. Duplicate edges collapse
    silently; a self-loop is a parse error.
    """
    name, text = read_text(source, GraphParseError)
    nodes: set[int] = set()
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        header = line.lower().startswith("# nodes:")
        if not line or (line.startswith("#") and not header):
            continue
        tokens = line.split(":", 1)[1].split() if header else line.split()
        if not header and len(tokens) != 2:
            raise GraphParseError(
                name, line_no, f"expected two node ids, got {len(tokens)} tokens"
            )
        try:
            ids = [int(tok) for tok in tokens]
        except ValueError:
            message = "bad node id in header" if header else "node ids must be integers"
            raise GraphParseError(name, line_no, message)
        if (wide := _too_wide(ids)) is not None:
            raise GraphParseError(name, line_no, f"node id {wide} does not fit in int64")
        if not header:
            u, v = ids
            if u == v:
                raise GraphParseError(name, line_no, f"self-loop at node {u}")
            edges.append((u, v))
        nodes.update(ids)
    return SocialGraph(nodes, edges)


def load_graph(
    edge_path: str | Path, profile_path: str | Path | None = None
) -> SocialGraph:
    """Load an edge list and optionally attach a profile file.

    Profile ids must be a subset of the graph's nodes; dangling ids are an
    error rather than a silent drop.
    """
    g = parse_edge_list(edge_path)
    if profile_path is None:
        return g
    return g.with_profiles(load_profiles(profile_path))


def edge_list_bytes(g: SocialGraph) -> bytes:
    out = io.StringIO()
    node_ids = list(g.nodes)
    for start in range(0, len(node_ids), 100):
        chunk = node_ids[start : start + 100]
        out.write("# nodes: " + " ".join(str(v) for v in chunk) + "\n")
    for u, v in g.edges():
        out.write(f"{u} {v}\n")
    return out.getvalue().encode("utf-8")


# -- tables ---------------------------------------------------------------------

_BOOL_TOKENS = {"true": True, "1": True, "false": False, "0": False}


def _format_cell(flag: bool | None) -> str:
    """A boolean cell: ``true``, ``false``, or empty for unknown."""
    if flag is None:
        return ""
    return "true" if flag else "false"


def table_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """A CSV table: ``header``, then one line per row. Cells are written by
    ``csv``'s rules (``None`` empty, a float its ``repr``, a cell holding a
    comma, a quote or a line break quoted); boolean cells go through
    ``_format_cell`` first. A line whose first cell begins with ``#`` has
    every cell quoted, since ``read_table`` drops a line that begins with
    ``#`` as a comment."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in chain((header,), rows):
        (quoted if row and str(row[0]).startswith("#") else writer).writerow(row)
    return out.getvalue().encode("utf-8")


def read_table(
    source: str | Path | bytes,
) -> tuple[str, int, list[str], list[tuple[int, list[str]]]]:
    """Parse a CSV table from a path or bytes. Returns the source's name, the
    header's file line, the header's stripped cells, and every row as (file
    line, cells). Lines are numbered before ``#`` comment lines are dropped,
    so the numbers are the file's; blank rows are skipped. A file without a
    header row is a ``GraphParseError``."""
    name, text = read_text(source, GraphParseError)
    lines = text.splitlines()
    kept = [no for no, line in enumerate(lines) if not line.startswith("#")]
    reader = csv.reader([lines[no] for no in kept])
    rows = [(kept[reader.line_num - 1] + 1, row) for row in reader if "".join(row).strip()]
    if not rows:
        raise GraphParseError(name, 1, "empty table")
    header_line, header = rows[0]
    return name, header_line, [h.strip() for h in header], rows[1:]


def parse_node_id(cell: str, name: str, line_no: int) -> int:
    """The node id in a table cell; a ``GraphParseError`` for a cell that is
    not an integer or does not fit in int64."""
    try:
        node = int(cell)
    except ValueError:
        raise GraphParseError(name, line_no, f"node id must be an integer, got {cell!r}")
    if not _ID_MIN <= node <= _ID_MAX:
        raise GraphParseError(name, line_no, f"node id {node} does not fit in int64")
    return node


def labels_to_csv_bytes(rows: Iterable[LabelRow]) -> bytes:
    return table_bytes(
        [f.name for f in fields(LabelRow)],
        (
            (
                r.node,
                _format_cell(r.is_org_member),
                _format_cell(r.is_manager),
                _format_cell(r.discloses_position),
                r.community,
                r.location,
            )
            for r in sorted(rows, key=lambda r: r.node)
        ),
    )


def _parse_bool(token: str, name: str, line_no: int) -> bool | None:
    token = token.strip().lower()
    if token == "":
        return None
    if token not in _BOOL_TOKENS:
        raise GraphParseError(name, line_no, f"bad boolean {token!r}")
    return _BOOL_TOKENS[token]


def load_labels(source: str | Path | bytes) -> dict[int, LabelRow]:
    """Parse a label CSV into a node -> LabelRow map."""
    name, header_line, header, rows = read_table(source)
    if "node" not in header:
        raise GraphParseError(name, header_line, "label file needs a 'node' column")
    unknown = set(header) - {f.name for f in fields(LabelRow)}
    if unknown:
        raise GraphParseError(name, header_line, f"unknown label columns {sorted(unknown)}")
    out: dict[int, LabelRow] = {}
    for line_no, row in rows:
        cells = dict(zip(header, row))
        node = parse_node_id(cells.get("node", ""), name, line_no)
        if node in out:
            raise GraphParseError(name, line_no, f"duplicate label row for {node}")
        community_raw = cells.get("community", "").strip()
        try:
            community = int(community_raw) if community_raw else None
        except ValueError:
            raise GraphParseError(
                name, line_no, f"community must be an integer, got {community_raw!r}"
            )
        out[node] = LabelRow(
            node=node,
            is_org_member=_parse_bool(cells.get("is_org_member", ""), name, line_no),
            is_manager=_parse_bool(cells.get("is_manager", ""), name, line_no),
            discloses_position=_parse_bool(
                cells.get("discloses_position", ""), name, line_no
            ),
            community=community,
            location=cells.get("location", "").strip() or None,
        )
    return out


# -- anonymization -------------------------------------------------------------


def anonymize(
    g: SocialGraph, seed: int, retain_labels: bool = False
) -> tuple[SocialGraph, dict[int, int]]:
    """Relabel nodes onto ``0..n-1`` with a seed-determined permutation.

    All free-text profile fields are dropped. The ground-truth booleans
    (``is_org_member``, ``is_manager``) survive only when
    ``retain_labels`` is set; ``discloses_position`` always resets since
    the position it refers to is gone. Returns the new graph and the
    old -> new id map.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.num_nodes)
    id_map = {old: int(perm[i]) for i, old in enumerate(g.nodes)}
    edges = [(id_map[u], id_map[v]) for u, v in g.edges()]
    profiles: dict[int, Profile] = {}
    if retain_labels:
        for old, p in g.profiles.items():
            if p.is_org_member is None and p.is_manager is None:
                continue
            profiles[id_map[old]] = Profile(
                node=id_map[old],
                is_org_member=p.is_org_member,
                is_manager=p.is_manager,
            )
    return SocialGraph(range(g.num_nodes), edges, profiles), id_map


# -- exports -------------------------------------------------------------------


def export_graph(
    g: SocialGraph,
    fmt: str,
    communities: Mapping[int, int | str] | None = None,
) -> bytes:
    """Serialize the graph to one of ``EXPORT_FORMATS``.

    ``communities`` adds a per-node community attribute where the format
    can carry one (GraphML, DOT, CSV).
    """
    if fmt == "edge-list":
        return edge_list_bytes(g)
    if fmt == "graphml":
        return _graphml_bytes(g, communities)
    if fmt == "dot":
        return _dot_bytes(g, communities)
    if fmt == "csv":
        return _csv_tables_bytes(g, communities)
    raise GraphError(f"unsupported export format {fmt!r}; use one of {EXPORT_FORMATS}")


_GRAPHML_ATTRS = (
    ("name", "string"),
    ("employers", "string"),  # JSON-encoded list
    ("position", "string"),
    ("location", "string"),
    ("is_org_member", "boolean"),
    ("is_manager", "boolean"),
    ("discloses_position", "boolean"),
    ("community", "string"),
)


def _graphml_text(value) -> str:
    """A ``profile_to_dict`` value as GraphML data text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return json.dumps(value) if isinstance(value, list) else value


def _graphml_bytes(g: SocialGraph, communities) -> bytes:
    import xml.etree.ElementTree as ET  # on first use: only this writer needs it

    ET.register_namespace("", _GRAPHML_NS)
    root = ET.Element(f"{{{_GRAPHML_NS}}}graphml")
    used: dict[str, str] = {}

    def node_values(v: int) -> dict[str, str]:
        p = g.profile(v)
        vals = {} if p is None else {
            attr: _graphml_text(value)
            for attr, value in profile_to_dict(p).items()
            if attr != "node"
        }
        if communities is not None and v in communities:
            vals["community"] = str(communities[v])
        return vals

    per_node = {v: node_values(v) for v in g.nodes}
    for attr, kind in _GRAPHML_ATTRS:
        if any(attr in vals for vals in per_node.values()):
            key_id = f"d{len(used)}"
            used[attr] = key_id
            ET.SubElement(
                root,
                f"{{{_GRAPHML_NS}}}key",
                {"id": key_id, "for": "node", "attr.name": attr, "attr.type": kind},
            )
    graph_el = ET.SubElement(
        root, f"{{{_GRAPHML_NS}}}graph", {"id": "G", "edgedefault": "undirected"}
    )
    for v in g.nodes:
        node_el = ET.SubElement(graph_el, f"{{{_GRAPHML_NS}}}node", {"id": str(v)})
        for attr, value in per_node[v].items():
            data = ET.SubElement(
                node_el, f"{{{_GRAPHML_NS}}}data", {"key": used[attr]}
            )
            data.text = value
    for u, v in g.edges():
        ET.SubElement(
            graph_el,
            f"{{{_GRAPHML_NS}}}edge",
            {"source": str(u), "target": str(v)},
        )
    buf = io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue() + b"\n"


def _dot_bytes(g: SocialGraph, communities) -> bytes:
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph G {"]
    for v in g.nodes:
        attrs = []
        if communities is not None and v in communities:
            attrs.append(f"community={quote(str(communities[v]))}")
        p = g.profile(v)
        if p is not None and p.is_manager is not None:
            attrs.append(f"manager={quote('true' if p.is_manager else 'false')}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_tables_bytes(g: SocialGraph, communities) -> bytes:
    header = [f.name for f in fields(Profile)]
    blank = [None] * (len(header) - 1)  # the cells of a node without a profile
    if communities is not None:
        header.append("community")

    def row(v: int) -> list:
        p = g.profile(v)
        cells = [v, *blank] if p is None else [
            v,
            p.name,
            json.dumps(list(p.employers)) if p.employers else None,
            p.position,
            p.location,
            _format_cell(p.is_org_member),
            _format_cell(p.is_manager),
            _format_cell(p.discloses_position),
        ]
        if communities is not None:
            cells.append(communities.get(v))
        return cells

    return (
        b"# nodes\n" + table_bytes(header, map(row, g.nodes))
        + b"# edges\n" + table_bytes(("source", "target"), g.edges())
    )
