"""Greedy modularity communities and majority-vote role inference.

Community detection is the agglomerative greedy: start from singleton
communities and repeatedly merge the pair with the largest modularity
gain, maintained in a lazy max-heap that holds only positive gains,
until no merge improves Q.  Ties break on the smaller community-id pair,
and a community inherits the smaller id on merge, so the partition is
deterministic.

Role inference turns position text into coarse categories through an
ordered keyword table (shipped as editable JSON) and assigns each
community the majority category and location of its members, flagging
communities whose vote is too thin to trust.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from dataclasses import astuple, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .graph import GraphError, SocialGraph, table_bytes
from .utils import decode_dataclass, read_json


class PartitionError(GraphError):
    pass


# -- position normalization -------------------------------------------------------


class RoleRuleError(ValueError):
    """A role-rule table is malformed."""


@dataclass(frozen=True)
class RoleRule:
    category: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class _RuleTable:
    rules: tuple[RoleRule, ...]
    comment: str = ""


def load_role_rules(path: str | Path | None = None) -> tuple[RoleRule, ...]:
    """Load the ordered keyword rules, from the bundled table by default. An
    unknown or missing key, a value of the wrong JSON type, an empty table
    or a rule without keywords is a ``RoleRuleError``."""
    source = resources.files("orgminer") / "data/role_rules.json" if path is None else path
    raw = read_json(source, RoleRuleError)
    table = decode_dataclass(_RuleTable, raw, RoleRuleError, "role rule table")
    for rule in table.rules:
        if not rule.keywords:
            raise RoleRuleError(f"rule {rule.category!r} has no keywords")
    if not table.rules:
        raise RoleRuleError("role rule table is empty")
    return tuple(RoleRule(r.category, tuple(map(str.casefold, r.keywords))) for r in table.rules)


@functools.cache
def default_role_rules() -> tuple[RoleRule, ...]:
    return load_role_rules()


def normalize_position(
    text: str | None, rules: Sequence[RoleRule] | None = None
) -> str | None:
    """Map free-form position text to the first matching category."""
    if text is None:
        return None
    if rules is None:
        rules = default_role_rules()
    folded = " ".join(text.casefold().split())
    for rule in rules:
        for keyword in rule.keywords:
            if keyword in folded:
                return rule.category
    return None


# -- modularity and detection -----------------------------------------------------


@dataclass(frozen=True)
class MergeStep:
    first: int
    second: int
    gain: float
    q_after: float


@dataclass(frozen=True)
class Partition:
    assignment: dict[int, int]
    q: float
    merges: tuple[MergeStep, ...] = field(default=(), compare=False)

    def communities(self) -> dict[int, tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for node, comm in self.assignment.items():
            groups.setdefault(comm, []).append(node)
        return {c: tuple(sorted(vs)) for c, vs in sorted(groups.items())}

    def __len__(self) -> int:
        return len(set(self.assignment.values()))


def modularity(g: SocialGraph, assignment: Mapping[int, int]) -> float:
    """Q = sum over communities of (internal edge fraction - endpoint fraction^2)."""
    missing = [v for v in g.nodes if v not in assignment]
    if missing:
        raise PartitionError(f"partition does not cover nodes: {missing[:5]}")
    m = g.num_edges
    if m == 0:
        return 0.0
    internal = _internal_link_counts(g, assignment)
    degree_sum: Counter[int] = Counter()
    for v in g.nodes:
        degree_sum[assignment[v]] += g.degree(v)
    q = 0.0
    for comm in sorted(degree_sum):
        q += internal.get(comm, 0) / m - (degree_sum[comm] / (2.0 * m)) ** 2
    return q


def _internal_link_counts(
    g: SocialGraph, assignment: Mapping[int, int]
) -> Counter[int]:
    counts: Counter[int] = Counter()
    for u, v in g.edges():
        if assignment[u] == assignment[v]:
            counts[assignment[u]] += 1
    return counts


def _renumber(raw: Mapping[int, int]) -> dict[int, int]:
    # consecutive ids ordered by each community's smallest node
    smallest: dict[int, int] = {}
    for node, comm in raw.items():
        if comm not in smallest or node < smallest[comm]:
            smallest[comm] = node
    order = {c: i for i, (_, c) in enumerate(sorted((s, c) for c, s in smallest.items()))}
    return {node: order[comm] for node, comm in sorted(raw.items())}


def detect_communities(g: SocialGraph) -> Partition:
    """Agglomerative greedy modularity maximization from singletons.

    Merge gain for communities a, b: m_ab/m - D_a*D_b/(2m^2).  The heap
    holds (-gain, a, b) only for pairs with a positive gain, validated
    against per-community version counters; stale entries are dropped on
    pop.  Stops when no positive gain is left, which on a strictly
    increasing Q trace is the peak.  Isolated nodes never join a pair
    and stay singletons.
    """
    nodes = g.nodes
    m = g.num_edges
    if m == 0:
        return Partition({v: i for i, v in enumerate(nodes)}, 0.0, ())

    between: dict[int, dict[int, int]] = {v: {} for v in nodes}
    for u, v in g.edges():
        between[u][v] = 1
        between[v][u] = 1
    degree_sum = {v: g.degree(v) for v in nodes}
    version = {v: 0 for v in nodes}
    members: dict[int, list[int]] = {v: [v] for v in nodes}

    def gain(a: int, b: int) -> float:
        return between[a][b] / m - degree_sum[a] * degree_sum[b] / (2.0 * m * m)

    heap: list[tuple[float, int, int, int, int]] = []
    for u in nodes:
        for v in between[u]:
            if u < v and (dq := gain(u, v)) > 0.0:
                heap.append((-dq, u, v, 0, 0))
    heapq.heapify(heap)

    q = -sum((d / (2.0 * m)) ** 2 for d in degree_sum.values())
    merges: list[MergeStep] = []
    while heap:
        neg_dq, a, b, va, vb = heapq.heappop(heap)
        if version.get(a) != va or version.get(b) != vb:
            continue
        dq = -neg_dq
        q += dq
        merges.append(MergeStep(a, b, dq, q))
        # absorb b into a (a < b by construction)
        degree_sum[a] += degree_sum.pop(b)
        members[a].extend(members.pop(b))
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
            if (dq := gain(x, y)) > 0.0:
                heapq.heappush(heap, (-dq, x, y, version[x], version[y]))

    raw = {v: comm for comm, vs in members.items() for v in vs}
    return Partition(_renumber(raw), q, tuple(merges))


def adjusted_rand_index(a: Mapping[int, int], b: Mapping[int, int]) -> float:
    """Chance-corrected pairwise agreement between two partitions."""
    if set(a) != set(b):
        raise ValueError("partitions must cover the same node set")
    n = len(a)
    if n == 0:
        raise ValueError("empty partitions")
    contingency: Counter[tuple[int, int]] = Counter()
    size_a: Counter[int] = Counter()
    size_b: Counter[int] = Counter()
    for node in a:
        contingency[(a[node], b[node])] += 1
        size_a[a[node]] += 1
        size_b[b[node]] += 1
    sum_cells = sum(math.comb(c, 2) for c in contingency.values())
    sum_a = sum(math.comb(c, 2) for c in size_a.values())
    sum_b = sum(math.comb(c, 2) for c in size_b.values())
    total = math.comb(n, 2)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


# -- role inference and reporting --------------------------------------------------


# a community's vote is trusted with at least this many voters and winning share
_MIN_LABELED = 3
_MIN_SUPPORT = 0.3


@dataclass(frozen=True)
class CommunityRole:
    community: int
    size: int
    internal_links: int
    disclosed_positions: int
    classified_positions: int
    position: str | None
    position_support: float
    location: str | None
    location_support: float
    low_confidence: bool


def _majority(votes: Counter[str]) -> tuple[str | None, int]:
    if not votes:
        return None, 0
    # highest count, lexicographically smallest label on ties
    return min(votes.items(), key=lambda kv: (-kv[1], kv[0]))


def infer_roles(
    g: SocialGraph,
    partition: Partition,
    rules: Sequence[RoleRule] | None = None,
) -> list[CommunityRole]:
    """Majority-vote a category and location for every community.

    Votes come from members whose profile carries the relevant text;
    positions are classified with ``rules``, the bundled table by default.
    Support is the winner's share of cast votes; a community is flagged
    low-confidence when either vote has fewer than ``_MIN_LABELED`` voters
    or a winning share below ``_MIN_SUPPORT``.
    """
    links = _internal_link_counts(g, partition.assignment)
    out: list[CommunityRole] = []
    for comm, members in partition.communities().items():
        position_votes: Counter[str] = Counter()
        position_voters = 0
        location_votes: Counter[str] = Counter()
        for v in members:
            profile = g.profile(v)
            if profile is None:
                continue
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
            position_voters < _MIN_LABELED
            or position_support < _MIN_SUPPORT
            or location_voters < _MIN_LABELED
            or location_support < _MIN_SUPPORT
        )
        out.append(
            CommunityRole(
                community=comm,
                size=len(members),
                internal_links=links.get(comm, 0),
                disclosed_positions=position_voters,
                classified_positions=sum(position_votes.values()),
                position=position,
                position_support=position_support,
                location=location,
                location_support=location_support,
                low_confidence=low_confidence,
            )
        )
    return out


@dataclass(frozen=True)
class CommunityReportRow:
    community: int
    size: int
    internal_links: int
    disclosed_positions: int
    classified_positions: int
    description: str


def community_report(roles: Sequence[CommunityRole]) -> tuple[CommunityReportRow, ...]:
    """One row per community: sizes, link and position counts, and the
    inferred role, or "unclassified" when its vote is not trusted."""
    rows: list[CommunityReportRow] = []
    for role in roles:
        if role.low_confidence or role.position is None:
            description = "unclassified (low confidence)"
        else:
            where = role.location if role.location is not None else "unknown location"
            description = f"{role.position} / {where}"
        rows.append(
            CommunityReportRow(
                community=role.community,
                size=role.size,
                internal_links=role.internal_links,
                disclosed_positions=role.disclosed_positions,
                classified_positions=role.classified_positions,
                description=description,
            )
        )
    return tuple(rows)


def partition_table_bytes(partition: Partition) -> bytes:
    return table_bytes(("node", "community"), sorted(partition.assignment.items()))


def report_table_bytes(rows: Sequence[CommunityReportRow]) -> bytes:
    return table_bytes([f.name for f in fields(CommunityReportRow)], map(astuple, rows))
