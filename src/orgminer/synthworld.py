"""Synthetic social worlds with planted organizations and ground truth.

A world is a planted-partition graph: each organization splits into
communities, members link densely inside a community, sparsely across
communities, and the background population links at its own low rate.
Managers get a configurable degree boost. Every member's employer text
contains one of the org's name keywords, so a keyword-matching crawler
can confirm membership; position and location text appear only on
profiles that disclose them.

The same spec and seed always produce a bit-identical world.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .graph import LabelRow, Profile, SocialGraph
from .utils import apportion, stable_json


class WorldSpecError(ValueError):
    """The world description is inconsistent or infeasible."""


class UnknownProfileError(KeyError):
    """A fetch asked for an id the source does not know."""


# Position text pools. Non-management pools deliberately avoid management
# keywords so planted community roles stay unambiguous.
MANAGEMENT_POSITIONS = (
    "team leader",
    "project manager",
    "group manager",
    "vp engineering",
    "director of operations",
)

CATEGORY_POSITIONS: dict[str, tuple[str, ...]] = {
    "R&D": (
        "software developer",
        "hardware engineer",
        "qa engineer",
        "systems architect",
    ),
    "Sales": ("sales representative", "account executive", "sales analyst"),
    "Support": ("support engineer", "customer support specialist", "helpdesk agent"),
    "IT": ("it administrator", "network technician", "sysadmin"),
    "Marketing": ("marketing analyst", "content strategist", "marketing coordinator"),
}

CATEGORY_CYCLE = ("R&D", "Sales", "Support", "IT", "Marketing")

_BACKGROUND_EMPLOYERS = tuple(f"unrelated firm {i:03d}" for i in range(40))


@dataclass(frozen=True)
class OrgSpec:
    """One planted organization."""

    name_keywords: tuple[str, ...]
    size: int
    community_count: int = 1
    intra_community_edge_prob: float = 0.1
    inter_community_edge_prob: float = 0.0
    manager_fraction: float = 0.0
    manager_degree_boost: float = 1.0
    position_disclosure_rate: float = 1.0
    location_labels: tuple[str, ...] = ("HQ",)

    def __post_init__(self):
        object.__setattr__(self, "name_keywords", tuple(self.name_keywords))
        object.__setattr__(self, "location_labels", tuple(self.location_labels))
        if not self.name_keywords:
            raise WorldSpecError("an org needs at least one name keyword")
        if self.size < 1:
            raise WorldSpecError("org size must be positive")
        if not 1 <= self.community_count <= self.size:
            raise WorldSpecError("community_count must be in [1, size]")
        for prob_name in (
            "intra_community_edge_prob",
            "inter_community_edge_prob",
            "position_disclosure_rate",
        ):
            p = getattr(self, prob_name)
            if not 0.0 <= p <= 1.0:
                raise WorldSpecError(f"{prob_name} must be in [0, 1]")
        if self.intra_community_edge_prob < self.inter_community_edge_prob:
            raise WorldSpecError(
                "intra_community_edge_prob must be >= inter_community_edge_prob"
            )
        if not 0.0 <= self.manager_fraction <= 1.0:
            raise WorldSpecError("manager_fraction must be in [0, 1]")
        if self.manager_degree_boost < 1.0:
            raise WorldSpecError("manager_degree_boost must be >= 1")
        if not self.location_labels:
            raise WorldSpecError("location_labels must be non-empty")

    def to_dict(self) -> dict:
        return {
            "name_keywords": list(self.name_keywords),
            "size": self.size,
            "community_count": self.community_count,
            "intra_community_edge_prob": self.intra_community_edge_prob,
            "inter_community_edge_prob": self.inter_community_edge_prob,
            "manager_fraction": self.manager_fraction,
            "manager_degree_boost": self.manager_degree_boost,
            "position_disclosure_rate": self.position_disclosure_rate,
            "location_labels": list(self.location_labels),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "OrgSpec":
        return cls(
            name_keywords=tuple(d["name_keywords"]),
            size=int(d["size"]),
            community_count=int(d.get("community_count", 1)),
            intra_community_edge_prob=float(d.get("intra_community_edge_prob", 0.1)),
            inter_community_edge_prob=float(d.get("inter_community_edge_prob", 0.0)),
            manager_fraction=float(d.get("manager_fraction", 0.0)),
            manager_degree_boost=float(d.get("manager_degree_boost", 1.0)),
            position_disclosure_rate=float(d.get("position_disclosure_rate", 1.0)),
            location_labels=tuple(d.get("location_labels", ("HQ",))),
        )


@dataclass(frozen=True)
class WorldSpec:
    """Full description of a synthetic world."""

    total_population: int
    orgs: tuple[OrgSpec, ...]
    background_edge_prob: float = 0.0
    cross_boundary_edge_prob: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "orgs", tuple(self.orgs))
        if self.total_population < 1:
            raise WorldSpecError("total_population must be positive")
        if not self.orgs:
            raise WorldSpecError("a world needs at least one org")
        if sum(o.size for o in self.orgs) > self.total_population:
            raise WorldSpecError("org sizes exceed total_population")
        for prob_name in ("background_edge_prob", "cross_boundary_edge_prob"):
            p = getattr(self, prob_name)
            if not 0.0 <= p <= 1.0:
                raise WorldSpecError(f"{prob_name} must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "total_population": self.total_population,
            "orgs": [o.to_dict() for o in self.orgs],
            "background_edge_prob": self.background_edge_prob,
            "cross_boundary_edge_prob": self.cross_boundary_edge_prob,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "WorldSpec":
        return cls(
            total_population=int(d["total_population"]),
            orgs=tuple(OrgSpec.from_dict(o) for o in d["orgs"]),
            background_edge_prob=float(d.get("background_edge_prob", 0.0)),
            cross_boundary_edge_prob=float(d.get("cross_boundary_edge_prob", 0.0)),
            rng_seed=int(d.get("rng_seed", 0)),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "WorldSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class CommunityInfo:
    """Planted truth for one community."""

    community: int
    org: int
    members: tuple[int, ...]
    category: str
    location: str


@dataclass
class WorldTruth:
    """Ground-truth tables for a generated world."""

    org_keywords: tuple[tuple[str, ...], ...]
    members: tuple[tuple[int, ...], ...]  # per org, ascending node ids
    managers: frozenset[int]
    node_org: dict[int, int | None]
    node_community: dict[int, int | None]
    communities: dict[int, CommunityInfo]
    positions: dict[int, str]  # true position text, members only
    locations: dict[int, str]
    disclosure: dict[int, bool]

    def all_members(self) -> frozenset[int]:
        return frozenset(v for ms in self.members for v in ms)

    def label_rows(self) -> list[LabelRow]:
        rows = []
        for v in sorted(self.node_org):
            member = self.node_org[v] is not None
            rows.append(
                LabelRow(
                    node=v,
                    is_org_member=member,
                    is_manager=v in self.managers if member else False,
                    discloses_position=self.disclosure.get(v, False),
                    community=self.node_community[v],
                    location=self.locations.get(v),
                )
            )
        return rows


class FetchSource(Protocol):
    """Profile server a crawler talks to."""

    @property
    def fetch_count(self) -> int: ...

    @property
    def fingerprint(self) -> str: ...

    def fetch_profile(self, node: int) -> tuple[Profile, tuple[int, ...]]: ...


class InMemorySource:
    """Serves a fixed graph; deterministic, with a thread-safe fetch counter.

    A friend list is an immutable sorted tuple, sorted on the node's first
    fetch and kept in ``friends``, a cache that every source of one world
    shares (``World.fresh_source``), so each list is sorted once per world
    and repeat fetches return the same tuple. Each source counts its own
    fetches.
    """

    def __init__(
        self,
        graph: SocialGraph,
        fingerprint: str,
        friends: dict[int, tuple[int, ...]] | None = None,
    ):
        self._graph = graph
        self._fingerprint = fingerprint
        self._friends = {} if friends is None else friends
        self._count = 0
        self._lock = threading.Lock()

    @property
    def fetch_count(self) -> int:
        return self._count

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def fetch_profile(self, node: int) -> tuple[Profile, tuple[int, ...]]:
        with self._lock:
            self._count += 1
        friends = self._friends.get(node)
        if friends is None:
            if not self._graph.has_node(node):
                raise UnknownProfileError(node)
            # setdefault: of two threads sorting one list, both keep the first
            friends = self._friends.setdefault(
                node, tuple(sorted(self._graph.neighbors(node)))
            )
        profile = self._graph.profile(node)
        if profile is None:
            profile = Profile(node=node)
        return profile, friends


@dataclass
class World:
    """A generated world: spec, full graph, ground truth, fetch source."""

    spec: WorldSpec
    graph: SocialGraph
    truth: WorldTruth
    source: InMemorySource

    @property
    def fingerprint(self) -> str:
        return self.source.fingerprint

    def fresh_source(self) -> InMemorySource:
        """A new source over the same world, with its own fetch counter and
        the friend-list cache of ``source``."""
        return InMemorySource(self.graph, self.fingerprint, self.source._friends)


# -- edge sampling -------------------------------------------------------------


def _pair_from_index(k: int, n: int) -> tuple[int, int]:
    """Decode a combination index into the k-th pair (i < j) of range(n)."""
    # Row i of the strictly-upper triangle starts at offset i*(2n - i - 1)/2.
    # isqrt floors the root, which can push the row estimate one too high;
    # nudge until the row actually brackets k.
    b = 2 * n - 1
    i = (b - math.isqrt(b * b - 8 * k)) // 2
    while i > 0 and i * (2 * n - i - 1) // 2 > k:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= k:
        i += 1
    start = i * (2 * n - i - 1) // 2
    j = k - start + i + 1
    return i, j


def _distinct_indices(rng: np.random.Generator, total: int, m: int) -> np.ndarray:
    """m distinct indices from range(total), deterministic under the rng."""
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


def _sample_within(
    rng: np.random.Generator, ids: Sequence[int], p: float
) -> list[tuple[int, int]]:
    n = len(ids)
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return []
    m = total if p >= 1.0 else int(rng.binomial(total, p))
    ks = np.sort(_distinct_indices(rng, total, m))
    pairs = []
    for k in ks:
        i, j = _pair_from_index(int(k), n)
        pairs.append((int(ids[i]), int(ids[j])))
    return pairs


def _sample_across(
    rng: np.random.Generator, a: Sequence[int], b: Sequence[int], p: float
) -> list[tuple[int, int]]:
    total = len(a) * len(b)
    if total == 0 or p <= 0.0:
        return []
    m = total if p >= 1.0 else int(rng.binomial(total, p))
    ks = np.sort(_distinct_indices(rng, total, m))
    nb = len(b)
    return [(int(a[int(k) // nb]), int(b[int(k) % nb])) for k in ks]


# -- generation ----------------------------------------------------------------


def generate_world(spec: WorldSpec) -> World:
    """Materialize a world from its spec. Same spec + seed => same world."""
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.total_population

    # Membership is uncorrelated with node id: carve orgs from a permutation.
    order = rng.permutation(n)
    cursor = 0
    org_members: list[np.ndarray] = []
    for org in spec.orgs:
        org_members.append(np.sort(order[cursor : cursor + org.size]))
        cursor += org.size
    background = np.sort(order[cursor:])

    # Split each org into communities, again shuffled so community id and
    # node id stay uncorrelated.
    node_org: dict[int, int | None] = {v: None for v in range(n)}
    node_community: dict[int, int | None] = {v: None for v in range(n)}
    communities: dict[int, list[int]] = {}
    community_org: dict[int, int] = {}
    next_community = 0
    for oi, org in enumerate(spec.orgs):
        for v in org_members[oi]:
            node_org[int(v)] = oi
        shuffled = rng.permutation(org_members[oi])
        sizes = apportion(org.size, [1.0] * org.community_count)
        offset = 0
        for size in sizes:
            members = sorted(int(v) for v in shuffled[offset : offset + size])
            communities[next_community] = members
            community_org[next_community] = oi
            for v in members:
                node_community[v] = next_community
            offset += size
            next_community += 1

    # Edge classes partition the set of node pairs; each is sampled once.
    adj: dict[int, set[int]] = {v: set() for v in range(n)}

    def add_edges(pairs: Iterable[tuple[int, int]]) -> None:
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)

    org_community_ids = [
        [c for c in communities if community_org[c] == oi]
        for oi in range(len(spec.orgs))
    ]
    for oi, org in enumerate(spec.orgs):
        cids = org_community_ids[oi]
        for idx, c in enumerate(cids):
            add_edges(_sample_within(rng, communities[c], org.intra_community_edge_prob))
            for c2 in cids[idx + 1 :]:
                add_edges(
                    _sample_across(
                        rng,
                        communities[c],
                        communities[c2],
                        org.inter_community_edge_prob,
                    )
                )
    # Members of different orgs count as cross-boundary contacts too.
    for oi in range(len(spec.orgs)):
        for oj in range(oi + 1, len(spec.orgs)):
            add_edges(
                _sample_across(
                    rng,
                    org_members[oi],
                    org_members[oj],
                    spec.cross_boundary_edge_prob,
                )
            )
    for oi in range(len(spec.orgs)):
        add_edges(
            _sample_across(
                rng, org_members[oi], background, spec.cross_boundary_edge_prob
            )
        )
    add_edges(_sample_within(rng, background, spec.background_edge_prob))

    # Managers: per-org total = floor(size * fraction), spread over
    # communities by largest remainder, chosen uniformly inside each.
    managers: set[int] = set()
    for oi, org in enumerate(spec.orgs):
        total_managers = math.floor(org.size * org.manager_fraction + 1e-9)
        cids = org_community_ids[oi]
        weights = [len(communities[c]) for c in cids]
        counts = apportion(total_managers, weights)
        for c, count in zip(cids, counts):
            members = communities[c]
            picks = rng.permutation(len(members))[:count]
            managers.update(members[i] for i in sorted(int(x) for x in picks))

        # Degree boost: add within-community edges until each manager's
        # within-community degree reaches boost * expected base degree.
        if org.manager_degree_boost > 1.0:
            for c in cids:
                members = communities[c]
                csize = len(members)
                target = int(
                    round(
                        org.manager_degree_boost
                        * org.intra_community_edge_prob
                        * (csize - 1)
                    )
                )
                member_set = set(members)
                for v in sorted(m for m in members if m in managers):
                    within = len(adj[v] & member_set)
                    deficit = min(target, csize - 1) - within
                    if deficit <= 0:
                        continue
                    candidates = sorted(member_set - adj[v] - {v})
                    picks = rng.permutation(len(candidates))[:deficit]
                    add_edges((v, candidates[i]) for i in sorted(int(x) for x in picks))

    # Per-community planted category and location.
    community_info: dict[int, CommunityInfo] = {}
    for c in sorted(communities):
        org = spec.orgs[community_org[c]]
        local_index = org_community_ids[community_org[c]].index(c)
        community_info[c] = CommunityInfo(
            community=c,
            org=community_org[c],
            members=tuple(communities[c]),
            category=CATEGORY_CYCLE[local_index % len(CATEGORY_CYCLE)],
            location=org.location_labels[local_index % len(org.location_labels)],
        )

    # Profiles, drawn in ascending node order for determinism.
    positions: dict[int, str] = {}
    locations: dict[int, str] = {}
    disclosure: dict[int, bool] = {}
    profiles: dict[int, Profile] = {}
    for v in range(n):
        oi = node_org[v]
        if oi is None:
            employer = _BACKGROUND_EMPLOYERS[
                int(rng.integers(0, len(_BACKGROUND_EMPLOYERS)))
            ]
            profiles[v] = Profile(
                node=v,
                name=f"user {v}",
                employers=(employer,),
                is_org_member=False,
                is_manager=False,
            )
            continue
        org = spec.orgs[oi]
        info = community_info[node_community[v]]  # type: ignore[index]
        keyword = org.name_keywords[int(rng.integers(0, len(org.name_keywords)))]
        employer = keyword if rng.random() < 0.8 else f"works at {keyword}"
        if v in managers:
            position = MANAGEMENT_POSITIONS[
                int(rng.integers(0, len(MANAGEMENT_POSITIONS)))
            ]
        else:
            pool = CATEGORY_POSITIONS[info.category]
            position = pool[int(rng.integers(0, len(pool)))]
        discloses = bool(rng.random() < org.position_disclosure_rate)
        positions[v] = position
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

    edges = sorted(
        (u, v) for u, nbrs in adj.items() for v in nbrs if u < v
    )
    graph = SocialGraph(range(n), edges, profiles)
    truth = WorldTruth(
        org_keywords=tuple(o.name_keywords for o in spec.orgs),
        members=tuple(tuple(int(v) for v in ms) for ms in org_members),
        managers=frozenset(managers),
        node_org=node_org,
        node_community=node_community,
        communities=community_info,
        positions=positions,
        locations=locations,
        disclosure=disclosure,
    )
    fingerprint = _world_fingerprint(spec, graph)
    return World(spec, graph, truth, InMemorySource(graph, fingerprint))


def _world_fingerprint(spec: WorldSpec, graph: SocialGraph) -> str:
    h = hashlib.sha256()
    h.update(stable_json(spec.to_dict()).encode("utf-8"))
    h.update(f"|n={graph.num_nodes}|m={graph.num_edges}".encode("utf-8"))
    for u, v in graph.edges():
        h.update(f"{u},{v};".encode("utf-8"))
    return h.hexdigest()[:16]


# -- census --------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    org: str
    members: int
    links: int
    disclosing: int

    @property
    def disclosing_pct(self) -> float:
        return 100.0 * self.disclosing / self.members if self.members else 0.0


@dataclass(frozen=True)
class CensusReport:
    rows: tuple[CensusRow, ...]
    total: CensusRow


def disclosure_census(world: World) -> CensusReport:
    """Discovered members, within-org links, and disclosure counts per org."""
    rows = []
    total_members = total_links = total_disclosing = 0
    for oi, member_ids in enumerate(world.truth.members):
        member_set = set(member_ids)
        links = sum(
            1 for u, v in world.graph.edges() if u in member_set and v in member_set
        )
        disclosing = sum(1 for v in member_ids if world.truth.disclosure.get(v, False))
        rows.append(
            CensusRow(
                org=world.truth.org_keywords[oi][0],
                members=len(member_ids),
                links=links,
                disclosing=disclosing,
            )
        )
        total_members += len(member_ids)
        total_links += links
        total_disclosing += disclosing
    total = CensusRow(
        org="TOTAL",
        members=total_members,
        links=total_links,
        disclosing=total_disclosing,
    )
    return CensusReport(rows=tuple(rows), total=total)
