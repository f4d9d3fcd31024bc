"""Synthetic social worlds with planted organizations and ground truth.

A world is a planted-partition graph: each organization splits into
communities, members link densely inside a community, sparsely across
communities, and the background population links at its own low rate.
Managers get a configurable degree boost. Every member's employer text
contains one of the org's name keywords, so a keyword-matching crawler
can confirm membership; position and location text appear only on
profiles that disclose them.

The same spec and seed always produce a bit-identical world. A JSON spec
with an unknown or missing key or a mistyped value is a WorldSpecError.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Protocol

import numpy as np

from .graph import LabelRow, Profile, SocialGraph
from .utils import apportion, decode_dataclass, gc_paused, read_json, sorted_unique, stable_json


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


def _as_floats(spec, *names: str) -> None:
    """Store the named fields as floats, so specs that are equal hash and
    fingerprint alike whether a value was written 1 or 1.0."""
    for name in names:
        object.__setattr__(spec, name, float(getattr(spec, name)))


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
        _as_floats(self, "intra_community_edge_prob", "inter_community_edge_prob",
                   "manager_fraction", "manager_degree_boost", "position_disclosure_rate")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "OrgSpec":
        return decode_dataclass(cls, d, WorldSpecError, "org")


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
        _as_floats(self, "background_edge_prob", "cross_boundary_edge_prob")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "WorldSpec":
        """Strict decode by ``utils.decode_dataclass``; errors: WorldSpecError."""
        return decode_dataclass(cls, d, WorldSpecError, "world spec")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "WorldSpec":
        return cls.from_dict(read_json(path, WorldSpecError))


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
    locations: dict[int, str]
    disclosure: dict[int, bool]

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
    """Profile server a crawler talks to. A fetch returns the node's
    profile and its friends, each listed once."""

    @property
    def fetch_count(self) -> int: ...

    @property
    def fingerprint(self) -> str: ...

    def fetch_profile(self, node: int) -> tuple[Profile, tuple[int, ...]]: ...


class InMemorySource:
    """Serves a fixed graph; deterministic, with a thread-safe fetch counter.

    A friend list is an immutable tuple in ascending id order, read from the
    graph's row on the node's first fetch and kept in ``friends``, a cache
    that every source of one world shares (``World.fresh_source``), so
    repeat fetches return the same tuple. Each source counts its own
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
            try:
                row = self._graph.sorted_neighbors(node)
            except KeyError:
                raise UnknownProfileError(node) from None
            # setdefault: of two threads reading one row, both keep the first
            friends = self._friends.setdefault(node, row)
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


def _pairs_from_indices(ks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode combination indices into the pairs (i < j) of range(n)."""
    # Row i of the strictly-upper triangle starts at offset i*(2n - i - 1)/2.
    # The float root estimates each row; past n = 2**26 or so it can miss
    # by one, so nudge the rows that miss until every row brackets its k.
    def start(i):
        return i * (2 * n - i - 1) // 2

    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8 * ks)) / 2).astype(np.int64)  # floor: both >= 0
    while (high := start(i) > ks).any():
        i -= high
    while (low := start(i + 1) <= ks).any():
        i += low
    return i, ks - start(i) + i + 1


def _distinct_indices(rng: np.random.Generator, total: int, m: int) -> np.ndarray:
    """m distinct indices from range(total), ascending, deterministic under
    the rng."""
    if m >= total:
        return np.arange(total, dtype=np.int64)
    if m > total // 3:
        return np.sort(rng.permutation(total)[:m])
    # rejection rounds: each draws as many indices as are still missing
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < m:
        draw = rng.integers(0, total, size=m - len(chosen))
        chosen = sorted_unique(np.concatenate((chosen, draw)))
    return chosen


def _edge_count(rng: np.random.Generator, total: int, p: float) -> int:
    if total == 0 or p <= 0.0:
        return 0
    return total if p >= 1.0 else int(rng.binomial(total, p))


def _sample_within(
    rng: np.random.Generator, ids: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    n = len(ids)
    total = n * (n - 1) // 2
    i, j = _pairs_from_indices(_distinct_indices(rng, total, _edge_count(rng, total, p)), n)
    return ids[i], ids[j]


def _sample_across(
    rng: np.random.Generator, a: np.ndarray, b: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    total = len(a) * len(b)
    ks = _distinct_indices(rng, total, _edge_count(rng, total, p))
    return a[ks // len(b)], b[ks % len(b)]


def _neighbour_sets(u: np.ndarray, v: np.ndarray, nodes: list[int]) -> dict[int, set[int]]:
    """The neighbour sets of ``nodes`` alone, in the graph of edges u–v."""
    nbrs: dict[int, set[int]] = {x: set() for x in nodes}
    for a, b in ((u, v), (v, u)):
        hit = np.isin(a, nodes)
        for x, y in zip(a[hit].tolist(), b[hit].tolist()):
            nbrs[x].add(y)
    return nbrs


# -- generation ----------------------------------------------------------------


def generate_world(spec: WorldSpec) -> World:
    """Materialize a world from its spec. Same spec + seed => same world.

    Edges are sampled as index arrays, and profiles by ``_draw_profiles``.
    Cyclic GC is paused throughout, as the build makes only acyclic
    containers.
    """
    with gc_paused():
        rng = np.random.default_rng(spec.rng_seed)
        n = spec.total_population
        ids = list(range(n))  # one int object per node, shared by the per-node dicts

        # Membership is uncorrelated with node id: carve orgs from a permutation.
        order = rng.permutation(n)
        cursor = 0
        org_members: list[np.ndarray] = []
        for org in spec.orgs:
            org_members.append(np.sort(order[cursor : cursor + org.size]))
            cursor += org.size
        background = np.sort(order[cursor:])

        # Split each org into communities, again shuffled so community id and
        # node id stay uncorrelated, each with its planted category and location.
        node_org: dict[int, int | None] = dict.fromkeys(ids)
        node_community: dict[int, int | None] = dict.fromkeys(ids)
        communities: dict[int, np.ndarray] = {}
        community_info: dict[int, CommunityInfo] = {}
        org_community_ids: list[list[int]] = []
        for oi, org in enumerate(spec.orgs):
            for v in org_members[oi].tolist():
                node_org[v] = oi
            shuffled = rng.permutation(org_members[oi])
            sizes = apportion(org.size, [1.0] * org.community_count)
            org_community_ids.append([])
            offset = 0
            for local_index, size in enumerate(sizes):
                c = len(communities)
                communities[c] = np.sort(shuffled[offset : offset + size])
                community_info[c] = CommunityInfo(
                    community=c,
                    org=oi,
                    members=tuple(communities[c].tolist()),
                    category=CATEGORY_CYCLE[local_index % len(CATEGORY_CYCLE)],
                    location=org.location_labels[local_index % len(org.location_labels)],
                )
                node_community.update(dict.fromkeys(community_info[c].members, c))
                org_community_ids[oi].append(c)
                offset += size

        # Edge classes partition the set of node pairs; each is sampled once.
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        for oi, org in enumerate(spec.orgs):
            cids = org_community_ids[oi]
            intra, inter = org.intra_community_edge_prob, org.inter_community_edge_prob
            for idx, c in enumerate(cids):
                pairs.append(_sample_within(rng, communities[c], intra))
                for c2 in cids[idx + 1 :]:
                    pairs.append(_sample_across(rng, communities[c], communities[c2], inter))
        # Members of different orgs count as cross-boundary contacts too.
        cross = spec.cross_boundary_edge_prob
        for oi in range(len(spec.orgs)):
            for oj in range(oi + 1, len(spec.orgs)):
                pairs.append(_sample_across(rng, org_members[oi], org_members[oj], cross))
        for oi in range(len(spec.orgs)):
            pairs.append(_sample_across(rng, org_members[oi], background, cross))
        pairs.append(_sample_within(rng, background, spec.background_edge_prob))
        eu, ev = (np.concatenate(side) for side in zip(*pairs))

        # Managers: per-org total = floor(size * fraction), spread over
        # communities by largest remainder, chosen uniformly inside each.
        managers: set[int] = set()
        boost_edges: list[tuple[int, int]] = []
        for oi, org in enumerate(spec.orgs):
            total_managers = math.floor(org.size * org.manager_fraction + 1e-9)
            cids = org_community_ids[oi]
            weights = [len(communities[c]) for c in cids]
            counts = apportion(total_managers, weights)
            org_managers: list[int] = []
            for c, count in zip(cids, counts):
                picks = rng.permutation(len(communities[c]))[:count]
                org_managers += communities[c][np.sort(picks)].tolist()
            managers.update(org_managers)

            # Degree boost: add within-community edges until each manager's
            # within-community degree reaches boost * expected base degree.
            # Only the org's managers' neighbour sets are ever read.
            if org.manager_degree_boost > 1.0:
                nbrs = _neighbour_sets(eu, ev, org_managers)
                boost = org.manager_degree_boost * org.intra_community_edge_prob
                for c in cids:
                    members = communities[c].tolist()
                    csize = len(members)
                    target = min(int(round(boost * (csize - 1))), csize - 1)
                    member_set = set(members)
                    for x in [m for m in members if m in nbrs]:  # ascending
                        deficit = target - len(nbrs[x] & member_set)
                        if deficit <= 0:
                            continue
                        candidates = sorted(member_set - nbrs[x] - {x})
                        picks = rng.permutation(len(candidates))[:deficit]
                        for i in sorted(picks.tolist()):
                            y = candidates[i]
                            nbrs[x].add(y)
                            if y in nbrs:
                                nbrs[y].add(x)
                            boost_edges.append((x, y))
        bu, bv = np.array(boost_edges, dtype=np.int64).reshape(-1, 2).T
        eu, ev = np.concatenate((eu, bu)), np.concatenate((ev, bv))

        profiles, locations, disclosure = _draw_profiles(
            rng, spec, node_org, node_community, community_info, managers
        )

        keys = sorted_unique(np.minimum(eu, ev) * n + np.maximum(eu, ev))
        lo, hi = keys // n, keys % n
        graph = SocialGraph(np.arange(n), np.column_stack((lo, hi)), profiles)
        truth = WorldTruth(
            org_keywords=tuple(o.name_keywords for o in spec.orgs),
            members=tuple(tuple(ms.tolist()) for ms in org_members),
            managers=frozenset(managers),
            node_org=node_org,
            node_community=node_community,
            communities=community_info,
            locations=locations,
            disclosure=disclosure,
        )
        fingerprint = _world_fingerprint(spec, n, lo, hi)
        return World(spec, graph, truth, InMemorySource(graph, fingerprint))


def _draw_profiles(
    rng: np.random.Generator,
    spec: WorldSpec,
    node_org: dict[int, int | None],
    node_community: dict[int, int | None],
    community_info: dict[int, CommunityInfo],
    managers: set[int],
) -> tuple[dict[int, Profile], dict[int, str], dict[int, bool]]:
    """Every node's profile in ascending node order, and each member's
    location and disclosure flag.

    A member's draws interleave integers and floats on the one stream, so
    they stay scalar. Each run of background nodes between two members
    takes its employers from one array draw: below 2**32, numpy's bounded
    int64 draw uses one 32-bit output per value in array and scalar form
    alike, so the run gets the values that one draw per node would give.
    """
    ids = list(node_org)  # ascending: the world's shared node-id objects
    members = [v for v in ids if node_org[v] is not None]
    locations: dict[int, str] = {}
    disclosure: dict[int, bool] = {}
    profiles: dict[int, Profile] = {}
    start = 0
    for v in [*members, len(ids)]:  # the end of the ids closes the last run
        if v > start:
            picks = rng.integers(0, len(_BACKGROUND_EMPLOYERS), size=v - start).tolist()
            for u, k in zip(ids[start:v], picks):
                profiles[u] = Profile(
                    node=u,
                    name=f"user {u}",
                    employers=(_BACKGROUND_EMPLOYERS[k],),
                    is_org_member=False,
                    is_manager=False,
                )
        if v == len(ids):
            break
        start = v + 1
        org = spec.orgs[node_org[v]]  # type: ignore[index]
        info = community_info[node_community[v]]  # type: ignore[index]
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


def _world_fingerprint(spec: WorldSpec, n: int, lo: np.ndarray, hi: np.ndarray) -> str:
    """Short digest of the spec and the sorted edge list ``lo[i]``–``hi[i]``."""
    h = hashlib.sha256()
    h.update(stable_json(spec.to_dict()).encode("utf-8"))
    h.update(f"|n={n}|m={len(lo)}".encode("utf-8"))
    pairs = np.column_stack((lo, hi)).ravel().tolist()
    h.update((("%d,%d;" * len(lo)) % tuple(pairs)).encode("utf-8"))
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
    """Discovered members, within-org links, and disclosure counts per org,
    from one pass over the edges."""
    truth = world.truth
    links = [0] * len(truth.members)
    for u, v in world.graph.edges():
        if (oi := truth.node_org[u]) is not None and oi == truth.node_org[v]:
            links[oi] += 1
    rows = tuple(
        CensusRow(
            org=keywords[0],
            members=len(member_ids),
            links=org_links,
            disclosing=sum(1 for v in member_ids if truth.disclosure.get(v, False)),
        )
        for keywords, member_ids, org_links in zip(truth.org_keywords, truth.members, links)
    )
    total = CensusRow(
        org="TOTAL",
        members=sum(r.members for r in rows),
        links=sum(r.links for r in rows),
        disclosing=sum(r.disclosing for r in rows),
    )
    return CensusReport(rows=rows, total=total)
