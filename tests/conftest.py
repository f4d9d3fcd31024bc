"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from orgminer import OrgSpec, SocialGraph, WorldSpec

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=40,
)
settings.load_profile("suite")


def random_graph(seed: int, n: int, p: float, force_edge: bool = True) -> SocialGraph:
    """Erdos-Renyi sample; force_edge pins (0,1) so no graph is edgeless."""
    rng = np.random.default_rng(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    if force_edge and not edges and n >= 2:
        edges.append((0, 1))
    return SocialGraph(range(n), edges)


@st.composite
def small_graphs(draw, min_nodes: int = 2, max_nodes: int = 12):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    return SocialGraph(range(n), edges)


@st.composite
def connected_graphs(draw, min_nodes: int = 2, max_nodes: int = 10):
    """Random spanning tree plus extra edges, so distances are all finite."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=n))
    edges.update(extra)
    return SocialGraph(range(n), sorted(edges))


def write_half_then_fail(self, data):
    """Stand-in for ``Path.write_bytes`` that dies halfway through."""
    with open(self, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("disk full")


def path_graph(n: int) -> SocialGraph:
    return SocialGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SocialGraph:
    return SocialGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> SocialGraph:
    return SocialGraph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def crawl_world_spec(seed: int) -> WorldSpec:
    """Mid-size world used by the crawler audit tests."""
    return WorldSpec(
        total_population=400,
        orgs=(
            OrgSpec(
                name_keywords=("acme corp", "acme"),
                size=60,
                community_count=2,
                intra_community_edge_prob=0.25,
                inter_community_edge_prob=0.05,
            ),
        ),
        background_edge_prob=0.01,
        cross_boundary_edge_prob=0.03,
        rng_seed=seed,
    )


def leadership_world_spec(seed: int, size: int = 500, boost: float = 3.0) -> WorldSpec:
    """Org with degree-boosted managers; the ranking/classifier testbed."""
    return WorldSpec(
        total_population=size + 100,
        orgs=(
            OrgSpec(
                name_keywords=("acme corp",),
                size=size,
                community_count=5,
                intra_community_edge_prob=0.1,
                inter_community_edge_prob=0.01,
                manager_fraction=0.15,
                manager_degree_boost=boost,
                position_disclosure_rate=0.6,
                location_labels=("east", "west"),
            ),
        ),
        background_edge_prob=0.002,
        cross_boundary_edge_prob=0.01,
        rng_seed=seed,
    )


def two_community_spec(seed: int, disclosure: float = 1.0) -> WorldSpec:
    """Two well-separated planted communities of 40 members each."""
    return WorldSpec(
        total_population=100,
        orgs=(
            OrgSpec(
                name_keywords=("acme corp",),
                size=80,
                community_count=2,
                intra_community_edge_prob=0.5,
                inter_community_edge_prob=0.02,
                manager_fraction=0.1,
                position_disclosure_rate=disclosure,
                location_labels=("east", "west"),
            ),
        ),
        background_edge_prob=0.005,
        cross_boundary_edge_prob=0.005,
        rng_seed=seed,
    )
