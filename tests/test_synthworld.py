import copy
import hashlib
import json
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orgminer import (
    CrawlConfig,
    OrgSpec,
    UnknownProfileError,
    WorldSpec,
    WorldSpecError,
    crawl,
    disclosure_census,
    generate_world,
    resume,
    save_state,
)
from orgminer import synthworld
from orgminer.pipeline import world_artifacts
from orgminer.utils import derive_seed

import bruteforce
from conftest import crawl_world_spec, org_members, two_community_spec


def clique_spec(seed: int = 0) -> WorldSpec:
    return WorldSpec(
        total_population=10,
        orgs=(OrgSpec(name_keywords=("acme",), size=10,
                      intra_community_edge_prob=1.0),),
        rng_seed=seed,
    )


def test_pair_index_decoding_is_exact():
    from orgminer.synthworld import _pairs_from_indices

    for n in (2, 3, 7, 10, 41):
        expected = [(i, j) for i in range(n) for j in range(i + 1, n)]
        i, j = _pairs_from_indices(np.arange(n * (n - 1) // 2), n)
        assert list(zip(i.tolist(), j.tolist())) == expected


# -- pinned worlds --------------------------------------------------------------


def _bench_org(size, communities, intra, inter, managers, locations) -> OrgSpec:
    return OrgSpec(("acme corp", "acme"), size=size, community_count=communities,
                   intra_community_edge_prob=intra, inter_community_edge_prob=inter,
                   manager_fraction=managers, manager_degree_boost=3.0,
                   position_disclosure_rate=0.6, location_labels=locations)


PINNED_WORLDS = {
    # the benchmark's pipeline world at master seed 1
    "pipeline-700": (
        WorldSpec(700, (_bench_org(600, 5, 0.1, 0.01, 0.15, ("east", "west")),),
                  background_edge_prob=0.002, cross_boundary_edge_prob=0.01,
                  rng_seed=derive_seed(1, "world")),
        "928469cc92f5ac7199cbf6c17c6bfa7162d2a119f0427c4297438c997099a338",
    ),
    # permutation draws (p > 1/3), a p = 1 clique, rejection draws (inter
    # 0.05) and a manager boost whose candidates include other managers
    "two-org-dense": (
        WorldSpec(120, (
            OrgSpec(("acme",), size=40, community_count=2, intra_community_edge_prob=0.9,
                    inter_community_edge_prob=0.05, manager_fraction=0.3,
                    manager_degree_boost=1.1, position_disclosure_rate=0.5,
                    location_labels=("east", "west")),
            OrgSpec(("globex", "globex inc"), size=20, community_count=2,
                    intra_community_edge_prob=1.0, inter_community_edge_prob=0.2,
                    manager_fraction=0.2, manager_degree_boost=2.0),
        ), background_edge_prob=0.5, cross_boundary_edge_prob=0.6, rng_seed=7),
        "ed60c26dc930bb2823ec480c1e0901a240454bc8321414af549e7e955bc455d4",
    ),
    # the benchmark's crawl world at seed 1
    "crawl-20k": (
        WorldSpec(20000, (_bench_org(2000, 8, 0.04, 0.004, 0.05, ("HQ", "North", "South")),),
                  background_edge_prob=0.0002, cross_boundary_edge_prob=0.001, rng_seed=1),
        "30e78c1028bb666332524b9194ecb5deb4335624608159dcce31bba7aa4c9f4e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_world_bytes_are_pinned(name):
    spec, expected = PINNED_WORLDS[name]
    world = generate_world(spec)
    h = hashlib.sha256()
    for artifact, data in sorted(world_artifacts(world).items()):
        h.update(artifact.encode() + b"\0" + data)
    h.update(world.fingerprint.encode())
    assert h.hexdigest() == expected


# -- the scalar reference ------------------------------------------------------


def _check_against_scalar_reference(spec: WorldSpec) -> list[int]:
    """Generate the world, rerun its profile loop one draw per node from the
    same stream state (``bruteforce.scalar_profiles``), and require the
    same profiles, truth tables and fingerprint. Returns the member ids."""
    calls = []
    draw = synthworld._draw_profiles

    def spy(rng, *args):
        calls.append((copy.deepcopy(rng.bit_generator.state), args))
        return draw(rng, *args)

    with mock.patch.object(synthworld, "_draw_profiles", spy):
        world = generate_world(spec)
    [(state, args)] = calls
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    profiles, locations, disclosure = bruteforce.scalar_profiles(rng, *args)
    assert list(world.graph.profiles.items()) == list(profiles.items())
    assert list(world.truth.locations.items()) == list(locations.items())
    assert list(world.truth.disclosure.items()) == list(disclosure.items())
    n = spec.total_population
    assert world.fingerprint == bruteforce.scalar_fingerprint(spec, n, world.graph.edges())
    return [v for v in range(n) if world.truth.node_org[v] is not None]


REFERENCE_SPECS = {
    # members at 0, 2, 9, 10 and 11: a member first and last, and adjacent ones
    "members-at-both-ends": WorldSpec(
        12, (OrgSpec(("acme", "acme corp"), size=5, manager_fraction=0.4,
                     position_disclosure_rate=0.5),),
        background_edge_prob=0.2, cross_boundary_edge_prob=0.1, rng_seed=2),
    "no-background": WorldSpec(
        8, (OrgSpec(("acme",), size=8, community_count=2, manager_fraction=0.25,
                    intra_community_edge_prob=0.5, position_disclosure_rate=0.5),),
        rng_seed=4),
    # two orgs; members at 1, 7, 10, 11, 12, 16 and 18, so background first and last
    "two-orgs": WorldSpec(20, (
        OrgSpec(("acme",), size=4, community_count=2, intra_community_edge_prob=0.6),
        OrgSpec(("globex", "globex inc", "gx"), size=3, manager_fraction=0.34,
                manager_degree_boost=2.0, intra_community_edge_prob=0.5),
    ), background_edge_prob=0.1, cross_boundary_edge_prob=0.1, rng_seed=1),
    "crawl-shaped": crawl_world_spec(3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
def test_profiles_match_the_scalar_reference(name):
    _check_against_scalar_reference(REFERENCE_SPECS[name])


def test_reference_specs_cover_the_run_boundaries():
    cases = {}
    for name, spec in REFERENCE_SPECS.items():
        n = spec.total_population
        members = _check_against_scalar_reference(spec)
        cases[name] = {
            "member first": members[0] == 0 and len(members) < n,
            "member last": members[-1] == n - 1 and len(members) < n,
            "adjacent members": any(b - a == 1 for a, b in zip(members, members[1:])),
            "background first and last": members[0] > 0 and members[-1] < n - 1,
            "no background": len(members) == n,
            "two orgs": len(spec.orgs) == 2,
        }
    for case in next(iter(cases.values())):
        assert any(flags[case] for flags in cases.values()), case


@st.composite
def _small_specs(draw):
    n = draw(st.integers(1, 30))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    total = sum(sizes)
    n = max(n, total)
    orgs = tuple(
        OrgSpec(
            name_keywords=tuple(f"org{i} name{k}" for k in range(draw(st.integers(1, 3)))),
            size=size,
            community_count=draw(st.integers(1, size)),
            intra_community_edge_prob=0.5,
            manager_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
            position_disclosure_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
            location_labels=("east", "west"),
        )
        for i, size in enumerate(sizes)
    )
    return WorldSpec(n, orgs, background_edge_prob=0.2, cross_boundary_edge_prob=0.2,
                     rng_seed=draw(st.integers(0, 2**32)))


@given(_small_specs())
@settings(max_examples=80, deadline=None)
def test_random_worlds_match_the_scalar_reference(spec):
    _check_against_scalar_reference(spec)


# -- spec validation ----------------------------------------------------------


def test_spec_rejects_oversized_orgs():
    with pytest.raises(WorldSpecError):
        WorldSpec(total_population=5, orgs=(OrgSpec(("a",), size=6),))


def test_spec_rejects_bad_probabilities():
    with pytest.raises(WorldSpecError):
        OrgSpec(("a",), size=3, intra_community_edge_prob=1.5)
    with pytest.raises(WorldSpecError):
        OrgSpec(("a",), size=3, intra_community_edge_prob=0.1,
                inter_community_edge_prob=0.2)
    with pytest.raises(WorldSpecError):
        OrgSpec(("a",), size=3, manager_degree_boost=0.5)


def test_spec_json_round_trip(tmp_path):
    spec = two_community_spec(4)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert WorldSpec.from_json_file(path) == spec


def test_int_and_float_specs_make_one_world_and_resume_across(tmp_path):
    def spec(intra, background):
        return WorldSpec(
            total_population=40,
            orgs=(OrgSpec(("acme",), size=12, intra_community_edge_prob=intra,
                          manager_fraction=0, manager_degree_boost=1),),
            background_edge_prob=background,
            cross_boundary_edge_prob=0.2,
            rng_seed=3,
        )

    as_int, as_float = generate_world(spec(1, 0)), generate_world(spec(1.0, 0.0))
    assert as_int.spec == as_float.spec
    assert type(as_int.spec.orgs[0].intra_community_edge_prob) is float
    assert as_int.fingerprint == as_float.fingerprint
    seeds = as_int.truth.members[0][:1]
    stopped = crawl(as_int.fresh_source(), CrawlConfig(seeds, ("acme",), max_fetches=3))
    save_state(stopped.state, tmp_path / "state.json")
    state = resume(tmp_path / "state.json", as_float.fresh_source())
    finished = crawl(as_float.fresh_source(), CrawlConfig(seeds, ("acme",)), state)
    assert finished.graph == crawl(as_int.fresh_source(), CrawlConfig(seeds, ("acme",))).graph


# -- generation ---------------------------------------------------------------


def test_intra_prob_one_gives_clique():
    world = generate_world(clique_spec())
    members = world.truth.members[0]
    assert len(members) == 10
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            assert v in world.graph.sorted_neighbors(u)


def test_manager_count_rounds_by_largest_remainder():
    spec = WorldSpec(
        total_population=10,
        orgs=(OrgSpec(("acme",), size=10, intra_community_edge_prob=0.5,
                      manager_fraction=0.3),),
        rng_seed=1,
    )
    world = generate_world(spec)
    assert len(world.truth.managers) == 3


def test_determinism_bit_identical():
    a = generate_world(two_community_spec(9))
    b = generate_world(two_community_spec(9))
    assert a.graph == b.graph
    assert a.truth.managers == b.truth.managers
    assert a.truth.disclosure == b.truth.disclosure
    assert a.fingerprint == b.fingerprint


def test_different_seeds_differ():
    a = generate_world(two_community_spec(1))
    b = generate_world(two_community_spec(2))
    assert a.graph != b.graph


def test_members_carry_org_keyword_in_employers():
    world = generate_world(two_community_spec(3))
    keywords = world.truth.org_keywords[0]
    for v in world.truth.members[0]:
        employers = world.graph.profile(v).employers
        assert any(k in e for e in employers for k in keywords)


def test_within_community_degree_matches_intra_prob():
    # Monte-Carlo: mean within-community degree over 30 seeds should sit
    # within 3 sigma of p*(c-1) for a community of c nodes.
    p, size = 0.3, 40
    totals = []
    for seed in range(30):
        spec = WorldSpec(
            total_population=size,
            orgs=(OrgSpec(("acme",), size=size, intra_community_edge_prob=p),),
            rng_seed=seed,
        )
        world = generate_world(spec)
        degs = [world.graph.degree(v) for v in world.truth.members[0]]
        totals.extend(degs)
    mean = np.mean(totals)
    expected = p * (size - 1)
    sigma = np.sqrt(p * (1 - p) * (size - 1) / len(totals))
    assert abs(mean - expected) <= 3 * sigma


def test_homophily_membership_given_member_friends():
    # Being adjacent to >= 2 members must raise the membership rate above
    # the unconditional one, aggregated over seeds.
    hits = trials = members_total = nodes_total = 0
    for seed in range(10):
        world = generate_world(two_community_spec(seed))
        member_set = set(org_members(world))
        for v in world.graph.nodes:
            if sum(1 for w in world.graph.sorted_neighbors(v) if w in member_set) >= 2:
                trials += 1
                hits += v in member_set
        members_total += len(member_set)
        nodes_total += world.graph.num_nodes
    assert trials > 0
    assert hits / trials > members_total / nodes_total


def test_manager_degree_boost_raises_mean_degree():
    mgr, non = [], []
    for seed in range(30):
        spec = WorldSpec(
            total_population=60,
            orgs=(OrgSpec(("acme",), size=60, intra_community_edge_prob=0.1,
                          manager_fraction=0.2, manager_degree_boost=3.0),),
            rng_seed=seed,
        )
        world = generate_world(spec)
        for v in world.truth.members[0]:
            (mgr if v in world.truth.managers else non).append(world.graph.degree(v))
    assert np.mean(mgr) > np.mean(non)


# -- fetch interface ----------------------------------------------------------


def test_fetch_profile_contract():
    world = generate_world(clique_spec())
    src = world.fresh_source()
    member = world.truth.members[0][0]
    profile, friends = src.fetch_profile(member)
    assert profile.node == member
    assert len(friends) == 9
    assert friends == world.graph.sorted_neighbors(member)
    # repeat fetch: identical payload, counter still ticks
    again = src.fetch_profile(member)
    assert again == (profile, friends)
    assert src.fetch_count == 2


def test_fresh_sources_share_friend_tuples_and_count_apart():
    world = generate_world(two_community_spec(5))
    first, second = world.fresh_source(), world.fresh_source()
    member = world.truth.members[0][0]
    _, friends = first.fetch_profile(member)
    _, again = second.fetch_profile(member)
    assert again is friends  # sorted once per world, not once per source
    assert world.source.fetch_profile(member)[1] is friends
    second.fetch_profile(member)
    assert (first.fetch_count, second.fetch_count, world.source.fetch_count) == (1, 2, 1)


def test_friend_tuples_hold_the_graphs_own_ints():
    world = generate_world(crawl_world_spec(3))
    nodes = world.graph.nodes
    for src in (world.fresh_source(), world.fresh_source()):
        friends = [f for v in nodes for f in src.fetch_profile(v)[1]]
        assert max(friends) > 256  # past CPython's cache of small ints
        assert all(f is nodes[world.graph.index_of(f)] for f in friends)


def test_concurrent_first_fetches_agree_on_one_tuple_per_node():
    world = generate_world(WorldSpec(
        total_population=3000,
        orgs=(OrgSpec(("acme",), size=300, intra_community_edge_prob=0.1),),
        background_edge_prob=0.004,
        rng_seed=0,
    ))
    sources = [world.fresh_source() for _ in range(8)]
    nodes = list(world.graph.nodes)
    seen = [[] for _ in sources]
    start = threading.Barrier(len(sources), timeout=60)

    def fetch_all(i):
        start.wait()
        for v in nodes:
            seen[i].append(sources[i].fetch_profile(v)[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch_all, args=(i,)) for i in range(len(sources))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, v in enumerate(nodes):
        first = seen[0][k]
        assert first == world.graph.sorted_neighbors(v)
        assert all(fetched[k] is first for fetched in seen)
    assert all(src.fetch_count == len(nodes) for src in sources)


def test_fetch_isolated_node_and_unknown_id():
    spec = WorldSpec(
        total_population=3,
        orgs=(OrgSpec(("acme",), size=1),),
        rng_seed=0,
    )
    world = generate_world(spec)
    src = world.fresh_source()
    isolated = [v for v in world.graph.nodes if world.graph.degree(v) == 0]
    assert isolated  # population 3, one singleton org, no background edges
    _, friends = src.fetch_profile(isolated[0])
    assert friends == ()
    with pytest.raises(UnknownProfileError):
        src.fetch_profile(999)


def test_fetch_counter_counts_distinct_fetches():
    world = generate_world(clique_spec())
    src = world.fresh_source()
    for k, v in enumerate(world.graph.nodes, start=1):
        src.fetch_profile(v)
        assert src.fetch_count == k


# -- census ---------------------------------------------------------------


def test_census_full_disclosure():
    world = generate_world(clique_spec())
    report = disclosure_census(world)
    assert report.total.members == 10
    assert report.total.disclosing == 10
    assert report.total.disclosing_pct == pytest.approx(100.0)
    assert report.total.links == 45  # 10-clique


def test_census_links_match_a_per_org_count():
    spec = WorldSpec(
        total_population=120,
        orgs=(OrgSpec(("acme",), size=40, community_count=2, intra_community_edge_prob=0.3,
                      inter_community_edge_prob=0.1),
              OrgSpec(("globex",), size=30, intra_community_edge_prob=0.2)),
        background_edge_prob=0.05,
        cross_boundary_edge_prob=0.05,
        rng_seed=3,
    )
    world = generate_world(spec)
    edges = world.graph.edges()
    expected = []
    for members in map(set, world.truth.members):
        expected.append(sum(1 for u, v in edges if u in members and v in members))
    report = disclosure_census(world)
    assert [(r.org, r.links) for r in report.rows] == list(zip(("acme", "globex"), expected))
    assert report.total.links == sum(expected) < len(edges)
    assert min(expected) > 0


def test_census_partial_disclosure_within_3_sigma():
    n, rate = 200, 0.3
    counts = []
    for seed in range(30):
        spec = WorldSpec(
            total_population=n,
            orgs=(OrgSpec(("acme",), size=n, intra_community_edge_prob=0.05,
                          position_disclosure_rate=rate),),
            rng_seed=seed,
        )
        counts.append(disclosure_census(generate_world(spec)).total.disclosing)
    mean = np.mean(counts)
    sigma = np.sqrt(n * rate * (1 - rate) / len(counts))
    assert abs(mean - n * rate) <= 3 * sigma


def test_disclosure_flag_implies_position_text():
    world = generate_world(two_community_spec(5, disclosure=0.5))
    for v, discloses in world.truth.disclosure.items():
        profile = world.graph.profile(v)
        if discloses:
            assert profile.position
        else:
            assert profile.position is None
