import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orgminer import (
    Partition,
    Profile,
    SocialGraph,
    adjusted_rand_index,
    community_report,
    detect_communities,
    generate_world,
    infer_roles,
    load_role_rules,
    modularity,
    normalize_position,
)
from bruteforce import best_partition_bruteforce
from orgminer.community import (
    PartitionError,
    RoleRule,
    RoleRuleError,
    partition_table_bytes,
    report_table_bytes,
)

from conftest import (
    complete_graph, org_members, path_graph, random_graph, small_graphs, two_community_spec,
)


def two_triangles() -> SocialGraph:
    return SocialGraph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# -- modularity ---------------------------------------------------------------


def test_modularity_single_community_is_zero():
    g = complete_graph(4)
    assert modularity(g, {v: 0 for v in g.nodes}) == pytest.approx(0.0)


def test_modularity_two_triangles_half():
    g = two_triangles()
    part = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    assert modularity(g, part) == pytest.approx(0.5)


def test_modularity_singletons_on_triangle():
    # Each node alone: Q = -sum (d/2m)^2 = -3*(2/6)^2 = -1/3.
    g = complete_graph(3)
    assert modularity(g, {0: 0, 1: 1, 2: 2}) == pytest.approx(-1 / 3)


def test_modularity_edgeless_graph_is_zero():
    g = SocialGraph(range(3), [])
    assert modularity(g, {0: 0, 1: 0, 2: 1}) == 0.0


def test_modularity_requires_full_cover():
    g = path_graph(3)
    with pytest.raises(PartitionError):
        modularity(g, {0: 0, 1: 0})


# -- greedy detection -----------------------------------------------------------


def test_detect_two_triangles_exact_recovery():
    part = detect_communities(two_triangles())
    assert part.q == pytest.approx(0.5)
    assert len(part) == 2
    comms = part.communities()
    assert sorted(map(list, comms.values())) == [[0, 1, 2], [3, 4, 5]]


def test_detect_complete_graph_single_community():
    part = detect_communities(complete_graph(6))
    assert len(part) == 1


def test_detect_edgeless_graph_all_singletons():
    g = SocialGraph(range(4), [])
    part = detect_communities(g)
    assert len(part) == 4
    assert part.q == 0.0
    assert part.merges == ()


def test_detect_isolated_node_stays_singleton():
    g = SocialGraph(range(7), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    part = detect_communities(g)
    solo = part.assignment[6]
    assert [v for v, c in part.assignment.items() if c == solo] == [6]


def test_detect_reports_internally_consistent_q():
    g = random_graph(11, 20, 0.15)
    part = detect_communities(g)
    assert modularity(g, part.assignment) == pytest.approx(part.q, abs=1e-12)


def test_detect_merge_log_q_trace_monotone():
    g = random_graph(12, 18, 0.2)
    part = detect_communities(g)
    q_values = [step.q_after for step in part.merges]
    assert all(step.gain > 0 for step in part.merges)
    assert q_values == sorted(q_values)
    if q_values:
        assert part.q == pytest.approx(q_values[-1], abs=1e-12)


def test_community_ids_are_renumbered_by_smallest_member():
    part = detect_communities(two_triangles())
    comms = part.communities()
    assert list(comms) == [0, 1]
    assert comms[0] == (0, 1, 2)  # community containing node 0 gets id 0


@given(small_graphs(min_nodes=3, max_nodes=10))
@settings(max_examples=50)
def test_greedy_never_beats_exhaustive(g):
    greedy = detect_communities(g)
    best_q, _ = best_partition_bruteforce(g)
    assert greedy.q <= best_q + 1e-12


def _groups(assignment) -> frozenset:
    by_label: dict = {}
    for v, c in assignment.items():
        by_label.setdefault(c, set()).add(v)
    return frozenset(map(frozenset, by_label.values()))


def _greedy_outcomes(g: SocialGraph) -> set:
    """Every grouping the positive-gain greedy merge can end in when each tie
    among the largest gains may break either way.

    Gains are exact integers, gain * 2m^2 = 2m * m_ab - D_a * D_b, so a tie
    here is a tie in exact arithmetic; on graphs this small, distinct gains
    lie far apart compared with float rounding.
    """
    m = g.num_edges
    outcomes: set = set()
    seen: set = set()
    stack = [_groups({v: v for v in g.nodes})]
    while stack:
        groups = stack.pop()
        if groups in seen:
            continue
        seen.add(groups)
        label = {v: grp for grp in groups for v in grp}
        between: dict = {}
        for u, v in g.edges():
            if label[u] != label[v]:
                pair = frozenset((label[u], label[v]))
                between[pair] = between.get(pair, 0) + 1
        degree = {grp: sum(g.degree(v) for v in grp) for grp in groups}
        gains = {}
        for pair, count in between.items():
            a, b = pair
            gains[pair] = 2 * m * count - degree[a] * degree[b]
        best = max(gains.values(), default=0)
        if best <= 0:
            outcomes.add(groups)
            continue
        for (a, b), gain in gains.items():
            if gain == best:
                stack.append(groups - {a, b} | {a | b})
    return outcomes


# A 9-node graph with tied merge gains, on which the relabeling
# v * 13 % 97 + 200 (it puts node 8 between nodes 0 and 1) makes the
# greedy merge break a tie the other way.
_TIED_GRAPH = SocialGraph(
    range(9),
    [(0, 3), (0, 4), (0, 8), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5),
     (2, 6), (2, 8), (3, 5), (3, 7), (4, 6), (5, 8), (6, 7), (6, 8), (7, 8)],
)


@given(
    small_graphs(min_nodes=3, max_nodes=9),
    st.lists(st.integers(min_value=200, max_value=400), min_size=9, max_size=9,
             unique=True),
)
@example(_TIED_GRAPH, [v * 13 % 97 + 200 for v in range(9)])
@settings(max_examples=25)
def test_detection_is_permutation_equivariant(g, ids):
    # The ids are drawn in any order, so the relabeling may reorder nodes.
    # Ties break on the smaller id pair, so a reordering may change which tied
    # pair merges first: both groupings must then be greedy outcomes, and
    # where no tie decides the grouping they must be the same.
    perm = {v: ids[v] for v in g.nodes}
    h = SocialGraph(perm.values(), [(perm[u], perm[v]) for u, v in g.edges()])
    pg = detect_communities(g)
    ph = detect_communities(h)
    outcomes = _greedy_outcomes(g)
    assert _groups(pg.assignment) in outcomes
    assert _groups({v: ph.assignment[perm[v]] for v in g.nodes}) in outcomes
    assert pg.q == pytest.approx(modularity(g, pg.assignment), abs=1e-12)
    assert ph.q == pytest.approx(modularity(h, ph.assignment), abs=1e-12)
    if len(outcomes) == 1:
        assert ph.q == pytest.approx(pg.q, abs=1e-12)


def test_tied_graph_has_two_greedy_outcomes():
    perm = {v: v * 13 % 97 + 200 for v in _TIED_GRAPH.nodes}
    h = SocialGraph(perm.values(),
                    [(perm[u], perm[v]) for u, v in _TIED_GRAPH.edges()])
    pg = _groups(detect_communities(_TIED_GRAPH).assignment)
    back = _groups({v: detect_communities(h).assignment[perm[v]]
                    for v in _TIED_GRAPH.nodes})
    assert pg != back
    assert {pg, back} <= _greedy_outcomes(_TIED_GRAPH)


# -- adjusted rand ---------------------------------------------------------------


def test_ari_identical_partitions():
    a = {0: 0, 1: 0, 2: 1, 3: 1}
    relabeled = {0: 5, 1: 5, 2: 9, 3: 9}
    assert adjusted_rand_index(a, relabeled) == pytest.approx(1.0)


def test_ari_known_value():
    a = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    b = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
    # contingency (2,1,3): index 4, expected 2.8, max 6.5 -> 1.2/3.7
    assert adjusted_rand_index(a, b) == pytest.approx(12 / 37)


def test_ari_single_blob_degenerate_case():
    a = {0: 0, 1: 0}
    assert adjusted_rand_index(a, a) == 1.0


def test_ari_rejects_mismatched_node_sets():
    with pytest.raises(ValueError):
        adjusted_rand_index({0: 0}, {1: 0})


# -- position normalization -------------------------------------------------------


def test_normalize_position_examples():
    assert normalize_position("Senior Software Engineer") == "R&D"
    assert normalize_position("VP of Sales") == "Management"  # manager words win
    assert normalize_position("account executive") == "Sales"
    assert normalize_position("customer support specialist") == "Support"
    assert normalize_position("sysadmin") == "IT"
    assert normalize_position("Brand Strategist") == "Marketing"
    assert normalize_position("Chief Technology Officer") == "Management"
    assert normalize_position(None) is None
    assert normalize_position("crane operator") is None


def test_normalize_position_folds_case_and_spaces():
    assert normalize_position("  HEAD   OF  research ") == "Management"


def test_rules_load_from_custom_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"rules": [{"category": "X", "keywords": ["wizard"]}]}')
    rules = load_role_rules(path)
    assert normalize_position("senior wizard", rules) == "X"
    assert normalize_position("engineer", rules) is None


MALFORMED_RULES = {
    "string keywords": (
        {"rules": [{"category": "Lead", "keywords": "lead"}]},
        "rules[0] setting 'keywords' must be tuple[str, ...], got 'lead'"),
    "misspelled key": (
        {"rules": [{"category": "Lead", "keywords": ["lead"], "catgory": "x"}]},
        "unknown rules[0] settings: ['catgory']"),
    "numeric category": (
        {"rules": [{"category": 7, "keywords": ["lead"]}]},
        "rules[0] setting 'category' must be str, got 7"),
    "missing rules": ({"comment": "no rules"}, "missing role rule table settings: ['rules']"),
}


@pytest.mark.parametrize("case", MALFORMED_RULES)
def test_malformed_rule_tables_raise_a_typed_error(tmp_path, case):
    table, message = MALFORMED_RULES[case]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(table))
    with pytest.raises(RoleRuleError) as exc:
        load_role_rules(path)
    assert message in str(exc.value)


def test_bundled_rules_decode_as_the_lenient_reader_did():
    raw = json.loads(
        resources.files("orgminer").joinpath("data/role_rules.json").read_text()
    )
    assert set(raw) == {"comment", "rules"}
    lenient = tuple(
        RoleRule(str(e["category"]), tuple(str(k).casefold() for k in e["keywords"]))
        for e in raw["rules"]
    )
    assert load_role_rules() == lenient


# -- role inference -------------------------------------------------------------


def build_labeled_graph():
    # community 0: nodes 0-3 engineers in east; community 1: nodes 4-7 sales in west
    profiles = {
        0: Profile(node=0, position="software engineer", location="east"),
        1: Profile(node=1, position="qa engineer", location="east"),
        2: Profile(node=2, position="research scientist", location="east"),
        3: Profile(node=3, location="east"),
        4: Profile(node=4, position="sales rep", location="west"),
        5: Profile(node=5, position="sales manager", location="west"),
        6: Profile(node=6, position="account executive", location="west"),
        7: Profile(node=7),
    }
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (4, 6), (6, 7), (3, 4)]
    g = SocialGraph(range(8), edges, profiles)
    part = Partition({v: 0 if v < 4 else 1 for v in range(8)}, q=0.0)
    return g, part


def test_infer_roles_majority_votes():
    g, part = build_labeled_graph()
    roles = infer_roles(g, part)
    by_comm = {r.community: r for r in roles}
    assert by_comm[0].position == "R&D"
    assert by_comm[0].location == "east"
    assert not by_comm[0].low_confidence
    assert by_comm[1].location == "west"
    # community 1 votes: Sales, Management, Sales -> Sales wins
    assert by_comm[1].position == "Sales"
    assert by_comm[1].position_support == pytest.approx(2 / 3)


def test_infer_roles_low_confidence_on_sparse_votes():
    profiles = {0: Profile(node=0, position="engineer", location="x")}
    g = SocialGraph(range(4), [(0, 1), (1, 2), (2, 3)], profiles)
    part = Partition({v: 0 for v in range(4)}, q=0.0)
    (role,) = infer_roles(g, part)
    assert role.position == "R&D"
    assert role.low_confidence  # one voter is below _MIN_LABELED


def test_planted_world_roles_recovered():
    world = generate_world(two_community_spec(3))
    members = org_members(world)
    sub = world.graph.subgraph(members)
    part = detect_communities(sub)
    roles = infer_roles(sub, part)
    qualifying = [r for r in roles if not r.low_confidence]
    assert qualifying
    planted = {
        info.category for info in world.truth.communities.values()
    }
    assert {r.position for r in qualifying} <= planted


# -- report ---------------------------------------------------------------


def test_community_report_counts():
    g, part = build_labeled_graph()
    rows = community_report(infer_roles(g, part))
    assert len(rows) == 2
    first = rows[0]
    assert first.community == 0
    assert first.size == 4
    assert first.internal_links == 4
    assert first.disclosed_positions == 3
    assert first.classified_positions == 3
    assert "R&D" in first.description and "east" in first.description


def test_report_tables_round_trip_shape():
    g, part = build_labeled_graph()
    rows = community_report(infer_roles(g, part))
    table = report_table_bytes(rows).decode()
    assert len(table.strip().splitlines()) == 3
    nodes_csv = partition_table_bytes(part).decode()
    assert nodes_csv.splitlines()[0] == "node,community"
    assert len(nodes_csv.strip().splitlines()) == 9
