import json
import re

import pytest
from hypothesis import given

from orgminer import (
    GraphError,
    GraphParseError,
    LabelRow,
    Profile,
    SocialGraph,
    anonymize,
    edge_list_bytes,
    export_graph,
    labels_to_csv_bytes,
    load_graph,
    load_graphml,
    load_labels,
    load_profiles,
    parse_edge_list,
    profiles_to_jsonl_bytes,
)

from conftest import complete_graph, path_graph, small_graphs


# -- construction ---------------------------------------------------------


def test_construct_dedups_and_sorts():
    g = SocialGraph([2, 0, 1], [(0, 1), (1, 0), (1, 2)])
    assert g.nodes == (0, 1, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.num_edges == 2
    assert g.sorted_neighbors(1) == (0, 2)


def test_construct_rejects_self_loop_and_dangling_edge():
    with pytest.raises(GraphError):
        SocialGraph([0, 1], [(1, 1)])
    with pytest.raises(GraphError):
        SocialGraph([0, 1], [(0, 2)])


def test_construct_accepts_negative_ids():
    g = SocialGraph([-3, 0, 2**63 - 1, -(2**63)], [(0, -3), (2**63 - 1, -(2**63))])
    assert g.nodes == (-(2**63), -3, 0, 2**63 - 1)
    assert g.edges() == [(-(2**63), 2**63 - 1), (-3, 0)]


def test_construct_names_an_id_that_does_not_fit_int64():
    with pytest.raises(GraphError, match=f"node id {2**63} does not fit in int64"):
        SocialGraph([0, 2**63], [])
    with pytest.raises(GraphError, match=f"node id {-(2**63) - 1} does not fit in int64"):
        SocialGraph([0, 1], [(0, 1), (1, -(2**63) - 1)])
    with pytest.raises(GraphError, match=f"node id {2**70} does not fit in int64"):
        SocialGraph([0, 1], [], {2**70: Profile(node=2**70)})
    assert not SocialGraph([0], []).has_node(2**70)


def test_profile_invariants():
    with pytest.raises(GraphError):
        Profile(node=0, discloses_position=True)  # no position to disclose
    with pytest.raises(GraphError):
        Profile(node=0, is_manager=True, is_org_member=False)
    p = Profile(node=0, position="engineer", discloses_position=True)
    assert "engineer" in p.text_fields()


def test_adjacency_matrix_matches_edges():
    g = SocialGraph(range(3), [(0, 1), (1, 2)])
    A = g.adjacency_matrix().toarray()
    assert A.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_subgraph_keeps_induced_edges_and_profiles():
    g = SocialGraph(range(4), [(0, 1), (1, 2), (2, 3)], {1: Profile(node=1)})
    h = g.subgraph([0, 1, 3])
    assert h.nodes == (0, 1, 3)
    assert h.edges() == [(0, 1)]
    assert h.profile(1) is not None and h.profile(3) is None


# -- edge-list parsing ------------------------------------------------------


def test_parse_two_line_file():
    g = parse_edge_list(b"0 1\n1 2\n")
    assert g.nodes == (0, 1, 2)
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_node_header_keeps_isolated_node():
    g = parse_edge_list(b"# nodes: 0\n")
    assert g.nodes == (0,)
    assert g.num_edges == 0


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list(b"0 1\n1 1\n")
    assert exc.value.line_no == 2


def test_parse_names_an_id_that_does_not_fit_int64_with_its_line():
    with pytest.raises(GraphParseError, match=f":3: node id {2**64} does not fit in int64"):
        parse_edge_list(f"0 1\n# nodes: 5\n1 {2**64}\n".encode())
    with pytest.raises(GraphParseError, match=f":2: node id {-(2**63) - 1}") as exc:
        parse_edge_list(f"0 1\n# nodes: 5 {-(2**63) - 1}\n".encode())
    assert exc.value.line_no == 2


def test_parse_rejects_garbage():
    with pytest.raises(GraphParseError):
        parse_edge_list(b"0 1 2\n")
    with pytest.raises(GraphParseError):
        parse_edge_list(b"a b\n")


def test_parse_dedups_input_edges():
    g = parse_edge_list(b"0 1\n1 0\n0 1\n")
    assert g.num_edges == 1


def test_load_graph_with_profiles(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_bytes(b"0 1\n")
    profs = tmp_path / "p.jsonl"
    profs.write_bytes(profiles_to_jsonl_bytes({0: Profile(node=0, name="a")}))
    g = load_graph(edges, profs)
    assert g.profile(0).name == "a"


def test_load_graph_rejects_dangling_profile(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_bytes(b"0 1\n")
    profs = tmp_path / "p.jsonl"
    profs.write_bytes(profiles_to_jsonl_bytes({7: Profile(node=7)}))
    with pytest.raises(GraphError):
        load_graph(edges, profs)


@given(small_graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(edge_list_bytes(g)) == g.with_profiles({})


# -- profiles and labels -----------------------------------------------------


def test_profile_jsonl_round_trip():
    profiles = {
        3: Profile(node=3, name="Zoe", employers=("acme",), position="manager",
                   discloses_position=True, is_org_member=True, is_manager=True),
        5: Profile(node=5),
    }
    back = load_profiles(profiles_to_jsonl_bytes(profiles))
    assert back == profiles


# each record loaded, coerced, before profiles were decoded strictly
MALFORMED_PROFILES = {
    "float node": ({"node": 5.7}, "profile node id must be an int, not 5.7"),
    "bool node": ({"node": True}, "profile node id must be an int, not True"),
    "string node": ({"node": "5"}, "profile node id must be an int, not '5'"),
    "number name": ({"node": 5, "name": 7}, "name must be a string or null, not 7"),
    "number position": ({"node": 5, "position": 3}, "position must be a string or null, not 3"),
    "list location": (
        {"node": 5, "location": ["x"]}, "location must be a string or null, not ['x']"),
    "string employers": (
        {"node": 5, "employers": "acme"}, "employers must be a list of strings, not 'acme'"),
    "number employer": (
        {"node": 5, "employers": ["acme", 3]},
        "employers must be a list of strings, not ['acme', 3]"),
    "string member flag": (
        {"node": 5, "is_org_member": "yes"}, "is_org_member must be a bool or null, not 'yes'"),
    "int manager flag": (
        {"node": 5, "is_org_member": True, "is_manager": 1},
        "is_manager must be a bool or null, not 1"),
    "string disclosure": (
        {"node": 5, "position": "cto", "discloses_position": "no"},
        "discloses_position must be a bool, not 'no'"),
    "null disclosure": (
        {"node": 5, "discloses_position": None}, "discloses_position must be a bool, not None"),
    "every field wrong": (
        {"node": 5.7, "discloses_position": "no", "position": 3, "employers": "acme"},
        "profile node id must be an int, not 5.7"),
}


@pytest.mark.parametrize("case", MALFORMED_PROFILES)
def test_load_profiles_rejects_a_malformed_record(case):
    record, message = MALFORMED_PROFILES[case]
    data = profiles_to_jsonl_bytes({3: Profile(node=3)}) + json.dumps(record).encode()
    with pytest.raises(GraphParseError, match=re.escape(message)) as info:
        load_profiles(data)
    prefix = "<bytes>:2: " if message.startswith("profile node") else "<bytes>:2: profile 5: "
    assert str(info.value) == prefix + message


def test_load_profiles_accepts_null_optional_fields():
    record = {"node": 4, "name": None, "position": None, "location": None,
              "employers": [], "is_org_member": None, "is_manager": None}
    assert load_profiles(json.dumps(record).encode()) == {4: Profile(node=4)}


def test_labels_csv_round_trip():
    rows = [
        LabelRow(node=1, is_org_member=True, is_manager=False,
                 discloses_position=True, community=2, location="east"),
        LabelRow(node=0, is_org_member=False),
    ]
    back = load_labels(labels_to_csv_bytes(rows))
    assert back[1].community == 2
    assert back[1].location == "east"
    assert back[0].is_org_member is False
    assert back[0].community is None


def test_load_labels_rejects_duplicates_and_bad_booleans():
    with pytest.raises(GraphParseError):
        load_labels(b"node,is_manager\n1,true\n1,false\n")
    with pytest.raises(GraphParseError):
        load_labels(b"node,is_manager\n1,maybe\n")
    with pytest.raises(GraphParseError):
        load_labels(b"node,favourite_colour\n1,red\n")
    with pytest.raises(GraphParseError, match="<bytes>:3: community must be an integer, got 'x'"):
        load_labels(b"node,community\n1,4\n2,x\n")


# -- anonymization ------------------------------------------------------------


def test_anonymize_contiguous_ids_and_determinism():
    g = SocialGraph([5, 9, 42], [(5, 9), (9, 42)])
    a1, map1 = anonymize(g, seed=7)
    a2, map2 = anonymize(g, seed=7)
    assert a1.nodes == (0, 1, 2)
    assert map1 == map2
    assert a1 == a2
    assert sorted(map1.values()) == [0, 1, 2]


def test_anonymize_is_isomorphism():
    g = SocialGraph([5, 9, 42], [(5, 9), (9, 42)])
    a, id_map = anonymize(g, seed=3)
    mapped = {tuple(sorted((id_map[u], id_map[v]))) for u, v in g.edges()}
    assert mapped == set(map(tuple, a.edges()))


@given(small_graphs())
def test_anonymize_preserves_degree_sequence(g):
    a, _ = anonymize(g, seed=11)
    assert sorted(map(a.degree, a.nodes)) == sorted(map(g.degree, g.nodes))


def test_anonymize_drops_text_keeps_flags_only_on_request():
    g = SocialGraph(
        [3],
        [],
        {3: Profile(node=3, name="Zoe", employers=("acme",),
                    position="manager", discloses_position=True,
                    is_org_member=True, is_manager=True)},
    )
    plain, _ = anonymize(g, seed=0)
    assert plain.profiles == {}
    kept, id_map = anonymize(g, seed=0, retain_labels=True)
    p = kept.profile(id_map[3])
    assert p.is_manager is True and p.is_org_member is True
    assert p.name is None and p.position is None
    assert p.discloses_position is False  # nothing left to disclose


# -- exports --------------------------------------------------------------


def test_export_edge_list_triangle():
    data = export_graph(complete_graph(3), "edge-list")
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    assert lines == ["0 1", "0 2", "1 2"]


def test_export_unknown_format():
    with pytest.raises(GraphError):
        export_graph(path_graph(2), "svg")


@given(small_graphs())
def test_graphml_round_trip(g):
    assert load_graphml(export_graph(g, "graphml")) == g.with_profiles({})


def test_graphml_carries_attributes():
    g = SocialGraph(range(3), [(0, 1)], {0: Profile(node=0, is_manager=True,
                                                    is_org_member=True)})
    data = export_graph(g, "graphml", communities={0: "A", 1: "A", 2: "B"}).decode()
    assert "community" in data and ">A<" in data and ">B<" in data
    assert "is_manager" in data
    back = load_graphml(data.encode())
    assert back.profile(0).is_manager is True


def test_graphml_round_trips_every_profile_field_and_ignores_other_attributes():
    profiles = {
        0: Profile(node=0, name="ann", employers=("acme", "globex"), position="vp",
                   location="HQ", is_org_member=True, is_manager=True,
                   discloses_position=True),
        1: Profile(node=1, is_org_member=False),
        2: Profile(node=2, employers=("a \"quoted\" firm",)),
    }
    g = SocialGraph(range(4), [(0, 1), (2, 3)], profiles)
    data = export_graph(g, "graphml", communities={0: 5})
    assert load_graphml(data) == g
    # a foreign key (and one named like the node id) is read past, not applied
    foreign = data.decode().replace(
        "<node id=\"1\">",
        "<node id=\"1\"><data key=\"dx\">9</data><data key=\"dn\">7</data>",
    ).replace(
        "<graph ",
        "<key id=\"dx\" for=\"node\" attr.name=\"weight\" attr.type=\"string\" />"
        "<key id=\"dn\" for=\"node\" attr.name=\"node\" attr.type=\"string\" /><graph ",
    )
    assert foreign.count('"dx"') == foreign.count('"dn"') == 2
    assert load_graphml(foreign.encode()) == g


def test_dot_and_csv_mention_communities():
    g = path_graph(3)
    dot = export_graph(g, "dot", communities={0: 1, 1: 1, 2: 2}).decode()
    assert "community" in dot and "--" in dot
    csv_text = export_graph(g, "csv", communities={0: 1, 1: 1, 2: 2}).decode()
    assert "community" in csv_text.splitlines()[1]  # header follows "# nodes"
    assert "# edges" in csv_text
