import json

import pytest

from syrtree.arith import syr
from syrtree.matrices import locate
from syrtree.tree import (
    ROOT,
    ComponentId,
    build_tree,
    black_entries,
    children,
    connection_point,
    export,
    path_to_root,
)


def edge_summary(edges):
    return [(e.child, e.p, e.via) for e in edges]


def test_children_of_root():
    got = edge_summary(children(ComponentId(1, 0), 4))
    assert got == [
        (ComponentId(5, 0), 1, 5),
        (ComponentId(1, 14), 3, 85),
        (ComponentId(5, 56), 4, 341),
    ]


def test_children_of_5_0():
    got = edge_summary(children(ComponentId(5, 0), 4))
    assert got == [
        (ComponentId(1, 2), 1, 13),
        (ComponentId(5, 8), 2, 53),
        (ComponentId(1, 142), 4, 853),
    ]


def test_children_of_1_14():
    # direct computation of the column: 113, 453, 1813, 7253
    got = edge_summary(children(ComponentId(1, 14), 3))
    assert got == [
        (ComponentId(5, 18), 0, 113),
        (ComponentId(1, 302), 2, 1813),
        (ComponentId(5, 1208), 3, 7253),
    ]


def test_children_of_1_142():
    # row 0 holds 1137, a multiple of 3, so the first child hangs off row 1
    assert black_entries(ComponentId(1, 142), 0) == [(0, 1137)]
    got = edge_summary(children(ComponentId(1, 142), 2))
    assert got == [
        (ComponentId(1, 758), 1, 4549),
        (ComponentId(5, 3032), 2, 18197),
    ]


def test_children_max_value_caps_the_via_entry():
    got = edge_summary(children(ComponentId(1, 0), 4, max_value=100))
    assert got == [(ComponentId(5, 0), 1, 5), (ComponentId(1, 14), 3, 85)]


def test_black_entries():
    # column (1,0) holds 1, 5, 21, 85, 341, 1365: multiples of 3 at p=2,5
    assert black_entries(ComponentId(1, 0), 5) == [(2, 21), (5, 1365)]


def test_build_tree_level1():
    t = build_tree(1, 4)
    assert t.nodes[0] == [ROOT]
    assert t.nodes[1] == [ComponentId(5, 0), ComponentId(1, 14), ComponentId(5, 56)]
    assert [e.via for e in t.edges[0]] == [5, 85, 341]


def test_build_tree_level2():
    t = build_tree(2, 4)
    level2 = set(t.nodes[2])
    assert {ComponentId(1, 2), ComponentId(5, 8), ComponentId(1, 142)} <= level2
    under_5_0 = [e for e in t.edges[1] if e.parent == ComponentId(5, 0)]
    assert edge_summary(under_5_0) == [
        (ComponentId(1, 2), 1, 13),
        (ComponentId(5, 8), 2, 53),
        (ComponentId(1, 142), 4, 853),
    ]


def test_build_tree_level0():
    t = build_tree(0, 4)
    assert t.nodes == [[ROOT]]
    assert t.edges == []


def test_parent_correctness():
    # the child's image lands exactly on the parent's connection point
    t = build_tree(4, 6)
    for e in t.all_edges():
        assert syr(e.via) == connection_point(e.parent)
        assert e.via % 6 == e.child.a
        assert e.child.q == (e.via - e.child.a) // 6


def test_single_parent_and_no_duplicates():
    t = build_tree(4, 6)
    all_nodes = [c for row in t.nodes for c in row]
    assert len(all_nodes) == len(set(all_nodes))
    child_count = {}
    for e in t.all_edges():
        child_count[e.child] = child_count.get(e.child, 0) + 1
    assert all(v == 1 for v in child_count.values())


def test_level_consistency():
    # each non-root node's connection point locates inside its parent column
    t = build_tree(3, 5)
    for row in t.edges:
        for e in row:
            c = locate(connection_point(e.child))
            assert ComponentId(c.a, c.q) == e.parent


def test_path_to_root_35():
    got = path_to_root(35)
    assert not got.exhausted
    assert got.steps == [
        (ComponentId(5, 8), 53),
        (ComponentId(5, 0), 5),
        (ComponentId(1, 0), 1),
    ]


def test_path_to_root_1():
    got = path_to_root(1)
    assert got.steps == [(ComponentId(1, 0), 1)]
    assert not got.exhausted


def test_path_to_root_27():
    got = path_to_root(27)
    assert not got.exhausted
    assert len(got.steps) == 41
    assert got.steps[-1] == (ComponentId(1, 0), 1)


def test_path_to_root_descends_one_level_per_step():
    t = build_tree(3, 4)
    level_of = {c: r for r, row in enumerate(t.nodes) for c in row}
    for comp in t.nodes[3]:
        walk = path_to_root(connection_point(comp))
        seen = [comp] + [c for c, _term in walk.steps]
        # connection points of level-r nodes sit in level r-1 columns
        assert [level_of[c] for c in seen] == [3, 2, 1, 0]


def test_path_to_root_budget():
    got = path_to_root(27, max_steps=5)
    assert got.exhausted
    assert len(got.steps) == 5


def test_export_dot():
    t = build_tree(1, 4)
    dot = export(t, "dot").decode()
    assert '"I1(p,0)" -> "I5(p,0)" [label="via=5 p=1"];' in dot
    assert '"I1(p,0)" -> "I1(p,14)" [label="via=85 p=3"];' in dot
    assert "peripheries=2" in dot  # trivial-cycle anchor marking
    assert export(t, "dot") == export(t, "dot")


def test_export_json_levels():
    t = build_tree(2, 4)
    doc = json.loads(export(t, "json").decode())
    assert doc["root"] == {"a": 1, "q": 0}
    assert doc["limits"] == {"max_level": 2, "max_p": 4, "max_value": None}
    names = [{(n["a"], n["q"]) for n in lvl["nodes"]} for lvl in doc["levels"]]
    assert names[0] == {(1, 0)}
    assert names[1] == {(5, 0), (1, 14), (5, 56)}
    assert {(1, 2), (5, 8), (1, 142)} <= names[2]
    root_node = doc["levels"][0]["nodes"][0]
    assert root_node["trivial_cycle_anchor"] is True


def test_export_json_single_node():
    doc = json.loads(export(build_tree(0, 4), "json").decode())
    assert len(doc["levels"]) == 1
    assert doc["levels"][0]["nodes"][0]["children"] == []


def test_export_black_annotations():
    t = build_tree(1, 5, include_black=True)
    plain = export(t, "dot").decode()
    annotated = export(t, "dot", include_black=True).decode()
    assert "b21" not in plain
    assert '"b21" [label="21", shape=point];' in annotated
    doc = json.loads(export(t, "json", include_black=True).decode())
    root_node = doc["levels"][0]["nodes"][0]
    assert {"p": 2, "value": 21} in root_node["black_entries"]


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(build_tree(0, 1), "yaml")
