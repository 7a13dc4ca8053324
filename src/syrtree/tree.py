"""The component connection tree.

Each node is one matrix column (a, q); its connection point is the shared
Syracuse image 6q+a. A column's entries are classified mod 6: value 1
anchors the trivial cycle at the root, multiples of 3 are black entries
with no incoming connection, and every other entry n receives exactly one
child component, (1, (n-1)/6) or (5, (n-5)/6) by residue. Because the
connecting entry value of a child (a, t) is forced to be 6t+a, which lives
in a single cell, every component has at most one parent edge in any
bounded expansion.

Construction is breadth-first with children ordered by row index p, so
exports are byte-reproducible golden files.
"""

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .arith import DEFAULT_MAX_STEPS
from .matrices import entry, locate  # noqa: F401  (unused; perfbench/spans.py wraps tree.locate)
from .sequences import walk


class ComponentId(NamedTuple):
    """One matrix column: branch a in {1,5} and column index q >= 0."""

    a: int
    q: int


ROOT = ComponentId(1, 0)

# builds a ComponentId or TreeEdge without NamedTuple's Python-level __new__
_tuple = tuple.__new__


class TreeEdge(NamedTuple):
    parent: ComponentId
    child: ComponentId
    p: int  # parent row the child attaches to
    via: int  # the parent entry value realizing the connection


def connection_point(c: ComponentId) -> int:
    """The Syracuse image shared by all entries of the column: 6q + a."""
    return 6 * c.q + c.a


def node_name(c: ComponentId) -> str:
    return f"I{c.a}(p,{c.q})"


def _column(c: ComponentId, max_p: int, max_value: Optional[int]):
    """One pass down column c for rows 0..max_p: (child edges, black entries).

    The row-p entry n yields a child (1, (n-1)/6) or (5, (n-5)/6) by its
    residue mod 6; multiples of 3 are black entries, and the entry value 1
    (root, p=0) is the trivial-cycle anchor, never an edge. max_value
    bounds the entry, not the child column.
    """
    if max_p < 0:
        raise ValueError("max_p must be >= 0")
    edges: List[TreeEdge] = []
    blacks: List[Tuple[int, int]] = []
    n = entry(c.a, 0, c.q)
    for p in range(max_p + 1):
        if max_value is not None and n > max_value:
            break
        r = n % 6
        if r == 3:
            blacks.append((p, n))
        elif n != 1:
            edges.append(_tuple(TreeEdge, (c, _tuple(ComponentId, (r, (n - r) // 6)), p, n)))
        n = 4 * n + 1
    return edges, blacks


def children(c: ComponentId, max_p: int, max_value: Optional[int] = None) -> List[TreeEdge]:
    """Child edges of a component for rows p = 0..max_p, ordered by p."""
    return _column(c, max_p, max_value)[0]


@dataclass
class Tree:
    """A bounded expansion of the connection tree.

    nodes[r] lists the components at level r in breadth-first order;
    edges[r] lists the edges from level r out to level r+1. The root's
    trivial cycle is an attribute, not an edge. blacks annotates expanded
    nodes with their connectionless entries (collected only on request).
    """

    root: ComponentId
    nodes: List[List[ComponentId]]
    edges: List[List[TreeEdge]]
    max_level: int
    max_p: int
    max_value: Optional[int]
    blacks: Dict[ComponentId, List[Tuple[int, int]]] = field(default_factory=dict)


def build_tree(
    max_level: int,
    max_p: int,
    max_value: Optional[int] = None,
    include_black: bool = False,
) -> Tree:
    """Breadth-first expansion from the root (1, 0).

    Deterministic: within a level, parents keep their discovery order and
    each parent's edges are ordered by ascending p. Distinct subtrees may
    be expanded concurrently without changing the result, since a child's
    identity and attachment row depend only on its parent.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    nodes = [[ROOT]]
    edges: List[List[TreeEdge]] = []
    blacks: Dict[ComponentId, List[Tuple[int, int]]] = {}
    seen = {ROOT}
    for level in range(max_level):
        row_edges: List[TreeEdge] = []
        row_nodes: List[ComponentId] = []
        for parent in nodes[level]:
            es, black = _column(parent, max_p, max_value)
            for e in es:
                # forced by uniqueness of the connecting entry 6q+a
                assert e.child not in seen, f"duplicate child {e.child}"
                seen.add(e.child)
                row_nodes.append(e.child)
            row_edges.extend(es)
            if include_black:
                blacks[parent] = black
        if not row_nodes:
            break
        edges.append(row_edges)
        nodes.append(row_nodes)
    return Tree(ROOT, nodes, edges, max_level, max_p, max_value, blacks)


class RootPath(NamedTuple):
    """Components visited from a seed down to the root, with emitted terms."""

    steps: List[Tuple[ComponentId, int]]
    exhausted: bool


def path_to_root(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> RootPath:
    """Walk n's component chain toward the trivial-cycle anchor.

    Each step locates the current term's column and emits its connection
    point 6q+a as the next term; the walk ends at term 1 or when the step
    budget runs out (reported, never asserted: reaching 1 is the question
    under test, not an axiom).
    """
    steps = [(_tuple(ComponentId, (a, q)), t) for (a, _p, q), t in walk(n, max_steps)]
    return RootPath(steps, not steps or steps[-1][1] != 1)


def export(tree: Tree, fmt: str) -> bytes:
    """Serialize a built tree to DOT or a level-indexed JSON document.

    Byte-for-byte deterministic for a given tree. Black entries appear
    exactly for the nodes in tree.blacks: those expanded by a build_tree
    call with include_black set.
    """
    if fmt == "dot":
        return _to_dot(tree).encode()
    if fmt == "json":
        return _to_json(tree).encode()
    raise ValueError(f"unknown export format {fmt!r}")


def _to_dot(tree: Tree) -> str:
    # every edge joins two nodes of the tree, so each name is made once here
    names = {c: node_name(c) for row in tree.nodes for c in row}
    lines = ["digraph components {", "  rankdir=TB;"]
    for row in tree.nodes:
        for c in row:
            name = names[c]
            anchor = ", peripheries=2" if c == tree.root else ""  # trivial-cycle anchor
            lines.append(f'  "{name}" [label="{name}"{anchor}];')
    for row in tree.edges:
        for e in row:
            lines.append(f'  "{names[e.parent]}" -> "{names[e.child]}" '
                         f'[label="via={e.via} p={e.p}"];')
    if tree.blacks:
        for row in tree.nodes:
            for c in row:
                for p, value in tree.blacks.get(c, ()):
                    lines.append(f'  "b{value}" [label="{value}", shape=point];')
                    lines.append(f'  "{names[c]}" -> "b{value}" [style=dotted, label="p={p}"];')
    lines.append("}\n")
    return "\n".join(lines)


def _to_json(tree: Tree) -> str:
    """What json.dumps(doc, sort_keys=True, separators=(",", ":")) writes
    for the level-indexed document, written from the tree with the keys in
    sorted order."""
    levels = []
    for r, row in enumerate(tree.nodes):
        by_parent: Dict[ComponentId, List[str]] = {}
        for e in tree.edges[r] if r < len(tree.edges) else ():
            a, q = e.child
            by_parent.setdefault(e.parent, []).append(
                f'{{"a":{a},"p":{e.p},"q":{q},"via":{e.via}}}')
        nodes = []
        for c in row:
            a, q = c
            black = ""
            if c in tree.blacks:
                black = ',"black_entries":[' + ",".join(
                    [f'{{"p":{p},"value":{v}}}' for p, v in tree.blacks[c]]) + "]"
            anchor = ',"trivial_cycle_anchor":true' if c == tree.root else ""
            nodes.append(f'{{"a":{a}{black},"children":[{",".join(by_parent.get(c, ()))}],'
                         f'"connection_point":{connection_point(c)},"q":{q}{anchor}}}')
        levels.append(f'{{"level":{r},"nodes":[{",".join(nodes)}]}}')
    max_value = "null" if tree.max_value is None else tree.max_value
    return (f'{{"levels":[{",".join(levels)}],"limits":{{"max_level":{tree.max_level},'
            f'"max_p":{tree.max_p},"max_value":{max_value}}},'
            f'"root":{{"a":{tree.root.a},"q":{tree.root.q}}}}}\n')
