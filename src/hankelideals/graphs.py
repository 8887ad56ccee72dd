"""Labeled graphs on {1, ..., n} and the labeling predicates.

The vertex labels carry all the meaning here: two graphs with the same shape
but different labelings are different objects, and the predicates below
(Hamiltonian labeling, closed labeling, rooted labeling of a tree) are
statements about the labels, not the isomorphism class.
"""

from __future__ import annotations

from itertools import combinations

from .ring import Record

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Raised on malformed graph files; the message carries a line number."""


# ---------------------------------------------------------------------------
# the graph type
# ---------------------------------------------------------------------------


class LabeledGraph(Record):
    """A finite simple graph on the vertex set {1, ..., n}."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[Edge]):
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        for e in edges:
            i, j = e
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge {e}: need 1 <= i < j <= {n}")
        super().__init__(n, edges)

    @classmethod
    def of(cls, n: int, edges) -> "LabeledGraph":
        normalized = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            normalized.add((min(i, j), max(i, j)))
        return cls(n, frozenset(normalized))

    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [j if i == v else i for i, j in self.edges if v in (i, j)]
        return tuple(sorted(out))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def with_edges(self, extra) -> "LabeledGraph":
        return LabeledGraph.of(self.n, list(self.edges) + list(extra))

    def is_connected(self) -> bool:
        seen = {1}
        frontier = [1]
        adjacency = _adjacency(self)
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def is_path_shape(self) -> bool:
        """Tree with every degree at most two (any labeling)."""
        return self.is_tree() and all(self.degree(v) <= 2 for v in range(1, self.n + 1))


def _adjacency(graph: LabeledGraph) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, graph.n + 1)}
    for i, j in graph.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


# ---------------------------------------------------------------------------
# labeling classes
# ---------------------------------------------------------------------------


class LabelClass(Record):
    _fields = (
        "connected", "tree", "path",
        "labeled_hamiltonian", "labeled_semi_hamiltonian", "closed_labeling",
    )


def has_spine(graph: LabeledGraph) -> bool:
    """Whether all consecutive edges {i, i+1} are present."""
    return all(graph.has_edge(i, i + 1) for i in range(1, graph.n))


def classify_labeling(graph: LabeledGraph) -> LabelClass:
    """All labeling flags at once.

    A labeling is Hamiltonian when the graph contains the full labeled cycle
    (all consecutive edges plus {1, n}) and semi-Hamiltonian when it contains
    the labeled path but not {1, n}; the two are mutually exclusive by
    construction.
    """
    spine = has_spine(graph)
    closing = graph.n > 1 and graph.has_edge(1, graph.n)
    return LabelClass(
        graph.is_connected(), graph.is_tree(), graph.is_path_shape(),
        spine and closing, spine and not closing, is_closed_labeling(graph),
    )


def is_closed_labeling(graph: LabeledGraph) -> bool:
    """Whether every maximal clique is an interval of consecutive labels.

    Decided by the edge rule: each edge {i < j} with j - i >= 2 needs the
    edges {i, j-1} and {i+1, j}.  Under the rule, induction on j - i makes
    [i, j] a clique for every edge {i, j}, so a maximal clique C, which
    holds the edge {min C, max C}, spans the clique [min C, max C] and by
    maximality is that interval.  Conversely, if every maximal clique is an
    interval, the one holding an edge {i, j} contains [i, j].
    """
    edges = graph.edges
    return all(j - i < 2 or ((i, j - 1) in edges and (i + 1, j) in edges) for i, j in edges)


# ---------------------------------------------------------------------------
# rooted labelings of trees
# ---------------------------------------------------------------------------


class RootedLabelingCertificate(Record):
    """Witness that a labeled tree is rooted at vertex 1.

    ``parents[k]`` is the unique smaller-labeled neighbor of vertex k + 2.
    The defining conditions: every vertex above 1 has exactly one neighbor
    with a smaller label, and these parents are non-decreasing in the child
    label.  It follows that the children of each vertex carry consecutive
    labels and that children of i all precede children of j when i < j.
    """

    _fields = ("parents",)

    def parent_of(self, v: int) -> int:
        if v < 2 or v > len(self.parents) + 1:
            raise ValueError(f"vertex {v} has no parent entry")
        return self.parents[v - 2]

    def children_of(self, v: int) -> tuple[int, ...]:
        return tuple(c + 2 for c, p in enumerate(self.parents) if p == v)


def is_rooted_labeling(tree: LabeledGraph):
    """The certificate if the labeling is rooted, else None."""
    if not tree.is_tree():
        raise ValueError("rooted labeling applies to trees")
    parents = []
    for v in range(2, tree.n + 1):
        smaller = [u for u in tree.neighbors(v) if u < v]
        if len(smaller) != 1:
            return None
        parents.append(smaller[0])
    for a, b in zip(parents, parents[1:]):
        if a > b:
            return None
    return RootedLabelingCertificate(tuple(parents))


def enumerate_rooted_labelings(tree: LabeledGraph) -> list[LabeledGraph]:
    """All rooted labelings of a tree, as labeled graphs.

    Every vertex is tried as the root (label 1); labeled vertices are then
    processed in label order, each assigning the next consecutive labels to
    its unlabeled neighbors.  Swapping isomorphic sibling subtrees is a tree
    automorphism, so one order per sequence of subtree encodings suffices.
    Outputs are deduplicated up to equality of labeled edge sets.
    """
    if not tree.is_tree():
        raise ValueError("rooted labeling applies to trees")
    adjacency = _adjacency(tree)
    results: set[frozenset[Edge]] = set()

    def grow(sequence: list[int], position: int):
        if len(sequence) == tree.n:
            label = {orig: k + 1 for k, orig in enumerate(sequence)}
            relabeled = frozenset(
                (min(label[i], label[j]), max(label[i], label[j])) for i, j in tree.edges
            )
            results.add(relabeled)
            return
        current = sequence[position]
        # the next child of current, one per distinct subtree encoding
        fresh = {_encode(adjacency, w, current): w for w in adjacency[current] - set(sequence)}
        if not fresh:
            grow(sequence, position + 1)
        for w in fresh.values():
            grow(sequence + [w], position)

    for root in range(1, tree.n + 1):
        grow([root], 0)
    graphs = [LabeledGraph(tree.n, edges) for edges in results]
    graphs.sort(key=lambda g: g.edge_list())
    return graphs


# ---------------------------------------------------------------------------
# trees up to isomorphism
# ---------------------------------------------------------------------------


def tree_canonical_form(tree: LabeledGraph) -> str:
    """A canonical encoding identifying trees up to isomorphism.

    Encodes the tree rooted at its center (taking the smaller encoding when
    there are two centers) with sorted child encodings, which separates
    non-isomorphic trees exactly.
    """
    if not tree.is_tree():
        raise ValueError("canonical form applies to trees")
    adjacency = _adjacency(tree)
    return min(_encode(adjacency, c, None) for c in _centers(tree))


def _encode(adjacency: dict[int, set[int]], root: int, parent: int | None) -> str:
    """The subtree at root, away from parent, with sorted child encodings."""
    kids = sorted(_encode(adjacency, w, root) for w in adjacency[root] if w != parent)
    return "(" + "".join(kids) + ")"


def _centers(tree: LabeledGraph) -> list[int]:
    adjacency = {v: set(ws) for v, ws in _adjacency(tree).items()}
    alive = set(adjacency)
    while len(alive) > 2:
        leaves = [v for v in alive if len(adjacency[v]) <= 1]
        for v in leaves:
            for w in adjacency[v]:
                adjacency[w].discard(v)
            adjacency[v].clear()
            alive.discard(v)
    return sorted(alive)


def tree_classes(n: int) -> list[LabeledGraph]:
    """One representative per isomorphism class of trees on n vertices.

    A tree with a root and ordered children is a plane tree, and labeling a
    plane tree breadth first gives a rooted labeling: in label order, vertex
    v takes the next c_v labels as its children.  Walking every such
    child-count sequence, Catalan(n - 1) of them, therefore meets every
    shape.  The first tree per canonical encoding is kept, and the encodings
    fix the order.
    """
    seen: dict[str, LabeledGraph] = {}

    def grow(edges: list[Edge], v: int, given: int):
        if given == n:
            tree = LabeledGraph.of(n, edges)
            seen.setdefault(tree_canonical_form(tree), tree)
        elif v <= given:
            for last in range(given, n + 1):
                grow(edges + [(v, w) for w in range(given + 1, last + 1)], v + 1, last)

    grow([], 1, 1)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def path_graph(n: int) -> LabeledGraph:
    if n < 2:
        raise ValueError("paths need at least two vertices")
    return LabeledGraph.of(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> LabeledGraph:
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return path_graph(n).with_edges([(1, n)])


def complete_graph(n: int) -> LabeledGraph:
    if n < 2:
        raise ValueError("complete graphs here need at least two vertices")
    return LabeledGraph.of(n, combinations(range(1, n + 1), 2))


def complete_graph_minus_long_edge(n: int) -> LabeledGraph:
    """The complete graph with the edge {1, n} removed."""
    if n < 3:
        raise ValueError("needs at least three vertices")
    edges = set(complete_graph(n).edges) - {(1, n)}
    return LabeledGraph(n, frozenset(edges))


def path_plus_chord(n: int, t: int, s: int) -> LabeledGraph:
    """The labeled path plus the single chord {t, t+s}, s >= 2."""
    if s < 2:
        raise ValueError("chords span at least two path steps")
    if not (1 <= t and t + s <= n):
        raise ValueError(f"chord ({t}, {t + s}) does not fit on {n} vertices")
    return path_graph(n).with_edges([(t, t + s)])


def t1_path(n: int) -> LabeledGraph:
    """Rooted path labeling with vertex 2 a leaf: 2-1-3-4-...-n."""
    if n < 3:
        raise ValueError("needs at least three vertices")
    edges = [(1, 2), (1, 3)] + [(i, i + 1) for i in range(3, n)]
    return LabeledGraph.of(n, edges)


def t2_path(n: int) -> LabeledGraph:
    """Rooted path labeling with vertex 3 a leaf: 3-1-2-4-5-...-n."""
    if n < 4:
        raise ValueError("needs at least four vertices")
    edges = [(1, 2), (1, 3), (2, 4)] + [(i, i + 1) for i in range(4, n)]
    return LabeledGraph.of(n, edges)


def figure1_graph() -> LabeledGraph:
    """Hamiltonian labeling on five vertices: the 5-cycle plus chord {2, 4}."""
    return LabeledGraph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)])


def figure2_graph() -> LabeledGraph:
    """Semi-Hamiltonian labeling on six vertices that is not closed."""
    return LabeledGraph.of(
        6, [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)]
    )


def figure3_graph() -> LabeledGraph:
    """Semi-Hamiltonian labeling on five vertices: the path plus chord {2, 5}."""
    return LabeledGraph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])


def figure4_tree() -> LabeledGraph:
    """A rooted labeled tree on ten vertices used in the examples."""
    return LabeledGraph.of(
        10,
        [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (4, 7), (4, 8), (5, 9), (8, 10)],
    )


_BUILTIN_FIXED = {
    "fig1": figure1_graph,
    "fig2": figure2_graph,
    "fig3": figure3_graph,
    "fig4": figure4_tree,
}


def builtin_graph(name: str) -> LabeledGraph:
    """Named builtins: lN, cN, kN, kN-e, t1-N, t2-N, fig1 ... fig4."""
    if name in _BUILTIN_FIXED:
        return _BUILTIN_FIXED[name]()
    try:
        if name.startswith("t1-"):
            return t1_path(int(name[3:]))
        if name.startswith("t2-"):
            return t2_path(int(name[3:]))
        if name.startswith("l"):
            return path_graph(int(name[1:]))
        if name.startswith("c"):
            return cycle_graph(int(name[1:]))
        if name.startswith("k"):
            if name.endswith("-e"):
                return complete_graph_minus_long_edge(int(name[1:-2]))
            return complete_graph(int(name[1:]))
    except ValueError as exc:
        raise ValueError(f"bad builtin graph {name!r}: {exc}") from exc
    raise ValueError(f"unknown builtin graph {name!r}")


# ---------------------------------------------------------------------------
# graph files
# ---------------------------------------------------------------------------
#
# Format: UTF-8 text; '#' starts a comment; the first directive is
# "n <count>" and each further line "e <i> <j>" adds one edge.  Duplicate
# edges are rejected rather than collapsed.


def parse_graph_file(text: str) -> LabeledGraph:
    n = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: repeated vertex count")
            if len(fields) != 2 or not fields[1].isdigit():
                raise GraphFormatError(f"line {lineno}: expected 'n <count>'")
            n = int(fields[1])
            if n < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before vertex count")
            if len(fields) != 3 or not (fields[1].isdigit() and fields[2].isdigit()):
                raise GraphFormatError(f"line {lineno}: expected 'e <i> <j>'")
            i, j = int(fields[1]), int(fields[2])
            if i == j:
                raise GraphFormatError(f"line {lineno}: loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            edge = (min(i, j), max(i, j))
            if edge in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge {edge}")
            seen.add(edge)
            edges.append(edge)
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise GraphFormatError("missing 'n <count>' line")
    return LabeledGraph.of(n, edges)


def format_graph_file(graph: LabeledGraph) -> str:
    lines = [f"n {graph.n}"]
    lines += [f"e {i} {j}" for i, j in graph.edge_list()]
    return "\n".join(lines) + "\n"
