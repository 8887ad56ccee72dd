"""Labeled graphs: file format, labeling classes, cliques, rooted labelings."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelideals import (
    GraphFormatError,
    LabeledGraph,
    builtin_graph,
    classify_labeling,
    complete_graph,
    complete_graph_minus_long_edge,
    cycle_graph,
    enumerate_rooted_labelings,
    figure1_graph,
    figure2_graph,
    figure3_graph,
    figure4_tree,
    format_graph_file,
    is_closed_labeling,
    is_rooted_labeling,
    parse_graph_file,
    path_graph,
    path_plus_chord,
    t1_path,
    t2_path,
    tree_classes,
)
from hankelideals.graphs import tree_canonical_form
from hankelideals.hankel import theorem_instances
from oracles import maximal_cliques, pruefer_trees, relabelings, rooted_labelings_by_filter


# -- construction and the file format ------------------------------------------------


def test_graph_normalization():
    g = LabeledGraph.of(4, [(3, 1), (2, 1)])
    assert g.edge_list() == [(1, 2), (1, 3)]
    assert g.degree(1) == 2 and g.degree(4) == 0
    assert g.neighbors(1) == (2, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        LabeledGraph.of(3, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledGraph.of(3, [(0, 2)])
    with pytest.raises(ValueError):
        LabeledGraph.of(3, [(2, 4)])


def test_parse_graph_file():
    text = "# a comment\nn 4\ne 1 2  # trailing comment\ne 2 3\ne 3 4\n"
    g = parse_graph_file(text)
    assert g == path_graph(4)


def test_parse_graph_file_errors_carry_line_numbers():
    cases = [
        ("e 1 2\nn 3\n", "line 1"),
        ("n 3\nn 4\n", "line 2"),
        ("n 3\ne 1 1\n", "line 2: loop"),
        ("n 3\ne 1 5\n", "line 2: vertex out of range"),
        ("n 3\ne 1 2\ne 2 1\n", "line 3: duplicate edge"),
        ("n 3\nq 1 2\n", "line 2: unknown directive"),
        ("e 1 2\n", "line 1"),
        ("# nothing\n", "missing 'n <count>'"),
    ]
    for text, fragment in cases:
        with pytest.raises(GraphFormatError) as err:
            parse_graph_file(text)
        assert fragment in str(err.value), text


def test_format_parse_roundtrip_fixtures():
    for g in [path_graph(5), figure2_graph(), complete_graph(4), figure4_tree()]:
        assert parse_graph_file(format_graph_file(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_format_parse_roundtrip_random(data):
    n = data.draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    g = LabeledGraph.of(n, chosen)
    assert parse_graph_file(format_graph_file(g)) == g


# -- classification --------------------------------------------------------------------


def test_path_and_cycle_classification_through_n10():
    for n in range(3, 11):
        assert classify_labeling(path_graph(n)).labeled_semi_hamiltonian
        assert not classify_labeling(path_graph(n)).labeled_hamiltonian
        assert classify_labeling(cycle_graph(n)).labeled_hamiltonian
        assert not classify_labeling(cycle_graph(n)).labeled_semi_hamiltonian


def test_two_vertex_path_counts_as_hamiltonian():
    # {1, n} with n = 2 is the spine edge itself
    assert classify_labeling(path_graph(2)).labeled_hamiltonian


def test_figure_fixtures_classification():
    fig1 = classify_labeling(figure1_graph())
    assert fig1.labeled_hamiltonian and not fig1.tree
    fig2 = classify_labeling(figure2_graph())
    assert fig2.labeled_semi_hamiltonian and not fig2.labeled_hamiltonian
    fig3 = classify_labeling(figure3_graph())
    assert fig3.labeled_semi_hamiltonian
    fig4 = classify_labeling(figure4_tree())
    assert fig4.tree and not fig4.path


def test_shuffled_labeling_is_not_spined():
    g = LabeledGraph.of(4, [(1, 3), (3, 2), (2, 4)])  # a path, badly labeled
    cls = classify_labeling(g)
    assert cls.path
    assert not cls.labeled_hamiltonian and not cls.labeled_semi_hamiltonian


# -- closed labelings ---------------------------------------------------------------------


def test_complete_graphs_are_closed():
    for n in range(2, 9):
        assert is_closed_labeling(complete_graph(n))


def test_path_plus_short_chord_family_is_closed():
    for n in range(4, 9):
        for t in range(1, n - 1):
            assert is_closed_labeling(path_plus_chord(n, t, 2))


def test_longer_chords_break_closedness():
    for n in range(5, 8):
        for t in range(1, n - 2):
            for s in range(3, n - t + 1):
                assert not is_closed_labeling(path_plus_chord(n, t, s))


def test_figure2_cliques_and_closedness():
    cliques = maximal_cliques(figure2_graph())
    assert cliques == [
        frozenset({1, 2, 3}),
        frozenset({2, 5}),
        frozenset({3, 4}),
        frozenset({4, 5, 6}),
    ]
    assert not is_closed_labeling(figure2_graph())


def test_maximal_cliques_on_disjoint_edges():
    g = LabeledGraph.of(4, [(1, 2), (3, 4)])
    assert maximal_cliques(g) == [frozenset({1, 2}), frozenset({3, 4})]


def test_closed_labeling_edge_rule_matches_the_clique_definition():
    checked = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                graph = LabeledGraph(n, frozenset(edges))
                intervals = all(max(c) - min(c) + 1 == len(c) for c in maximal_cliques(graph))
                assert is_closed_labeling(graph) == intervals, edges
                checked += 1
    assert checked == 1099


# -- rooted labelings ------------------------------------------------------------------------


def test_rooted_labeling_requires_tree():
    with pytest.raises(ValueError):
        is_rooted_labeling(cycle_graph(4))


def test_star_certificate():
    star = LabeledGraph.of(4, [(1, 2), (2, 3), (2, 4)])
    cert = is_rooted_labeling(star)
    assert cert is not None
    assert cert.parents == (1, 2, 2)
    assert cert.children_of(2) == (3, 4)
    assert cert.parent_of(4) == 2


def test_rooted_labeling_rejects_nonmonotone_parents():
    # 4 hangs from 2 while 3 hangs from 1: parents (1, 1, 2) are fine,
    # but swapping the labels of 3 and 4 breaks monotonicity
    good = LabeledGraph.of(4, [(1, 2), (1, 3), (2, 4)])
    assert is_rooted_labeling(good) is not None
    bad = LabeledGraph.of(4, [(1, 2), (1, 4), (2, 3)])
    assert is_rooted_labeling(bad) is None


def test_t1_t2_are_rooted_paths_with_root_next_to_leaf():
    for n in (4, 6):
        for tree in (t1_path(n), t2_path(n)):
            assert tree.is_path_shape()
            assert is_rooted_labeling(tree) is not None
            assert any(tree.degree(w) == 1 for w in tree.neighbors(1))


def test_children_blocks_are_consecutive_and_ordered():
    for shape in tree_classes(5):
        for lab in enumerate_rooted_labelings(shape):
            cert = is_rooted_labeling(lab)
            assert cert is not None
            blocks = [cert.children_of(v) for v in range(1, lab.n + 1)]
            for block in blocks:
                assert list(block) == list(range(block[0], block[0] + len(block))) if block else True
            flattened = [v for block in blocks for v in block]
            assert flattened == sorted(flattened)


def test_enumeration_matches_bruteforce_filter():
    # the shapes, then isomorphic sibling subtrees under labels that are not
    # breadth first
    symmetric = [
        LabeledGraph.of(7, [(4, v) for v in (1, 2, 3, 5, 6, 7)]),
        LabeledGraph.of(7, [(5, 2), (2, 7), (5, 6), (6, 1), (5, 3), (3, 4)]),
        LabeledGraph.of(7, [(3, 6), (3, 1), (6, 2), (6, 7), (1, 4), (1, 5)]),
        LabeledGraph.of(7, [(2, 5), (2, 6), (2, 1), (1, 7), (7, 3), (7, 4)]),
    ]
    for shape in [s for n in range(2, 7) for s in tree_classes(n)] + symmetric:
        fast = enumerate_rooted_labelings(shape)
        slow = rooted_labelings_by_filter(
            shape, lambda g: is_rooted_labeling(g) is not None
        )
        assert sorted(g.edges for g in fast) == sorted(g.edges for g in slow), shape


def test_star_has_two_rooted_labelings():
    # the center or a leaf takes label 1; the 11 isomorphic leaves are
    # ordered once, not 11! times
    star = LabeledGraph.of(12, [(5, v) for v in range(1, 13) if v != 5])
    labelings = enumerate_rooted_labelings(star)
    assert [g.edge_list() for g in labelings] == [
        [(1, v) for v in range(2, 13)],
        [(1, 2)] + [(2, v) for v in range(3, 13)],
    ]


def test_three_vertex_path_has_two_rooted_labelings():
    labelings = enumerate_rooted_labelings(path_graph(3))
    assert [g.edge_list() for g in labelings] == [[(1, 2), (1, 3)], [(1, 2), (2, 3)]]


# -- tree enumeration ---------------------------------------------------------------------------


@functools.cache
def _pruefer_census(n: int) -> tuple[set[str], dict[str, list[LabeledGraph]]]:
    """The canonical forms of every labeled tree on n vertices from the
    Pruefer oracle, and its rooted labelings grouped by canonical form."""
    keys: set[str] = set()
    rooted: dict[str, list[LabeledGraph]] = {}
    for tree in pruefer_trees(n):
        key = tree_canonical_form(tree)
        keys.add(key)
        if is_rooted_labeling(tree) is not None:
            rooted.setdefault(key, []).append(tree)
    return keys, rooted


def test_tree_class_counts():
    # OEIS A000055
    assert [len(tree_classes(n)) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    assert [g.edge_list() for g in tree_classes(1) + tree_classes(2)] == [[], [(1, 2)]]


def test_rooted_labelings_number_catalan():
    for n in range(1, 9):
        count = sum(len(enumerate_rooted_labelings(shape)) for shape in tree_classes(n))
        assert count == math.comb(2 * n - 2, n - 1) // n, n


def test_rooted_labelings_match_the_pruefer_oracle():
    for n in range(2, 8):
        fast = [g.edges for shape in tree_classes(n) for g in enumerate_rooted_labelings(shape)]
        slow = {tree.edges for trees in _pruefer_census(n)[1].values() for tree in trees}
        assert len(fast) == len(set(fast)) and set(fast) == slow, n


def test_tree_classes_match_the_pruefer_classes():
    for n in range(2, 8):
        keys = [tree_canonical_form(shape) for shape in tree_classes(n)]
        assert keys == sorted(_pruefer_census(n)[0]), n


def test_tree_classes_are_pairwise_nonisomorphic():
    # the isomorphism classes of the shapes are disjoint and cover every
    # labeled tree the oracle decodes
    for n in (5, 6):
        orbits = [relabelings(shape) for shape in tree_classes(n)]
        assert sum(map(len, orbits)) == len(set().union(*orbits))
        assert set().union(*orbits) == {tree.edges for tree in pruefer_trees(n)}


def test_tree_sweeps_follow_the_oracle_shapes():
    # shapes in canonical order, then each shape's rooted labelings by edge list
    for tag, lo, paths in (("thm3.1", 3, False), ("thm3.2", 2, None)):
        want = []
        for n in range(lo, 8):
            rooted = _pruefer_census(n)[1]
            for key in sorted(rooted):
                labelings = sorted(rooted[key], key=LabeledGraph.edge_list)
                if paths is not None and labelings[0].is_path_shape() != paths:
                    continue
                for t in labelings:
                    edges = ",".join(f"{i}-{j}" for i, j in t.edge_list())
                    want.append(f"{tag} n={n} tree {edges}")
        assert [inst.name for inst in theorem_instances(tag, 7)] == want, tag


# -- builtins ----------------------------------------------------------------------------------


def test_builtin_names():
    assert builtin_graph("fig1") == figure1_graph()
    assert builtin_graph("fig3") == figure3_graph()
    assert builtin_graph("t1-5") == t1_path(5)
    assert builtin_graph("t2-6") == t2_path(6)
    assert builtin_graph("l7") == path_graph(7)
    assert builtin_graph("c5") == cycle_graph(5)
    assert builtin_graph("k4") == complete_graph(4)
    assert builtin_graph("k4-e") == complete_graph_minus_long_edge(4)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_graph("zz9")


def test_figure_edge_sets():
    assert figure1_graph().edges == cycle_graph(5).with_edges([(2, 4)]).edges
    assert figure3_graph().edges == path_graph(5).with_edges([(2, 5)]).edges
    assert figure2_graph().edge_list() == [
        (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)
    ]
    fig4 = figure4_tree()
    assert fig4.n == 10 and fig4.is_tree()
    assert is_rooted_labeling(fig4) is not None
