"""Edge ideals, structured primes, verification reports, theorem sweeps."""

import functools
import itertools
import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelideals import (
    LEX,
    Ideal,
    LabeledGraph,
    Polynomial,
    REVLEX,
    StructuredPrime,
    UncoveredClassError,
    VariableContext,
    classify_labeling,
    complete_graph,
    complete_graph_minus_long_edge,
    cycle_graph,
    enumerate_rooted_labelings,
    figure1_graph,
    figure2_graph,
    figure3_graph,
    figure4_tree,
    format_polynomial,
    hankel_edge_ideal,
    hankel_generator,
    height,
    height_bounds,
    ideal_member,
    ideals_equal,
    initial_ideal,
    intersect_ideals,
    is_minimal_generating_set,
    minimal_prime_candidates,
    parse_polynomial,
    path_graph,
    path_plus_chord,
    property_report,
    rational_curve_ideal,
    rational_curve_prime,
    t1_path,
    t2_path,
    tree_classes,
    verify_minimal_primes,
    verify_theorem,
)
from hankelideals import hankel as hankel_module
from hankelideals.hankel import (
    TheoremInstance,
    expected_t1_initial,
    expected_t2_initial,
    radical_verdict,
    run_instance,
    theorem_instances,
)
from conftest import connected_graphs
from oracles import (
    connected_graph_classes,
    height_by_buchberger,
    member_by_buchberger,
    monomial_dim_by_subsets,
    monomial_is_complete_intersection,
    rabinowitsch_member,
    radicals_equal,
    rank_over_q,
)

HAMILTONIAN_FIXTURES = [cycle_graph(n) for n in (3, 4, 5, 6)] + [
    complete_graph(n) for n in (3, 4, 5)
] + [figure1_graph()]

SEMI_FIXTURES = [path_graph(n) for n in (2, 3, 4, 5, 6)] + [
    complete_graph_minus_long_edge(n) for n in (3, 4, 5)
] + [figure2_graph(), figure3_graph()]


# -- generators -----------------------------------------------------------------


def test_generator_formula():
    ctx = VariableContext(6)
    assert format_polynomial(hankel_generator(ctx, 1, 2)) == "x1*x3 - x2^2"
    assert format_polynomial(hankel_generator(ctx, 2, 5)) == "x2*x6 - x3*x5"
    with pytest.raises(ValueError):
        hankel_generator(ctx, 2, 2)
    with pytest.raises(ValueError):
        hankel_generator(ctx, 0, 3)
    with pytest.raises(ValueError):
        hankel_generator(ctx, 1, 6)  # only n = 5 columns here


def test_edge_ideal_structure():
    hank = hankel_edge_ideal(path_graph(3))
    assert [format_polynomial(g) for g in hank.ideal.generators] == [
        "x1*x3 - x2^2",
        "x2*x4 - x3^2",
    ]
    assert hank.generator_for(2, 3) == hank.ideal.generators[1]
    with pytest.raises(KeyError):
        hank.generator_for(1, 3)


def test_edgeless_graph_rejected():
    with pytest.raises(ValueError, match="edgeless"):
        hankel_edge_ideal(LabeledGraph.of(3, []))


def test_curve_ideal_is_all_minors():
    curve = rational_curve_ideal(4)
    assert len(curve.generators) == 6
    assert ideals_equal(curve, hankel_edge_ideal(complete_graph(4)).ideal)


def test_every_edge_generator_lies_in_the_curve_ideal():
    for graph in HAMILTONIAN_FIXTURES + SEMI_FIXTURES:
        curve = rational_curve_ideal(graph.n)
        for g in hankel_edge_ideal(graph).ideal.generators:
            assert ideal_member(g, curve)


# -- structured primes --------------------------------------------------------------


def test_structured_prime_validation():
    with pytest.raises(ValueError):
        StructuredPrime(frozenset(), None)
    with pytest.raises(ValueError):
        StructuredPrime(frozenset({3}), (3, 5))  # x3 sits inside the minor block
    with pytest.raises(ValueError):
        StructuredPrime(frozenset({6}), (3, 5))  # minors use x3..x6
    with pytest.raises(ValueError):
        StructuredPrime(frozenset({1}), (4, 4))


def test_structured_prime_expansion():
    ctx = VariableContext(6)
    prime = StructuredPrime(frozenset({1, 2}), (3, 5))
    ideal = prime.expand(ctx)
    strings = [format_polynomial(g) for g in ideal.generators]
    assert strings[:2] == ["x1", "x2"]
    assert "x3*x5 - x4^2" in strings
    assert len(strings) == 2 + 3
    assert prime.describe() == "(x1, x2) + minors(3..5)"
    with pytest.raises(ValueError):
        prime.expand(VariableContext(5))  # minors need x6


def test_curve_prime_describe():
    assert rational_curve_prime(5).describe() == "minors(1..5)"


# -- candidate lists -------------------------------------------------------------------


def test_candidates_for_hamiltonian_and_semi():
    assert minimal_prime_candidates(cycle_graph(5)) == (rational_curve_prime(5),)
    semi = minimal_prime_candidates(path_graph(5))
    assert semi == (
        rational_curve_prime(5),
        StructuredPrime(frozenset({2, 3, 4, 5}), None),
    )


def test_candidates_for_first_path_shape():
    # the n = 3 and n = 4 lists shed candidates that stop containing the ideal
    assert [c.describe() for c in minimal_prime_candidates(t1_path(3))] == [
        "minors(1..3)",
        "(x1, x2)",
    ]
    assert [c.describe() for c in minimal_prime_candidates(t1_path(4))] == [
        "minors(1..4)",
        "(x2, x3, x4)",
        "(x1, x2) + minors(3..4)",
    ]
    assert [c.describe() for c in minimal_prime_candidates(t1_path(6))] == [
        "minors(1..6)",
        "(x1, x2, x4, x5, x6)",
        "(x2, x3, x4, x5, x6)",
        "(x1, x2) + minors(3..6)",
    ]


def test_candidates_for_second_path_shape():
    assert [c.describe() for c in minimal_prime_candidates(t2_path(4))] == [
        "minors(1..4)",
        "(x1, x2, x4)",
        "(x2, x3, x4)",
        "(x1, x2, x3)",
    ]
    assert [c.describe() for c in minimal_prime_candidates(t2_path(5))] == [
        "minors(1..5)",
        "(x1, x2, x4, x5)",
        "(x2, x3, x4, x5)",
        "(x1, x2, x3) + minors(4..5)",
    ]
    assert [c.describe() for c in minimal_prime_candidates(t2_path(6))] == [
        "minors(1..6)",
        "(x1, x2, x4, x5, x6)",
        "(x2, x3, x4, x5, x6)",
        "(x1, x2, x3) + minors(4..6)",
        "(x1, x2, x3, x5, x6)",
    ]


def test_uncovered_class_raises():
    with pytest.raises(UncoveredClassError):
        minimal_prime_candidates(figure4_tree())
    with pytest.raises(UncoveredClassError):
        minimal_prime_candidates(LabeledGraph.of(4, [(1, 3), (3, 2), (2, 4)]))


def test_curve_prime_always_among_candidates():
    for graph in HAMILTONIAN_FIXTURES + SEMI_FIXTURES + [t1_path(4), t2_path(5)]:
        cands = minimal_prime_candidates(graph)
        assert rational_curve_prime(graph.n) in cands


# -- verification of candidate lists --------------------------------------------------------


def test_verify_minimal_primes_on_small_fixtures():
    for graph in [cycle_graph(4), complete_graph(4), path_graph(4), t1_path(4), t2_path(4)]:
        hank = hankel_edge_ideal(graph)
        report = verify_minimal_primes(hank, minimal_prime_candidates(graph))
        assert report.verified, graph
        assert all(report.contains_ideal) and all(report.incomparable)
        assert report.intersection_is_radical
        # the certified intersection is exactly the radical, so the edge
        # ideal sits inside it
        for g in hank.ideal.generators:
            assert ideal_member(g, report.intersection)


def test_containment_in_each_candidate_is_containment_in_their_intersection():
    # verify_minimal_primes reads "I lies in the meet" off `contains_ideal`;
    # recheck it against the meet's own Groebner basis
    cases = [
        (graph, minimal_prime_candidates(graph))
        for graph in (t1_path(4), t1_path(5), t1_path(6), t2_path(5), figure2_graph(), cycle_graph(5))
    ]
    cases.append((path_graph(4), [rational_curve_prime(4)]))
    # one candidate misses the ideal, yet the meet still lies in the radical
    extra = StructuredPrime(frozenset({2, 3, 4}), None)
    cases.append((cycle_graph(4), [*minimal_prime_candidates(cycle_graph(4)), extra]))
    for graph, cands in cases:
        hank = hankel_edge_ideal(graph)
        report = verify_minimal_primes(hank, cands)
        in_meet = all(ideal_member(g, report.intersection) for g in hank.ideal.generators)
        assert all(report.contains_ideal) == in_meet, graph
    assert report.contains_ideal[-1] is False
    assert not report.intersection_is_radical


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_meet_matches_chained_eliminations(data):
    # variable primes meet without Groebner work and minor blocks are
    # chained in another order, yet the reduced basis must not move
    n = data.draw(st.integers(3, 5))
    variables = st.frozensets(st.integers(1, n + 1), min_size=1, max_size=3)
    cands = [StructuredPrime(s) for s in data.draw(st.lists(variables, min_size=1, max_size=4))]
    if data.draw(st.booleans()):
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(a + 1, n))
        rest = data.draw(st.frozensets(st.integers(1, n + 1), max_size=2)) - set(range(a, b + 2))
        cands.insert(data.draw(st.integers(0, len(cands))), StructuredPrime(rest, (a, b)))
    hank = hankel_edge_ideal(path_graph(n))
    chained = functools.reduce(intersect_ideals, [c.expand(hank.ideal.context) for c in cands])
    assert verify_minimal_primes(hank, cands).intersection == chained


def test_verify_rejects_wrong_candidates():
    hank = hankel_edge_ideal(cycle_graph(4))
    wrong = [StructuredPrime(frozenset({2, 3, 4}), None)]
    report = verify_minimal_primes(hank, wrong)
    assert not report.verified
    assert report.contains_ideal == (False,)


def test_verify_flags_comparable_candidates():
    hank = hankel_edge_ideal(path_graph(4))
    nested = [
        StructuredPrime(frozenset({2, 3, 4}), None),
        StructuredPrime(frozenset({1, 2, 3, 4}), None),
    ]
    report = verify_minimal_primes(hank, nested)
    assert not report.verified
    assert report.incomparable == (False, False)


@functools.lru_cache(maxsize=None)
def _oracle_member(n: int, prime: StructuredPrime):
    return member_by_buchberger(prime.expand(VariableContext(n + 1)).generators)


def test_minor_rule_matches_the_groebner_oracle():
    # every minor on 6 columns against primes where T kills one term, both
    # terms or neither, and blocks that hold a minor's columns or only some
    n = 6
    context = VariableContext(n + 1)
    primes = [
        StructuredPrime(frozenset({1})),
        StructuredPrime(frozenset({2, 4})),
        StructuredPrime(frozenset({1, 3, 5, 7})),
        StructuredPrime(frozenset(), (2, 5)),
        StructuredPrime(frozenset({1, 7}), (2, 5)),
        StructuredPrime(frozenset({2, 3}), (4, 6)),
    ]
    verdicts = []
    for prime in primes:
        member = _oracle_member(n, prime)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            verdicts.append(prime.contains_minor(i, j))
            assert verdicts[-1] == member(hankel_generator(context, i, j)), (prime, i, j)
        for v in range(1, n + 2):
            assert (v in prime.variable_part) == member(Polynomial.variable(context, v))
    assert verdicts.count(True) and verdicts.count(False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_containment_and_incomparability_match_the_groebner_oracle(data):
    graph = data.draw(connected_graphs())
    n = graph.n

    def prime() -> StructuredPrime:
        block = None
        if data.draw(st.booleans()):
            a = data.draw(st.integers(1, n - 1))
            block = (a, data.draw(st.integers(a + 1, n)))
        variables = data.draw(st.frozensets(st.integers(1, n + 1), min_size=1, max_size=4))
        return StructuredPrime(variables - set(range(block[0], block[1] + 2)) if block else variables, block)

    cands = [prime() for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        cands.insert(data.draw(st.integers(0, len(cands))), data.draw(st.sampled_from(cands)))
    hank = hankel_edge_ideal(graph)
    report = verify_minimal_primes(hank, cands)

    def inside(q: StructuredPrime, p: StructuredPrime) -> bool:
        member = _oracle_member(n, p)
        return all(member(g) for g in q.expand(hank.ideal.context).generators)

    member_of = [_oracle_member(n, c) for c in cands]
    assert report.contains_ideal == tuple(
        all(member(g) for g in hank.ideal.generators) for member in member_of
    )
    assert report.incomparable == tuple(
        all(not inside(p, q) and not inside(q, p) for k, q in enumerate(cands) if k != m)
        for m, p in enumerate(cands)
    )


def test_verify_minimal_primes_needs_no_ideal_member(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_minimal_primes asked ideal_member")

    monkeypatch.setattr(hankel_module, "ideal_member", refuse)
    for graph in (t1_path(7), t2_path(7), figure2_graph()):
        hank = hankel_edge_ideal(graph)
        assert verify_minimal_primes(hank, minimal_prime_candidates(graph)).verified, graph


def test_every_tag_has_bounds_and_a_sweep():
    assert set(hankel_module.TAG_BOUNDS) == set(hankel_module._SWEEPS)


def test_verify_requires_candidates():
    with pytest.raises(ValueError):
        verify_minimal_primes(hankel_edge_ideal(path_graph(3)), [])


# -- property reports --------------------------------------------------------------------------


def test_property_report_requires_connected():
    with pytest.raises(ValueError):
        property_report(LabeledGraph.of(4, [(1, 2), (3, 4)]))
    with pytest.raises(ValueError):
        radical_verdict(LabeledGraph.of(4, [(1, 2), (3, 4)]))


def test_property_report_fixture_values():
    r = property_report(figure3_graph())
    assert (r.generator_count, r.height) == (5, 4)
    assert not r.is_complete_intersection
    assert r.is_almost_complete_intersection
    assert radical_verdict(figure3_graph())[0] is False

    r = property_report(t1_path(4))
    assert (r.generator_count, r.height) == (3, 3)
    assert r.is_complete_intersection and not r.is_almost_complete_intersection
    assert radical_verdict(t1_path(4))[0] is False

    assert radical_verdict(complete_graph(4))[0] is True

    assert radical_verdict(figure4_tree())[0] is None


def test_property_report_radical_unknown_outside_covered_classes():
    value, note = radical_verdict(figure4_tree())
    assert value is None
    assert "unknown" in note


def test_mu_equals_edge_count_with_minimality():
    for graph in HAMILTONIAN_FIXTURES + SEMI_FIXTURES:
        if graph.n > 6:
            continue
        hank = hankel_edge_ideal(graph)
        assert len(hank.ideal.generators) == len(graph.edges)
        assert is_minimal_generating_set(hank.ideal)


def test_complete_graph_minors_have_full_rank():
    # so every set of minors on n columns is linearly independent, which is
    # what property_report's mu = |E| rests on
    for n in range(2, 10):
        gens = hankel_edge_ideal(complete_graph(n)).ideal.generators
        assert rank_over_q(dict(g.terms) for g in gens) == n * (n - 1) // 2


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mu_is_the_edge_count_on_random_connected_graphs(data):
    n = data.draw(st.integers(2, 6))
    order = data.draw(st.permutations(range(1, n + 1)))
    spanning = [(order[k], order[data.draw(st.integers(0, k - 1))]) for k in range(1, n)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    graph = LabeledGraph.of(n, spanning + extra)
    assert property_report(graph).generator_count == len(graph.edges)
    assert is_minimal_generating_set(hankel_edge_ideal(graph).ideal)


def test_hamiltonian_and_semi_heights():
    for graph in HAMILTONIAN_FIXTURES + SEMI_FIXTURES:
        if graph.n > 6:
            continue
        assert height(hankel_edge_ideal(graph).ideal) == graph.n - 1, graph


# -- height brackets ----------------------------------------------------------------------------


def _prime_height(prime: StructuredPrime) -> int:
    # the minors of columns a..b cut out a rational normal curve of height b - a
    a, b = prime.minor_range or (0, 0)
    return len(prime.variable_part) + b - a


def _structured_primes(n: int):
    """Every (x_T) + minors(a..b) and every (x_T) on n columns."""
    variables = range(1, n + 2)
    for block in [None] + [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]:
        free = [v for v in variables if not block or not block[0] <= v <= block[1] + 1]
        for size in range(len(free) + 1):
            for t in itertools.combinations(free, size):
                if t or block:
                    yield StructuredPrime(frozenset(t), block)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_height_bounds_bracket_the_height_with_checkable_witnesses(data):
    graph = data.draw(connected_graphs())
    n = graph.n
    ideal = hankel_edge_ideal(graph).ideal
    lo, hi, cover, prime = height_bounds(graph)
    assert lo <= height(ideal) <= hi

    # lo: the cover meets every leading monomial under one of the orders, and
    # no smaller set does under either
    width = n + 1
    supports = {
        o: [{v + 1 for v, e in enumerate(g.leading_monomial(o)) if e} for g in ideal.generators]
        for o in (REVLEX, LEX)
    }
    assert len(cover) == lo
    assert any(all(cover & s for s in sets) for sets in supports.values())
    assert lo == max(
        width - monomial_dim_by_subsets(width, [{v - 1 for v in s} for s in sets])
        for sets in supports.values()
    )

    # hi: the prime contains I by the Groebner oracle, and no structured
    # prime over I is lower
    member = _oracle_member(n, prime)
    assert all(member(g) for g in ideal.generators)
    assert _prime_height(prime) == hi
    assert hi == min(
        _prime_height(p)
        for p in _structured_primes(n)
        if all(p.contains_minor(i, j) for i, j in graph.edge_list())
    )


def test_height_bounds_on_the_figures():
    assert height_bounds(figure4_tree())[:2] == (5, 6)
    assert height(hankel_edge_ideal(figure4_tree()).ideal) == 6
    for graph in HAMILTONIAN_FIXTURES + SEMI_FIXTURES:
        lo, hi, _, _ = height_bounds(graph)
        assert lo == hi == graph.n - 1, graph
    with pytest.raises(ValueError, match="edgeless"):
        height_bounds(LabeledGraph.of(1, []))


def test_tree_verdicts_skip_the_height_when_the_bracket_settles_them(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bracket decides this tree")

    monkeypatch.setattr(hankel_module, "_feasible_supports", refuse)
    decided = 0
    for inst in theorem_instances("thm3.2", 6):
        (tree,) = inst.payload
        lo, hi, _, _ = height_bounds(tree)
        if lo >= len(tree.edges) or hi < len(tree.edges):
            assert run_instance(inst).passed, inst.name
            decided += 1
    assert decided > 0


# -- feasible supports ---------------------------------------------------------------------------


def _support_height(graph) -> int:
    return min(cost for cost, _, _ in hankel_module._feasible_supports(graph))


def _lattice_row(i: int, j: int) -> dict:
    # d_i - d_j with d_i = e_i - e_{i+1}: the exponent difference of minor (i, j)
    row: dict = {}
    for v, sign in ((i, 1), (i + 1, -1), (j, -1), (j + 1, 1)):
        row[v] = row.get(v, 0) + sign
    return row


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_feasible_support_contains_a_yielded_one_of_the_stated_cost(data):
    graph = data.draw(connected_graphs())
    edges = graph.edge_list()
    leaves = list(hankel_module._feasible_supports(graph))
    for cost, t, comp in leaves:
        surviving = [(i, j) for i, j in edges if not (t & {i, j + 1} and t & {j, i + 1})]
        assert all(not t & {i, i + 1, j, j + 1} for i, j in surviving), (graph, t)
        assert all(comp[i] == comp[j] for i, j in surviving)
        assert cost == len(t) + rank_over_q(_lattice_row(i, j) for i, j in surviving)
        assert len(set(comp[1:])) == graph.n - (cost - len(t))
    # brute force over every variable set: a feasible one holds a yielded
    # support that kills the same edges
    for size in range(graph.n + 2):
        for chosen in itertools.combinations(range(1, graph.n + 2), size):
            t = set(chosen)
            killed = {(i, j) for i, j in edges if t & {i, j + 1} and t & {j, i + 1}}
            if any(t & {i, i + 1, j, j + 1} for i, j in set(edges) - killed):
                continue
            assert any(
                leaf <= t and {(i, j) for i, j in edges if leaf & {i, j + 1} and leaf & {j, i + 1}} == killed
                for _, leaf, _ in leaves
            ), (graph, t)


def test_support_heights_match_the_groebner_oracle_on_trees_and_figures():
    graphs = [t for n in range(2, 7) for shape in tree_classes(n) for t in enumerate_rooted_labelings(shape)]
    graphs += [figure1_graph(), figure2_graph(), figure3_graph()]
    for graph in graphs:
        want = height_by_buchberger(hankel_edge_ideal(graph).ideal.generators)
        assert _support_height(graph) == hankel_module.edge_ideal_height(graph) == want, graph
    # fig4's oracle height takes about 2 s; the criteria basis (370 pairs)
    # stands in, and the least support is the prime the bracket reports
    fig4 = figure4_tree()
    assert _support_height(fig4) == hankel_module.edge_ideal_height(fig4) == 6
    assert height(hankel_edge_ideal(fig4).ideal) == 6
    cheapest = [t for cost, t, _ in hankel_module._feasible_supports(fig4) if cost == 6]
    assert frozenset({1, 2, 3, 5, 8, 9}) in cheapest


def _assert_height_witness(graph, want):
    """height_witness gives `want` with a prime P_T over I_G of that height.

    P_T = (x_T) + I_L, L spanned by d_i - d_j over the pairs of columns in
    one block, is prime of height |T| + rank L when T avoids the blocks'
    variables; it holds each edge minor by the rule in `_radical_within`,
    and `member_by_buchberger` confirms that on its generators."""
    ht, support, blocks = hankel_module.height_witness(graph)
    assert ht == want, graph
    columns = [c for block in blocks for c in block]
    assert all(len(block) > 1 and list(block) == sorted(block) for block in blocks)
    assert len(columns) == len(set(columns)) and not support & {v for c in columns for v in (c, c + 1)}
    pairs = [(i, j) for block in blocks for i, j in itertools.combinations(block, 2)]
    rank = rank_over_q(_lattice_row(i, j) for i, j in pairs)
    assert ht == len(support) + sum(len(block) - 1 for block in blocks) == len(support) + rank
    block_of = {c: k for k, block in enumerate(blocks) for c in block}
    edges = graph.edge_list()
    assert all(
        (support & {i, j + 1} and support & {j, i + 1}) or block_of.get(i, -1) == block_of.get(j, -2)
        for i, j in edges
    ), graph
    context = VariableContext(graph.n + 1)
    member = member_by_buchberger(
        [Polynomial.variable(context, v) for v in sorted(support)]
        + [hankel_generator(context, i, j) for i, j in pairs]
    )
    assert all(member(hankel_generator(context, i, j)) for i, j in edges), graph


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_support_heights_match_the_groebner_oracle(data):
    graph = data.draw(connected_graphs())
    want = height_by_buchberger(hankel_edge_ideal(graph).ideal.generators)
    assert _support_height(graph) == hankel_module.edge_ideal_height(graph) == want, graph
    _assert_height_witness(graph, want)


def test_height_witness_matches_the_groebner_oracle_on_disconnected_graphs():
    # the CLI `height` takes disconnected graphs too: every one with n <= 5
    # and at least one edge
    graphs = []
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1, 1 << len(pairs)):
            graph = LabeledGraph.of(n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1])
            if not graph.is_connected():
                graphs.append(graph)
    assert len(graphs) == 323
    for graph in graphs:
        _assert_height_witness(graph, height_by_buchberger(hankel_edge_ideal(graph).ideal.generators))


def test_height_witness_on_the_figures_and_large_families():
    assert hankel_module.height_witness(figure4_tree()) == (6, frozenset({1, 2, 3, 5, 8, 9}), ())
    # Thm 2.2: labeled (semi-)Hamiltonian graphs have height n - 1, with the
    # curve ideal as the witness
    for graph in (cycle_graph(12), complete_graph(10), complete_graph_minus_long_edge(12)):
        n = graph.n
        assert hankel_module.height_witness(graph) == (n - 1, frozenset(), (tuple(range(1, n + 1)),))
    with pytest.raises(ValueError, match="edgeless"):
        hankel_module.height_witness(LabeledGraph.of(3, []))


def _random_connected(rng, n: int) -> LabeledGraph:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        graph = LabeledGraph.of(n, rng.sample(pairs, rng.randint(n - 1, len(pairs))))
        if graph.is_connected():
            return graph


def test_radical_containment_rule_matches_rabinowitsch():
    # half the random pairs add edges to the first graph, so containment
    # holds; in the fixed pairs only the component test refutes it
    rng = random.Random("radical-containment")
    pairs = [
        (LabeledGraph.of(4, [(2, 4)]), LabeledGraph.of(4, [(1, 2), (2, 3)])),
        (LabeledGraph.of(5, [(1, 4)]), LabeledGraph.of(5, [(3, 4), (4, 5)])),
    ]
    for k in range(24):
        n = rng.randint(3, 5)
        graph = _random_connected(rng, n)
        if k % 2:
            other = _random_connected(rng, n)
        else:
            other = graph.with_edges(rng.sample(list(itertools.combinations(range(1, n + 1), 2)), 2))
        pairs.append((graph, other))
    outcomes = set()
    for graph, other in pairs:
        gens = hankel_edge_ideal(other).ideal.generators
        want = all(rabinowitsch_member(g, gens) for g in hankel_edge_ideal(graph).ideal.generators)
        assert hankel_module._radical_within(graph, other) == want, (graph, other)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_radical_comparison_matches_radicals_equal():
    # the claim's own instances, and graphs outside it, so both answers occur
    instances = theorem_instances("prop2.8-radical", 6)
    for label, graph in [("c4", cycle_graph(4)), ("c5", cycle_graph(5)), ("k4", complete_graph(4)), ("fig1", figure1_graph())]:
        instances.append(TheoremInstance("prop2.8-radical", label, (graph,)))
    outcomes = set()
    for inst in instances:
        (graph,) = inst.payload
        want = radicals_equal(hankel_edge_ideal(graph).ideal, hankel_edge_ideal(path_graph(graph.n)).ideal)
        assert run_instance(inst).passed == want, inst.name
        outcomes.add(want)
    assert outcomes == {True, False}


# -- the sampled classification invariants ------------------------------------------------------


def test_complete_intersection_implies_tree_sampled():
    rng = random.Random("ci-implies-tree")
    for n in (2, 3, 4, 5):
        for shape in connected_graph_classes(n):
            perms = list(itertools.permutations(range(1, n + 1)))
            sample = rng.sample(perms, min(50, len(perms)))
            seen = set()
            for perm in sample:
                mapping = dict(zip(range(1, n + 1), perm))
                graph = LabeledGraph.of(
                    n, [(mapping[i], mapping[j]) for i, j in shape.edge_list()]
                )
                if graph.edges in seen:
                    continue
                seen.add(graph.edges)
                ideal = hankel_edge_ideal(graph).ideal
                if len(graph.edges) == height(ideal):
                    assert graph.is_tree(), graph


def test_radical_exactly_for_the_two_complete_fixtures():
    for n in (3, 4, 5):
        spine = [(i, i + 1) for i in range(1, n)]
        chords = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
        for r in range(len(chords) + 1):
            for extra in itertools.combinations(chords, r):
                graph = LabeledGraph.of(n, spine + list(extra))
                labels = classify_labeling(graph)
                assert labels.labeled_hamiltonian or labels.labeled_semi_hamiltonian
                value, _ = radical_verdict(graph)
                if labels.labeled_hamiltonian:
                    want = graph.edges == complete_graph(n).edges
                else:
                    want = graph.edges == complete_graph_minus_long_edge(n).edges
                assert value == want, graph


def test_initial_ideal_ci_triple():
    for n in range(3, 8):
        assert monomial_is_complete_intersection(
            initial_ideal(hankel_edge_ideal(path_graph(n)).ideal)
        )
        assert not monomial_is_complete_intersection(expected_t1_initial(n))
        if n >= 4:
            assert not monomial_is_complete_intersection(expected_t2_initial(n))


# -- theorem sweeps ------------------------------------------------------------------------------


def test_closed_form_initial_ideals_match_computation():
    for n in (3, 5):
        got = initial_ideal(hankel_edge_ideal(t1_path(n)).ideal, REVLEX)
        assert got == expected_t1_initial(n)
    got = initial_ideal(hankel_edge_ideal(t2_path(5)).ideal, REVLEX)
    assert got == expected_t2_initial(5)


def test_theorem_tag_bounds():
    with pytest.raises(ValueError, match="unknown theorem tag"):
        verify_theorem("thm9.9", 4)
    with pytest.raises(ValueError, match="too large"):
        verify_theorem("thm2.2", 7)
    with pytest.raises(ValueError, match="too large"):
        theorem_instances("thm3.2", 11)
    with pytest.raises(ValueError, match="too large"):
        theorem_instances("thm3.1", 11)
    with pytest.raises(ValueError, match="too large"):
        theorem_instances("prop2.8-radical", 41)
    # an empty range would replay as a 0/0 pass
    for tag, max_n in [("thm2.2", 1), ("thm2.2", -4), ("cor2.7", 3), ("thm3.1", 3)]:
        with pytest.raises(ValueError, match="no .* instances"):
            theorem_instances(tag, max_n)


def test_small_sweeps_pass():
    for tag, max_n in [("thm2.2", 3), ("cor2.3", 4), ("prop2.6", 4), ("prop3.5", 5)]:
        report = verify_theorem(tag, max_n)
        assert report.all_passed, tag
        assert report.results, tag


def test_cor23_complete_instances_catch_a_wrong_complete_graph(monkeypatch):
    # the curve ideal comes from its parametrization, not from complete_graph,
    # so a complete graph missing the edge {1, 2} fails every instance
    def missing_edge(n):
        return LabeledGraph(n, complete_graph(n).edges - {(1, 2)})

    monkeypatch.setattr(hankel_module, "complete_graph", missing_edge)
    complete = [inst for inst in theorem_instances("cor2.3", 5) if inst.payload[1] == "complete"]
    assert len(complete) == 3
    assert not any(run_instance(inst).passed for inst in complete)


def test_sweep_names_are_unique():
    report = verify_theorem("thm3.2", 5)
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))
    assert verify_theorem("prop3.5", 5).pairs_used > 0


def test_instances_are_picklable():
    for inst in theorem_instances("thm3.1", 5):
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        assert run_instance(clone).passed


def test_parallel_sweep_agrees_with_sequential():
    seq = verify_theorem("prop3.5", 6)
    par = verify_theorem("prop3.5", 6, jobs=2)
    assert [(r.name, r.passed, r.detail) for r in seq.results] == [
        (r.name, r.passed, r.detail) for r in par.results
    ]


def test_parallel_sweep_starts_at_most_one_worker_per_cpu_and_instance(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify_theorem("prop3.5", 5, jobs=10**6).all_passed  # 5 instances
    verify_theorem("prop3.5", 4, jobs=10**6)  # 3 instances
    assert started == [4, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify_theorem("prop3.5", 5, jobs=10**6).all_passed
    assert started == [4, 3]  # one CPU assumed: no pool at all


def test_sweep_detects_a_falsified_claim():
    # a deliberately wrong instance: the curve ideal alone never certifies a
    # semi-Hamiltonian graph, whose radical needs the variable prime as well
    inst = TheoremInstance("thm2.2", "broken", (path_graph(4),))
    result = run_instance(inst)
    assert result.passed  # the real candidate list is fetched internally

    hank = hankel_edge_ideal(path_graph(4))
    report = verify_minimal_primes(hank, [rational_curve_prime(4)])
    assert not report.verified
