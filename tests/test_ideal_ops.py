"""Ideal-level operations: intersection, radicals, dimension, heights."""

import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelideals import (
    Ideal,
    LabeledGraph,
    MonomialIdeal,
    Polynomial,
    REVLEX,
    VariableContext,
    complete_graph,
    complete_graph_minus_long_edge,
    cycle_graph,
    figure1_graph,
    figure2_graph,
    figure4_tree,
    hankel_edge_ideal,
    hankel_generator,
    height,
    ideal_member,
    ideals_equal,
    initial_ideal,
    intersect_ideals,
    is_minimal_generating_set,
    monomial_dim,
    parse_polynomial,
    path_graph,
    radical_member,
    t1_path,
    t2_path,
)
from hankelideals import ideal_ops
from hankelideals.groebner import basis_cache_clear, pair_meter_total
from conftest import connected_graphs
from oracles import (
    height_by_buchberger,
    monomial_dim_by_subsets,
    monomial_is_complete_intersection,
    rabinowitsch_member,
    radicals_equal,
)

CONNECTED_FIXTURES = [
    path_graph(2),
    path_graph(4),
    cycle_graph(4),
    cycle_graph(5),
    complete_graph(4),
    complete_graph_minus_long_edge(5),
    t1_path(4),
    t2_path(5),
    figure1_graph(),
    figure2_graph(),
]


def ideal_of(graph):
    return hankel_edge_ideal(graph).ideal


def vars_ideal(ctx, *indices):
    return Ideal(ctx, tuple(Polynomial.variable(ctx, i) for i in indices))


# -- intersection ----------------------------------------------------------------


def intersection_pairs():
    ctx5 = VariableContext(5)
    yield ideal_of(complete_graph(4)), vars_ideal(ctx5, 2, 3, 4)
    yield ideal_of(path_graph(3)), ideal_of(cycle_graph(3))
    ctx3 = VariableContext(3)
    yield vars_ideal(ctx3, 1), vars_ideal(ctx3, 2)


def test_intersection_membership_both_ways():
    for a, b in intersection_pairs():
        meet = intersect_ideals(a, b)
        for q in meet.generators:
            assert ideal_member(q, a)
            assert ideal_member(q, b)
        for g, h in itertools.product(a.generators, b.generators):
            assert ideal_member(g * h, meet)


def test_intersection_of_principal_ideals_is_lcm():
    ctx = VariableContext(3)
    a = Ideal(ctx, (parse_polynomial("x1*x2", ctx),))
    b = Ideal(ctx, (parse_polynomial("x2*x3", ctx),))
    meet = intersect_ideals(a, b)
    want = Ideal(ctx, (parse_polynomial("x1*x2*x3", ctx),))
    assert ideals_equal(meet, want)


def test_minus_long_edge_ideal_is_an_intersection():
    # the one concrete intersection identity the whole pipeline leans on
    n = 4
    kn_e = ideal_of(complete_graph_minus_long_edge(n))
    curve = ideal_of(complete_graph(n))
    meet = intersect_ideals(curve, vars_ideal(curve.context, *range(2, n + 1)))
    assert ideals_equal(kn_e, meet)


# -- radical membership ------------------------------------------------------------


def test_radical_contains_square_roots():
    ctx = VariableContext(3)
    square = Ideal(ctx, (parse_polynomial("x1^2", ctx),))
    assert radical_member(Polynomial.variable(ctx, 1), square)
    assert not ideal_member(Polynomial.variable(ctx, 1), square)
    assert not radical_member(Polynomial.variable(ctx, 2), square)


def test_radical_membership_extends_ideal_membership():
    for graph in [path_graph(4), cycle_graph(4), t1_path(4)]:
        ideal = ideal_of(graph)
        for g in ideal.generators:
            assert radical_member(g, ideal)


def test_radical_membership_ignores_powers():
    ideal = ideal_of(cycle_graph(4))
    ctx = ideal.context
    # g13 sits in the radical but not the ideal itself
    g13 = parse_polynomial("x1*x4 - x2*x3", ctx)
    probes = [g13, ideal.generators[0], Polynomial.variable(ctx, 1)]
    for p in probes:
        expect = radical_member(p, ideal)
        for k in (2, 3):
            assert radical_member(p ** k, ideal) == expect


def test_zero_and_one_radical_membership():
    ideal = ideal_of(path_graph(3))
    ctx = ideal.context
    assert radical_member(Polynomial.zero(ctx), ideal)
    assert not radical_member(Polynomial.one(ctx), ideal)


def test_radical_member_rejects_a_variable_and_a_constant():
    ideal = ideal_of(path_graph(4))
    ctx = ideal.context
    assert not radical_member(Polynomial.variable(ctx, 1), ideal)
    assert not radical_member(Polynomial.constant(ctx, 3), ideal)


def test_radical_member_falls_back_past_the_power_walk():
    ctx = VariableContext(3)
    x1 = Polynomial.variable(ctx, 1)
    ideal = Ideal(ctx, (x1 ** 33,))
    # no power the walk tries lies in the ideal, so only Rabinowitsch can say yes
    assert not ideal_member(x1 ** ideal_ops._POWER_STEPS, ideal)
    assert radical_member(x1, ideal)


def test_radical_member_stops_a_growing_power_walk(monkeypatch):
    # two disjoint edges leave a 4-dimensional quotient; the remainders of
    # this p outside the radical grow as k^2, and walking all the way to
    # _POWER_STEPS took over 30 s where Rabinowitsch takes a millisecond
    ideal = ideal_of(LabeledGraph.of(5, [(2, 3), (4, 5)]))
    p = hankel_generator(ideal.context, 1, 3) * hankel_generator(ideal.context, 2, 4)
    steps = []
    reduce = ideal_ops.normal_form
    monkeypatch.setattr(ideal_ops, "normal_form", lambda *a: steps.append(1) or reduce(*a))
    assert not radical_member(p, ideal)
    assert len(steps) < 10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_radical_member_agrees_with_the_rabinowitsch_oracle(data):
    n = data.draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    ideal = ideal_of(LabeledGraph.of(n, edges))
    ctx = ideal.context
    pool = [hankel_generator(ctx, i, j) for i, j in pairs]
    pool += [Polynomial.variable(ctx, v) for v in range(1, n + 2)]
    p = functools.reduce(operator.mul, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))
    assert radical_member(p, ideal) == rabinowitsch_member(p, ideal.generators)


def test_radicals_equal_cases():
    ctx = VariableContext(3)
    a = Ideal(ctx, (parse_polynomial("x1^2", ctx), parse_polynomial("x2", ctx)))
    b = Ideal(ctx, (parse_polynomial("x1", ctx), parse_polynomial("x2^3", ctx)))
    assert radicals_equal(a, b)
    assert radicals_equal(ideal_of(complete_graph_minus_long_edge(4)), ideal_of(path_graph(4)))
    assert not radicals_equal(ideal_of(path_graph(4)), ideal_of(cycle_graph(4)))


# -- monomial dimension --------------------------------------------------------------


def test_monomial_dim_examples():
    ctx = VariableContext(4)
    m = MonomialIdeal.from_monomials(ctx, [(1, 1, 0, 0)])
    # drop either x1 or x2, keep everything else
    assert monomial_dim(m) == 3
    squares = MonomialIdeal.from_monomials(
        ctx, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
    )
    assert monomial_dim(squares) == 0


def test_min_cover_examples():
    assert ideal_ops.min_cover([]) == frozenset()
    five_cycle = [{k, k % 5 + 1} for k in range(1, 6)]
    cover = ideal_ops.min_cover(five_cycle)
    assert len(cover) == 3 and all(cover & s for s in five_cycle)
    assert ideal_ops.min_cover([{1, 2, 3}, {3}, {2, 4}]) in ({3, 2}, {3, 4})
    with pytest.raises(ValueError):
        ideal_ops.min_cover([{1}, set()])


def test_monomial_dim_unit_ideal_rejected():
    ctx = VariableContext(3)
    unit = MonomialIdeal.from_monomials(ctx, [(0, 0, 0)])
    with pytest.raises(ValueError):
        monomial_dim(unit)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_monomial_dim_matches_subset_oracle(data):
    width = data.draw(st.integers(2, 6))
    ctx = VariableContext(width)
    count = data.draw(st.integers(1, 5))
    monos = [
        tuple(data.draw(st.integers(0, 2)) for _ in range(width)) for _ in range(count)
    ]
    monos = [m for m in monos if any(m)] or [(1,) * width]
    ideal = MonomialIdeal.from_monomials(ctx, monos)
    supports = [tuple(i for i, e in enumerate(m) if e) for m in monos]
    assert monomial_dim(ideal) == monomial_dim_by_subsets(width, supports)


# -- height ---------------------------------------------------------------------------


def test_height_of_variable_ideals():
    ctx = VariableContext(5)
    assert height(vars_ideal(ctx, 1)) == 1
    assert height(vars_ideal(ctx, 1, 3, 5)) == 3


def test_height_unit_ideal_rejected():
    ctx = VariableContext(3)
    with pytest.raises(ValueError):
        height(Ideal(ctx, (Polynomial.one(ctx),)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_height_matches_the_oracle(data):
    graph = data.draw(connected_graphs())
    ideal = ideal_of(graph)
    basis_cache_clear()
    assert height(ideal) == height_by_buchberger(ideal.generators), graph


def test_a_memoized_basis_gives_the_height_for_no_pairs():
    # fig4 has height 6; its revlex basis takes 370 pairs, once
    basis_cache_clear()
    ideal = ideal_of(figure4_tree())
    costs = []
    for _ in range(2):
        before = pair_meter_total()
        assert height(ideal) == 6
        costs.append(pair_meter_total() - before)
    assert costs == [370, 0]


def test_height_is_order_independent_on_fixtures():
    from hankelideals import LEX

    for graph in [path_graph(4), cycle_graph(4), t1_path(4)]:
        ideal = ideal_of(graph)
        assert height(ideal, REVLEX) == height(ideal, LEX)


def test_height_monotone_along_nested_chain():
    # I_{L_n} sits inside I_{K_n - e}; adding variables only grows the height
    for n in (3, 4):
        small = ideal_of(path_graph(n))
        mid = ideal_of(complete_graph_minus_long_edge(n))
        big = Ideal(mid.context, mid.generators + (Polynomial.variable(mid.context, 2),))
        for lo, hi in [(small, mid), (mid, big)]:
            assert all(ideal_member(g, hi) for g in lo.generators)
            assert height(lo) <= height(hi)


def test_connected_fixture_heights_obey_the_vertex_bound():
    for graph in CONNECTED_FIXTURES:
        assert height(ideal_of(graph)) <= graph.n - 1


# -- minimal generating sets ------------------------------------------------------------


def test_fixture_generators_are_minimal():
    for graph in CONNECTED_FIXTURES:
        assert is_minimal_generating_set(ideal_of(graph))


def test_redundant_generator_detected():
    ideal = ideal_of(t1_path(3))
    ctx = ideal.context
    f = parse_polynomial("x1*x2*x4 - x1*x3^2", ctx)  # S(g12, g13), so redundant
    padded = Ideal(ctx, ideal.generators + (f,))
    assert not is_minimal_generating_set(padded)
    duplicated = Ideal(ctx, ideal.generators + (ideal.generators[0],))
    assert not is_minimal_generating_set(duplicated)


def test_single_generator_is_minimal():
    ctx = VariableContext(3)
    assert is_minimal_generating_set(Ideal(ctx, (parse_polynomial("x1*x2", ctx),)))


# -- monomial complete intersections ------------------------------------------------------


def test_monomial_ci_detection():
    ctx = VariableContext(4)
    disjoint = MonomialIdeal.from_monomials(ctx, [(2, 0, 0, 0), (0, 0, 2, 0)])
    assert monomial_is_complete_intersection(disjoint)
    sharing = MonomialIdeal.from_monomials(ctx, [(1, 1, 0, 0), (0, 1, 1, 0)])
    assert not monomial_is_complete_intersection(sharing)


def test_initial_ideal_of_path_is_monomial_ci():
    for n in range(2, 8):
        assert monomial_is_complete_intersection(
            initial_ideal(ideal_of(path_graph(n)), REVLEX)
        )
