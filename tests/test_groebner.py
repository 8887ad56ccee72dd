"""Groebner machinery: division, S-polynomials, Buchberger, reduced bases."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelideals import (
    BudgetExhaustedError,
    Ideal,
    MonomialIdeal,
    Polynomial,
    REVLEX,
    LEX,
    VariableContext,
    block_elim,
    buchberger,
    complete_graph,
    cycle_graph,
    format_polynomial,
    hankel_edge_ideal,
    ideal_member,
    ideals_equal,
    initial_ideal,
    is_groebner_basis,
    normal_form,
    parse_polynomial,
    path_graph,
    s_polynomial,
    t1_path,
    t2_path,
)
from hankelideals.cli import main
from hankelideals.groebner import basis_cache_clear
from hankelideals.ring import extend_polynomial
from conftest import polynomials
from oracles import block_cmp, lex_cmp, plain_buchberger, revlex_cmp


def ideal_of(graph):
    return hankel_edge_ideal(graph).ideal


def gens_by_text(ctx, *texts):
    return tuple(parse_polynomial(t, ctx) for t in texts)


FIXTURE_GRAPHS = [
    path_graph(3),
    path_graph(5),
    cycle_graph(4),
    cycle_graph(5),
    complete_graph(4),
    t1_path(4),
    t2_path(5),
]


# -- S-polynomial identities (hand-checked against the generator formulas) -----


def spoly_case_context():
    ctx = VariableContext(6)
    g12 = parse_polynomial("x1*x3 - x2^2", ctx)
    g13 = parse_polynomial("x1*x4 - x2*x3", ctx)
    g24 = parse_polynomial("x2*x5 - x3*x4", ctx)
    f = parse_polynomial("x1*x2*x4 - x1*x3^2", ctx)
    h = parse_polynomial("x1*x3*x5 - x1*x4^2", ctx)
    return ctx, g12, g13, g24, f, h


def test_spoly_of_first_two_generators_is_f():
    _, g12, g13, _, f, _ = spoly_case_context()
    assert s_polynomial(g12, g13, REVLEX) == f


def test_spoly_g13_f_reduces_via_g12():
    ctx, g12, g13, _, f, _ = spoly_case_context()
    s = s_polynomial(g13, f, REVLEX)
    x1x4 = parse_polynomial("x1*x4", ctx)
    assert s == -(x1x4 * g12)
    assert normal_form(s, [g12], REVLEX).is_zero


def test_spoly_identities_for_second_path_shape():
    ctx, g12, g13, g24, f, h = spoly_case_context()
    x = lambda i: Polynomial.variable(ctx, i)
    assert s_polynomial(f, h, REVLEX) == x(2) * x(4) * h - x(3) * x(5) * f
    assert s_polynomial(g13, g24, REVLEX) == -x(5) * g12 + h
    assert s_polynomial(g24, f, REVLEX) == -x(2) * h
    assert s_polynomial(g24, h, REVLEX) == -x(5) * f


def test_spoly_leading_terms_cancel():
    ctx, g12, g13, *_ = spoly_case_context()
    s = s_polynomial(g12, g13, REVLEX)
    from hankelideals.ring import mono_lcm

    lcm = mono_lcm(g12.leading_monomial(REVLEX), g13.leading_monomial(REVLEX))
    assert all(m != lcm for m, _ in s.terms)


# -- normal form ---------------------------------------------------------------


def test_normal_form_remainder_is_irreducible():
    ctx = VariableContext(4)
    basis = gens_by_text(ctx, "x1*x3 - x2^2", "x2*x4 - x3^2")
    p = parse_polynomial("x1^2*x3^2 + x2*x3*x4", ctx)
    r = normal_form(p, basis, REVLEX)
    from hankelideals.ring import mono_divides

    for m, _ in r.terms:
        for b in basis:
            assert not mono_divides(b.leading_monomial(REVLEX), m)


def test_normal_form_zero_for_members():
    ideal = ideal_of(t1_path(4))
    gb = buchberger(ideal, REVLEX)
    combo = ideal.generators[0] * ideal.generators[1] - ideal.generators[2]
    assert normal_form(combo, gb.elements, REVLEX).is_zero


def test_normal_form_gb_reduction_is_list_order_independent():
    for graph in FIXTURE_GRAPHS:
        ideal = ideal_of(graph)
        gb = buchberger(ideal, REVLEX)
        probe = ideal.generators[0] * ideal.generators[-1] + ideal.generators[0]
        forward = normal_form(probe, gb.elements, REVLEX)
        backward = normal_form(probe, tuple(reversed(gb.elements)), REVLEX)
        assert forward == backward


# -- Buchberger ------------------------------------------------------------------


def test_reduced_basis_of_first_path_shape_n3():
    # derived by hand from the S-polynomial identities and confirmed against
    # an independent computer algebra run during development
    ideal = ideal_of(t1_path(3))
    gb = buchberger(ideal, REVLEX)
    assert [format_polynomial(p) for p in gb.elements] == [
        "-x1*x4 + x2*x3",
        "-x1*x3 + x2^2",
        "-x1*x2*x4 + x1*x3^2",
    ]
    assert gb.pairs_processed == 2


def test_reduced_basis_is_monic_and_interreduced():
    from hankelideals.ring import mono_divides

    for graph in FIXTURE_GRAPHS:
        gb = buchberger(ideal_of(graph), REVLEX)
        for p in gb.elements:
            assert p.leading_coefficient(REVLEX) == 1
        for p, q in itertools.permutations(gb.elements, 2):
            for m, _ in p.terms:
                assert not mono_divides(q.leading_monomial(REVLEX), m)


def test_buchberger_output_passes_no_shortcut_criterion():
    for graph in FIXTURE_GRAPHS:
        for order in (REVLEX, LEX):
            gb = buchberger(ideal_of(graph), order)
            assert is_groebner_basis(gb.elements, order)


def test_raw_generators_need_not_be_groebner():
    ideal = ideal_of(t1_path(3))
    assert not is_groebner_basis(ideal.generators, REVLEX)


def test_groebner_idempotence():
    for graph in FIXTURE_GRAPHS:
        gb = buchberger(ideal_of(graph), REVLEX)
        again = buchberger(Ideal(gb.source.context, gb.elements), REVLEX)
        assert again.elements == gb.elements


def test_generator_permutation_invariance():
    for graph in [t1_path(4), cycle_graph(4)]:
        ideal = ideal_of(graph)
        reference = buchberger(ideal, REVLEX).elements
        for perm in itertools.permutations(ideal.generators):
            assert buchberger(Ideal(ideal.context, perm), REVLEX).elements == reference


ORACLE_ORDERS = [(REVLEX, revlex_cmp), (LEX, lex_cmp), (block_elim(1), lambda a, b: block_cmp(a, b, 1))]


def lifted_intersection_input():
    """The generators intersect_ideals lifts for I(t1-4) and I(c4): t*a, (1-t)*b."""
    a, b = ideal_of(t1_path(4)), ideal_of(cycle_graph(4))
    ext = a.context.extended("elim")
    t = Polynomial.auxiliary(ext, 1)
    lifted = [t * extend_polynomial(g, ext) for g in a.generators]
    lifted += [(Polynomial.one(ext) - t) * extend_polynomial(g, ext) for g in b.generators]
    return Ideal.of(ext, lifted)


def rabinowitsch_input():
    """I(c4) + (1 - t*g) for a generator g of I(c4): the unit ideal."""
    ideal = ideal_of(cycle_graph(4))
    ext = ideal.context.extended("radical")
    gens = [extend_polynomial(g, ext) for g in ideal.generators]
    return Ideal.of(ext, gens + [Polynomial.one(ext) - Polynomial.auxiliary(ext, 1) * gens[0]])


def test_coprime_criterion_does_not_change_the_basis():
    # the coprime criterion is part of the Gebauer-Moeller update; the oracle
    # forms every pair and skips none
    for graph in FIXTURE_GRAPHS:
        ideal = ideal_of(graph)
        for order, cmp in ORACLE_ORDERS:
            assert list(buchberger(ideal, order).elements) == plain_buchberger(ideal.generators, cmp)


def test_pair_criteria_do_not_change_the_basis():
    for ideal in [lifted_intersection_input(), rabinowitsch_input()]:
        for order, cmp in ORACLE_ORDERS:
            assert list(buchberger(ideal, order).elements) == plain_buchberger(ideal.generators, cmp)
    unit = rabinowitsch_input()
    assert buchberger(unit, REVLEX).elements == (Polynomial.one(unit.context),)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_duplicate_and_shared_leading_generators_match_the_oracle(data):
    ctx = VariableContext(3)
    nonzero = polynomials(ctx, max_terms=3, max_entry=2).filter(lambda p: not p.is_zero)
    gens = data.draw(st.lists(nonzero, min_size=1, max_size=3))
    first = gens[0]
    lead = first.leading_monomial(REVLEX)
    tail = data.draw(polynomials(ctx, max_terms=2, max_entry=2))
    below = Polynomial.from_dict(ctx, {m: c for m, c in tail.terms if revlex_cmp(m, lead) < 0})
    gens += [first, first * data.draw(st.sampled_from([1, -2, 3])) + below]
    ideal = Ideal.of(ctx, gens)
    for order, cmp in ORACLE_ORDERS[:2]:
        assert list(buchberger(ideal, order).elements) == plain_buchberger(gens, cmp)


def test_unit_ideal_collapses_to_one():
    ctx = VariableContext(2)
    one = Polynomial.one(ctx)
    x1 = Polynomial.variable(ctx, 1)
    gb = buchberger(Ideal(ctx, (x1, x1 - one)), REVLEX)
    assert gb.elements == (one,)


def test_budget_exhaustion():
    basis_cache_clear()
    ideal = ideal_of(complete_graph(5))
    with pytest.raises(BudgetExhaustedError) as err:
        buchberger(ideal, REVLEX, budget=3)
    assert err.value.pairs_processed == 3
    assert str(err.value) == "GB budget exhausted after 3 pair reductions"


def test_default_budget_calls_are_memoized():
    ideal = ideal_of(cycle_graph(5))
    first = buchberger(ideal, REVLEX)
    second = buchberger(ideal, REVLEX)
    assert second is first
    third = buchberger(ideal, REVLEX, budget=10_000)
    assert third is first


def test_pair_counts_stay_within_the_criteria_bounds(capsys):
    # counts reached with the Gebauer-Moeller update; with the coprime
    # criterion alone they were 1558, 324 and 7574
    basis_cache_clear()
    assert buchberger(ideal_of(cycle_graph(12)), REVLEX).pairs_processed <= 440
    assert buchberger(ideal_of(complete_graph(10)), REVLEX).pairs_processed <= 240
    basis_cache_clear()
    assert main(["--json", "minprimes", "--builtin", "t2-7"]) == 0
    assert json.loads(capsys.readouterr().out)["budget_used"] <= 2570


# -- membership and equality -----------------------------------------------------


def test_ideal_member_basic_cases():
    ideal = ideal_of(path_graph(3))
    ctx = ideal.context
    assert ideal_member(ideal.generators[0], ideal)
    assert ideal_member(Polynomial.zero(ctx), ideal)
    assert not ideal_member(Polynomial.one(ctx), ideal)
    assert not ideal_member(Polynomial.variable(ctx, 1), ideal)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_membership_soundness_on_random_combinations(data):
    ideal = ideal_of(t1_path(3))
    ctx = ideal.context
    combo = Polynomial.zero(ctx)
    for g in ideal.generators:
        combo = combo + data.draw(polynomials(ctx, max_terms=2, max_entry=2)) * g
    assert ideal_member(combo, ideal)


def test_ideals_equal_fixtures():
    a = ideal_of(path_graph(4))
    b = Ideal(a.context, tuple(reversed(a.generators)))
    assert ideals_equal(a, b)
    assert not ideals_equal(a, ideal_of(cycle_graph(4)))


# -- monomial ideals and initial ideals --------------------------------------------


def test_monomial_ideal_minimalizes_generators():
    ctx = VariableContext(3)
    m = MonomialIdeal.from_monomials(ctx, [(2, 0, 0), (1, 1, 0), (2, 1, 0), (2, 0, 0)])
    assert m.generator_strings() == ["x1*x2", "x1^2"]
    assert m.contains((2, 2, 0))
    assert not m.contains((0, 2, 2))
    assert m.is_proper


def test_initial_ideal_of_labeled_path():
    # squares of the middle variables, one per edge
    for n in range(2, 7):
        mono = initial_ideal(ideal_of(path_graph(n)), REVLEX)
        assert mono.generator_strings() == [f"x{i + 1}^2" for i in range(n - 1, 0, -1)]


def test_initial_ideal_matches_basis_leading_monomials():
    ideal = ideal_of(t2_path(4))
    gb = buchberger(ideal, REVLEX)
    mono = initial_ideal(ideal, REVLEX)
    for p in gb.elements:
        assert mono.contains(p.leading_monomial(REVLEX))
