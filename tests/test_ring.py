"""Polynomial layer: arithmetic, monomial orders, parsing, formatting."""

import itertools
from fractions import Fraction
from functools import cmp_to_key, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelideals import (
    ContextMismatchError,
    LEX,
    Polynomial,
    PolynomialParseError,
    REVLEX,
    VariableContext,
    block_elim,
    extend_polynomial,
    format_polynomial,
    parse_polynomial,
    restrict_polynomial,
)
from conftest import exponent_tuples, polynomials
from oracles import block_cmp, lex_cmp, monomials_up_to, revlex_cmp


def x(ctx, i):
    return Polynomial.variable(ctx, i)


# -- contexts ----------------------------------------------------------------


def test_context_names_and_extension():
    ctx = VariableContext(4)
    assert ctx.total_count == 4
    assert [ctx.variable_name(i) for i in range(4)] == ["x1", "x2", "x3", "x4"]
    ext = ctx.extended("elim")
    assert ext.total_count == 5
    assert ext.variable_name(4) == "t1"
    assert ext.base() == ctx


def test_context_requires_two_variables():
    with pytest.raises(ValueError):
        VariableContext(1)


# -- arithmetic ---------------------------------------------------------------


def test_binomial_construction_and_equality(ctx4):
    g12 = x(ctx4, 1) * x(ctx4, 3) - x(ctx4, 2) * x(ctx4, 2)
    assert format_polynomial(g12) == "x1*x3 - x2^2"
    assert g12 == parse_polynomial("x1*x3 - x2^2", ctx4)
    assert hash(g12) == hash(parse_polynomial("-x2^2 + x1*x3", ctx4))


def test_zero_handling(ctx4):
    z = Polynomial.zero(ctx4)
    assert z.is_zero
    assert z.total_degree() == -1
    assert format_polynomial(z) == "0"
    with pytest.raises(ValueError):
        z.leading_term()
    p = x(ctx4, 1)
    assert (p - p).is_zero


def test_constant_value(ctx4):
    assert Polynomial.constant(ctx4, Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert Polynomial.zero(ctx4).constant_value() == 0
    assert x(ctx4, 1).constant_value() is None


def test_power_and_scalar(ctx4):
    p = x(ctx4, 1) + x(ctx4, 2)
    assert p ** 2 == p * p
    assert 2 * p == p + p
    assert -p == Polynomial.zero(ctx4) - p


def test_cross_context_operations_fail():
    a = Polynomial.variable(VariableContext(4), 1)
    b = Polynomial.variable(VariableContext(5), 1)
    with pytest.raises(ContextMismatchError):
        a + b


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    ctx = VariableContext(3)
    p = data.draw(polynomials(ctx))
    q = data.draw(polynomials(ctx))
    r = data.draw(polynomials(ctx))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_normalization_idempotent(data):
    ctx = VariableContext(3)
    p = data.draw(polynomials(ctx))
    assert Polynomial.from_dict(ctx, p.as_dict()) == p


# -- monomial orders ----------------------------------------------------------


def test_revlex_matches_bruteforce_oracle():
    pool = monomials_up_to(5, 4)
    for a, b in itertools.product(pool, repeat=2):
        assert REVLEX.compare(a, b) == revlex_cmp(a, b), (a, b)


def test_lex_matches_bruteforce_oracle():
    pool = monomials_up_to(4, 3)
    for a, b in itertools.product(pool, repeat=2):
        assert LEX.compare(a, b) == lex_cmp(a, b), (a, b)


def test_block_order_matches_bruteforce_oracle():
    order = block_elim(1)
    pool = monomials_up_to(4, 3)
    for a, b in itertools.product(pool, repeat=2):
        assert order.compare(a, b) == block_cmp(a, b, 1), (a, b)


@pytest.mark.parametrize(
    "order, cmp",
    [
        (REVLEX, revlex_cmp),
        (LEX, lex_cmp),
        (block_elim(1), partial(block_cmp, elim=1)),
        (block_elim(2), partial(block_cmp, elim=2)),
    ],
    ids=["revlex", "lex", "elim(1)", "elim(2)"],
)
def test_sort_key_sorts_like_the_oracle_comparator(order, cmp):
    pool = monomials_up_to(4, 3)
    assert sorted(pool, key=order.sort_key) == sorted(pool, key=cmp_to_key(cmp))


def test_revlex_examples():
    # x2^2 > x1*x3 under revlex although lex says the opposite
    sq = (0, 2, 0, 0)
    prod = (1, 0, 1, 0)
    assert REVLEX.compare(sq, prod) == 1
    assert LEX.compare(sq, prod) == -1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_order_axioms(data):
    width = data.draw(st.integers(1, 8))
    order = data.draw(
        st.sampled_from([REVLEX, LEX]) if width < 2 else st.sampled_from([REVLEX, LEX, block_elim(1)])
    )
    a = data.draw(exponent_tuples(width))
    b = data.draw(exponent_tuples(width))
    c = data.draw(exponent_tuples(width))
    cmp_ab = order.compare(a, b)
    assert cmp_ab == -order.compare(b, a)
    assert (cmp_ab == 0) == (a == b)
    # multiplicativity
    ac = tuple(u + v for u, v in zip(a, c))
    bc = tuple(u + v for u, v in zip(b, c))
    assert order.compare(ac, bc) == cmp_ab
    # the unit monomial is the global minimum
    one = (0,) * width
    if a != one:
        assert order.compare(a, one) == 1


def test_order_context_mismatch():
    with pytest.raises(ContextMismatchError):
        REVLEX.compare((1, 0), (1, 0, 0))


# -- leading terms of the standard generators ----------------------------------


def test_leading_terms_of_edge_binomials():
    ctx = VariableContext(6)
    g12 = x(ctx, 1) * x(ctx, 3) - x(ctx, 2) ** 2
    g13 = x(ctx, 1) * x(ctx, 4) - x(ctx, 2) * x(ctx, 3)
    f = x(ctx, 1) * x(ctx, 2) * x(ctx, 4) - x(ctx, 1) * x(ctx, 3) ** 2
    h = x(ctx, 1) * x(ctx, 3) * x(ctx, 5) - x(ctx, 1) * x(ctx, 4) ** 2
    lead = lambda p: format_polynomial(Polynomial.from_dict(ctx, {p.leading_monomial(REVLEX): 1}))
    assert lead(g12) == "x2^2"
    assert lead(g13) == "x2*x3"
    assert lead(f) == "x1*x3^2"
    assert lead(h) == "x1*x4^2"
    for p in (g12, g13, f, h):
        assert p.leading_coefficient(REVLEX) == -1
        assert p.monic(REVLEX).leading_coefficient(REVLEX) == 1


# -- context lifting ------------------------------------------------------------


def test_extend_and_restrict_roundtrip(ctx4):
    ext = ctx4.extended("elim")
    p = x(ctx4, 1) * x(ctx4, 3) - x(ctx4, 2) ** 2
    lifted = extend_polynomial(p, ext)
    assert lifted.context == ext
    assert restrict_polynomial(lifted, ctx4) == p


def test_restrict_rejects_auxiliary_content(ctx4):
    ext = ctx4.extended("elim")
    t = Polynomial.auxiliary(ext, 1)
    with pytest.raises(ValueError):
        restrict_polynomial(t, ctx4)


# -- parser / printer -----------------------------------------------------------


def test_parse_standard_forms(ctx4):
    samples = [
        "x1*x3 - x2^2",
        "x2*x4 - x3^2",
        "3/2*x1",
        "-x1 + 2*x2^3",
        "x1^2*x2 - 4",
        "7",
        "0",
    ]
    for text in samples:
        p = parse_polynomial(text, ctx4)
        assert parse_polynomial(format_polynomial(p), ctx4) == p


def test_parse_whitespace_and_signs(ctx4):
    assert parse_polynomial("  x1 *x3-x2^2 ", ctx4) == parse_polynomial("x1*x3 - x2^2", ctx4)
    assert parse_polynomial("+x1 - 2*x2", ctx4) == parse_polynomial("x1 - 2*x2", ctx4)
    assert parse_polynomial("-2*x1 + 3*x2", ctx4) == parse_polynomial("3*x2 - 2*x1", ctx4)


def test_parse_errors(ctx4):
    with pytest.raises(PolynomialParseError):
        parse_polynomial("", ctx4)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x9", ctx4)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^0", ctx4)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^", ctx4)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 & x2", ctx4)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("3/0*x1", ctx4)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("t1", ctx4)  # no auxiliaries in a base context


def test_parse_auxiliary_in_extended_context(ctx4):
    ext = ctx4.extended("elim")
    p = parse_polynomial("t1*x1 - x2", ext)
    assert p == Polynomial.auxiliary(ext, 1) * Polynomial.variable(ext, 1) - Polynomial.variable(ext, 2)


def test_format_term_order_is_descending_lex(ctx4):
    # display sorts terms by descending exponent tuple, x1 heaviest
    p = parse_polynomial("x2^2 - x1*x3", ctx4)
    assert format_polynomial(p) == "-x1*x3 + x2^2"


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_format_parse_roundtrip(data):
    ctx = VariableContext(4)
    p = data.draw(polynomials(ctx))
    assert parse_polynomial(format_polynomial(p), ctx) == p
