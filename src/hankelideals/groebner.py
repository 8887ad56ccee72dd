"""Buchberger's algorithm with canonical reduced bases.

The verification style throughout the package leans on two properties of
this module: division is deterministic (divisors are tried in list order and
the leading monomial of the running remainder is always reduced first), and
`buchberger` returns the unique reduced Groebner basis, monic and sorted
ascending by leading monomial, so bases are directly comparable.  The only
shortcuts are the Gebauer-Moeller pair criteria (Buchberger's coprime
criterion and the chain criterion), which skip S-pairs known to reduce to
zero; there are no signature-based or modular ones.
`is_groebner_basis` rechecks every S-pair and serves as the independent
oracle for the computed bases.
"""

from __future__ import annotations

from fractions import Fraction
import heapq

from .ring import (
    ContextMismatchError,
    Mono,
    MonomialOrder,
    Polynomial,
    REVLEX,
    Record,
    VariableContext,
    format_monomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    unit_mono,
)

DEFAULT_PAIR_BUDGET = 100_000

_ZERO = Fraction(0)


class BudgetExhaustedError(RuntimeError):
    """Raised when a basis computation exceeds its pair-reduction budget."""

    def __init__(self, pairs_processed: int):
        super().__init__(f"GB budget exhausted after {pairs_processed} pair reductions")
        self.pairs_processed = pairs_processed


class _PairMeter:
    """Counts pair reductions performed in this process, for reporting."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


_METER = _PairMeter()


def pair_meter_reset() -> None:
    _METER.count = 0


def pair_meter_total() -> int:
    return _METER.count


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal(Record):
    """A finitely generated ideal, given by nonzero generators in one context."""

    _fields = ("context", "generators")

    def __init__(self, context: VariableContext, generators: tuple[Polynomial, ...]):
        if not generators:
            raise ValueError("an ideal needs at least one generator")
        for g in generators:
            if g.context != context:
                raise ContextMismatchError("incompatible contexts")
            if g.is_zero:
                raise ValueError("zero generators are not allowed")
        super().__init__(context, generators)

    @classmethod
    def of(cls, context: VariableContext, generators) -> "Ideal":
        return cls(context, tuple(generators))


class ReducedGroebnerBasis(Record):
    _fields = ("source", "order", "elements", "pairs_processed")
    _uncompared = ("pairs_processed",)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# division and S-polynomials
# ---------------------------------------------------------------------------


def normal_form(p: Polynomial, basis, order: MonomialOrder = REVLEX) -> Polynomial:
    """Remainder of p under multivariate division by the listed polynomials."""
    reducers = []
    for g in basis:
        if g.context != p.context:
            raise ContextMismatchError("incompatible contexts")
        if g.is_zero:
            raise ValueError("zero divisors are not allowed in a basis")
        reducers.append((*g.leading_term(order), g.terms))
    key = order.sort_key
    work = dict(p.terms)
    remainder: dict = {}
    while work:
        lm = max(work, key=key)
        c = work[lm]
        for gm, gc, gterms in reducers:
            if mono_divides(gm, lm):
                quot = mono_div(lm, gm)
                factor = c / gc
                for m2, c2 in gterms:
                    mm = mono_mul(m2, quot)
                    v = work.get(mm, _ZERO) - factor * c2
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lm] = c
            del work[lm]
    return Polynomial.from_dict(p.context, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = REVLEX) -> Polynomial:
    """S(f, g) = (L / lt f) f - (L / lt g) g with L = lcm of the leading monomials."""
    if f.context != g.context:
        raise ContextMismatchError("incompatible contexts")
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    lcm = mono_lcm(fm, gm)
    left = f.times_term(1 / fc, mono_div(lcm, fm))
    right = g.times_term(1 / gc, mono_div(lcm, gm))
    return left - right


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

_GB_CACHE: dict = {}


def basis_cache_clear() -> None:
    """Forgets memoized bases; pair counts then restart from the inputs."""
    _GB_CACHE.clear()


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = REVLEX,
    *,
    budget: int | None = None,
) -> ReducedGroebnerBasis:
    """The reduced Groebner basis of `ideal` under `order`.

    Pairs are handled in the normal strategy (smallest lcm first, then by
    index) and filtered by the Gebauer-Moeller update each time an element
    h joins the basis:

    * of the new pairs (g, h), one is dropped when another new pair's lcm
      properly divides its lcm, only one is kept per lcm, and a pair is
      dropped when its lcm class contains a coprime pair (Buchberger's first
      criterion: such S-polynomials reduce to zero);
    * an old pair (f, g) is dropped when lm(h) divides lcm(f, g) and both
      lcm(f, h) and lcm(g, h) differ from it (the chain criterion);
    * elements whose leading monomial lm(h) divides form no further pairs,
      though they stay divisors.

    The canonical result does not depend on which pairs are skipped.  Bases
    are memoized per (generators, order), with or without a budget, so a
    repeated call costs no pairs.  `budget` caps the pair reductions a
    computation performs (default 100,000); overruns raise
    BudgetExhaustedError and cache nothing.
    """
    cache_key = (ideal.context, ideal.generators, order)
    hit = _GB_CACHE.get(cache_key)
    if hit is not None:
        return hit
    limit = DEFAULT_PAIR_BUDGET if budget is None else budget

    key = order.sort_key
    basis: list[Polynomial] = []
    leads: list[Mono] = []
    active: list[int] = []  # indices that still form new pairs
    heap: list = []

    def update(h: Polynomial) -> None:
        j = len(basis)
        hm = h.leading_monomial(order)
        basis.append(h)
        leads.append(hm)
        # new pairs by lcm: the first index with it, and whether any is coprime
        fresh: dict[Mono, tuple[int, bool]] = {}
        for i in active:
            lcm = mono_lcm(leads[i], hm)
            coprime = lcm == mono_mul(leads[i], hm)
            if lcm in fresh:
                first, seen = fresh[lcm]
                fresh[lcm] = (first, seen or coprime)
            else:
                fresh[lcm] = (i, coprime)
        kept = len(heap)
        heap[:] = [
            entry
            for entry in heap
            if not mono_divides(hm, entry[3])
            or mono_lcm(leads[entry[1]], hm) == entry[3]
            or mono_lcm(leads[entry[2]], hm) == entry[3]
        ]
        if len(heap) != kept:
            heapq.heapify(heap)
        for lcm, (i, coprime) in fresh.items():
            if coprime or any(other != lcm and mono_divides(other, lcm) for other in fresh):
                continue
            heapq.heappush(heap, (key(lcm), i, j, lcm))
        active[:] = [i for i in active if not mono_divides(hm, leads[i])]
        active.append(j)

    for g in dict.fromkeys(ideal.generators):
        update(g.monic(order))

    pairs_done = 0
    unit = False
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        if pairs_done >= limit:
            raise BudgetExhaustedError(pairs_done)
        pairs_done += 1
        _METER.count += 1
        s = s_polynomial(basis[i], basis[j], order)
        h = normal_form(s, basis, order)
        if h.is_zero:
            continue
        h = h.monic(order)
        if h.constant_value() is not None:
            unit = True
            break
        update(h)

    if unit:
        elements = (Polynomial.one(ideal.context),)
    else:
        elements = tuple(_reduce_basis(basis, order))
    result = ReducedGroebnerBasis(ideal, order, elements, pairs_done)
    _GB_CACHE[cache_key] = result
    return result


def _reduce_basis(polys, order: MonomialOrder):
    """Minimalizes by leading monomial, then tail-reduces in one ascending pass.

    One pass suffices: a term of p is at most lm(p) and a monomial never
    divides a smaller one, so only elements with smaller leading monomials,
    already reduced, can divide terms of p.
    """
    key = order.sort_key
    polys = sorted((p.monic(order) for p in polys), key=lambda p: key(p.leading_monomial(order)))
    reduced: list[Polynomial] = []
    kept_lms: list[Mono] = []
    for p in polys:
        lm = p.leading_monomial(order)
        if any(mono_divides(m, lm) for m in kept_lms):
            continue
        reduced.append(normal_form(p, reduced, order))
        kept_lms.append(lm)
    return reduced


def is_groebner_basis(polys, order: MonomialOrder = REVLEX) -> bool:
    """Buchberger's criterion, checked on every pair with no skips."""
    polys = list(polys)
    for p in polys:
        if p.is_zero:
            raise ValueError("zero polynomials cannot form a basis")
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j], order)
            if not normal_form(s, polys, order).is_zero:
                return False
    return True


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------


def ideal_member(p: Polynomial, ideal: Ideal, order: MonomialOrder = REVLEX, *, budget: int | None = None) -> bool:
    if p.context != ideal.context:
        raise ContextMismatchError("incompatible contexts")
    gb = buchberger(ideal, order, budget=budget)
    return normal_form(p, gb.elements, order).is_zero


def ideals_equal(a: Ideal, b: Ideal, order: MonomialOrder = REVLEX, *, budget: int | None = None) -> bool:
    """Equality of ideals, decided by comparing canonical reduced bases."""
    if a.context != b.context:
        raise ContextMismatchError("incompatible contexts")
    ga = buchberger(a, order, budget=budget)
    gb = buchberger(b, order, budget=budget)
    return ga.elements == gb.elements


class MonomialIdeal(Record):
    """A monomial ideal held by its minimal generating monomials, sorted."""

    _fields = ("context", "generators")

    def __init__(self, context: VariableContext, generators: tuple[Mono, ...]):
        if not generators:
            raise ValueError("a monomial ideal needs at least one generator")
        width = context.total_count
        for m in generators:
            if len(m) != width:
                raise ContextMismatchError("incompatible contexts")
        super().__init__(context, generators)

    @classmethod
    def from_monomials(cls, context: VariableContext, monos) -> "MonomialIdeal":
        ordered = sorted(set(tuple(m) for m in monos), key=lambda m: (mono_deg(m), m))
        minimal = []
        for m in ordered:
            if not any(mono_divides(g, m) for g in minimal):
                minimal.append(m)
        return cls(context, tuple(minimal))

    @property
    def is_proper(self) -> bool:
        return self.generators != (unit_mono(self.context.total_count),)

    def contains(self, mono: Mono) -> bool:
        return any(mono_divides(g, mono) for g in self.generators)

    def generator_strings(self) -> list[str]:
        return [format_monomial(self.context, m) or "1" for m in self.generators]

    def __str__(self) -> str:
        return "(" + ", ".join(self.generator_strings()) + ")"


def initial_ideal(ideal: Ideal, order: MonomialOrder = REVLEX, *, budget: int | None = None) -> MonomialIdeal:
    """The ideal of leading monomials, as a minimal monomial generating set."""
    gb = buchberger(ideal, order, budget=budget)
    return MonomialIdeal.from_monomials(
        ideal.context, (g.leading_monomial(order) for g in gb.elements)
    )
