"""Ideal-level operations built on the Groebner layer.

Intersections go through a single auxiliary variable and a block elimination
order.  Radical membership first looks for a power witness, reducing p, p^2,
... against the memoized Groebner basis of I.  Only when none of the first
few powers lies in I, or their remainders grow large, does it fall back to
the classical one-extra-variable trick (p lies in the radical of I exactly
when 1 lies in I + (1 - t*p)).  The dimension of a monomial quotient is
the variable count minus the size of a smallest variable set meeting every
generator's support, which `min_cover` finds by a branching search; the
height of any ideal is the variable count minus that of its initial ideal,
so it needs the whole Groebner basis.  (Edge ideals get theirs with no
Groebner work, from feasible supports in `hankel`.)
"""

from __future__ import annotations

from .ring import (
    ContextMismatchError,
    MonomialOrder,
    Polynomial,
    REVLEX,
    block_elim,
    extend_polynomial,
    restrict_polynomial,
)
from .groebner import (
    Ideal,
    MonomialIdeal,
    buchberger,
    ideal_member,
    initial_ideal,
    normal_form,
)

# The power walk in `radical_member` tries p^k for k <= _POWER_STEPS and
# stops early once a remainder has more than _POWER_TERMS terms.  On every
# covered certificate the remainders of nilpotent p stay within 5 terms,
# while those of a p outside the radical can grow as k^2, each step costlier
# than the Rabinowitsch test it postpones.  Only the cost depends on these
# constants: both routes decide membership exactly.
_POWER_STEPS = 32
_POWER_TERMS = 16


def intersect_ideals(a: Ideal, b: Ideal, *, budget: int | None = None) -> Ideal:
    """The intersection of two ideals in a shared context.

    Computes a Groebner basis of t*a + (1 - t)*b under an order eliminating
    the fresh variable t; the t-free basis elements generate (and in fact
    form a reduced basis of) the intersection.
    """
    if a.context != b.context:
        raise ContextMismatchError("incompatible contexts")
    base = a.context
    ext = base.extended("elim")
    t = Polynomial.auxiliary(ext, len(ext.aux_roles))
    one_minus_t = Polynomial.one(ext) - t
    lifted = [t * extend_polynomial(g, ext) for g in a.generators]
    lifted += [one_minus_t * extend_polynomial(g, ext) for g in b.generators]
    gb = buchberger(Ideal.of(ext, lifted), block_elim(1), budget=budget)
    kept = [
        restrict_polynomial(p, base)
        for p in gb.elements
        if all(m[-1] == 0 for m, _ in p.terms)
    ]
    return Ideal.of(base, kept)


def radical_member(p: Polynomial, ideal: Ideal, *, budget: int | None = None) -> bool:
    """Whether p lies in the radical of the ideal.

    The power walk r_1 = NF(p), r_{k+1} = NF(r_k * p) against the reduced
    revlex basis of I keeps r_k congruent to p^k modulo I, and a normal form
    against a Groebner basis vanishes exactly on members, so the first zero
    r_k proves p^k in I.  The basis is memoized, so every p tested against
    one ideal shares it.  When no k <= _POWER_STEPS works, or a remainder
    outgrows _POWER_TERMS terms first, the Rabinowitsch test (1 in
    I + (1 - t*p) in one more variable) decides.
    """
    if p.context != ideal.context:
        raise ContextMismatchError("incompatible contexts")
    basis = buchberger(ideal, REVLEX, budget=budget).elements
    r = Polynomial.one(ideal.context)
    for _ in range(_POWER_STEPS):
        r = normal_form(r * p, basis, REVLEX)
        if r.is_zero:
            return True
        if len(r.terms) > _POWER_TERMS:
            break
    ext = ideal.context.extended("radical")
    t = Polynomial.auxiliary(ext, len(ext.aux_roles))
    witness = Polynomial.one(ext) - t * extend_polynomial(p, ext)
    gens = [extend_polynomial(g, ext) for g in ideal.generators]
    gens.append(witness)
    gb = buchberger(Ideal.of(ext, gens), REVLEX, budget=budget)
    return gb.elements == (Polynomial.one(ext),)


def min_cover(sets) -> frozenset:
    """A smallest set meeting every one of the given nonempty sets.

    Branching search: take an unmet set of fewest elements, try each of its
    elements in ascending order, and abandon a branch once it cannot beat
    the smallest cover found so far (at first the union of all the sets).
    The result is deterministic: among smallest covers, the first found.
    """
    sets = sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    if sets and not sets[0]:
        raise ValueError("no set meets the empty set")
    best = frozenset().union(*sets)

    def search(chosen: frozenset) -> None:
        nonlocal best
        unmet = next((s for s in sets if not s & chosen), None)
        if unmet is None:
            best = chosen
            return
        for v in sorted(unmet):
            if len(chosen) + 1 < len(best):
                search(chosen | {v})

    search(frozenset())
    return best


def monomial_dim(ideal: MonomialIdeal) -> int:
    """Krull dimension of the quotient by a proper monomial ideal.

    A variable subset U is independent when no minimal generator is
    supported inside U, that is when the other variables meet every
    generator's support; the dimension is the largest such |U|.
    """
    if not ideal.is_proper:
        raise ValueError("unit ideal")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in ideal.generators]
    return ideal.context.total_count - len(min_cover(supports))


def height(ideal: Ideal, order: MonomialOrder = REVLEX, *, budget: int | None = None) -> int:
    """Height (codimension) of a proper ideal via its initial ideal.

    Passing to leading monomials preserves the quotient dimension for any
    global order, so the height is the variable count minus the dimension of
    the initial ideal's quotient.
    """
    return ideal.context.total_count - monomial_dim(initial_ideal(ideal, order, budget=budget))


def is_minimal_generating_set(
    ideal: Ideal, order: MonomialOrder = REVLEX, *, budget: int | None = None
) -> bool:
    """True when no listed generator lies in the ideal of the others."""
    gens = ideal.generators
    if len(gens) == 1:
        return True
    for i, g in enumerate(gens):
        rest = Ideal.of(ideal.context, gens[:i] + gens[i + 1 :])
        if ideal_member(g, rest, order, budget=budget):
            return False
    return True


__all__ = [
    "intersect_ideals",
    "radical_member",
    "min_cover",
    "monomial_dim",
    "height",
    "is_minimal_generating_set",
    "initial_ideal",
]
