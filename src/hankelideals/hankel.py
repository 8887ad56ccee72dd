"""Hankel edge ideals of labeled graphs, with verification machinery.

Each edge {i, j} (i < j) of a labeled graph on n vertices contributes the
2-minor x_i*x_{j+1} - x_j*x_{i+1} of the generic 2 x n Hankel matrix, giving
a binomial ideal in the n + 1 variables x_1 ... x_{n+1}.  The full set of
minors (the complete graph's ideal) cuts out the rational normal curve; that
ideal is prime of height n - 1, which this module takes as an axiom and uses
as the primality certificate for structured candidates built from variables
plus a contiguous block of minors.

`verify_minimal_primes` certifies a candidate list as the exact set of
minimal primes: each candidate must contain the ideal, the candidates must be
pairwise incomparable (both decided by the rule in `StructuredPrime`, with no
Groebner work), and their intersection must lie in the radical, which radical
membership of its generators decides.
Pure-variable candidates meet combinatorially, as monomial ideals; only
candidates with a minor block go through t-elimination.  Radical membership
looks for a power of each meet generator in the ideal first, with the
Rabinowitsch test as the fallback.

`height_bounds` brackets the height of an edge ideal with no Groebner work.
Under revlex the minor of an edge {i < j} leads with x_j*x_{i+1} and under
lex with x_i*x_{j+1}.  Those monomials lie in in(I), so the monomial ideal
they generate has height at most ht in(I) = ht I; a smallest variable set
meeting their supports has that height, which gives the lower bound.  Every
prime over I contains a minimal prime of I, so the height of any structured
prime over I, decided by the rule in `StructuredPrime`, is an upper bound,
and so is mu = |E| by Krull's height theorem.

Every prime over an edge ideal contains a prime P_T = (x_T) + I_{L_T} fixed
by a feasible variable set T, and ht P_T = |T| + rank L_T; one search over
these supports (`_feasible_supports`) decides heights and radical
containment with no Groebner work.  `height_witness` reads the height off
one search bounded by mu = |E| (Krull) and returns the cheapest support
with the blocks of its prime, a witness anyone can check: P_T contains
every edge minor, and its height is |T| + sum(|C| - 1).  The CLI `height`
and the complete-intersection verdicts use it.  The tree sweeps use the
bracket and search the supports only when it does not settle the
question; Prop 2.8's radical comparison checks every edge minor of one
graph against the supports of the other.
`verify_theorem` packages the classification claims as named, replayable
instance sweeps.
"""

from __future__ import annotations

import os
import random

from .ring import (
    Polynomial,
    REVLEX,
    Record,
    VariableContext,
    block_elim,
    mono_lcm,
    restrict_polynomial,
    unit_mono,
)
from .groebner import (
    Ideal,
    MonomialIdeal,
    buchberger,
    ideal_member,
    ideals_equal,
    initial_ideal,
    basis_cache_clear,
    pair_meter_total,
)
from .ideal_ops import intersect_ideals, min_cover, radical_member
from .graphs import (
    LabeledGraph,
    classify_labeling,
    complete_graph,
    complete_graph_minus_long_edge,
    cycle_graph,
    figure1_graph,
    figure2_graph,
    enumerate_rooted_labelings,
    is_closed_labeling,
    path_graph,
    path_plus_chord,
    t1_path,
    t2_path,
    tree_classes,
)


class UncoveredClassError(ValueError):
    """Raised when no candidate list is known for a labeling class."""


# ---------------------------------------------------------------------------
# ideal construction
# ---------------------------------------------------------------------------


def hankel_generator(context: VariableContext, i: int, j: int) -> Polynomial:
    """The minor x_i*x_{j+1} - x_j*x_{i+1} for a pair i < j."""
    n = context.base_count - 1
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    x = lambda k: Polynomial.variable(context, k)
    return x(i) * x(j + 1) - x(j) * x(i + 1)


class HankelIdeal(Record):
    """The edge ideal of a labeled graph, with generators indexed by edge."""

    _fields = ("graph", "ideal")

    def generator_for(self, i: int, j: int) -> Polynomial:
        if not self.graph.has_edge(i, j):
            raise KeyError(f"({i}, {j}) is not an edge")
        return hankel_generator(self.ideal.context, min(i, j), max(i, j))


def hankel_edge_ideal(graph: LabeledGraph) -> HankelIdeal:
    """The ideal generated by one Hankel minor per edge, in edge order."""
    if not graph.edges:
        raise ValueError("edgeless graph has no Hankel edge ideal")
    context = VariableContext(graph.n + 1)
    gens = tuple(hankel_generator(context, i, j) for i, j in graph.edge_list())
    return HankelIdeal(graph, Ideal(context, gens))


def rational_curve_ideal(n: int) -> Ideal:
    """All Hankel 2-minors on n columns: the complete graph's edge ideal."""
    return hankel_edge_ideal(complete_graph(n)).ideal


# ---------------------------------------------------------------------------
# structured prime candidates
# ---------------------------------------------------------------------------


class StructuredPrime(Record):
    """A prime given by variables plus an optional contiguous minor block.

    ``variable_part`` lists 1-based variable indices; ``minor_range`` (a, b)
    adds every minor on columns a..b, which involves variables x_a ... x_{b+1}
    and must be disjoint from the variable part.  Ideals of this shape are
    prime because the minor block is a rational normal curve ideal in its own
    variables, so primality needs no computation.

    Membership of generators is combinatorial too.  Modulo x_T the prime is
    the block's curve ideal, a prime holding no monomial whose minors are a
    Groebner basis (Conca 1998).  So x_v lies in it exactly when v is in T,
    and the minor of columns i < j exactly when T kills both of its terms
    (meets {i, j+1} and {j, i+1}) or the block holds columns i and j: one
    surviving term is a monomial, and two surviving terms with a variable
    outside the block split into monomial coefficients.
    """

    _fields = ("variable_part", "minor_range")

    def __init__(self, variable_part: frozenset[int], minor_range: tuple[int, int] | None = None):
        if minor_range is not None:
            a, b = minor_range
            if not 1 <= a < b:
                raise ValueError(f"bad minor range ({a}, {b})")
            block = set(range(a, b + 2))
            if block & variable_part:
                raise ValueError("minor block overlaps the variable part")
        if not variable_part and minor_range is None:
            raise ValueError("an empty structured prime is not allowed")
        super().__init__(variable_part, minor_range)

    def expand(self, context: VariableContext) -> Ideal:
        gens: list[Polynomial] = []
        for v in sorted(self.variable_part):
            if not 1 <= v <= context.base_count:
                raise ValueError(f"variable x{v} outside the context")
            gens.append(Polynomial.variable(context, v))
        if self.minor_range is not None and self.minor_range[1] + 1 > context.base_count:
            raise ValueError("minor range outside the context")
        gens += (hankel_generator(context, i, j) for i, j in self.minors())
        return Ideal.of(context, gens)

    def minors(self) -> list[tuple[int, int]]:
        """The column pairs i < j of the minor block."""
        a, b = self.minor_range or (1, 0)
        return [(i, j) for i in range(a, b + 1) for j in range(i + 1, b + 1)]

    def contains_minor(self, i: int, j: int) -> bool:
        t, (a, b) = self.variable_part, self.minor_range or (1, 0)
        return bool(t & {i, j + 1} and t & {j, i + 1}) or a <= i < j <= b

    def contains(self, other: "StructuredPrime") -> bool:
        return other.variable_part <= self.variable_part and all(
            self.contains_minor(i, j) for i, j in other.minors()
        )

    def describe(self) -> str:
        parts = []
        if self.variable_part:
            parts.append("(" + ", ".join(f"x{v}" for v in sorted(self.variable_part)) + ")")
        if self.minor_range is not None:
            parts.append(f"minors({self.minor_range[0]}..{self.minor_range[1]})")
        return " + ".join(parts)


def rational_curve_prime(n: int) -> StructuredPrime:
    return StructuredPrime(frozenset(), (1, n))


def _vars_prime(indices) -> StructuredPrime:
    return StructuredPrime(frozenset(indices), None)


def minimal_prime_candidates(graph: LabeledGraph) -> tuple[StructuredPrime, ...]:
    """Candidate minimal primes for the covered labeling classes.

    Covered: Hamiltonian labelings (the curve ideal alone), semi-Hamiltonian
    labelings (curve ideal plus the variable prime (x_2 ... x_n)), and the
    two special rooted path labelings with a leaf attached at the root.
    Anything else raises UncoveredClassError.
    """
    n = graph.n
    if n >= 3 and graph.edges == t1_path(n).edges:
        return _t1_candidates(n)
    if n >= 4 and graph.edges == t2_path(n).edges:
        return _t2_candidates(n)
    labels = classify_labeling(graph)
    if labels.labeled_hamiltonian:
        return (rational_curve_prime(n),)
    if labels.labeled_semi_hamiltonian:
        return (rational_curve_prime(n), _vars_prime(range(2, n + 1)))
    raise UncoveredClassError("no candidate list known for this labeling class")


def _t1_candidates(n: int) -> tuple[StructuredPrime, ...]:
    ix = rational_curve_prime(n)
    if n == 3:
        # x1*g23 and x2*g23 lie in the ideal, so every prime over it picks up
        # either the whole curve ideal or (x1, x2); nothing else survives.
        return (ix, _vars_prime({1, 2}))
    p1 = _vars_prime({1, 2} | set(range(4, n + 1)))
    p2 = _vars_prime(range(2, n + 1))
    p3 = StructuredPrime(frozenset({1, 2}), (3, n))
    if n == 4:
        # Removing the root and its leaf leaves a single edge, whose ideal is
        # already prime; the variable prime p1 from the generic list fails to
        # contain the edge ideal at this size, so the list skips it.
        return (ix, p2, p3)
    return (ix, p1, p2, p3)


def _t2_candidates(n: int) -> tuple[StructuredPrime, ...]:
    ix = rational_curve_prime(n)
    p1 = _vars_prime({1, 2} | set(range(4, n + 1)))
    p2 = _vars_prime(range(2, n + 1))
    if n == 4:
        # minors(4..4) is empty, so the minor candidate and the variable
        # candidate coincide at (x1, x2, x3).
        return (ix, p1, p2, _vars_prime({1, 2, 3}))
    p3 = StructuredPrime(frozenset({1, 2, 3}), (4, n))
    p4 = _vars_prime({1, 2, 3} | set(range(5, n + 1)))
    if n == 5:
        # Same single-edge collapse one step deeper: p4 does not contain the
        # ideal when the trailing path has just two vertices.
        return (ix, p1, p2, p3)
    return (ix, p1, p2, p3, p4)


# ---------------------------------------------------------------------------
# verification of minimal prime lists
# ---------------------------------------------------------------------------


class MinimalPrimesReport(Record):
    _fields = (
        "candidates", "contains_ideal", "incomparable",
        "intersection_is_radical", "verified", "intersection",
    )
    _uncompared = ("intersection",)


def _monomial_meet(context: VariableContext, ideals) -> Ideal:
    """The intersection of monomial ideals, with no Groebner work.

    Two monomial ideals meet in the ideal generated by the lcms of their
    generators, one from each, so the variable primes (x_S) meet in the lcms
    of one variable from each S.  Minimalized, made monic and sorted
    ascending in revlex, the monomials are the reduced revlex basis.
    """
    monos = [unit_mono(context.total_count)]
    for ideal in ideals:
        lcms = (mono_lcm(m, g.leading_monomial()) for m in monos for g in ideal.generators)
        monos = MonomialIdeal.from_monomials(context, lcms).generators
    ordered = sorted(monos, key=REVLEX.sort_key)
    return Ideal.of(context, (Polynomial.from_dict(context, {m: 1}) for m in ordered))


def verify_minimal_primes(
    hankel: HankelIdeal, candidates, *, budget: int | None = None
) -> MinimalPrimesReport:
    """Certifies a candidate list as exactly the minimal primes.

    The three checks together are conclusive for structurally prime
    candidates: containment pins each candidate above the ideal,
    incomparability rules out nesting, and the intersection test identifies
    the list with the radical, hence with the full set of minimal primes.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    context = hankel.ideal.context
    # expand raises on candidates outside the context; the meet needs the ideals
    expanded = [c.expand(context) for c in candidates]
    contains = tuple(
        all(c.contains_minor(i, j) for i, j in hankel.graph.edge_list()) for c in candidates
    )
    # by index, so that a duplicated candidate counts as comparable
    incomparable = tuple(
        all(not (p.contains(q) or q.contains(p)) for k, q in enumerate(candidates) if k != m)
        for m, p in enumerate(candidates)
    )

    # Variable primes meet combinatorially; only minor blocks need
    # t-elimination, chained from the fewest generators up.
    pure = [e for c, e in zip(candidates, expanded) if c.minor_range is None]
    blocks = [e for c, e in zip(candidates, expanded) if c.minor_range is not None]
    if len(pure) > 1:
        pure = [_monomial_meet(context, pure)]
    meet, *rest = pure + sorted(blocks, key=lambda e: len(e.generators))
    for prime in rest:
        meet = intersect_ideals(meet, prime, budget=budget)
    # I lies in the meet exactly when it lies in every candidate, which
    # `contains` already decided; only meet <= rad(I) needs more work.
    intersection_is_radical = all(contains) and all(
        radical_member(q, hankel.ideal, budget=budget) for q in meet.generators
    )

    verified = all(contains) and all(incomparable) and intersection_is_radical
    return MinimalPrimesReport(
        candidates, contains, incomparable, intersection_is_radical, verified, meet
    )


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def _prime_height(prime: StructuredPrime) -> int:
    a, b = prime.minor_range or (1, 1)
    return len(prime.variable_part) + b - a


def height_bounds(graph: LabeledGraph) -> tuple[int, int, frozenset[int], StructuredPrime]:
    """(lo, hi, cover, prime) with lo <= ht I_G <= hi, found without Groebner
    work: cover is a smallest variable set meeting the generators' leading
    monomials and has size lo, and prime is a structured prime over I_G of
    height hi.

    lo is the larger of the smallest variable covers of the revlex leading
    monomials x_j*x_{i+1} and of the lex ones x_i*x_{j+1}.  hi is the least
    height |T| + (b - a) of a structured prime (x_T) + minors(a..b) (or
    (x_T) alone) that contains every edge minor: for each block, T is a
    smallest variable set outside it that meets {i, j+1} and {j, i+1} for
    every edge the block does not hold.
    """
    edges = graph.edge_list()
    if not edges:
        raise ValueError("edgeless graph has no Hankel edge ideal")
    revlex = min_cover({j, i + 1} for i, j in edges)
    lex = min_cover({i, j + 1} for i, j in edges)
    cover = max(revlex, lex, key=len)
    n = graph.n
    prime = None
    for block in [None, *((a, b) for a in range(1, n) for b in range(a + 1, n + 1))]:
        a, b = block or (1, 1)
        if prime is not None and b - a >= _prime_height(prime):
            continue
        curve = block and StructuredPrime(frozenset(), block)
        outside = set(range(a, b + 2)) if block else set()
        sets = [
            s - outside
            for i, j in edges
            if not (curve and curve.contains_minor(i, j))
            for s in ({i, j + 1}, {j, i + 1})
        ]
        if not all(sets):
            continue
        found = StructuredPrime(min_cover(sets), block)
        if prime is None or _prime_height(found) < _prime_height(prime):
            prime = found
    return len(cover), _prime_height(prime), cover, prime


def _feasible_supports(graph: LabeledGraph, below: int | None = None):
    """Yields (cost, T, component) for the feasible supports of I_G.

    A prime Q over I_G holds the variables x_T, and no monomial in the
    others, so T kills both terms of each edge minor (meets {i, j+1} and
    {j, i+1}) or avoids all four of its variables; such a T is feasible.
    Q contains P_T = (x_T) + I_{L_T}, where L_T is spanned by d_i - d_j,
    d_i = e_i - e_{i+1}, over the surviving edges {i, j}, those T does not
    kill (Eisenbud & Sturmfels, "Binomial ideals", 1996, Cor. 2.5).  The
    d_i span a saturated lattice, so P_T is prime, d_i - d_j lies in L_T
    exactly when columns i and j lie in one component of the surviving
    graph G_T, and ht P_T = |T| + rank L_T = |T| + n - c(G_T), counting
    every column as a vertex.  `component` maps each column 1..n to a label
    of its component in G_T (index 0 is unused).

    The search branches per edge, in edge order: keep the minor (T avoids
    its variables, which later edges may then not add) or kill it with one
    variable from each unmet term.  Every feasible T contains a yielded T'
    with the same surviving edges, so P_T' lies in P_T.  Unbounded, every
    branch is yielded.  With `below`, a branch is abandoned once its cost
    reaches the bound, and each yield lowers the bound to its cost, so the
    last cost yielded is min ht P_T = ht I_G, if that is below `below`.
    """
    edges = graph.edge_list()
    best = below
    # depth first, kept minor before its kills, on an explicit stack: a
    # graph may have more edges than Python allows nested calls
    stack = [(0, frozenset(), frozenset(), tuple(range(graph.n + 1)), 0)]
    while stack:
        k, t, kept, comp, rank = stack.pop()
        cost = len(t) + rank
        if best is not None and cost >= best:
            continue
        if k == len(edges):
            if below is not None:
                best = cost
            yield cost, t, comp
            continue
        i, j = edges[k]
        lead, trail = {i, j + 1}, {j, i + 1}
        for u in sorted(lead - kept, reverse=True) if not t & lead else [None]:
            for v in sorted(trail - kept, reverse=True) if not t & trail else [None]:
                grown = t | {w for w in (u, v) if w is not None}
                stack.append((k + 1, grown, kept, comp, rank))
        if not t & (lead | trail):
            if comp[i] != comp[j]:
                old, new = comp[j], comp[i]
                comp, rank = tuple(new if c == old else c for c in comp), rank + 1
            stack.append((k + 1, t, kept | lead | trail, comp, rank))


def height_witness(graph: LabeledGraph) -> tuple[int, frozenset[int], tuple[tuple[int, ...], ...]]:
    """(height, T, blocks): ht I_G with a support whose prime has it.

    T is a cheapest feasible support and blocks are the components of G_T
    with two or more columns, each a sorted column tuple, in order of their
    first column.  P_T = (x_T) + I_{L_T} contains I_G, since T kills both
    terms of each edge minor or its columns lie in one block, and
    ht P_T = |T| + sum(|C| - 1) = ht I_G.  By Krull's height theorem
    ht I_G <= mu = |E|, so a search bounded just above mu finds it.
    """
    if not graph.edges:
        raise ValueError("edgeless graph has no Hankel edge ideal")
    *_, (ht, t, comp) = _feasible_supports(graph, below=len(graph.edges) + 1)
    members: dict[int, list[int]] = {}
    for column in range(1, graph.n + 1):
        members.setdefault(comp[column], []).append(column)
    return ht, t, tuple(tuple(c) for c in members.values() if len(c) > 1)


def edge_ideal_height(graph: LabeledGraph, bounds: tuple | None = None) -> int:
    """Height of the edge ideal: the least ht P_T over feasible supports T.

    Every minimal prime of I is some P_T (see `_feasible_supports`), so
    ht I = min |T| + rank L_T.  hi is the height of a structured prime over
    I, and by Krull's height theorem ht I <= mu = |E|, the number of
    generators.  When lo reaches that upper bound it is the height;
    otherwise the support search starts from it and stops once a support
    reaches lo.
    """
    lo, hi, _, _ = bounds or height_bounds(graph)
    ht = min(hi, len(graph.edges))
    if lo < ht:
        for ht, _, _ in _feasible_supports(graph, below=ht):
            if ht <= lo:
                break
    return ht


# ---------------------------------------------------------------------------
# property reports
# ---------------------------------------------------------------------------


class PropertyReport(Record):
    _fields = (
        "graph", "generator_count", "height",
        "is_complete_intersection", "is_almost_complete_intersection", "checks",
    )


def property_report(graph: LabeledGraph) -> PropertyReport:
    """Generator count, height and (almost) complete-intersection flags of a
    connected labeled graph's edge ideal.

    mu(I_G) = |E(G)| for every labeled graph.  Under lex with x_1 > x_2 > ...,
    the minor of an edge {i < j} has leading monomial x_i*x_{j+1}, which gives
    back the edge, so the minors are linearly independent quadrics: none lies
    in the ideal of the others, and by graded Nakayama they generate
    minimally.  The height comes from `height_witness`, with no Groebner
    work, and the checks name its support and blocks: an interval block as
    a..b, any other by its columns.
    """
    if not graph.is_connected():
        raise ValueError("property report requires a connected graph")
    mu = len(graph.edges)
    ht, support, blocks = height_witness(graph)
    witness = f"height={ht}: support {{{', '.join(map(str, sorted(support)))}}}"
    if blocks:
        witness += ", blocks " + ", ".join(
            f"{c[0]}..{c[-1]}" if c[-1] - c[0] == len(c) - 1 else "{" + ", ".join(map(str, c)) + "}"
            for c in blocks
        )
    checks = (
        f"mu={mu} (distinct minors have distinct lex leading monomials)",
        witness,
        f"height={ht}",
    )
    return PropertyReport(graph, mu, ht, mu == ht, mu == ht + 1, checks)


def radical_verdict(graph: LabeledGraph, *, budget: int | None = None) -> tuple[bool | None, str]:
    """Whether a connected labeled graph's edge ideal is radical, and why.

    Decided, as equality with the intersection of the minimal primes, only
    when the labeling class has a candidate list that verifies; otherwise
    None.  An uncovered class returns before any Groebner work.
    """
    if not graph.is_connected():
        raise ValueError("radical verdict requires a connected graph")
    hank = hankel_edge_ideal(graph)
    try:
        cands = minimal_prime_candidates(graph)
    except UncoveredClassError:
        return None, "radical: unknown (no candidate list known)"
    report = verify_minimal_primes(hank, cands, budget=budget)
    if not report.verified:
        return None, "radical: unknown (candidate verification failed)"
    # I lies in the meet, so I is radical exactly when the meet lies in I
    is_rad = all(
        ideal_member(q, hank.ideal, REVLEX, budget=budget) for q in report.intersection.generators
    )
    return is_rad, "radical decided against the verified prime intersection"


# ---------------------------------------------------------------------------
# theorem sweeps
# ---------------------------------------------------------------------------


class TheoremInstance(Record):
    _fields = ("tag", "name", "payload")


class InstanceResult(Record):
    _fields = ("name", "passed", "detail", "pairs_used")
    _uncompared = ("pairs_used",)


class TheoremReport(Record):
    _fields = ("tag", "results")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def pairs_used(self) -> int:
        return sum(r.pairs_used for r in self.results)


# Bounds keep sweeps at desk scale; anything larger is refused rather than
# left to run unboundedly.
TAG_BOUNDS = {
    "thm2.2": (2, 6),
    "cor2.3": (3, 6),
    "prop2.6": (3, 6),
    "cor2.7": (4, 8),
    "thm3.1": (3, 10),
    "thm3.2": (2, 10),
    "prop3.5": (3, 8),
    "prop2.8-radical": (4, 40),
}


def _edge_str(graph: LabeledGraph) -> str:
    return ",".join(f"{i}-{j}" for i, j in graph.edge_list())


def _root_at_or_next_to_leaf(tree: LabeledGraph) -> bool:
    if tree.degree(1) == 1:
        return True
    return any(tree.degree(w) == 1 for w in tree.neighbors(1))


def _chord_pool(n: int) -> list[tuple[int, int]]:
    """Non-path, non-closing chords available on top of the labeled path."""
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if (i, j) != (1, n)
    ]


def _instances_thm22(n: int) -> list[TheoremInstance]:
    graphs: list[tuple[str, LabeledGraph]] = [(f"l{n}", path_graph(n))]
    if n >= 3:
        graphs.append((f"c{n}", cycle_graph(n)))
        graphs.append((f"k{n}", complete_graph(n)))
        graphs.append((f"k{n}-e", complete_graph_minus_long_edge(n)))
    if n == 5:
        graphs.append(("fig1", figure1_graph()))
    if n == 6:
        graphs.append(("fig2", figure2_graph()))
    return [
        TheoremInstance("thm2.2", f"thm2.2 n={n} {label}", (graph,))
        for label, graph in graphs
    ]


def _check_thm22(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    (graph,) = inst.payload
    hank = hankel_edge_ideal(graph)
    ht = edge_ideal_height(graph)
    report = verify_minimal_primes(hank, minimal_prime_candidates(graph), budget=budget)
    ok = report.verified and ht == graph.n - 1
    return ok, f"height={ht} (want {graph.n - 1}), primes verified={report.verified}"


def _instances_cor23(n: int) -> list[TheoremInstance]:
    return [
        TheoremInstance("cor2.3", f"cor2.3 n={n} complete", (n, "complete")),
        TheoremInstance("cor2.3", f"cor2.3 n={n} minus-edge", (n, "minus-edge")),
    ]


def _curve_kernel(n: int, budget: int | None) -> Ideal:
    """The kernel of x_i -> s^(n+1-i)*t^(i-1), i = 1..n+1, by eliminating
    s and t: the rational normal curve's ideal, built without any minor."""
    context = VariableContext(n + 1)
    ext = context.extended("s").extended("t")
    s, t = Polynomial.auxiliary(ext, 1), Polynomial.auxiliary(ext, 2)
    parametrization = Ideal.of(
        ext, (Polynomial.variable(ext, i) - s ** (n + 1 - i) * t ** (i - 1) for i in range(1, n + 2))
    )
    basis = buchberger(parametrization, block_elim(2), budget=budget)
    kept = [g for g in basis if all(m[-2:] == (0, 0) for m, _ in g.terms)]
    return Ideal.of(context, (restrict_polynomial(g, context) for g in kept))


def _check_cor23(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    n, which = inst.payload
    if which == "complete":
        ok = ideals_equal(
            hankel_edge_ideal(complete_graph(n)).ideal, _curve_kernel(n, budget), budget=budget
        )
        return ok, "edge ideal of the complete graph equals the curve ideal"
    context = VariableContext(n + 1)
    meet = intersect_ideals(
        rational_curve_ideal(n), _vars_prime(range(2, n + 1)).expand(context), budget=budget
    )
    ok = ideals_equal(
        hankel_edge_ideal(complete_graph_minus_long_edge(n)).ideal, meet, budget=budget
    )
    return ok, "dropping {1,n} intersects the curve ideal with (x2..xn)"


def _instances_prop26(n: int) -> list[TheoremInstance]:
    cases: list[tuple[str, LabeledGraph, bool]] = [
        (f"c{n}", cycle_graph(n), True),
        (f"k{n}", complete_graph(n), n == 3),
        (f"l{n}", path_graph(n), False),
    ]
    if n == 5:
        cases.append(("fig1", figure1_graph(), False))
    if n >= 4:
        cases.append((f"c{n}+chord", cycle_graph(n).with_edges([(1, 3)]), False))
        cases.append(
            (f"l{n}+two-chords", path_graph(n).with_edges([(1, 3), (2, 4)]), False)
        )
    for t in range(1, n - 1):
        for s in range(2, n - t + 1):
            cases.append((f"l{n}+{t}-{t + s}", path_plus_chord(n, t, s), True))
    return [
        TheoremInstance("prop2.6", f"prop2.6 n={n} {label}", (graph, expect))
        for label, graph, expect in cases
    ]


def _check_prop26(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    graph, expect = inst.payload
    report = property_report(graph)
    got = report.is_almost_complete_intersection
    return got == expect, f"almost-CI={got} (want {expect})"


def _instances_cor27(n: int) -> list[TheoremInstance]:
    out = [TheoremInstance("cor2.7", f"cor2.7 n={n} k{n}", (complete_graph(n), None))]
    for t in range(1, n - 1):
        for s in range(2, n - t + 1):
            out.append(
                TheoremInstance(
                    "cor2.7", f"cor2.7 n={n} chord {t}-{t + s}", (path_plus_chord(n, t, s), s)
                )
            )
    return out


def _check_cor27(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    graph, span = inst.payload
    closed = is_closed_labeling(graph)
    report = property_report(graph)
    aci = report.is_almost_complete_intersection
    if span is None:
        # the complete graph: closed but almost-CI only at n=3
        ok = closed and aci == (graph.n == 3)
        return ok, f"closed={closed}, almost-CI={aci}"
    ok = closed == (span == 2) and aci
    return ok, f"closed={closed} (want {span == 2}), almost-CI={aci}"


def _labeled_trees(n: int, paths: bool | None):
    """All rooted labelings of all trees on n vertices; optionally filter
    path shapes in (True) or out (False)."""
    for shape in tree_classes(n):
        if paths is not None and shape.is_path_shape() != paths:
            continue
        yield from enumerate_rooted_labelings(shape)


def _instances_thm31(n: int) -> list[TheoremInstance]:
    return [
        TheoremInstance("thm3.1", f"thm3.1 n={n} tree {_edge_str(t)}", (t,))
        for t in _labeled_trees(n, paths=False)
    ]


def _check_thm31(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    (tree,) = inst.payload
    ht = edge_ideal_height(tree)
    return ht <= tree.n - 2, f"height={ht} (bound {tree.n - 2})"


def _instances_thm32(n: int) -> list[TheoremInstance]:
    return [
        TheoremInstance("thm3.2", f"thm3.2 n={n} tree {_edge_str(t)}", (t,))
        for t in _labeled_trees(n, paths=None)
    ]


def _check_thm32(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    (tree,) = inst.payload
    expect = tree.is_path_shape() and _root_at_or_next_to_leaf(tree)
    # ht <= mu by Krull's height theorem, so lo >= mu means CI and hi < mu
    # means not; only a tree the bracket leaves open needs the exact height
    mu = len(tree.edges)
    bounds = lo, hi, _, _ = height_bounds(tree)
    got = lo >= mu or (hi >= mu and edge_ideal_height(tree, bounds) == mu)
    return got == expect, f"CI={got} (want {expect})"


def _mono(context: VariableContext, powers: dict[int, int]):
    return tuple(powers.get(v + 1, 0) for v in range(context.total_count))


def expected_t1_initial(n: int) -> MonomialIdeal:
    """Closed form for the initial ideal of the first special path labeling."""
    context = VariableContext(n + 1)
    monos = [
        _mono(context, {2: 1, 3: 1}),
        _mono(context, {1: 1, 3: 2}),
        _mono(context, {2: 2}),
    ]
    monos += [_mono(context, {i + 1: 2}) for i in range(3, n)]
    return MonomialIdeal.from_monomials(context, monos)


def expected_t2_initial(n: int) -> MonomialIdeal:
    """Closed form for the initial ideal of the second special path labeling."""
    context = VariableContext(n + 1)
    monos = [
        _mono(context, {2: 1, 3: 1}),
        _mono(context, {3: 1, 4: 1}),
        _mono(context, {1: 1, 3: 2}),
        _mono(context, {1: 1, 4: 2}),
        _mono(context, {2: 2}),
    ]
    monos += [_mono(context, {i + 1: 2}) for i in range(4, n)]
    return MonomialIdeal.from_monomials(context, monos)


def _instances_prop35(n: int) -> list[TheoremInstance]:
    out = [TheoremInstance("prop3.5", f"prop3.5 n={n} t1", (n, "t1"))]
    if n >= 4:
        out.append(TheoremInstance("prop3.5", f"prop3.5 n={n} t2", (n, "t2")))
    return out


def _check_prop35(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    n, which = inst.payload
    if which == "t1":
        graph, expected = t1_path(n), expected_t1_initial(n)
    else:
        graph, expected = t2_path(n), expected_t2_initial(n)
    got = initial_ideal(hankel_edge_ideal(graph).ideal, REVLEX, budget=budget)
    return got == expected, f"initial ideal {got} (want {expected})"


def _instances_prop28(n: int) -> list[TheoremInstance]:
    out = []
    if n == 6:
        out.append(
            TheoremInstance("prop2.8-radical", "prop2.8-radical n=6 fig2", (figure2_graph(),))
        )
    rng = random.Random(f"semi-hamiltonian-{n}")
    pool = _chord_pool(n)
    for k in range(5):
        size = rng.randint(1, len(pool))
        chords = sorted(rng.sample(pool, size))
        graph = path_graph(n).with_edges(chords)
        label = "+".join(f"{i}-{j}" for i, j in chords)
        out.append(
            TheoremInstance(
                "prop2.8-radical", f"prop2.8-radical n={n} sample{k} {label}", (graph,)
            )
        )
    return out


def _radical_within(graph: LabeledGraph, other: LabeledGraph) -> bool:
    """Whether rad I_graph lies in rad I_other.

    rad I_other is the meet of its P_T (see `_feasible_supports`), so this
    holds exactly when every P_T contains every edge minor of `graph`.  The
    minor of i < j is a binomial with exponent difference d_i - d_j, so it
    lies in P_T exactly when T kills both of its terms, or T avoids all four
    of its variables and columns i and j lie in one component of G_T.  A
    column next to a variable of T has no surviving edge, so the component
    test alone also checks that T avoids the variables.
    """
    return all(
        comp[i] == comp[j] or (t & {i, j + 1} and t & {j, i + 1})
        for _, t, comp in _feasible_supports(other)
        for i, j in graph.edge_list()
    )


def _check_prop28(inst: TheoremInstance, budget: int | None) -> tuple[bool, str]:
    (graph,) = inst.payload
    path = path_graph(graph.n)
    ok = _radical_within(graph, path) and _radical_within(path, graph)
    return ok, "same radical as the labeled path"


# tag -> (instance builder, instance checker)
_SWEEPS = {
    "thm2.2": (_instances_thm22, _check_thm22),
    "cor2.3": (_instances_cor23, _check_cor23),
    "prop2.6": (_instances_prop26, _check_prop26),
    "cor2.7": (_instances_cor27, _check_cor27),
    "thm3.1": (_instances_thm31, _check_thm31),
    "thm3.2": (_instances_thm32, _check_thm32),
    "prop3.5": (_instances_prop35, _check_prop35),
    "prop2.8-radical": (_instances_prop28, _check_prop28),
}


def theorem_instances(tag: str, max_n: int) -> list[TheoremInstance]:
    if tag not in _SWEEPS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    lo, hi = TAG_BOUNDS[tag]
    if max_n > hi:
        raise ValueError(f"n range too large for {tag} (limit {hi})")
    out: list[TheoremInstance] = []
    for n in range(lo, max_n + 1):
        out.extend(_SWEEPS[tag][0](n))
    if not out:
        # an empty sweep would report 0/0 as a pass
        raise ValueError(f"no {tag} instances for n from {lo} to {max_n}")
    return out


def run_instance(inst: TheoremInstance, budget: int | None = None) -> InstanceResult:
    # fresh basis cache so the pair count is a function of the instance
    # alone, not of what happened to run earlier in this process
    basis_cache_clear()
    before = pair_meter_total()
    passed, detail = _SWEEPS[inst.tag][1](inst, budget)
    return InstanceResult(inst.name, passed, detail, pair_meter_total() - before)


def verify_theorem(
    tag: str, max_n: int, *, jobs: int = 1, budget: int | None = None
) -> TheoremReport:
    """Runs every instance of a tagged claim for n up to max_n.

    With jobs > 1 the instances fan out to worker processes, at most one per
    instance and per CPU; results are reassembled in instance order, and
    per-instance pair counts are placement-independent, so reports are
    identical either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    instances = theorem_instances(tag, max_n)
    workers = min(jobs, len(instances), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool would cost every other process ~15 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(run_instance, instances, [budget] * len(instances)))
    else:
        results = tuple(run_instance(inst, budget) for inst in instances)
    return TheoremReport(tag, results)
