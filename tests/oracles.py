"""Independent brute-force oracles used to validate the fast implementations.

Everything here is written from the definitions, with no shortcuts and no
imports from the code paths under test beyond plain data types, so agreement
between an oracle and the library is meaningful evidence.  The one exception
is `radicals_equal`, which composes the library's `radical_member`; that in
turn is checked against `rabinowitsch_member` here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key

from hankelideals import LabeledGraph, Polynomial, radical_member


def revlex_cmp(a, b) -> int:
    """Degree first; on ties the last nonzero entry of a-b decides, negative
    meaning a is the larger monomial."""
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def lex_cmp(a, b) -> int:
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def block_cmp(a, b, elim: int) -> int:
    """Last `elim` positions dominate: their degree, then lex among them,
    then revlex on the front block."""
    head_a, tail_a = a[: len(a) - elim], a[len(a) - elim:]
    head_b, tail_b = b[: len(b) - elim], b[len(b) - elim:]
    if sum(tail_a) != sum(tail_b):
        return -1 if sum(tail_a) < sum(tail_b) else 1
    by_lex = lex_cmp(tail_a, tail_b)
    if by_lex:
        return by_lex
    return revlex_cmp(head_a, head_b)


def _leading(poly: dict, cmp):
    mono = max(poly, key=cmp_to_key(cmp))
    return mono, poly[mono]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _remainder(poly: dict, divisors: list, cmp) -> dict:
    """Full division: the largest remaining term is cancelled by the first
    divisor whose leading monomial divides it, else moved to the remainder."""
    work, rest = dict(poly), {}
    while work:
        mono, coeff = _leading(work, cmp)
        for d in divisors:
            dm, dc = _leading(d, cmp)
            if _divides(dm, mono):
                shift = tuple(x - y for x, y in zip(mono, dm))
                for m, c in d.items():
                    target = tuple(x + y for x, y in zip(m, shift))
                    work[target] = work.get(target, 0) - coeff / dc * c
                    if not work[target]:
                        del work[target]
                break
        else:
            rest[mono] = work.pop(mono)
    return rest


def plain_buchberger(generators, cmp) -> list:
    """The reduced Groebner basis under the order `cmp` (a comparator such
    as `revlex_cmp`), sorted ascending by leading monomial: every S-pair is
    reduced, with no criteria, then the basis is inter-reduced until stable."""
    context = generators[0].context
    basis = [dict(g.terms) for g in generators]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    for i, j in pairs:  # grows while it is walked
        (fm, fc), (gm, gc) = _leading(basis[i], cmp), _leading(basis[j], cmp)
        lcm = tuple(max(x, y) for x, y in zip(fm, gm))
        s: dict = {}
        for poly, mono, coeff, sign in ((basis[i], fm, fc, 1), (basis[j], gm, gc, -1)):
            shift = tuple(x - y for x, y in zip(lcm, mono))
            for m, c in poly.items():
                target = tuple(x + y for x, y in zip(m, shift))
                s[target] = s.get(target, 0) + sign * c / coeff
        r = _remainder({m: c for m, c in s.items() if c}, basis, cmp)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    minimal: list = []
    for poly in sorted(basis, key=lambda p: cmp_to_key(cmp)(_leading(p, cmp)[0])):
        if not any(_divides(_leading(q, cmp)[0], _leading(poly, cmp)[0]) for q in minimal):
            minimal.append(poly)
    changed = True
    while changed:
        changed = False
        for k, poly in enumerate(minimal):
            reduced = _remainder(poly, minimal[:k] + minimal[k + 1 :], cmp)
            lc = _leading(reduced, cmp)[1]
            reduced = {m: c / lc for m, c in reduced.items()}
            if reduced != poly:
                minimal[k] = reduced
                changed = True
    return [Polynomial.from_dict(context, p) for p in minimal]


def member_by_buchberger(generators):
    """A membership test for the ideal the generators span: p lies in it
    exactly when its remainder on the `plain_buchberger` revlex basis is
    zero."""
    basis = [dict(b.terms) for b in plain_buchberger(list(generators), revlex_cmp)]
    return lambda p: not _remainder(dict(p.terms), basis, revlex_cmp)


def rabinowitsch_member(p: Polynomial, generators) -> bool:
    """Whether p lies in the radical of the ideal the generators span: 1
    lies in (generators) + (1 - t*p) with one fresh variable t, decided by
    `plain_buchberger` under revlex (the reduced basis of the unit ideal is
    just 1)."""
    ext = p.context.extended("radical")
    unit = (0,) * ext.total_count
    lifted = [{m + (0,): c for m, c in g.terms} for g in generators]
    witness = {unit: 1}
    for m, c in p.terms:
        witness[m + (1,)] = -c
    polys = [Polynomial.from_dict(ext, d) for d in lifted + [witness]]
    basis = plain_buchberger(polys, revlex_cmp)
    return [b.terms for b in basis] == [((unit, 1),)]


def radicals_equal(a, b) -> bool:
    """Whether two ideals in one context have the same radical: every
    generator of each lies in the radical of the other."""
    return all(radical_member(g, b) for g in a.generators) and all(
        radical_member(g, a) for g in b.generators
    )


def monomial_is_complete_intersection(ideal) -> bool:
    """A proper monomial ideal is a complete intersection exactly when its
    minimal generators have pairwise disjoint supports."""
    if not ideal.is_proper:
        raise ValueError("unit ideal")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in ideal.generators]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                return False
    return True


def monomials_up_to(width: int, max_deg: int):
    """Every exponent tuple of the given width with total degree <= max_deg."""
    out = []
    for combo in itertools.product(range(max_deg + 1), repeat=width):
        if sum(combo) <= max_deg:
            out.append(combo)
    return out


def monomial_dim_by_subsets(width: int, supports) -> int:
    """Largest variable subset meeting no generator's support, all subsets."""
    best = 0
    for r in range(width, -1, -1):
        for subset in itertools.combinations(range(width), r):
            chosen = set(subset)
            if all(not set(support) <= chosen for support in supports):
                return r
    return best


def height_by_buchberger(generators) -> int:
    """Height of the ideal the generators span: the variable count minus the
    dimension of the quotient by the `plain_buchberger` revlex initial ideal."""
    width = generators[0].context.total_count
    leads = [_leading(dict(g.terms), revlex_cmp)[0] for g in plain_buchberger(list(generators), revlex_cmp)]
    return width - monomial_dim_by_subsets(width, [[v for v, e in enumerate(m) if e] for m in leads])


def maximal_cliques(graph: LabeledGraph) -> list[frozenset[int]]:
    """Every vertex set whose pairs are all edges and that no other such set
    contains, sorted for output."""
    vertices = range(1, graph.n + 1)
    cliques = [
        frozenset(c)
        for k in range(1, graph.n + 1)
        for c in itertools.combinations(vertices, k)
        if all(graph.has_edge(i, j) for i, j in itertools.combinations(c, 2))
    ]
    return sorted((c for c in cliques if not any(c < d for d in cliques)), key=sorted)


def rooted_labelings_by_filter(tree: LabeledGraph, predicate) -> list[LabeledGraph]:
    """All n! relabelings of the tree that satisfy the predicate, deduped."""
    n = tree.n
    seen = set()
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        mapping = dict(zip(range(1, n + 1), perm))
        relabeled = LabeledGraph.of(
            n, [(mapping[i], mapping[j]) for i, j in tree.edge_list()]
        )
        if relabeled.edges in seen:
            continue
        seen.add(relabeled.edges)
        if predicate(relabeled):
            out.append(relabeled)
    return sorted(out, key=lambda g: sorted(g.edges))


def tree_from_pruefer(sequence: tuple[int, ...], n: int) -> LabeledGraph:
    """Decodes a Pruefer sequence over {1..n} of length n - 2 into a tree."""
    degree = {v: 1 for v in range(1, n + 1)}
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = min(u for u in degree if degree[u] == 1)
        edges.append((leaf, v))
        degree[v] -= 1
        del degree[leaf]
    edges.append(tuple(degree))
    return LabeledGraph.of(n, edges)


def pruefer_trees(n: int) -> list[LabeledGraph]:
    """All n^(n-2) labeled trees on n >= 2 vertices, one per Pruefer sequence."""
    return [
        tree_from_pruefer(sequence, n)
        for sequence in itertools.product(range(1, n + 1), repeat=n - 2)
    ]


def relabelings(graph: LabeledGraph) -> set[frozenset]:
    """The edge sets of all n! relabelings of a graph: its isomorphism class."""
    return {
        frozenset(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in graph.edges)
        for perm in itertools.permutations(range(1, graph.n + 1))
    }


def connected_graph_classes(n: int) -> list[LabeledGraph]:
    """Isomorphism classes of connected graphs on n >= 2 vertices, brute force
    over all edge subsets with canonical forms over all permutations."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    classes = []
    for bits in range(1, 1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        graph = LabeledGraph.of(n, edges)
        if not graph.is_connected():
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[i - 1], p[j - 1]))) for i, j in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        classes.append(graph)
    return classes


def rank_over_q(rows) -> int:
    """Rank of a list of sparse vectors ({coordinate: number} dicts) over Q,
    by Gaussian elimination in exact Fractions."""
    pivots: list[tuple[object, dict]] = []
    for row in rows:
        work = {k: Fraction(v) for k, v in row.items() if v}
        for key, pivot in pivots:
            if key in work:
                factor = work[key] / pivot[key]
                for k, v in pivot.items():
                    work[k] = work.get(k, 0) - factor * v
                    if not work[k]:
                        del work[k]
        if work:
            pivots.append((next(iter(work)), work))
    return len(pivots)
