import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from hankelideals import LabeledGraph, Polynomial, VariableContext


@pytest.fixture
def ctx4():
    """Ring context for graphs on 3 vertices: x1..x4."""
    return VariableContext(4)


@pytest.fixture
def ctx6():
    """Ring context for graphs on 5 vertices: x1..x6."""
    return VariableContext(6)


def exponent_tuples(width: int, max_entry: int = 6):
    return st.tuples(*([st.integers(0, max_entry)] * width))


def small_fractions():
    return st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 5)
    )


def polynomials(context: VariableContext, max_terms: int = 4, max_entry: int = 3):
    width = context.total_count
    term = st.tuples(exponent_tuples(width, max_entry), small_fractions())
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda pairs: sum(
            (Polynomial.from_dict(context, {m: c}) for m, c in pairs),
            Polynomial.zero(context),
        )
    )


def seeded_rng(label: str) -> random.Random:
    return random.Random(label)


@st.composite
def connected_graphs(draw):
    """Connected labeled graphs on 2..6 vertices: a random spanning tree
    plus up to four more edges."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(1, n + 1)))
    spanning = [(order[k], order[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return LabeledGraph.of(n, spanning + draw(st.lists(st.sampled_from(pairs), max_size=4)))
