"""Value types: equality, hashing, repr, immutability, validation, pickling."""

import pickle

import pytest

from hankelideals import (
    ContextMismatchError,
    HankelIdeal,
    Ideal,
    InstanceResult,
    LEX,
    LabelClass,
    LabeledGraph,
    MinimalPrimesReport,
    MonomialIdeal,
    MonomialOrder,
    Polynomial,
    PropertyReport,
    RootedLabelingCertificate,
    REVLEX,
    ReducedGroebnerBasis,
    StructuredPrime,
    TheoremReport,
    VariableContext,
    buchberger,
    classify_labeling,
    hankel_edge_ideal,
    is_rooted_labeling,
    path_graph,
    property_report,
    verify_minimal_primes,
)
from hankelideals.hankel import TheoremInstance


def _x(ctx, i):
    return Polynomial.variable(ctx, i)


def one_of_each():
    """One instance of every immutable value type in the package."""
    graph = path_graph(4)
    hank = hankel_edge_ideal(graph)
    ctx = hank.ideal.context
    prime = StructuredPrime(frozenset({1}), (2, 4))
    report = verify_minimal_primes(hank, [StructuredPrime(frozenset(), (1, 4)), prime])
    result = InstanceResult("p4", True, "ok", 3)
    return [
        ctx,
        MonomialOrder("elim", 1),
        _x(ctx, 1),
        graph,
        classify_labeling(graph),
        is_rooted_labeling(graph),
        hank.ideal,
        buchberger(hank.ideal, REVLEX),
        MonomialIdeal.from_monomials(ctx, [(1, 0, 0, 0, 0)]),
        hank,
        prime,
        report,
        property_report(graph),
        TheoremInstance("thm3.1", "p4", (graph,)),
        result,
        TheoremReport("thm3.1", (result,)),
    ]


def test_fields_cannot_be_assigned_or_deleted():
    objects = one_of_each()
    assert len({type(obj) for obj in objects}) == 16
    for obj in objects:
        before = dict(vars(obj))
        assert before, type(obj).__name__
        for name in before:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert vars(obj) == before


def test_bookkeeping_fields_stay_out_of_equality_and_hash():
    ctx = VariableContext(3)
    ideal = Ideal(ctx, (_x(ctx, 1),))
    bases = [ReducedGroebnerBasis(ideal, REVLEX, ideal.generators, pairs) for pairs in (0, 7)]
    assert bases[0] == bases[1] and hash(bases[0]) == hash(bases[1])
    assert bases[0] != ReducedGroebnerBasis(ideal, LEX, ideal.generators, 0)

    results = [InstanceResult("a", True, "ok", pairs) for pairs in (0, 7)]
    assert results[0] == results[1] and hash(results[0]) == hash(results[1])
    assert results[0] != InstanceResult("a", False, "ok", 0)

    prime = StructuredPrime(frozenset({1}))
    fields = ((prime,), (True,), (True,), True, True)
    reports = [MinimalPrimesReport(*fields, meet) for meet in (None, ideal)]
    assert reports[0] == reports[1] and hash(reports[0]) == hash(reports[1])
    assert reports[0] != MinimalPrimesReport(*fields[:-1], False, None)


def test_equality_needs_the_same_type():
    ctx = VariableContext(3)
    assert Ideal(ctx, (_x(ctx, 1),)) != MonomialIdeal(ctx, ((1, 0, 0),))
    assert TheoremReport("t", ()) == TheoremReport("t", ()) and TheoremReport("t", ()) != ("t", ())


def test_repr_names_every_field():
    assert repr(MonomialOrder("elim", 2)) == "MonomialOrder(kind='elim', elim_count=2)"
    assert repr(InstanceResult("a", True, "ok", 4)) == (
        "InstanceResult(name='a', passed=True, detail='ok', pairs_used=4)"
    )
    assert repr(StructuredPrime(frozenset({2}))) == (
        "StructuredPrime(variable_part=frozenset({2}), minor_range=None)"
    )


PLAIN_RECORDS = [
    LabelClass, RootedLabelingCertificate, ReducedGroebnerBasis, HankelIdeal,
    MinimalPrimesReport, PropertyReport, TheoremInstance, InstanceResult, TheoremReport,
]


def test_plain_records_take_exactly_one_value_per_field():
    for cls in PLAIN_RECORDS:
        width = len(cls._fields)
        assert "__init__" not in vars(cls), cls.__name__
        assert cls(*range(width)) == cls(*range(width))
        for wrong in (width - 1, width + 1):
            with pytest.raises(TypeError):
                cls(*range(wrong))


def test_constructors_reject_bad_input():
    ctx = VariableContext(3)
    x1 = _x(ctx, 1)
    for args in [("x",), ("elim", 0), ("lex", 1)]:
        with pytest.raises(ValueError):
            MonomialOrder(*args)
    with pytest.raises(ValueError):
        VariableContext(3, ("",))
    with pytest.raises(ValueError):
        Ideal(ctx, ())
    with pytest.raises(ValueError):
        Ideal(ctx, (x1, Polynomial.zero(ctx)))
    with pytest.raises(ContextMismatchError):
        Ideal(VariableContext(4), (x1,))
    with pytest.raises(ValueError):
        MonomialIdeal(ctx, ())
    with pytest.raises(ContextMismatchError):
        MonomialIdeal(ctx, ((1, 0),))
    with pytest.raises(ValueError):
        LabeledGraph(0, frozenset())
    with pytest.raises(ValueError):
        LabeledGraph(3, frozenset({(2, 1)}))  # edges come as (i, j) with i < j


def test_results_and_polynomials_survive_pickling():
    # worker processes send results back; test_hankel pickles the instances
    result = InstanceResult("a", True, "ok", 7)
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result and clone.pairs_used == 7

    ctx = VariableContext(3)
    p = _x(ctx, 1) - _x(ctx, 2)
    lead = p.leading_term(LEX)  # the per-order cache is not pickled
    clone = pickle.loads(pickle.dumps(p))
    assert clone == p and "_leads" not in vars(clone)
    assert clone.leading_term(LEX) == lead
