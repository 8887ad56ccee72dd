"""Exact-arithmetic toolkit for Hankel edge ideals of labeled graphs.

A labeled graph on [n] assigns to each edge {i, j} the 2-minor
x_i*x_{j+1} - x_j*x_{i+1} of the generic 2 x n Hankel matrix.  The package
builds these binomial ideals over the rationals, computes reduced Groebner
bases and initial ideals, certifies minimal-prime lists for the covered
labeling classes, and replays the classification claims (complete
intersections, almost complete intersections, heights, radicals) as named
instance sweeps.  Everything is exact; there is no floating point anywhere.
"""

from .ring import (
    ContextMismatchError,
    LEX,
    MonomialOrder,
    Polynomial,
    PolynomialParseError,
    REVLEX,
    VariableContext,
    block_elim,
    extend_polynomial,
    format_monomial,
    format_polynomial,
    parse_polynomial,
    restrict_polynomial,
)
from .groebner import (
    BudgetExhaustedError,
    DEFAULT_PAIR_BUDGET,
    Ideal,
    MonomialIdeal,
    ReducedGroebnerBasis,
    buchberger,
    ideal_member,
    ideals_equal,
    initial_ideal,
    is_groebner_basis,
    normal_form,
    s_polynomial,
)
from .ideal_ops import (
    height,
    intersect_ideals,
    is_minimal_generating_set,
    min_cover,
    monomial_dim,
    radical_member,
)
from .graphs import (
    GraphFormatError,
    LabelClass,
    LabeledGraph,
    RootedLabelingCertificate,
    builtin_graph,
    classify_labeling,
    complete_graph,
    complete_graph_minus_long_edge,
    cycle_graph,
    enumerate_rooted_labelings,
    figure1_graph,
    figure2_graph,
    figure3_graph,
    figure4_tree,
    format_graph_file,
    is_closed_labeling,
    is_rooted_labeling,
    parse_graph_file,
    path_graph,
    path_plus_chord,
    t1_path,
    t2_path,
    tree_classes,
)
from .hankel import (
    HankelIdeal,
    InstanceResult,
    MinimalPrimesReport,
    PropertyReport,
    StructuredPrime,
    TAG_BOUNDS,
    TheoremReport,
    UncoveredClassError,
    hankel_edge_ideal,
    hankel_generator,
    height_bounds,
    height_witness,
    minimal_prime_candidates,
    property_report,
    rational_curve_ideal,
    rational_curve_prime,
    verify_minimal_primes,
    verify_theorem,
)

__version__ = "0.1.0"
