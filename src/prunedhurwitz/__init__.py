"""Exact double, pruned double and modified pruned double Hurwitz numbers.

All values are computed by exhaustive enumeration of transitive
transposition factorizations in the symmetric group, in exact rational
arithmetic, and independently cross-checked against closed-form
evaluators: the pruned-core reconstruction of the full numbers, a
cut-and-join recursion for the pruned ones, and piecewise-polynomial
scaling behaviour.
"""

__version__ = "0.1.0"

from .combinatorics import (
    automorphism_factor,
    bounded_tuples,
    centralizer_order,
    falling_factorial,
    multinomial,
    ordered_set_partitions,
)
from .cutjoin import (
    RecursionReport,
    RecursionTerm,
    cut_and_join_rhs,
    cut_and_join_terms,
    verify_recursion,
)
from .factorizations import count_factorizations, count_isomorphism_classes
from .forests import RootedForest, count_forests_with_degrees, enumerate_rooted_forests
from .hurwitz import Conventions, HurwitzEngine, HurwitzQuery, Kind
from .permutations import canonical_permutation, compose, cycle_type, cycles, inverse
from .polynomiality import (
    NOT_POLYNOMIAL,
    degree_bound,
    finite_difference_degree,
    fit_univariate,
    is_wall_point,
    scaling_values,
)
from .reconstruction import reconstruct_double_hurwitz, reconstruct_via_forests
