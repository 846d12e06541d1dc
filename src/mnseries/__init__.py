"""Exact truncated series rings over concrete ordered groups, crossed
products, and desk-scale freeness certification.

The package is organized around one discipline: every series lives over a
positive monoid graded by an additive weight, so truncation at a fixed
degree is exact, and every verifier reports a verdict scoped by explicit
bounds. No floating point is used anywhere.
"""

from .scalars import (
    QQ,
    FieldMismatchError,
    PrimeField,
    PrimeFieldElement,
    QuadraticField,
    QuadraticFieldElement,
    field_from_spec,
    rational_power,
)
from .groups import (
    GroupMismatchError,
    Heisenberg,
    HeisenbergElement,
    LatticeGroup,
    LatticeElement,
    NotInMonoidError,
    SemidirectElement,
    SemidirectGroup,
    WreathElement,
    WreathGroup,
    classify_order_type,
    enumerate_monoid,
)
from .series import (
    ContextMismatchError,
    GradedSeries,
    NoTruncatedInverseError,
    SubgroupRing,
    from_text,
    summable_sum,
    to_text,
)
from .crossed import (
    CrossedSystem,
    QuotientSystem,
    check_crossed_system,
    check_morphism_extension,
    diagonal_change,
    flatten,
    good_preimage,
    project_series,
    quadratic_conj_z,
    quotient_system,
    regroup,
    trivial_system,
    z2_sign_twist,
)
from .report import InvariantError, Report
from .magnus import (
    FreeMonoid,
    FreeWord,
    enumerate_reduced_words,
    magnus_image,
    parse_word,
    verify_magnus_injectivity,
    word_reduce,
)
from .freeness import (
    GuardLimitError,
    digit_sum_check,
    free_monoid_check,
    group_algebra_independence,
    pingpong_check,
    type1_unit_generators,
    type2_generators,
    type3_generators,
)

__version__ = "0.1.0"
