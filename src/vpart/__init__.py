"""Exact vector partition functions over pointed cones.

The package counts, and sums arbitrary exact weights over, the nonnegative
integer representations of a lattice target by a fixed set of step columns.
On top of the counts it offers truncated multivariate generating series with
exact rational coefficients and a family of verifiers that check the
algebra's structural identities coefficient by coefficient, with zero
tolerance, over explicitly bounded windows.

Quick tour::

    from vpart import StepMatrix, certify_pointed, vector_partition, LatticeVector

    steps = StepMatrix([(1, 0), (0, 1), (1, 1)])
    cert = certify_pointed(steps)
    vector_partition(steps, cert, LatticeVector((2, 2)))   # 3 representations

All arithmetic is exact, on ints and `fractions.Fraction`; nothing is ever rounded.
"""

from .cone import (
    ConeCertificate,
    NotPointedError,
    certificate_from_functional,
    certify_pointed,
    cone_contains,
)
from .core import (
    ConstantOne,
    GeometricWeights,
    LatticePathCount,
    LatticeVector,
    MultinomialMonomial,
    RuleWeight,
    StepMatrix,
    TableWeight,
    WeightFunction,
    evaluate_weight,
    exact,
    iter_orthant,
    multinomial,
)
from .enumeration import (
    enumerate_solutions,
    generalized_vp,
    generalized_vp_table,
    integer_span_contains,
    vector_partition,
)
from .identities import (
    RecurrencePreconditionError,
    VerificationReport,
    Violation,
    forward_difference_apply,
    verify_basic_recurrence,
    verify_cb_1d,
    verify_cb_multidim,
    verify_cb_vector_partition,
    verify_partition_recurrence,
    verify_path_series,
    verify_summation_identity,
)
from .series import (
    TruncatedSeries,
    full_support_part,
    geometric_inverse,
    partition_series,
    substitute_monomial,
    weight_series,
)

__version__ = "0.1.0"

__all__ = [
    "ConeCertificate",
    "ConstantOne",
    "GeometricWeights",
    "LatticePathCount",
    "LatticeVector",
    "MultinomialMonomial",
    "NotPointedError",
    "RecurrencePreconditionError",
    "RuleWeight",
    "StepMatrix",
    "TableWeight",
    "TruncatedSeries",
    "VerificationReport",
    "Violation",
    "WeightFunction",
    "certificate_from_functional",
    "certify_pointed",
    "cone_contains",
    "enumerate_solutions",
    "evaluate_weight",
    "exact",
    "forward_difference_apply",
    "full_support_part",
    "generalized_vp",
    "generalized_vp_table",
    "geometric_inverse",
    "integer_span_contains",
    "iter_orthant",
    "multinomial",
    "partition_series",
    "substitute_monomial",
    "vector_partition",
    "verify_basic_recurrence",
    "verify_cb_1d",
    "verify_cb_multidim",
    "verify_cb_vector_partition",
    "verify_partition_recurrence",
    "verify_path_series",
    "verify_summation_identity",
    "weight_series",
]
