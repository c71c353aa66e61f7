"""Exact invariant theory for finite matrix groups over prime fields.

Core capabilities:

* sparse polynomial arithmetic over GF(p) with formal (coefficient-level)
  equality and graded-slice coordinates;
* finite matrix groups given by generators, their action on polynomials,
  fixed spaces, and invariant slice bases via exact linear algebra mod p;
* the minimal separating degree epsilon(G, v) with an explicit witness, and
  its maximum delta over the nonzero fixed points;
* constructive reduction of a degree p^r*d separating invariant (d coprime
  to p) to one of degree p^r; in particular every finite epsilon at a fixed
  point is 1 or a power of p.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    FixedSpaceLimitError,
    FormatError,
    GroupTooLargeError,
    InternalConsistencyError,
    InvredError,
    PreconditionError,
    ResourceLimitError,
    ShapeMismatchError,
    SingularMatrixError,
    SliceLimitError,
    TheoremViolationError,
)
from .gfp import FieldElement, Prime, binomial_congruence_holds, lucas_binomial, lucas_factors
from .poly import Monomial, Polynomial, monomial_basis, slice_dimension
from .group import (
    GroupElements,
    GroupSpec,
    MatrixGFp,
    act,
    enumerate_group,
    example_action,
    fixed_space,
    is_invariant,
)
from .invariants import (
    DegreeSliceBasis,
    DeltaResult,
    EpsilonResult,
    delta_over_fixed_points,
    enumerate_fixed_points,
    epsilon,
    induced_slice_matrix,
    invariant_basis,
    orbit_norm,
)
from .reduction import (
    DegreeFactorization,
    ReductionResult,
    adapted_decomposition,
    extend_to_basis,
    factor_p_power,
    reduce_degree,
)

__all__ = [
    "__version__",
    "DomainError",
    "FixedSpaceLimitError",
    "FormatError",
    "GroupTooLargeError",
    "InternalConsistencyError",
    "InvredError",
    "PreconditionError",
    "ResourceLimitError",
    "ShapeMismatchError",
    "SingularMatrixError",
    "SliceLimitError",
    "TheoremViolationError",
    "FieldElement",
    "Prime",
    "binomial_congruence_holds",
    "lucas_binomial",
    "lucas_factors",
    "Monomial",
    "Polynomial",
    "monomial_basis",
    "GroupElements",
    "GroupSpec",
    "MatrixGFp",
    "act",
    "enumerate_group",
    "example_action",
    "fixed_space",
    "is_invariant",
    "DegreeSliceBasis",
    "DeltaResult",
    "EpsilonResult",
    "delta_over_fixed_points",
    "enumerate_fixed_points",
    "epsilon",
    "induced_slice_matrix",
    "invariant_basis",
    "orbit_norm",
    "slice_dimension",
    "DegreeFactorization",
    "ReductionResult",
    "adapted_decomposition",
    "extend_to_basis",
    "factor_p_power",
    "reduce_degree",
]
