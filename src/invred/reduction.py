"""Reduction of a separating invariant to p-power degree.

Given a finite matrix group over GF(p), a nonzero fixed point v, and a
homogeneous invariant f of degree p^r * d (d coprime to p) with f(v) != 0,
this module constructs an explicit homogeneous invariant of degree p^r with
value 1 at v:

  1. extend v to a basis and pass to the dual coordinates, so the first
     variable is the coordinate along v. The completion keeps the unit
     vectors that enlarge the span, scanned in index order; with k the last
     nonzero coordinate of v that is B = [v | e_j for j != k], whose inverse
     has rows e_k / v_k and e_j - (v_j / v_k) * e_k, so neither needs an
     elimination;
  2. split f as sum_i x0^(N-i) * c_i with c_i of degree i in the remaining
     variables; the scalar c_0 is f(v), and f is rescaled so c_0 = 1;
  3. keep only c_1..c_(p^r) and reassemble

         x0^(p^r)  +  (1/d) * sum_{i=1..p^r} x0^(p^r - i) * c_i ;

  4. substitute back to the original coordinates.

Step 3 is equivariant because v is fixed: every group element sends x0 to
x0 plus a linear form in the remaining variables, and the binomial congruence
C(p^r*d - k, j) == C(p^r - k, j) mod p (gfp.binomial_congruence_holds) makes
the truncated expansion transform exactly like the original. Invariance of
the output is therefore guaranteed, and the final verification here exists
purely as a bug detector.

With r = 0 the output is the classical linear witness for degrees invertible
in the field; with d = 1 nothing is truncated and the construction is just
rescaling by 1/f(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InternalConsistencyError, PreconditionError
from .gfp import FieldElement, Prime
from .group import GroupSpec, MatrixGFp, as_vector, fixes, is_invariant
from .poly import Polynomial, check_slice_limit

__all__ = [
    "DegreeFactorization",
    "ReductionResult",
    "factor_p_power",
    "extend_to_basis",
    "adapted_decomposition",
    "reduce_degree",
]


@dataclass(frozen=True)
class DegreeFactorization:
    """N = p^r * d with d coprime to p."""

    r: int
    d: int


def factor_p_power(n: int, p) -> DegreeFactorization:
    """Split a positive integer as p^r times a part coprime to p."""
    p = Prime(p)
    if n < 1:
        raise DomainError(f"degree must be positive, got {n}")
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return DegreeFactorization(r=r, d=n)


def extend_to_basis(v: Sequence, p) -> MatrixGFp:
    """Invertible matrix whose first column is v.

    Completion rule (fixed for reproducibility): scan the standard unit
    vectors in index order and keep each one that enlarges the span. Every
    e_j with j != k does, k the last nonzero coordinate of v, and e_k is
    then in the span, so the result is [v | e_j for j != k].
    """
    n = len(v)
    vec = as_vector(v, n, p)
    if not vec.any():
        raise DomainError("cannot extend the zero vector to a basis")
    return MatrixGFp(_basis_and_inverse(vec.tolist(), p)[0], p)


def _basis_and_inverse(v: list[int], p: int) -> tuple[list[list[int]], list[list[int]]]:
    """Rows of extend_to_basis(v) and of its inverse, v a nonzero list of
    residues: with k the last nonzero coordinate of v and a = 1/v_k, the
    inverse has rows a*e_k and then e_j - a*v_j*e_k for each j != k."""
    n = len(v)
    k = max(j for j in range(n) if v[j])
    others = [j for j in range(n) if j != k]
    a = pow(v[k], -1, p)
    basis = [[v[i]] + [int(i == j) for j in others] for i in range(n)]
    inverse = [[a if i == k else 0 for i in range(n)]] + [
        [1 if i == j else -a * v[j] % p if i == k else 0 for i in range(n)] for j in others
    ]
    return basis, inverse


def adapted_decomposition(f: Polynomial, basis_change: MatrixGFp, degree: int) -> list[Polynomial]:
    """Rewrite f in the dual coordinates of a basis and split off x0 powers.

    Returns [c_0, ..., c_degree] with each c_i homogeneous of degree i in the
    non-distinguished variables (exponent zero on x0), such that the rewritten
    f equals sum_i x0^(degree - i) * c_i. c_0 is the constant f(first basis
    column).
    """
    if f.is_zero or not f.is_homogeneous() or f.degree() != degree:
        raise DomainError(f"polynomial is not homogeneous of degree {degree}")
    return _leading_layers(f, basis_change, degree, degree)


def _leading_layers(
    f: Polynomial, basis_change: MatrixGFp, degree: int, top: int
) -> list[Polynomial]:
    """c_0..c_top of adapted_decomposition; the substitution computes no
    term of degree above top outside x0."""
    adapted = f.substitute(basis_change, max_rest_degree=top)
    parts = [dict() for _ in range(top + 1)]
    for exps, c in adapted.terms.items():
        parts[degree - exps[0]][(0,) + exps[1:]] = c
    return [Polynomial(f.p, f.nvars, part) for part in parts]


@dataclass(frozen=True)
class ReductionResult:
    """Output of reduce_degree.

    f_tilde is in the original coordinates; basis_change and c_list record
    the adapted-coordinate intermediates (c_list is normalized so c_list[0]
    is the constant 1, and truncated at index p^r). normalization is the
    original value f(v), and factorization splits deg f as p^r * d.
    """

    f_tilde: Polynomial
    basis_change: MatrixGFp
    c_list: tuple[Polynomial, ...]
    normalization: FieldElement
    factorization: DegreeFactorization


def reduce_degree(spec: GroupSpec, f: Polynomial, v: Sequence) -> ReductionResult:
    """Turn a degree p^r*d invariant separating v into a degree p^r one.

    Preconditions (each failure raises PreconditionError with a stable code):
    v nonzero and fixed by the group, f homogeneous of positive degree and
    invariant, f(v) != 0. A degree whose slice exceeds the slice-dimension
    guard raises SliceLimitError before f is evaluated or substituted. The
    result is homogeneous of degree p^r, invariant, and has value 1 at v;
    those three facts are re-verified before returning and a failure raises
    InternalConsistencyError, since it can only mean a bug in this package.
    """
    p, n = spec.p, spec.n
    vec = as_vector(v, n, p)
    if not vec.any():
        raise PreconditionError("zero-vector", "query point is the zero vector")
    if not fixes(spec, vec):
        raise PreconditionError("not-fixed-point", "point is not fixed by the group")
    if f.is_zero or not f.is_homogeneous():
        raise PreconditionError("inhomogeneous", "polynomial is not homogeneous and nonzero")
    degree = f.degree()
    if degree < 1:
        raise PreconditionError("constant", "polynomial must have positive degree")
    check_slice_limit(n, degree)
    value = f.evaluate(vec)
    if not value:
        raise PreconditionError("vanishes-at-point", "invariant vanishes at point")
    if not is_invariant(f, spec):
        raise PreconditionError("not-invariant", "polynomial is not invariant under the group")

    fact = factor_p_power(degree, p)
    q = int(p) ** fact.r
    basis, inverse = _basis_and_inverse(vec.tolist(), p)
    basis_change = MatrixGFp(basis, p)

    scale = value.inverse()
    c_list = tuple(c.scale(scale) for c in _leading_layers(f, basis_change, degree, q))
    d_inv = FieldElement(fact.d, p).inverse()
    reduced = {(q,) + (0,) * (n - 1): 1}
    for i in range(1, q + 1):
        for exps, c in c_list[i].scale(d_inv).terms.items():
            reduced[(q - i,) + exps[1:]] = c
    f_tilde = Polynomial(p, n, reduced).substitute(inverse)

    if f_tilde.is_zero or not f_tilde.is_homogeneous() or f_tilde.degree() != q:
        raise InternalConsistencyError(
            f"reduced polynomial is not homogeneous of degree {q}: {f_tilde}"
        )
    if f_tilde.evaluate(vec) != FieldElement(1, p):
        raise InternalConsistencyError("reduced polynomial does not take value 1 at the point")
    if not is_invariant(f_tilde, spec):
        raise InternalConsistencyError("reduced polynomial failed the invariance check")
    return ReductionResult(
        f_tilde=f_tilde,
        basis_change=basis_change,
        c_list=c_list,
        normalization=value,
        factorization=fact,
    )
