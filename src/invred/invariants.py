"""Invariant slices, separating degrees, and the orbit norm.

The degree-d slice of the polynomial ring is finite dimensional, with the
descending graded-lex monomials as coordinates. Each group element acts on a
slice by an exact matrix over GF(p), built from the one a degree below;
invariants of degree d are the common nullspace of (action - identity) over
the generators, computed by exact Gaussian elimination.

epsilon(spec, v) is the least positive degree of a homogeneous invariant that
does not vanish at v. For a nonzero fixed point of a finite group it is
always finite: the orbit norm of a coordinate functional nonzero at v is an
invariant of degree |G| with value l(v)^|G| != 0 there. That makes |G| an
exact default search bound, and delta, the maximum of epsilon over the nonzero
fixed points, well defined. delta_over_fixed_points returns it as a
DeltaResult with every point's EpsilonResult, the group order and the fixed
space dimension. Both it and epsilon walk the degrees once in one shared
search, each elimination serving every point not yet separated.

At fixed points the p-power reduction sharpens this. An invariant of degree
p^r*d, d coprime to p, that is nonzero at a fixed point yields one of degree
p^r that is too, so there epsilon is a power of p; applied to the orbit norm
it gives epsilon <= |G|_p, the p-part of |G|. So at fixed points only the
degrees 1, p, ..., |G|_p/p are eliminated, and every point still unresolved
has epsilon = |G|_p, with the reduced orbit norm as its witness. By Lucas'
theorem that witness is e_q(G.x_i) / (d * v_i^q), the q-th elementary
symmetric function of the orbit forms g.x_i with q = |G|_p and |G| = q*d, i the
first nonzero coordinate of v: it is built from the orbit alone, with no basis
change and without forming the norm (see _norm_witness).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError, FixedSpaceLimitError, GroupTooLargeError
from .gfp import FieldElement, Prime
from .group import (
    GroupElements, GroupSpec, MatrixGFp, as_vector, enumerate_group, fixed_space, fixes,
)
from .poly import Polynomial, check_slice_limit, parent_table, slice_images, slice_levels
from .reduction import DegreeFactorization, factor_p_power

__all__ = [
    "DegreeSliceBasis",
    "EpsilonResult",
    "DeltaResult",
    "induced_slice_matrix",
    "invariant_basis",
    "epsilon",
    "orbit_norm",
    "delta_over_fixed_points",
    "enumerate_fixed_points",
    "DEFAULT_FIXED_POINT_LIMIT",
]

DEFAULT_FIXED_POINT_LIMIT = 65_536


def induced_slice_matrix(g: MatrixGFp, degree: int) -> MatrixGFp:
    """Matrix of the action of g on the degree-d slice.

    Coordinates of act(g, f) equal this matrix times the coordinates of f,
    in descending graded-lex monomial coordinates.
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    images = slice_images(g.inv().entries, degree, g.p)
    return MatrixGFp(images.dense().T, g.p)


@dataclass(frozen=True)
class DegreeSliceBasis:
    """Basis of the invariant subspace of one graded slice."""

    degree: int
    basis: tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _invariant_rows(images: Sequence[_kernels.CSR], p: Prime) -> np.ndarray:
    """Basis of the invariants of one degree as coordinate rows.

    ``images`` holds each generator's slice images of that degree, the
    transpose of its action. The stacked (action - identity) system is
    allocated once, each table scattered into its block transposed, and
    eliminated in place.
    """
    dim = images[0].dim
    system = np.zeros((len(images) * dim, dim), dtype=np.int64)
    diag = np.arange(dim)
    for g, table in enumerate(images):
        block = system[g * dim : (g + 1) * dim]
        block[table.cols, table.row_ids()] = table.vals
        block[diag, diag] = (block[diag, diag] - 1) % p
    return _kernels._nullspace_in_place(system, p)


def invariant_basis(spec: GroupSpec, degree: int) -> DegreeSliceBasis:
    """Deterministic basis of the degree-d invariants of the group.

    Stacks (slice action - identity) for every generator and takes one exact
    nullspace over GF(p). Raises SliceLimitError when the slice dimension
    exceeds the configured guard.
    """
    if degree < 1:
        raise DomainError(f"degree must be positive, got {degree}")
    n, p = spec.n, spec.p
    rows = _invariant_rows([slice_images(g.entries, degree, p) for g in spec.generators], p)
    basis = tuple(Polynomial.from_coordinates(p, n, degree, row) for row in rows)
    return DegreeSliceBasis(degree=degree, basis=basis)


@dataclass(frozen=True)
class EpsilonResult:
    """Outcome of the minimal separating-degree search.

    ``value`` is None when no invariant of degree 1..searched_bound is nonzero
    at the query point. With a bound of at least |G| that cannot happen at any
    nonzero point, fixed or not: over the algebraic closure some linear form
    is nonzero on the whole orbit of the point, its orbit norm is an invariant
    of degree |G| nonzero there, and the invariants of that degree are spanned
    by ones over GF(p). At a fixed point a bound of |G|_p is enough. So None
    is only seen with an explicit bound below these.

    ``witness`` is homogeneous of degree ``value``, invariant and nonzero at
    the point. At a fixed point with value q = |G|_p it is the p-power
    reduction of the orbit norm of x_i, i the point's first nonzero
    coordinate, equal to ``reduce_degree(spec, orbit_norm(spec, x_i), v).f_tilde``
    and built as e_q(G.x_i) / (d * v_i^q), |G| = q*d, with no basis change.
    Otherwise it is the separating element of ``invariant_basis(spec, value)``
    with the least leading monomial, the earliest on ties.
    """

    value: int | None
    witness: Polynomial | None
    searched_bound: int

    @property
    def is_finite(self) -> bool:
        return self.value is not None


def _epsilon_search(
    spec: GroupSpec, points: Sequence, bound: int, group: GroupElements | None = None
) -> list[EpsilonResult]:
    """epsilon at each point, walking degrees 1..bound once for all of them.

    Each degree extends every generator's slice action and the monomial
    values at the points not yet separated by one level. Where a separator
    can first appear, one nullspace is taken and its basis evaluated at
    those points: at every degree in general. When every point is fixed by
    the group, epsilon is a power of p and at most q = |G|_p: the group is
    enumerated, unless ``group`` already holds it, only 1, p, ..., q/p are
    eliminated, and the points still unresolved get epsilon = q and
    _norm_witness. A bound below q, or a group over the enumeration cap,
    keeps the walk to the largest power of p within the bound.
    """
    n, p = spec.n, spec.p
    levels = [slice_levels(g.entries, p) for g in spec.generators]
    results = [EpsilonResult(value=None, witness=None, searched_bound=bound)] * len(points)
    coords = np.array(points, dtype=np.int64).reshape(len(points), n)
    fixed = fixes(spec, coords)
    degrees = range(1, bound + 1)  # the degrees eliminated
    norm_degree = None  # the degree that resolves every point left after the walk
    if fixed:
        if group is None:
            with contextlib.suppress(GroupTooLargeError):  # else no |G|_p: walk to the bound
                group = enumerate_group(spec)
        top = bound
        if group is not None:
            fact = factor_p_power(group.order, p)
            q = p**fact.r
            if bound >= q:
                norm_degree, top = q, q // p
        degrees = [p**k for k in range(top.bit_length()) if p**k <= top]
    unresolved = np.arange(len(points))
    values = np.ones((len(points), 1), dtype=np.int64)  # monomial values at the points
    for d in range(1, degrees[-1] + 1 if degrees else 1):
        if not unresolved.size:
            break
        tables = [next(it) for it in levels]
        parent_rank, parent_var = parent_table(n, d)
        values = values[:, parent_rank] * coords[unresolved][:, parent_var] % p
        if d not in degrees:
            continue
        rows = _invariant_rows(tables, p)
        nonzero = _kernels.matmul_mod(rows, values.T, p) != 0
        found = nonzero.any(axis=0)
        # witness: smallest leading monomial in graded-lex, i.e. the latest
        # first nonzero coordinate; earliest basis element on ties
        leads = (rows != 0).argmax(axis=1)
        for j in np.flatnonzero(found):
            row = rows[np.argmax(np.where(nonzero[:, j], leads, -1))]
            witness = Polynomial.from_coordinates(p, n, d, row)
            results[unresolved[j]] = EpsilonResult(value=d, witness=witness, searched_bound=bound)
        values, unresolved = values[~found], unresolved[~found]
    if norm_degree and unresolved.size:
        check_slice_limit(n, norm_degree)
        for j in unresolved:
            witness = _norm_witness(group, coords[j], p, fact)
            results[j] = EpsilonResult(value=norm_degree, witness=witness, searched_bound=bound)
    return results


def _norm_witness(
    group: GroupElements, v: np.ndarray, p: Prime, fact: DegreeFactorization
) -> Polynomial:
    """The p-power reduction of the orbit norm N of x_i at the fixed point v,
    i the first nonzero coordinate of v: e_q(G.x_i) / (d * v_i^q), where e_q
    is the q-th elementary symmetric function of the |G| forms g.x_i and
    ``fact`` splits |G| as q*d, q = |G|_p.

    With a = v_i and lambda a linear form with lambda(v) = 1, each g.x_i is
    a*lambda + L_g with L_g(v) = 0, as v is fixed, and reduce_degree keeps

        lambda^q + (1/d) * sum_{k=1..q} a^(-k) lambda^(q-k) e_k(L).

    Writing e_k(L) in the e_j of the forms themselves, e_j for 0 < j <= q
    carries (1/d) a^(-j) lambda^(q-j) (-1)^(q-j) C(|G|-j-1, q-j), which by
    Lucas' theorem is 0 mod p below q and 1 at q; lambda^q carries
    1 + ((-1)^q C(|G|-1, q) - 1)/d = 1 + (-d)/d = 0. So neither lambda nor a
    basis change enters the result. e_q comes from the product of
    (1 + t*g.x_i) over the group truncated at t^q: |G|*q products of degree
    at most q.
    """
    n = len(v)
    q = p**fact.r
    i = int(np.flatnonzero(v)[0])
    e = [Polynomial.one(p, n)] + [Polynomial.zero(p, n)] * q
    for g in group:
        # g.x_i is row i of g^-1; over the whole group the rows of g are the same multiset
        form = Polynomial.from_coordinates(p, n, 1, g.entries[i])
        for k in range(q, 0, -1):
            e[k] = e[k] + e[k - 1] * form
    return e[q].scale((FieldElement(fact.d, p) * FieldElement(int(v[i]), p) ** q).inverse())


def epsilon(spec: GroupSpec, v: Sequence, bound: int | None = None) -> EpsilonResult:
    """Least degree of a homogeneous invariant nonzero at v, with a witness.

    Searches degrees 1..bound, one elimination per degree. When v is fixed
    by the group the group is enumerated and epsilon, a power of p and at
    most |G|_p, is found by eliminating at 1, p, ..., |G|_p/p only; if none
    separates, it is |G|_p and the witness is the reduced orbit norm (see
    EpsilonResult). A bound below |G|_p, or a group over the enumeration
    cap, searches the powers of p within the bound instead. When ``bound``
    is omitted the group is enumerated and |G| is used, which is exact for
    nonzero fixed points.
    """
    vec = as_vector(v, spec.n, spec.p)
    if not vec.any():
        raise DomainError("epsilon is undefined at the zero vector")
    group = None
    if bound is None:
        group = enumerate_group(spec)
        bound = group.order
    elif bound < 1:
        raise DomainError("bound must be positive")
    return _epsilon_search(spec, [vec], bound, group)[0]


def orbit_norm(spec: GroupSpec, l: Polynomial) -> Polynomial:
    """Product of the images of a linear form over the whole group.

    An invariant of degree |G|, guarded as one before the product of the
    forms l o g. At any fixed point v its value is l(v)^|G|, so it
    separates v from zero whenever l does.
    """
    if l.is_zero or not l.is_homogeneous() or l.degree() != 1:
        raise DomainError("orbit norm needs a homogeneous linear form")
    group = enumerate_group(spec)
    check_slice_limit(l.nvars, group.order)
    result = Polynomial.one(l.p, l.nvars)
    for g in group:
        result = result * l.substitute(g)
    return result


def enumerate_fixed_points(
    spec: GroupSpec, max_points: int = DEFAULT_FIXED_POINT_LIMIT
) -> Iterator[np.ndarray]:
    """All nonzero GF(p)-points of the fixed space, deterministic order."""
    return _span_points(spec, fixed_space(spec), max_points)


def _span_points(spec: GroupSpec, basis: list, max_points: int) -> Iterator[np.ndarray]:
    """Nonzero points of the span of ``basis``, coefficient tuples in order."""
    p = int(spec.p)
    total = p ** len(basis)
    if basis and total > max_points:
        raise FixedSpaceLimitError(f"fixed space has {total} points, over the limit of {max_points}")
    mat = np.array(basis, dtype=np.int64).reshape(len(basis), spec.n)
    coeffs = itertools.product(range(p), repeat=len(basis))
    return (np.asarray(c, dtype=np.int64) @ mat % p for c in coeffs if any(c))


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of delta_over_fixed_points: the nonzero fixed points in
    ``enumerate_fixed_points`` order, their EpsilonResults (each with
    searched_bound |G|, so finite, and at most |G|_p) and ``value``, the
    largest epsilon, 0 if there are none."""

    value: int
    group_order: int
    fixed_space_dimension: int
    points: tuple[np.ndarray, ...]
    epsilons: tuple[EpsilonResult, ...]


def delta_over_fixed_points(spec: GroupSpec) -> DeltaResult:
    """delta, the maximum of epsilon over the nonzero fixed points.

    The group is enumerated and the fixed space computed once each. One
    search serves every point; as all are fixed, it eliminates only at
    1, p, ..., |G|_p/p, and the points it leaves get epsilon = |G|_p with
    the reduced orbit norm as witness.
    """
    group = enumerate_group(spec)
    basis = fixed_space(spec)
    points = tuple(_span_points(spec, basis, DEFAULT_FIXED_POINT_LIMIT))
    results = tuple(_epsilon_search(spec, points, group.order, group))
    value = max((r.value for r in results), default=0)
    return DeltaResult(value, group.order, len(basis), points, results)
