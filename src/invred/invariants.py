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
search, each elimination serving every point not yet separated. At fixed points
only the degrees 1, p, p^2, ... are eliminated: an invariant of degree p^r*d,
d coprime to p, that is nonzero at a fixed point yields one of degree p^r
that is too (the p-power reduction), so there epsilon is a power of p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError, FixedSpaceLimitError
from .gfp import Prime
from .group import GroupSpec, MatrixGFp, act, as_vector, enumerate_group, fixed_space, fixes
from .poly import Polynomial, parent_table, slice_images, slice_levels

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
    rows = _invariant_rows([slice_images(g.inv().entries, degree, p) for g in spec.generators], p)
    basis = tuple(Polynomial.from_coordinates(p, n, degree, row) for row in rows)
    return DegreeSliceBasis(degree=degree, basis=basis)


@dataclass(frozen=True)
class EpsilonResult:
    """Outcome of the minimal separating-degree search.

    ``value`` is None when no invariant of degree 1..searched_bound is nonzero
    at the query point; for a nonzero fixed point with the default bound |G|
    that cannot happen, so None is only seen with explicit small bounds or
    non-fixed query points.
    """

    value: int | None
    witness: Polynomial | None
    searched_bound: int

    @property
    def is_finite(self) -> bool:
        return self.value is not None


def _epsilon_search(spec: GroupSpec, points: Sequence, bound: int) -> list[EpsilonResult]:
    """epsilon at each point, walking degrees 1..bound once for all of them.

    Each degree extends every generator's slice action and the monomial
    values at the points not yet separated by one level. Where a separator
    can first appear, one nullspace is taken and its basis evaluated at
    those points: at every degree in general, but only at 1, p, p^2, ... when
    every point is fixed by the group, since epsilon is then a power of p.
    """
    n, p = spec.n, spec.p
    levels = [slice_levels(g.inv().entries, p) for g in spec.generators]
    results = [EpsilonResult(value=None, witness=None, searched_bound=bound)] * len(points)
    coords = np.array(points, dtype=np.int64).reshape(len(points), n)
    fixed = fixes(spec, coords)
    # at fixed points epsilon is a power of p: eliminate only at 1, p, p^2, ...
    # up to the largest power of p within bound, whose divisors they are
    stop = bound
    if fixed:
        stop = 1
        while stop * p <= bound:
            stop *= p
    unresolved = np.arange(len(points))
    values = np.ones((len(points), 1), dtype=np.int64)  # monomial values at the points
    for d in range(1, stop + 1):
        if not unresolved.size:
            break
        tables = [next(it) for it in levels]
        parent_rank, parent_var = parent_table(n, d)
        values = values[:, parent_rank] * coords[unresolved][:, parent_var] % p
        if fixed and stop % d:  # not a power of p
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
    return results


def epsilon(spec: GroupSpec, v: Sequence, bound: int | None = None) -> EpsilonResult:
    """Least degree of a homogeneous invariant nonzero at v, with a witness.

    Searches degrees 1..bound: one elimination per degree, or, when v is
    fixed by the group, one at each of 1, p, p^2, ... up to bound, because
    there epsilon is a power of p. When ``bound`` is omitted the group is
    enumerated and |G| is used, which is exact for nonzero fixed points.
    """
    vec = as_vector(v, spec.n, spec.p)
    if not vec.any():
        raise DomainError("epsilon is undefined at the zero vector")
    if bound is None:
        bound = enumerate_group(spec).order
    elif bound < 1:
        raise DomainError("bound must be positive")
    return _epsilon_search(spec, [vec], bound)[0]


def orbit_norm(spec: GroupSpec, l: Polynomial) -> Polynomial:
    """Product of the images of a linear form over the whole group.

    An invariant of degree |G|. At any fixed point v its value is l(v)^|G|,
    so it separates v from zero whenever l does.
    """
    if l.is_zero or not l.is_homogeneous() or l.degree() != 1:
        raise DomainError("orbit norm needs a homogeneous linear form")
    result = Polynomial.one(l.p, l.nvars)
    for g in enumerate_group(spec):
        result = result * act(g, l)
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
    ``enumerate_fixed_points`` order, their EpsilonResults (each searched to
    |G|, so finite) and ``value``, the largest epsilon, 0 if there are none."""

    value: int
    group_order: int
    fixed_space_dimension: int
    points: tuple[np.ndarray, ...]
    epsilons: tuple[EpsilonResult, ...]


def delta_over_fixed_points(spec: GroupSpec) -> DeltaResult:
    """delta, the maximum of epsilon over the nonzero fixed points.

    The group is enumerated and the fixed space computed once each. One
    search to |G|, exact by the orbit norm, serves every point; as all are
    fixed, it eliminates only at 1, p, p^2, ...
    """
    order = enumerate_group(spec).order
    basis = fixed_space(spec)
    points = tuple(_span_points(spec, basis, DEFAULT_FIXED_POINT_LIMIT))
    results = tuple(_epsilon_search(spec, points, order))
    value = max((r.value for r in results), default=0)
    return DeltaResult(value, order, len(basis), points, results)
