"""Finite matrix groups over GF(p) and their action on polynomials.

A group element g acts on a polynomial by composition with the inverse,
so the image of f under g is the function v -> f(g^{-1} v). In terms of
``Polynomial.substitute`` this is substitution by the matrix of g^{-1}
(row i giving the image of x_i). With that convention

    act(identity, f) == f        and        act(g, act(h, f)) == act(g @ h, f).

That convention belongs to ``act`` and ``invariants.induced_slice_matrix``
alone. The rest substitutes by g itself, as f o g == f exactly when
f o g^{-1} == f: in ``is_invariant``, and in the invariant bases and epsilon,
whose stacked (action - I) systems keep their nullspace, hence their RREF;
``orbit_norm``'s forms l o g are, over the group, the act(g, l) reordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import (
    DomainError,
    GroupTooLargeError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .gfp import FieldElement, Prime, as_residue, as_residues
from .poly import Polynomial

__all__ = [
    "MatrixGFp",
    "GroupSpec",
    "GroupElements",
    "act",
    "enumerate_group",
    "fixed_space",
    "fixes",
    "is_invariant",
    "example_action",
    "DEFAULT_GROUP_CAP",
]

DEFAULT_GROUP_CAP = 1_000_000


class MatrixGFp:
    """An n-by-n matrix of residues mod p, read by ``as_residues``; read-only int64."""

    __slots__ = ("p", "entries", "_inv")

    def __init__(self, entries, p):
        _kernels.check_modulus(p)
        p = Prime(p)
        arr = as_residues(entries, p)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatchError(f"matrix must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGFp is immutable")

    @classmethod
    def identity(cls, n: int, p) -> "MatrixGFp":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def _check_compatible(self, other: "MatrixGFp"):
        if self.p != other.p or self.n != other.n:
            raise ShapeMismatchError(
                f"incompatible matrices: {self.n}x{self.n} over GF({self.p}) vs "
                f"{other.n}x{other.n} over GF({other.p})"
            )

    def __matmul__(self, other: "MatrixGFp") -> "MatrixGFp":
        if not isinstance(other, MatrixGFp):
            return NotImplemented
        self._check_compatible(other)
        return MatrixGFp(_kernels.matmul_mod(self.entries, other.entries, self.p), self.p)

    def __pow__(self, e: int) -> "MatrixGFp":
        if e < 0:
            return self.inv() ** (-e)
        result = MatrixGFp.identity(self.n, self.p)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def inv(self) -> "MatrixGFp":
        """Exact inverse via Gauss-Jordan on [A | I]; cached on this matrix
        after first use. The inverse does not point back, so no reference
        cycle is formed and both are freed by reference counting."""
        if self._inv is not None:
            return self._inv
        n, p = self.n, self.p
        aug = np.hstack([self.entries, np.eye(n, dtype=np.int64)])
        rref, piv = _kernels.rref_mod(aug, p)
        if len(piv) < n or int(piv[n - 1]) != n - 1:
            raise SingularMatrixError(f"matrix is singular over GF({p})")
        result = MatrixGFp(rref[:, n:], p)
        object.__setattr__(self, "_inv", result)
        return result

    def is_invertible(self) -> bool:
        try:
            self.inv()
        except SingularMatrixError:
            return False
        return True

    def apply(self, v: Sequence) -> np.ndarray:
        """Image of a column vector, as an int64 array of residues."""
        vec = as_vector(v, self.n, self.p)
        return _kernels.matmul_mod(self.entries, vec.reshape(-1, 1), self.p).ravel()

    def __getitem__(self, idx) -> FieldElement:
        i, j = idx
        return FieldElement(int(self.entries[i, j]), self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixGFp):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((int(self.p), self.entries.shape[0], self.entries.tobytes()))

    def __repr__(self) -> str:
        rows = ", ".join("[" + " ".join(str(int(x)) for x in row) + "]" for row in self.entries)
        return f"MatrixGFp(GF({self.p}), [{rows}])"


def as_vector(v: Sequence, n: int, p) -> np.ndarray:
    """Read a sequence of ints or GF(p) elements as a residue vector."""
    vec = as_residues(v, Prime(p))
    if vec.shape != (n,):
        raise ShapeMismatchError(f"vector has length {vec.shape}, expected ({n},)")
    return vec


@dataclass(frozen=True)
class GroupSpec:
    """A finite matrix group given by p, the dimension, and generators.

    Generators are validated at construction: matching shapes, matching
    modulus, and invertibility.
    """

    p: Prime
    n: int
    generators: tuple[MatrixGFp, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", Prime(self.p))
        gens = tuple(MatrixGFp(g, self.p) for g in self.generators)
        if not gens:
            raise DomainError("need at least one generator")
        for i, g in enumerate(gens):
            if g.n != self.n:
                raise ShapeMismatchError(f"generator {i} is {g.n}x{g.n}, not {self.n}x{self.n}")
            if not g.is_invertible():
                raise SingularMatrixError(f"generator {i} is singular over GF({self.p})")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def trivial(cls, p, n: int) -> "GroupSpec":
        return cls(p, n, (MatrixGFp.identity(n, p),))


@dataclass(frozen=True)
class GroupElements:
    """All elements of a finite matrix group, deduplicated, identity first."""

    elements: tuple[MatrixGFp, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def enumerate_group(spec: GroupSpec, cap: int = DEFAULT_GROUP_CAP) -> GroupElements:
    """Breadth-first closure of the generators under multiplication, searched
    on their raw int64 entries (exact by MAX_PRIME); only new elements are wrapped.

    Raises GroupTooLargeError as soon as more than ``cap`` distinct elements
    appear.
    """
    if cap < 1:
        raise DomainError("cap must be positive")
    p, gens = int(spec.p), [g.entries for g in spec.generators]
    identity = MatrixGFp.identity(spec.n, spec.p)
    seen = {identity.entries.tobytes(): identity}
    frontier = [identity.entries]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m @ g % p
                key = prod.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        raise GroupTooLargeError(cap)
                    seen[key] = MatrixGFp(prod, spec.p)
                    nxt.append(prod)
        frontier = nxt
    return GroupElements(tuple(seen.values()))


def act(g: MatrixGFp, f: Polynomial) -> Polynomial:
    """Image of the polynomial f under g: compose f with g^{-1}."""
    return f.substitute(g.inv())


def fixed_space(spec: GroupSpec) -> list[np.ndarray]:
    """Basis of the common fixed space of the generators.

    A vector fixed by every generator is fixed by the whole group, so this is
    the nullspace of the stacked blocks (g_i - I) over GF(p). May be empty.
    """
    n, p = spec.n, spec.p
    eye = np.eye(n, dtype=np.int64)
    stacked = np.vstack([(g.entries - eye) % p for g in spec.generators])
    rows = _kernels.nullspace_mod(stacked, p)
    rows.setflags(write=False)
    return list(rows)


def fixes(spec: GroupSpec, points) -> bool:
    """Whether every generator, hence the group, fixes each point (one per row)."""
    coords = as_residues(points, spec.p).reshape(-1, spec.n).T
    return all(
        np.array_equal(_kernels.matmul_mod(g.entries, coords, spec.p), coords)
        for g in spec.generators
    )


def is_invariant(f: Polynomial, spec: GroupSpec) -> bool:
    """Whether f is formally fixed by every generator (hence the group).

    f is compared with its sparse composition f o g with each generator; in
    characteristic p powers of linear forms stay sparse.
    """
    return all(f.substitute(g) == f for g in spec.generators)


def example_action(p, m: int, lam=0) -> GroupSpec:
    """The built-in family: Z_p x Z_p acting on a 2m-dimensional space.

    The two generators are the block matrices
        [[I_m, 0], [I_m, I_m]]   and   [[I_m, 0], [J_m(lam), I_m]]
    where J_m(lam) is the lower triangular m-by-m Jordan block with
    eigenvalue lam. Coordinates are ordered h_1..h_m, e_1..e_m, so the last
    basis vector e_m is fixed by the whole group. Requires m >= 2 (the Jordan
    block needs a subdiagonal entry to make the two generators independent).
    """
    p = Prime(p)
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    lam = as_residue(lam, p)
    _kernels.check_modulus(p)
    eye = np.eye(m, dtype=np.int64)
    jordan = lam * eye + np.diag(np.ones(m - 1, dtype=np.int64), -1)
    zero = np.zeros((m, m), dtype=np.int64)
    g1 = np.block([[eye, zero], [eye, eye]])
    g2 = np.block([[eye, zero], [jordan, eye]])
    return GroupSpec(p, 2 * m, (MatrixGFp(g1, p), MatrixGFp(g2, p)))
