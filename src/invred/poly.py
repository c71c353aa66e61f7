"""Sparse multivariate polynomials over GF(p).

Polynomials are formal ring elements: two polynomials are equal exactly when
their term maps are equal. Over a finite field distinct polynomials can agree
as functions (x^p and x take the same values on GF(p)), and everything here,
including invariance checks and graded components, works at the formal level.

Monomials are ordered graded-lexicographically: first by total degree, then
lexicographically on exponent vectors, so x0^2 > x0*x1 > x1^2. Slice bases
enumerate monomials in descending order, which fixes deterministic coordinates
for all the linear algebra built on top.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from math import comb
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError, ShapeMismatchError, SliceLimitError
from .gfp import FieldElement, Prime, as_residue, as_residues

__all__ = [
    "Monomial", "Polynomial", "monomial_basis", "slice_dimension", "slice_limit",
    "check_slice_limit", "slice_levels", "slice_images", "DEFAULT_SLICE_LIMIT",
]

DEFAULT_SLICE_LIMIT = 20_000


@total_ordering
@dataclass(frozen=True)
class Monomial:
    """An exponent vector with the graded-lex total order."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", _exponents(self.exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __lt__(self, other: "Monomial") -> bool:
        return (self.degree, self.exponents) < (other.degree, other.exponents)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"


def _exponents(raw) -> tuple[int, ...]:
    """A tuple of ints; DomainError for a negative or non-integral exponent."""
    raw = tuple(raw)
    exps = tuple(map(int, raw))
    if exps != raw or any(e < 0 for e in exps):
        raise DomainError(f"exponents must be nonnegative integers, got {raw}")
    return exps


def _exponents_desc(nvars: int, degree: int):
    # descending lex within fixed total degree
    if nvars == 1:
        yield (degree,)
        return
    for e0 in range(degree, -1, -1):
        for rest in _exponents_desc(nvars - 1, degree - e0):
            yield (e0,) + rest


@lru_cache(maxsize=None)
def slice_monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All C(nvars+degree-1, degree) exponent vectors, descending graded-lex."""
    if nvars < 1:
        raise DomainError("need at least one variable")
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    out = tuple(_exponents_desc(nvars, degree))
    assert len(out) == comb(nvars + degree - 1, degree)
    return out


@lru_cache(maxsize=None)
def slice_ranks(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    """Exponent vector -> position in the descending graded-lex slice."""
    return {m: i for i, m in enumerate(slice_monomials(nvars, degree))}


@lru_cache(maxsize=None)
def promote_table(nvars: int, degree: int) -> np.ndarray:
    """T[s, u] = rank in degree+1 of (monomial s of this degree) * x_u."""
    ranks_up = slice_ranks(nvars, degree + 1)
    mons = slice_monomials(nvars, degree)
    table = np.empty((len(mons), nvars), dtype=np.int64)
    for s, m in enumerate(mons):
        for u in range(nvars):
            bumped = m[:u] + (m[u] + 1,) + m[u + 1 :]
            table[s, u] = ranks_up[bumped]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def parent_table(nvars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor each degree-d monomial as x_j * (degree d-1 monomial).

    j is the first variable with positive exponent. Returns the parent ranks
    and the variable indices as two arrays, used to build slice actions one
    degree at a time.
    """
    if degree < 1:
        raise DomainError("degree must be at least 1")
    ranks_down = slice_ranks(nvars, degree - 1)
    mons = slice_monomials(nvars, degree)
    parent = np.empty(len(mons), dtype=np.int64)
    var = np.empty(len(mons), dtype=np.int64)
    for t, m in enumerate(mons):
        j = next(i for i, e in enumerate(m) if e > 0)
        reduced = m[:j] + (m[j] - 1,) + m[j + 1 :]
        parent[t] = ranks_down[reduced]
        var[t] = j
    parent.setflags(write=False)
    var.setflags(write=False)
    return parent, var


def monomial_basis(nvars: int, degree: int) -> list[Monomial]:
    """The degree-d monomials in nvars variables, descending graded-lex."""
    return [Monomial(m) for m in slice_monomials(nvars, degree)]


def slice_dimension(nvars: int, degree: int) -> int:
    return comb(nvars + degree - 1, degree)


def slice_limit() -> int:
    """Slice-dimension guard; INVRED_SLICE_LIMIT overrides the default."""
    raw = os.environ.get("INVRED_SLICE_LIMIT", "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError as exc:
            raise DomainError(f"INVRED_SLICE_LIMIT={raw!r} is not an integer") from exc
        if value < 1:
            raise DomainError("INVRED_SLICE_LIMIT must be positive")
        return value
    return DEFAULT_SLICE_LIMIT


def check_slice_limit(nvars: int, degree: int) -> None:
    """Raise SliceLimitError if the degree-d slice is over the limit; slice_levels,
    slice_images and Polynomial.substitute run it before their slice-sized work."""
    dim, limit = slice_dimension(nvars, degree), slice_limit()
    if dim > limit:
        raise SliceLimitError(f"slice dimension {dim} at degree {degree} exceeds limit {limit}")


def slice_levels(subst: np.ndarray, p: Prime) -> Iterator[_kernels.CSR]:
    """Slice images of degree 1, 2, ..., in compressed sparse rows: row t of
    the degree-d item holds the coordinates of the image of the t-th degree-d
    monomial.

    ``subst`` is the substitution matrix (row i = image of x_i). A monomial
    is a parent monomial times one variable, so its image is the parent
    image times one substituted variable: each level is built from the last.
    """
    _kernels.check_modulus(p)
    n = subst.shape[0]
    level = _kernels.CSR.identity(1)
    for k in itertools.count(1):
        check_slice_limit(n, k)
        parent_rank, parent_var = parent_table(n, k)
        promote = promote_table(n, k - 1)
        level = _kernels.next_slice_level(level, parent_rank, parent_var, promote, subst, p)
        yield level


def slice_images(subst: np.ndarray, degree: int, p: Prime) -> _kernels.CSR:
    """The degree-th item of ``slice_levels``; degree 0 gives the 1x1 identity."""
    check_slice_limit(subst.shape[0], degree)
    level = _kernels.CSR.identity(1)
    for level in itertools.islice(slice_levels(subst, p), degree):
        pass
    return level


# Every monomial key that substitute and * return, stored once: equal
# monomials in different results are the same tuple object. The table only
# grows, by one tuple per distinct monomial; dict.setdefault is one atomic
# step, so threads interning the same monomial get the same tuple.
_MONOMIALS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _mul_into(acc: dict, a: Mapping, b: Mapping, cap: int | None = None) -> None:
    """Add the product of the term dicts a and b into acc, coefficients unreduced.

    With ``cap``, a product whose degree outside x0 exceeds cap is skipped;
    that degree only grows along a product, so no kept term depends on it.
    """
    get = acc.get
    if cap is None:
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(map(add, ka, kb))
                acc[k] = get(k, 0) + va * vb
        return
    rest_b = [(kb, vb, sum(kb) - kb[0]) for kb, vb in b.items()]
    for ka, va in a.items():
        room = cap - sum(ka) + ka[0]
        for kb, vb, rb in rest_b:
            if rb <= room:
                k = tuple(map(add, ka, kb))
                acc[k] = get(k, 0) + va * vb


def _reduced(acc: dict, p: int) -> dict:
    return {k: r for k, v in acc.items() if (r := v % p)}


def _interned(acc: dict, p: int) -> dict:
    """The reduced terms of acc, keyed by the shared monomial tuples."""
    intern = _MONOMIALS.setdefault
    return {intern(k, k): r for k, v in acc.items() if (r := v % p)}


def _power(cache: list, e: int, p: int, cap: int | None) -> dict:
    """The e-th power of one image; ``cache`` = [1, image, image^2, ...]
    grows by one product per missing power. A one-term image c*m gives
    c^e * m^e at once, or nothing when its degree outside x0 exceeds cap."""
    if len(cache[1]) == 1:
        ((m, c),) = cache[1].items()
        if cap is not None and e * (sum(m) - m[0]) > cap:
            return {}
        return {tuple(e * k for k in m): pow(c, e, p)}
    while len(cache) <= e:
        acc: dict = {}
        _mul_into(acc, cache[-1], cache[1], cap)
        cache.append(_reduced(acc, p))
    return cache[e]


def _expand(items: list, i: int, powers: list, p: int, cap: int | None) -> dict:
    """Unreduced terms of sum c * prod_(j >= i) image_j^(e_j) over the
    (e, c) in ``items``: split by e_i, expand each part in the later images,
    then multiply it by one power of image_i. The part with e_i = 0 is its
    own expansion, already within ``cap``, and starts the sum as it is."""
    if i == len(powers) - 1:
        acc: dict = {}
        get = acc.get
        for exps, c in items:
            for k, v in _power(powers[i], exps[i], p, cap).items():
                acc[k] = get(k, 0) + c * v
        return acc
    parts: dict[int, list] = {}
    for item in items:
        parts.setdefault(item[0][i], []).append(item)
    free = parts.pop(0, None)
    acc = {} if free is None else _expand(free, i + 1, powers, p, cap)
    for e, part in parts.items():
        inner = _reduced(_expand(part, i + 1, powers, p, cap), p)
        _mul_into(acc, _power(powers[i], e, p, cap), inner, cap)
    return acc


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[tuple[tuple[int, ...], ...], Mapping]:
    """The unit exponent tuples in n variables and the read-only term map
    of 1, shared by every substitution in n variables."""
    zero = (0,) * n
    return tuple(zero[:j] + (1,) + zero[j + 1 :] for j in range(n)), MappingProxyType({zero: 1})


def _substitute_terms(terms: Mapping, rows: list, p: int, cap: int | None) -> dict:
    """Unreduced terms of f(M x), f given by ``terms`` and M by its rows;
    ``cap`` prunes as in ``_mul_into``, here from the images on: at cap 0
    an image keeps only its x0 term."""
    units, one = _units(len(rows))
    width = len(rows) if cap is None or cap > 0 else 1
    powers = [[one, {units[j]: c for j, c in enumerate(row[:width]) if c}] for row in rows]
    return _expand(list(terms.items()), 0, powers, p, cap)


class Polynomial:
    """Sparse polynomial over GF(p); ``terms`` maps exponent tuples to residues.

    Instances are treated as immutable; all operations return new objects.
    Zero coefficients are never stored. The results of ``substitute`` and
    ``*`` take their monomial keys from one table, so an equal monomial is
    the same tuple object in all of them.
    """

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        p = Prime(p)
        if nvars < 1:
            raise DomainError("need at least one variable")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            exps = _exponents(exps)
            if len(exps) != nvars:
                raise ShapeMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            r = as_residue(c, p)
            if r:
                clean[exps] = r
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p, nvars: int) -> "Polynomial":
        return cls(p, nvars)

    @classmethod
    def constant(cls, p, nvars: int, c) -> "Polynomial":
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, p, nvars: int) -> "Polynomial":
        return cls.constant(p, nvars, 1)

    @classmethod
    def variable(cls, p, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise DomainError(f"variable index {i} outside 0..{nvars - 1}")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(p, nvars, {exps: 1})

    @classmethod
    def monomial(cls, p, nvars: int, exponents: Sequence[int], c=1) -> "Polynomial":
        return cls(p, nvars, {tuple(exponents): c})

    @classmethod
    def from_terms(
        cls, p, nvars: int, terms: Iterable[tuple[Sequence[int], int]]
    ) -> "Polynomial":
        acc: dict[tuple[int, ...], int] = {}
        p = Prime(p)
        for exps, c in terms:
            key = _exponents(exps)
            acc[key] = (acc.get(key, 0) + as_residue(c, p)) % p
        return cls(p, nvars, acc)

    # ---- ring structure ------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.p != other.p or self.nvars != other.nvars:
            raise ShapeMismatchError(
                f"incompatible polynomials: GF({self.p}) in {self.nvars} vars "
                f"vs GF({other.p}) in {other.nvars} vars"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            r = (out.get(exps, 0) + c) % p
            if r:
                out[exps] = r
            else:
                out.pop(exps, None)
        return self._wrap(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        p = self.p
        return self._wrap({e: p - c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        acc: dict[tuple[int, ...], int] = {}
        _mul_into(acc, self.terms, other.terms)
        return self._wrap(_interned(acc, self.p))

    def __rmul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.one(self.p, self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        r = as_residue(c, self.p)
        if r == 0:
            return Polynomial.zero(self.p, self.nvars)
        p = self.p
        return self._wrap({e: cc * r % p for e, cc in self.terms.items()})

    def _wrap(self, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        # internal: terms already reduced, keys already valid
        obj = object.__new__(Polynomial)
        object.__setattr__(obj, "p", self.p)
        object.__setattr__(obj, "nvars", self.nvars)
        object.__setattr__(obj, "terms", terms)
        return obj

    # ---- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.p == other.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_monomial(self) -> Monomial:
        """Largest monomial in the support (graded-lex)."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading monomial")
        return Monomial(max(self.terms, key=lambda e: (sum(e), e)))

    def coefficient(self, exponents: Sequence[int]) -> FieldElement:
        return FieldElement(self.terms.get(tuple(exponents), 0), self.p)

    # ---- evaluation and substitution --------------------------------------

    def evaluate(self, point: Sequence) -> FieldElement:
        """Value at a point of GF(p)^nvars."""
        if len(point) != self.nvars:
            raise ShapeMismatchError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        p = self.p
        vals = [as_residue(v, p) for v in point]
        total = 0
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(vals, exps):
                if e:
                    t = t * pow(v, e, p) % p
                    if t == 0:
                        break
            total = (total + t) % p
        return FieldElement(total, p)

    def substitute(self, matrix, *, max_rest_degree: int | None = None) -> "Polynomial":
        """Linear change of variables: x_i is replaced by sum_j M[i][j]*x_j.

        Row i of the matrix is the image of x_i. Composing substitutions
        multiplies the matrices: f.substitute(M).substitute(N) equals
        f.substitute(M @ N mod p), and evaluating satisfies
        f.substitute(M).evaluate(v) == f.evaluate(M @ v mod p).

        With ``max_rest_degree`` = k only the terms of degree at most k in
        x1..x_(n-1) are computed; every partial product above k is pruned.
        A negative k raises DomainError. The matrix is read by
        ``gfp.as_residues``: a ``MatrixGFp`` over another field raises
        ShapeMismatchError.
        """
        p = self.p
        n = self.nvars
        m = as_residues(matrix, p)
        if m.shape != (n, n):
            raise ShapeMismatchError(
                f"substitution matrix has shape {m.shape}, expected {(n, n)}"
            )
        if max_rest_degree is not None and max_rest_degree < 0:
            raise DomainError("max_rest_degree must be nonnegative")
        check_slice_limit(n, self.degree() or 0)
        acc = _substitute_terms(self.terms, m.tolist(), int(p), max_rest_degree)
        return self._wrap(_interned(acc, p))

    def coordinates(self, degree: int) -> np.ndarray:
        """Coefficient vector over the descending graded-lex slice basis."""
        if any(sum(e) != degree for e in self.terms):
            raise DomainError(f"polynomial is not homogeneous of degree {degree}")
        ranks = slice_ranks(self.nvars, degree)
        vec = np.zeros(len(ranks), dtype=np.int64)
        for exps, c in self.terms.items():
            vec[ranks[exps]] = c
        return vec

    @classmethod
    def from_coordinates(cls, p, nvars: int, degree: int, vec) -> "Polynomial":
        mons = slice_monomials(nvars, degree)
        if len(vec) != len(mons):
            raise ShapeMismatchError(
                f"coordinate vector has length {len(vec)}, expected {len(mons)}"
            )
        return cls(p, nvars, {mons[i]: int(v) for i, v in enumerate(vec) if v})

    # ---- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            mon = str(Monomial(exps))
            if mon == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            else:
                parts.append(f"{c}*{mon}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(GF({self.p}), {self.nvars} vars, {self})"
