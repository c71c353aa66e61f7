"""Exact arithmetic in the prime field GF(p) and modular binomial combinatorics.

Every value enters GF(p) by one rule, ``as_residue`` (``as_residues`` for
arrays): an integral c is read as c mod p (2.0 passes, 1.5 does not), a GF(p)
element as its residue, and one over another field raises "mixed moduli".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatchError

__all__ = [
    "Prime",
    "FieldElement",
    "as_residue",
    "as_residues",
    "lucas_binomial",
    "lucas_factors",
    "binomial_congruence_holds",
]


# Miller-Rabin with the first 13 prime bases is exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster; OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_EXACT_BELOW."""
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A positive integer verified prime at construction.

    Downstream code can assume field axioms for arithmetic mod a ``Prime``
    without re-checking. The test is deterministic Miller-Rabin, exact below
    3.3e24; larger values are refused rather than guessed at.
    """

    def __new__(cls, value) -> "Prime":
        if isinstance(value, Prime):
            return value
        v = int(value)
        if v != value:
            raise DomainError(f"prime modulus must be an integer, got {value!r}")
        if v >= _MR_EXACT_BELOW:
            raise DomainError(f"{v} is too large to test for primality exactly")
        if v < 2 or not _is_prime(v):
            raise DomainError(f"{v} is not prime")
        return super().__new__(cls, v)


@dataclass(frozen=True)
class FieldElement:
    """A residue mod a prime p. All arithmetic is exact and closed.

    Values are read by ``as_residue`` at construction, so
    ``FieldElement(-1, Prime(5))`` is the residue 4.
    """

    residue: int
    p: Prime

    def __post_init__(self):
        p = Prime(self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "residue", as_residue(self.residue, p))

    def _op(self, other, f):
        """FieldElement(f(a, b)), a this residue and b the residue of an int or
        GF(p) element; NotImplemented for any other operand."""
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        return FieldElement(f(self.residue, as_residue(other, self.p)), self.p)

    def __add__(self, other):
        return self._op(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._op(other, operator.sub)

    def __rsub__(self, other):
        return self._op(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._op(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.residue, self.p)

    def __truediv__(self, other):
        return self._op(other, lambda a, b: a * FieldElement(b, self.p).inverse().residue)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(pow(self.residue, e, self.p), self.p)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __int__(self) -> int:
        return self.residue

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.residue == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return FieldElement(pow(self.residue, self.p - 2, self.p), self.p)

    def __repr__(self) -> str:
        return f"{self.residue} (mod {self.p})"


def as_residue(c, p: Prime) -> int:
    """c mod p for an integral c or a GF(p) element; a FieldElement over
    another field raises ShapeMismatchError, a non-integral c DomainError."""
    if isinstance(c, FieldElement):
        if c.p != p:
            raise ShapeMismatchError(f"mixed moduli: GF({p}) and GF({c.p})")
        return c.residue
    v = int(c)
    if v != c:
        raise DomainError(f"expected an integer or a GF({p}) element, got {c!r}")
    return v % p


def as_residues(values, p: Prime) -> np.ndarray:
    """``as_residue`` on every entry: int64 residues (ints for p >= 2^63). A MatrixGFp
    gives its entries, or raises ShapeMismatchError if over another field; signed
    ints are reduced in one numpy operation, anything else entry by entry."""
    if hasattr(values, "p"):
        if values.p != p:
            raise ShapeMismatchError(f"mixed moduli: GF({p}) and GF({values.p})")
        return values.entries
    dtype = np.int64 if p < 2**63 else object
    arr = np.asarray(values)
    if arr.dtype.kind == "i":
        return np.remainder(arr, p, dtype=dtype)
    if not isinstance(values, np.ndarray):
        arr = np.array(values, dtype=object)  # numpy reads ints past int64 as uint64 or float
    return np.array([as_residue(c, p) for c in arr.flat], dtype=dtype).reshape(arr.shape)


def lucas_factors(a: int, b: int, p) -> list[tuple[int, int, int]]:
    """Digit-wise factorization of C(a, b) mod p.

    Returns ``[(a_i, b_i, C(a_i, b_i) mod p), ...]`` over the base-p digits of
    a and b, least significant first. The product of the last entries is
    C(a, b) mod p. Working digit-wise keeps huge arguments cheap and exact.
    """
    p = Prime(p)
    if a < 0 or b < 0:
        raise DomainError("binomial arguments must be nonnegative")
    factors = []
    while a or b:
        ai, bi = a % p, b % p
        factors.append((ai, bi, math.comb(ai, bi) % p))
        a //= p
        b //= p
    return factors


def lucas_binomial(a: int, b: int, p) -> FieldElement:
    """C(a, b) mod p via base-p digits. b > a gives 0, C(a, 0) is 1."""
    p = Prime(p)
    result = 1
    for _, _, f in lucas_factors(a, b, p):
        result = result * f % p
        if result == 0:
            break
    return FieldElement(result, p)


def binomial_congruence_holds(p, r: int, d: int, k: int, j: int) -> bool:
    """Check C(p^r*d - k, j) == C(p^r - k, j) mod p.

    The identity holds for every d >= 1, 1 <= k <= p^r and 0 <= j <= p^r - k:
    subtracting k borrows only through the low r base-p digits, which p^r*d - k
    and p^r - k share. Exposed as a self-check; a False return would mean a
    broken binomial implementation.
    """
    p = Prime(p)
    if r < 0:
        raise DomainError("r must be nonnegative")
    if d < 1:
        raise DomainError("d must be positive")
    q = p**r
    if not 1 <= k <= q:
        raise DomainError(f"k={k} outside 1..p^r={q}")
    if not 0 <= j <= q - k:
        raise DomainError(f"j={j} outside 0..p^r-k={q - k}")
    return lucas_binomial(q * d - k, j, p) == lucas_binomial(q - k, j, p)
