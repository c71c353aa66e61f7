"""Exact linear algebra over GF(p): the package's hot loops.

One implementation of each kernel, in numpy on int64 arrays whose entries
are residues mod p:

    rref_mod, nullspace_mod  Gauss-Jordan elimination; a pivot updates the
                             other rows only on the pivot row's nonzero
                             columns, so sparse systems cost what their
                             support costs, and on dense input the work is
                             what a dense update does
    matmul_mod               matrix product, accumulated in chunks
    next_slice_level         monomial-image tables of graded slices (slice
                             levels) in compressed sparse rows (``CSR``):
                             one pass over all variables gathers the parent
                             rows' entries, scales and scatters them, and one
                             sort merges duplicates; the family groups'
                             levels are under 1% nonzero

Exactness rests on ``MAX_PRIME``, the largest accepted modulus: for
p <= MAX_PRIME a product of two residues is below 2^40, and every unreduced
int64 sum the kernels form stays below 2^63 (see the comment at MAX_PRIME).
``check_modulus`` refuses larger primes where a modulus first meets numpy
(``MatrixGFp``, ``slice_levels``, ``example_action``), so no kernel is ever
handed a modulus at which a sum could wrap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError

_INT64_SAFE = 2**62

# Largest accepted modulus, the largest prime below 2^20: then a product of
# residues is below 2^40, so every unreduced int64 sum stays below 2^63 (one
# product per rref outer-product entry, 2^62 / (p-1)^2 per matmul chunk, and
# at most n per merged next_slice_level entry or per entry of the n-by-n
# products in group.enumerate_group, for any n that fits in memory).
MAX_PRIME = 1_048_573


def check_modulus(p) -> None:
    """Refuse a modulus above MAX_PRIME, where an int64 sum could wrap."""
    if int(p) > MAX_PRIME:
        raise DomainError(f"p = {p} exceeds {MAX_PRIME}, the int64 kernels' limit")


def _rref_in_place(a, p) -> np.ndarray:
    """Reduce a C-ordered int64 matrix of residues to its RREF in place;
    returns the pivot columns."""
    rows, cols = a.shape
    flat = a.reshape(-1)  # a view: every caller hands over a C-ordered int64 array
    piv = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[:, c])[0]
        k = nz.searchsorted(r)  # the pivot is the first nonzero at or below row r
        if k == nz.size:
            continue
        i = int(nz[k])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # row r is zero left of c, so only its support takes part in the
        # scaling and the updates
        support = np.nonzero(a[r])[0]
        row = a[r, support] * pow(int(a[r, c]), p - 2, p) % p
        a[r, support] = row
        # after the swap column c is nonzero in rows nz with i replaced by r
        others = nz[nz != i]
        if others.size:
            # entries < p, so the outer product stays below p^2: safe in int64;
            # block holds the flat indices of the (others, support) entries
            block = (others * cols)[:, None] + support
            flat[block] = (flat[block] - a[others, c, None] * row) % p
        piv.append(c)
        r += 1
        if r == rows:
            break
    return np.asarray(piv, dtype=np.int64)


def _prep(a, p: int) -> np.ndarray:
    """A C-ordered int64 copy of ``a``, reduced mod p in place."""
    arr = np.array(a, dtype=np.int64, order="C")
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    return np.remainder(arr, p, out=arr)


def rref_mod(a, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of a copy of ``a`` over GF(p).

    Returns (rref matrix, pivot column indices).
    """
    m = _prep(a, p)
    return m, _rref_in_place(m, p)


def nullspace_mod(a, p: int) -> np.ndarray:
    """Basis of the right nullspace of ``a`` over GF(p), one vector per row.

    Deterministic: the standard free-column construction on the RREF, free
    columns in increasing order. Returns a (k, ncols) array, possibly k = 0.
    ``a`` itself is left unchanged.
    """
    return _nullspace_in_place(_prep(a, p), p)


def _nullspace_in_place(m: np.ndarray, p: int) -> np.ndarray:
    """``nullspace_mod`` of a C-ordered int64 matrix of residues that the
    caller gives up: ``m`` is overwritten by its RREF instead of copied."""
    piv = _rref_in_place(m, p)
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = -m[: len(piv), free].T % p
    return basis


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact matrix product mod p."""
    am, bm = _prep(a, p), _prep(b, p)
    if am.shape[1] != bm.shape[0]:
        raise ValueError(f"shape mismatch {am.shape} @ {bm.shape}")
    k = am.shape[1]
    step = max(1, _INT64_SAFE // max(1, (p - 1) ** 2))
    if k <= step:
        return (am @ bm) % p
    out = np.zeros((am.shape[0], bm.shape[1]), dtype=np.int64)
    for s in range(0, k, step):
        out = (out + am[:, s : s + step] @ bm[s : s + step]) % p
    return out


class CSR(NamedTuple):
    """A square matrix over GF(p) in compressed sparse rows: row t holds
    ``vals[indptr[t]:indptr[t + 1]]`` at ``cols[indptr[t]:indptr[t + 1]]``.

    Canonical: columns ascend within each row, with no duplicates and no
    stored zeros, so equal matrices have equal arrays.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> "CSR":
        return cls(np.arange(dim + 1), np.arange(dim), np.ones(dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        out[self.row_ids(), self.cols] = self.vals
        return out


def next_slice_level(prev: CSR, parent_rank, parent_var, promote, subst, p: int) -> CSR:
    """Extend monomial images by one degree under a linear substitution.

    Row t of the result is row ``parent_rank[t]`` of ``prev`` (the image of
    the parent monomial) times the image of variable ``parent_var[t]``, row
    ``parent_var[t]`` of ``subst``; ``promote[s, u]`` is the column of
    monomial s times x_u.
    """
    nt, n = len(parent_rank), subst.shape[1]
    # every (u, t) with x_u in the image of t's parent variable, u-major: gather
    # the parent rows' entries, scale, and move each column s to promote[s, u]
    weights = subst[parent_var]
    u, rows = np.nonzero(weights.T)
    parents = parent_rank[rows]
    starts = prev.indptr[parents]
    lens = prev.indptr[parents + 1] - starts
    src = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    key = np.repeat(rows * nt, lens) + promote.reshape(-1)[prev.cols[src] * n + np.repeat(u, lens)]
    prods = prev.vals[src] * np.repeat(weights[rows, u], lens)
    # multiplying by x_u keeps the monomial order, so each u's keys ascend and
    # a stable sort merges n runs; for each u the targets promote[:, u] are
    # distinct, so a merged entry sums at most n products below p^2
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = np.flatnonzero(first)
    vals = np.add.reduceat(prods[order], first) % p
    nonzero = vals != 0
    key, vals = key[first[nonzero]], vals[nonzero]
    indptr = np.zeros(nt + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // nt, minlength=nt), out=indptr[1:])
    return CSR(indptr, key % nt, vals)
