"""Exact linear algebra over GF(p): the package's hot loops.

The elimination and matrix-product kernels exist twice: as plain loops
compiled with numba's @njit, and as a vectorized pure-numpy fallback. The
INVRED_BACKEND environment variable picks the implementation at import time:

    auto   (default) use numba when importable, else numpy
    numba  require numba, fail loudly if missing
    numpy  force the pure-numpy path

The slice-level kernel, ``next_slice_level``, exists once, in numpy, and
works on compressed sparse rows (``CSR``): each level is built by gathering
the parent rows' entries, scaling and scattering them, and merging duplicate
entries with one sort. The family groups' levels are under 1% nonzero.

All arrays are int64 with entries reduced mod p. The numpy paths chunk or
bound intermediate products so nothing overflows int64; the numba paths
reduce as they go. ``benchmarks/bench_kernels.py`` compares the two.

The numpy elimination touches only nonzero support: an RREF pivot updates
the other rows on the pivot row's nonzero columns. On dense input the
support is the whole rest of the row, so the work is what a dense update
does.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False

_INT64_SAFE = 2**62

# Largest accepted modulus, the largest prime below 2^20: then a product of
# residues is below 2^40, so every unreduced int64 sum stays below 2^63 (one
# product per rref outer-product entry, 2^62 / (p-1)^2 per matmul chunk, and
# at most n per merged next_slice_level entry for any n that fits in memory).
MAX_PRIME = 1_048_573


# ---------------------------------------------------------------------------
# numba loop kernels
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def _inv_mod_nb(a, p):
        # Fermat inverse, a nonzero mod p prime
        result = 1
        base = a % p
        e = p - 2
        while e > 0:
            if e & 1:
                result = result * base % p
            base = base * base % p
            e >>= 1
        return result

    @njit(cache=True)
    def _rref_nb(a, p):
        # in-place reduced row echelon form; returns (rank, pivot columns)
        rows, cols = a.shape
        piv = np.empty(min(rows, cols), dtype=np.int64)
        r = 0
        for c in range(cols):
            pr = -1
            for i in range(r, rows):
                if a[i, c] != 0:
                    pr = i
                    break
            if pr == -1:
                continue
            if pr != r:
                for j in range(cols):
                    tmp = a[r, j]
                    a[r, j] = a[pr, j]
                    a[pr, j] = tmp
            inv = _inv_mod_nb(a[r, c], p)
            for j in range(c, cols):
                a[r, j] = a[r, j] * inv % p
            for i in range(rows):
                if i != r and a[i, c] != 0:
                    f = a[i, c]
                    for j in range(c, cols):
                        a[i, j] = (a[i, j] - f * a[r, j]) % p
            piv[r] = c
            r += 1
            if r == rows:
                break
        return r, piv[:r]

    @njit(cache=True)
    def _matmul_nb(a, b, p):
        n, k = a.shape
        m = b.shape[1]
        out = np.zeros((n, m), dtype=np.int64)
        # delay reduction: entries stay below p^2 per addend, so a block of
        # `step` addends cannot overflow int64
        step = max(1, _INT64_SAFE // ((p - 1) * (p - 1) + 1))
        for i in range(n):
            for t0 in range(0, k, step):
                t1 = min(k, t0 + step)
                for t in range(t0, t1):
                    v = a[i, t]
                    if v != 0:
                        for j in range(m):
                            out[i, j] += v * b[t, j]
                for j in range(m):
                    out[i, j] %= p
        return out


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _rref_numpy(a, p):
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
    return r, np.asarray(piv, dtype=np.int64)


def _matmul_numpy(a, b, p):
    k = a.shape[1]
    step = max(1, _INT64_SAFE // max(1, (p - 1) ** 2))
    if k <= step:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, k, step):
        out = (out + a[:, s : s + step] @ b[s : s + step]) % p
    return out


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

IMPLEMENTATIONS: dict[str, dict] = {
    "numpy": {
        "rref": _rref_numpy,
        "matmul": _matmul_numpy,
    }
}
if _HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = {
        "rref": _rref_nb,
        "matmul": _matmul_nb,
    }


def _select_backend() -> str:
    choice = os.environ.get("INVRED_BACKEND", "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if "numba" in IMPLEMENTATIONS else "numpy"
    if choice not in ("numba", "numpy"):
        raise RuntimeError(
            f"INVRED_BACKEND={choice!r} not understood (use auto, numba or numpy)"
        )
    if choice not in IMPLEMENTATIONS:
        raise RuntimeError("INVRED_BACKEND=numba but numba is not importable")
    return choice


BACKEND = _select_backend()
_ACTIVE = IMPLEMENTATIONS[BACKEND]


def backend() -> str:
    """Name of the active kernel implementation ('numba' or 'numpy')."""
    return BACKEND


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _prep(a, p: int) -> np.ndarray:
    """A C-ordered int64 copy of ``a``, reduced mod p in place."""
    arr = np.array(a, dtype=np.int64, order="C")
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    return np.remainder(arr, p, out=arr)


def rref_mod(a, p: int, impl: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of a copy of ``a`` over GF(p).

    Returns (rref matrix, pivot column indices).
    """
    impl = impl or _ACTIVE
    m = _prep(a, p)
    rank, piv = impl["rref"](m, p)
    return m, np.asarray(piv[:rank])


def nullspace_mod(a, p: int, impl: dict | None = None) -> np.ndarray:
    """Basis of the right nullspace of ``a`` over GF(p), one vector per row.

    Deterministic: the standard free-column construction on the RREF, free
    columns in increasing order. Returns a (k, ncols) array, possibly k = 0.
    ``a`` itself is left unchanged.
    """
    return _nullspace_in_place(_prep(a, p), p, impl)


def _nullspace_in_place(m: np.ndarray, p: int, impl: dict | None = None) -> np.ndarray:
    """``nullspace_mod`` of a C-ordered int64 matrix of residues that the
    caller gives up: ``m`` is overwritten by its RREF instead of copied."""
    impl = impl or _ACTIVE
    rank, piv = impl["rref"](m, p)
    piv = np.asarray(piv[:rank])
    free = np.setdiff1d(np.arange(m.shape[1]), piv)
    basis = np.zeros((len(free), m.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = -m[: len(piv), free].T % p
    return basis


def matmul_mod(a, b, p: int, impl: dict | None = None) -> np.ndarray:
    """Exact matrix product mod p."""
    impl = impl or _ACTIVE
    am, bm = _prep(a, p), _prep(b, p)
    if am.shape[1] != bm.shape[0]:
        raise ValueError(f"shape mismatch {am.shape} @ {bm.shape}")
    return impl["matmul"](am, bm, p)


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
    nt = len(parent_rank)
    keys, prods = [], []
    for u in range(subst.shape[1]):
        # only the rows whose parent variable's image involves x_u contribute:
        # gather their parent rows' entries, scale, and move each column s to
        # promote[s, u]
        weights = subst[parent_var, u]
        rows = np.flatnonzero(weights)
        starts = prev.indptr[parent_rank[rows]]
        lens = prev.indptr[parent_rank[rows] + 1] - starts
        src = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        keys.append(np.repeat(rows * nt, lens) + promote[:, u][prev.cols[src]])
        prods.append(prev.vals[src] * np.repeat(weights[rows], lens))
    # multiplying by x_u keeps the monomial order, so each u's keys ascend and
    # a stable sort merges n runs; for each u the targets promote[:, u] are
    # distinct, so a merged entry sums at most n products below p^2
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = np.flatnonzero(first)
    vals = np.add.reduceat(np.concatenate(prods)[order], first) % p
    nonzero = vals != 0
    key, vals = key[first[nonzero]], vals[nonzero]
    indptr = np.zeros(nt + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // nt, minlength=nt), out=indptr[1:])
    return CSR(indptr, key % nt, vals)
