"""Dense exact linear algebra over GF(p): the package's hot loops.

Every kernel exists twice: as plain loops compiled with numba's @njit, and as
a vectorized pure-numpy fallback. The INVRED_BACKEND environment variable
picks the implementation at import time:

    auto   (default) use numba when importable, else numpy
    numba  require numba, fail loudly if missing
    numpy  force the pure-numpy path

All arrays are int64 with entries reduced mod p. The numpy paths chunk or
bound intermediate products so nothing overflows int64; the numba paths
reduce as they go. ``benchmarks/bench_kernels.py`` compares the two.

The numpy elimination and slice-level kernels touch only nonzero support:
an RREF pivot updates the other rows on the pivot row's nonzero columns, and
a slice level scatters, for each variable x_u, only the rows whose parent
variable's image involves x_u. The slice systems of the family groups are
well under 1% nonzero; on dense input the support is the whole rest of the
row, so the work is what a dense update does.
"""

from __future__ import annotations

import os

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
# at most n per next_level entry for any n whose n x n matrix fits in memory).
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

    @njit(cache=True)
    def _next_level_nb(prev, parent_rank, parent_var, promote, subst, p):
        # prev[s] = image coordinates of the s-th monomial one degree down;
        # out[t] = image of the t-th current-degree monomial, obtained by
        # multiplying the parent image by one substituted variable.
        nt = parent_rank.shape[0]
        ns = prev.shape[1]
        n = subst.shape[0]
        out = np.zeros((nt, nt), dtype=np.int64)
        for t in range(nt):
            pr = parent_rank[t]
            j = parent_var[t]
            for s in range(ns):
                c = prev[pr, s]
                if c != 0:
                    for u in range(n):
                        w = subst[j, u]
                        if w != 0:
                            col = promote[s, u]
                            out[t, col] = (out[t, col] + c * w) % p
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


def _next_level_numpy(prev, parent_rank, parent_var, promote, subst, p):
    nt = parent_rank.shape[0]
    n = subst.shape[0]
    out = np.zeros((nt, nt), dtype=np.int64)
    flat = out.reshape(-1)
    for u in range(n):
        # only the rows whose parent variable's image involves x_u contribute
        weights = subst[parent_var, u]
        rows = np.nonzero(weights)[0]
        if not rows.size:
            continue
        # multiplying by x_u is injective on monomials, so the target columns
        # promote[:, u] are distinct and fancy-index accumulation is exact
        terms = prev[parent_rank[rows]]
        terms *= weights[rows, None]
        flat[(rows * nt)[:, None] + promote[:, u]] += terms
    return np.remainder(out, p, out=out)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

IMPLEMENTATIONS: dict[str, dict] = {
    "numpy": {
        "rref": _rref_numpy,
        "matmul": _matmul_numpy,
        "next_level": _next_level_numpy,
    }
}
if _HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = {
        "rref": _rref_nb,
        "matmul": _matmul_nb,
        "next_level": _next_level_nb,
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


def next_slice_level(prev, parent_rank, parent_var, promote, subst, p: int,
                     impl: dict | None = None) -> np.ndarray:
    """Extend monomial images by one degree under a linear substitution."""
    impl = impl or _ACTIVE
    return impl["next_level"](
        np.ascontiguousarray(prev, dtype=np.int64),
        np.ascontiguousarray(parent_rank, dtype=np.int64),
        np.ascontiguousarray(parent_var, dtype=np.int64),
        np.ascontiguousarray(promote, dtype=np.int64),
        np.ascontiguousarray(subst, dtype=np.int64),
        p,
    )
