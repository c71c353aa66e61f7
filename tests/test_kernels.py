import importlib.util
import os
import random
from itertools import product

import numpy as np
import pytest

import support
from invred import (
    GroupSpec,
    MatrixGFp,
    Polynomial,
    Prime,
    _kernels,
    example_action,
    fixed_space,
    induced_slice_matrix,
)
from invred.invariants import _invariant_rows, slice_images
from invred.poly import slice_monomials

IMPLS = sorted(_kernels.IMPLEMENTATIONS)
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")


def random_array(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


@pytest.fixture(params=IMPLS)
def impl(request):
    return _kernels.IMPLEMENTATIONS[request.param]


def test_both_backends_present():
    # numpy kernels always exist; numba kernels exactly when numba is installed
    assert "numpy" in _kernels.IMPLEMENTATIONS
    assert ("numba" in _kernels.IMPLEMENTATIONS) == HAVE_NUMBA
    # the active backend is the one the INVRED_BACKEND rule picks
    choice = os.environ.get("INVRED_BACKEND", "auto").strip().lower()
    auto = "numba" if HAVE_NUMBA else "numpy"
    expected = {"": auto, "auto": auto, "numba": "numba", "numpy": "numpy"}[choice]
    assert _kernels.backend() == expected


def test_rref_structure(impl):
    rng = random.Random(23)
    for p in (2, 3, 5, 31):
        for _ in range(8):
            a = random_array(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
            r, piv = _kernels.rref_mod(a, p, impl)
            rank = len(piv)
            assert sorted(piv.tolist()) == piv.tolist()
            for row, col in enumerate(piv):
                column = r[:, col]
                assert column[row] == 1 and np.count_nonzero(column) == 1
            # idempotent
            r2, piv2 = _kernels.rref_mod(r, p, impl)
            assert np.array_equal(r, r2) and np.array_equal(piv, piv2)
            assert np.all(r[rank:] == 0)


def test_nullspace_bruteforce_oracle(impl):
    rng = random.Random(29)
    for p in (2, 3):
        for _ in range(6):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
            a = random_array(rng, rows, cols, p)
            basis = _kernels.nullspace_mod(a, p, impl)
            # every basis vector solves the system
            for b in basis:
                assert not ((a @ b) % p).any()
            # basis is independent
            _, piv = _kernels.rref_mod(basis, p, impl) if len(basis) else (None, [])
            assert len(piv) == len(basis)
            # solution count matches p^k by brute enumeration
            count = sum(
                1
                for x in product(range(p), repeat=cols)
                if not ((a @ np.asarray(x, dtype=np.int64)) % p).any()
            )
            assert count == p ** len(basis)


def test_public_kernels_leave_their_input_unchanged(impl):
    # already int64, C-ordered and reduced, which a shortcut that skipped the
    # copy would accept as is; and far from its own RREF
    p = 3
    a = np.array([[0, 2, 1, 1], [2, 1, 0, 2], [1, 0, 2, 0], [2, 2, 2, 1]], dtype=np.int64)
    assert a.flags.c_contiguous and a.dtype == np.int64 and (a < p).all()
    before = a.copy()
    rref, piv = _kernels.rref_mod(a, p, impl)
    assert not np.array_equal(rref, a)
    assert np.array_equal(a, before)
    assert len(_kernels.nullspace_mod(a, p, impl)) == 4 - len(piv) == 2
    assert np.array_equal(a, before)
    # fixed_space eliminates the stacked (g - I) blocks of this unipotent
    # generator, whose fixed space is spanned by the last basis vector
    g = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int64)
    spec = GroupSpec(Prime(p), 3, (MatrixGFp(g, p),))
    entries = spec.generators[0].entries.copy()
    assert [row.tolist() for row in fixed_space(spec)] == [[0, 0, 1]]
    assert np.array_equal(spec.generators[0].entries, entries)
    assert np.array_equal(g, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])


def test_matmul_oracle(impl):
    rng = random.Random(31)
    for p in (2, 3, 5, 31):
        a = random_array(rng, 4, 6, p)
        b = random_array(rng, 6, 3, p)
        assert np.array_equal(_kernels.matmul_mod(a, b, p, impl), (a @ b) % p)


def test_matmul_shape_error(impl):
    with pytest.raises(ValueError):
        _kernels.matmul_mod(np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64), 5, impl)


def test_numpy_matmul_chunking_path():
    # force the chunked accumulation branch with an artificially tight budget
    rng = random.Random(37)
    p = 31
    a = random_array(rng, 3, 50, p)
    b = random_array(rng, 50, 4, p)
    saved = _kernels._INT64_SAFE
    try:
        _kernels._INT64_SAFE = (p - 1) ** 2 * 7  # 7 columns per chunk
        out = _kernels._matmul_numpy(a, b, p)
    finally:
        _kernels._INT64_SAFE = saved
    assert np.array_equal(out, (a @ b) % p)


def sympy_rref(a, p):
    """RREF, pivots and nullspace of ``a`` over GF(p), computed by sympy."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)
    m = DomainMatrix([[field(int(x)) for x in row] for row in a], a.shape, field)
    r, piv = m.rref()

    def ints(dm):
        return np.array([[int(x) for x in row] for row in dm.to_list()], dtype=np.int64)

    null = ints(m.nullspace(divide_last=True)).reshape(-1, a.shape[1])
    return ints(r).reshape(a.shape), list(piv), null


def assert_matches_sympy(a, p, impl):
    """Check rref_mod and nullspace_mod against sympy; return the nullspace."""
    r, piv, null = sympy_rref(a, p)
    got, got_piv = _kernels.rref_mod(a, p, impl)
    assert np.array_equal(got, r)
    assert got_piv.tolist() == piv
    assert np.array_equal(_kernels.nullspace_mod(a, p, impl), null)
    return null


def test_rref_matches_sympy_on_sparse_systems(impl):
    # sparse rows: a pivot row's support is mostly far smaller than the row
    rng = random.Random(53)
    for p in (2, 3, 5):
        for _ in range(6):
            rows, cols = rng.randrange(2, 40), rng.randrange(2, 40)
            a = np.array(
                [[rng.randrange(1, p) if rng.random() < 0.05 else 0 for _ in range(cols)]
                 for _ in range(rows)],
                dtype=np.int64,
            )
            a[rng.randrange(rows)] = 0
            a[:, rng.randrange(cols)] = 0
            assert_matches_sympy(a, p, impl)
    # the stacked (action - identity) system of a family group at a degree
    # with invariants, so it is rank deficient
    spec, degree = example_action(3, 2, 1), 4
    p = spec.p
    system = np.vstack([
        (induced_slice_matrix(g, degree).entries - np.eye(35, dtype=np.int64)) % p
        for g in spec.generators
    ])
    rows = _invariant_rows([slice_images(g.inv().entries, degree, p) for g in spec.generators], p)
    assert system.shape == (70, 35) and 0 < len(rows) < 35
    assert np.count_nonzero(system) < system.size // 4
    assert np.array_equal(rows, assert_matches_sympy(system, p, impl))


@needs_numba
def test_backends_agree():
    rng = random.Random(41)
    impls = [_kernels.IMPLEMENTATIONS[name] for name in ("numpy", "numba")]
    for p in (2, 3, 5):
        a = random_array(rng, 7, 5, p)
        b = random_array(rng, 5, 6, p)
        results = [
            (
                _kernels.rref_mod(a, p, im),
                _kernels.nullspace_mod(a, p, im),
                _kernels.matmul_mod(a, b, p, im),
            )
            for im in impls
        ]
        (r0, piv0), ns0, mm0 = results[0]
        for (r, piv), ns, mm in results[1:]:
            assert np.array_equal(r0, r)
            assert np.array_equal(piv0, piv)
            assert np.array_equal(ns0, ns)
            assert np.array_equal(mm0, mm)


def assert_canonical(level):
    # columns ascend strictly within each row (sorted, no duplicates) and no
    # zero is stored
    assert level.indptr[0] == 0 and np.all(np.diff(level.indptr) >= 0)
    assert level.indptr[-1] == len(level.cols) == len(level.vals)
    same_row = np.diff(level.row_ids()) == 0
    assert np.all(np.diff(level.cols)[same_row] > 0)
    assert np.all((level.cols >= 0) & (level.cols < level.dim))
    assert np.all(level.vals != 0)


def slice_images_checked(subst, degree, p):
    from invred.poly import parent_table, promote_table

    n = subst.shape[0]
    level = _kernels.CSR.identity(1)
    for k in range(1, degree + 1):
        parent_rank, parent_var = parent_table(n, k)
        level = _kernels.next_slice_level(
            level, parent_rank, parent_var, promote_table(n, k - 1), subst, p
        )
        assert level.dim == len(parent_rank)
        assert_canonical(level)
        assert np.all((level.vals > 0) & (level.vals < p))
    return level


def test_next_level_matches_sparse_substitution():
    # CSR recursion vs the independent sparse-polynomial route
    rng = random.Random(43)
    cases = []
    for p in (2, 3, 5):
        for _ in range(4):
            n = rng.randrange(2, 4)
            d = rng.randrange(1, 5)
            cases.append((p, d, random_array(rng, n, n, p)))
    # sparse substitutions: unipotent, a permutation, and one with a zero
    # column, for which no row contributes to x_1
    for p in (2, 3, 5):
        cases.append((p, 4, support.random_unipotent(rng, p, 3).entries))
    cases.append((3, 4, np.eye(4, dtype=np.int64)[[2, 0, 3, 1]]))
    cases.append((5, 4, np.array([[1, 0, 2], [3, 0, 4], [0, 0, 1]], dtype=np.int64)))
    # the largest accepted prime, every weight p - 1: each merged entry sums
    # up to n products near p^2, which must not overflow before reduction
    big = _kernels.MAX_PRIME
    cases.append((big, 5, np.full((3, 3), big - 1, dtype=np.int64)))
    cases.append((big, 3, random_array(rng, 4, 4, big)))
    for p, d, subst in cases:
        n = subst.shape[0]
        images = slice_images_checked(subst, d, p).dense()
        for t, exps in enumerate(slice_monomials(n, d)):
            mono = Polynomial.monomial(p, n, exps)
            expected = mono.substitute(subst)
            got = Polynomial.from_coordinates(p, n, d, images[t])
            assert got == expected
