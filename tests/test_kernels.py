import random
import runpy
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from invred import (
    DomainError,
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
from invred.poly import parent_table, promote_table, slice_levels, slice_monomials

def random_array(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def test_rref_structure():
    rng = random.Random(23)
    for p in (2, 3, 5, 31):
        for _ in range(8):
            a = random_array(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
            r, piv = _kernels.rref_mod(a, p)
            rank = len(piv)
            assert sorted(piv.tolist()) == piv.tolist()
            for row, col in enumerate(piv):
                column = r[:, col]
                assert column[row] == 1 and np.count_nonzero(column) == 1
            # idempotent
            r2, piv2 = _kernels.rref_mod(r, p)
            assert np.array_equal(r, r2) and np.array_equal(piv, piv2)
            assert np.all(r[rank:] == 0)


def test_nullspace_bruteforce_oracle():
    rng = random.Random(29)
    for p in (2, 3):
        for _ in range(6):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
            a = random_array(rng, rows, cols, p)
            basis = _kernels.nullspace_mod(a, p)
            # every basis vector solves the system
            for b in basis:
                assert not ((a @ b) % p).any()
            # basis is independent
            _, piv = _kernels.rref_mod(basis, p) if len(basis) else (None, [])
            assert len(piv) == len(basis)
            # solution count matches p^k by brute enumeration
            count = sum(
                1
                for x in product(range(p), repeat=cols)
                if not ((a @ np.asarray(x, dtype=np.int64)) % p).any()
            )
            assert count == p ** len(basis)


def test_nullspace_and_delta_leave_numpy_ma_unimported():
    # np.setdiff1d goes through np.unique, which imports numpy.ma (about
    # 1.3 MB resident) on first use; the free columns come from a mask instead
    code = (
        "import sys, invred as iv; "
        "iv.delta_over_fixed_points(iv.example_action(3, 2, 1)); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = support.run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_public_kernels_leave_their_input_unchanged():
    # already int64, C-ordered and reduced, which a shortcut that skipped the
    # copy would accept as is; and far from its own RREF
    p = 3
    a = np.array([[0, 2, 1, 1], [2, 1, 0, 2], [1, 0, 2, 0], [2, 2, 2, 1]], dtype=np.int64)
    assert a.flags.c_contiguous and a.dtype == np.int64 and (a < p).all()
    before = a.copy()
    rref, piv = _kernels.rref_mod(a, p)
    assert not np.array_equal(rref, a)
    assert np.array_equal(a, before)
    assert len(_kernels.nullspace_mod(a, p)) == 4 - len(piv) == 2
    assert np.array_equal(a, before)
    # fixed_space eliminates the stacked (g - I) blocks of this unipotent
    # generator, whose fixed space is spanned by the last basis vector
    g = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int64)
    spec = GroupSpec(Prime(p), 3, (MatrixGFp(g, p),))
    entries = spec.generators[0].entries.copy()
    assert [row.tolist() for row in fixed_space(spec)] == [[0, 0, 1]]
    assert np.array_equal(spec.generators[0].entries, entries)
    assert np.array_equal(g, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])


def test_matmul_oracle():
    rng = random.Random(31)
    for p in (2, 3, 5, 31):
        a = random_array(rng, 4, 6, p)
        b = random_array(rng, 6, 3, p)
        assert np.array_equal(_kernels.matmul_mod(a, b, p), (a @ b) % p)


def test_matmul_shape_error():
    with pytest.raises(ValueError):
        _kernels.matmul_mod(np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64), 5)


def test_matmul_chunking_path():
    # force the chunked accumulation branch with an artificially tight budget
    rng = random.Random(37)
    p = 31
    a = random_array(rng, 3, 50, p)
    b = random_array(rng, 50, 4, p)
    saved = _kernels._INT64_SAFE
    try:
        _kernels._INT64_SAFE = (p - 1) ** 2 * 7  # 7 columns per chunk
        out = _kernels.matmul_mod(a, b, p)
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


def assert_matches_sympy(a, p):
    """Check rref_mod and nullspace_mod against sympy; return the nullspace."""
    r, piv, null = sympy_rref(a, p)
    got, got_piv = _kernels.rref_mod(a, p)
    assert np.array_equal(got, r)
    assert got_piv.tolist() == piv
    assert np.array_equal(_kernels.nullspace_mod(a, p), null)
    return null


def test_rref_matches_sympy_on_sparse_systems():
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
            assert_matches_sympy(a, p)
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
    assert np.array_equal(rows, assert_matches_sympy(system, p))


# entries weighted toward p - 1, whose products are the largest an unreduced
# sum can hold, and toward 0, so that some systems are rank deficient
BIG = _kernels.MAX_PRIME
big_entries = st.one_of(st.just(BIG - 1), st.just(BIG - 2), st.just(0), st.integers(0, BIG - 1))


def big_matrices(rows, cols):
    return st.lists(
        st.lists(big_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda a: np.array(a, dtype=np.int64))


@st.composite
def big_cases(draw):
    rows, inner, cols = (draw(st.integers(1, 8)) for _ in range(3))
    return draw(big_matrices(rows, inner)), draw(big_matrices(inner, cols))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(big_cases())
def test_kernels_exact_at_max_prime(case):
    a, b = case
    assert_matches_sympy(a, BIG)
    expected = (a.astype(object) @ b) % BIG
    assert np.array_equal(_kernels.matmul_mod(a, b, BIG), expected.astype(np.int64))


def test_level_walk_refuses_a_modulus_above_max_prime():
    # at p = 4294967311 merged products wrap in int64: every row of the
    # degree-2 images used to differ from the sparse substitution's
    g, p = np.array([[1, 1], [0, 1]]), Prime(4294967311)
    with pytest.raises(DomainError, match="exceeds 1048573"):
        slice_images(g, 2, p)
    with pytest.raises(DomainError, match="exceeds 1048573"):
        next(slice_levels(g, p))


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


# a generator with few zeros: most merged entries of its levels sum several products
DENSE = np.array([[1, 2, 0, 3], [1, 1, 1, 0], [0, 1, 1, 2], [4, 0, 1, 1]], dtype=np.int64)


def level_cases():
    """(p, degree, substitution) inputs shared by the level-kernel tests."""
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
    cases.append((5, 6, DENSE))
    # the largest accepted prime, every weight p - 1: each merged entry sums
    # up to n products near p^2, which must not overflow before reduction
    big = _kernels.MAX_PRIME
    cases.append((big, 5, np.full((3, 3), big - 1, dtype=np.int64)))
    cases.append((big, 3, random_array(rng, 4, 4, big)))
    # no products at all: the zero matrix, and one variable sent to 0
    cases.append((3, 3, np.zeros((3, 3), dtype=np.int64)))
    cases.append((3, 4, np.array([[2]], dtype=np.int64)))
    cases.append((3, 4, np.array([[0]], dtype=np.int64)))
    # the fixed_point_sweep groups (n = 12 for the first) and (3, 3), at the
    # degrees the fixed-point search eliminates at
    for p, m, lam in ((2, 6, 0), (3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 3, 0)):
        for g in example_action(p, m, lam).generators:
            cases.append((p, 3, g.entries))
    return cases


def reference_next_level(prev, parent_rank, parent_var, promote, subst, p):
    """The level kernel built one variable at a time: each u gathers its own
    rows' entries, and the keys are concatenated in order of u."""
    nt = len(parent_rank)
    keys, prods = [], []
    for u in range(subst.shape[1]):
        weights = subst[parent_var, u]
        rows = np.flatnonzero(weights)
        starts = prev.indptr[parent_rank[rows]]
        lens = prev.indptr[parent_rank[rows] + 1] - starts
        src = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        keys.append(np.repeat(rows * nt, lens) + promote[:, u][prev.cols[src]])
        prods.append(prev.vals[src] * np.repeat(weights[rows], lens))
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
    return _kernels.CSR(indptr, key % nt, vals)


def test_next_level_matches_per_variable_reference():
    # the one-pass build gathers the same products, and the merge's integer
    # sums do not depend on their order: every level is the same, array for array
    for p, d, subst in level_cases():
        n = subst.shape[0]
        level = ref = _kernels.CSR.identity(1)
        for k in range(1, d + 1):
            args = (*parent_table(n, k), promote_table(n, k - 1), subst, p)
            level = _kernels.next_slice_level(level, *args)
            ref = reference_next_level(ref, *args)
            for got, want in zip(level, ref):
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_next_level_matches_sparse_substitution():
    # CSR recursion vs the independent sparse-polynomial route
    for p, d, subst in level_cases():
        n = subst.shape[0]
        images = slice_images_checked(subst, d, p).dense()
        for t, exps in enumerate(slice_monomials(n, d)):
            mono = Polynomial.monomial(p, n, exps)
            expected = mono.substitute(subst)
            got = Polynomial.from_coordinates(p, n, d, images[t])
            assert got == expected


def test_bench_kernels_script_runs(capsys):
    # the script is not imported by the package, so only this keeps it working
    script = Path(__file__).parents[1] / "benchmarks" / "bench_kernels.py"
    runpy.run_path(str(script))["main"](["--sizes", "8", "--repeats", "1", "--degree", "3"])
    out = capsys.readouterr().out
    for label in ("rref 8x8", "rref family d=8 2574x1287", "matmul 8x8", "slice n=4 d=3",
                  "slice family d=1..3"):
        assert label in out
