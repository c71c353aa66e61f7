import gc
import random
from itertools import product

import numpy as np
import pytest

import support
from invred import (
    _kernels,
    DegreeFactorization,
    DomainError,
    FieldElement,
    GroupSpec,
    MatrixGFp,
    Polynomial,
    PreconditionError,
    Prime,
    SliceLimitError,
    adapted_decomposition,
    epsilon,
    example_action,
    extend_to_basis,
    factor_p_power,
    is_invariant,
    monomial_basis,
    reduce_degree,
)
from invred.reduction import _basis_and_inverse


def unipotent_2d_spec():
    return GroupSpec(Prime(2), 2, (MatrixGFp([[1, 1], [0, 1]], 2),))


def gf2_fixture():
    # (x0^2 + x0*x1)^3: invariant of degree 6 = 2 * 3 with value 1 at e0
    f = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1}) ** 3
    return unipotent_2d_spec(), f, [1, 0]


# ---- degree factorization -----------------------------------------------------


def test_factor_examples():
    assert factor_p_power(12, 2) == DegreeFactorization(r=2, d=3)
    assert factor_p_power(9, 3) == DegreeFactorization(r=2, d=1)
    assert factor_p_power(5, 3) == DegreeFactorization(r=0, d=5)


def test_factor_reconstructs():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 500)
        fact = factor_p_power(n, p)
        assert p**fact.r * fact.d == n
        assert fact.d % p != 0


def test_factor_rejects_nonpositive():
    with pytest.raises(DomainError):
        factor_p_power(0, 2)


# ---- basis extension ----------------------------------------------------------


def test_extend_e0_gives_identity():
    assert extend_to_basis([1, 0, 0], 5) == MatrixGFp.identity(3, 5)


def test_extend_fixed_completion_rule():
    # (1,1) over GF(2): e0 enlarges the span and is kept
    b = extend_to_basis([1, 1], 2)
    assert b.entries.tolist() == [[1, 1], [1, 0]]
    assert b.is_invertible()


def test_extend_first_column_is_v():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5)
        v = [rng.randrange(p) for _ in range(n)]
        if not any(v):
            v[rng.randrange(n)] = 1
        b = extend_to_basis(v, p)
        assert b.is_invertible()
        assert np.array_equal(b.apply([1] + [0] * (n - 1)), np.asarray(v) % p)


def extend_by_scanning(v, p):
    """The completion rule as stated: keep each unit vector, in index order,
    that raises the rank of the columns kept so far."""
    n = len(v)
    cols = [np.asarray(v, dtype=np.int64) % p]
    for i in range(n):
        candidate = np.zeros(n, dtype=np.int64)
        candidate[i] = 1
        _, piv = _kernels.rref_mod(np.stack(cols + [candidate], axis=1), p)
        if len(piv) == len(cols) + 1:
            cols.append(candidate)
    return np.stack(cols, axis=1)


def test_extend_matches_the_scanning_rule_on_every_vector():
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)]:
        for v in product(range(p), repeat=n):
            if any(v):
                assert np.array_equal(extend_to_basis(v, p).entries, extend_by_scanning(v, p))


def test_closed_form_inverse_inverts_the_basis():
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)]:
        for v in product(range(p), repeat=n):
            if any(v):
                basis, inverse = _basis_and_inverse(list(v), p)
                assert np.array_equal(basis, extend_to_basis(v, p).entries)
                assert np.array_equal(np.array(basis) @ np.array(inverse) % p, np.eye(n))


def test_extend_rejects_zero():
    with pytest.raises(DomainError):
        extend_to_basis([0, 0], 3)


# ---- adapted decomposition ------------------------------------------------------


def test_decomposition_pure_power():
    n = 3
    f = Polynomial.monomial(5, n, (4, 0, 0))
    cs = adapted_decomposition(f, MatrixGFp.identity(n, 5), 4)
    assert cs[0] == Polynomial.one(5, n)
    assert all(c.is_zero for c in cs[1:])


def test_decomposition_gf2_fixture():
    spec, f, v = gf2_fixture()
    cs = adapted_decomposition(f, MatrixGFp.identity(2, 2), 6)
    x1 = Polynomial.variable(2, 2, 1)
    assert cs[0] == Polynomial.one(2, 2)
    assert cs[1] == x1 and cs[2] == x1**2 and cs[3] == x1**3
    assert all(c.is_zero for c in cs[4:])


def test_decomposition_reconstructs():
    rng = random.Random(7)
    for _ in range(10):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(2, 4)
        d = rng.randrange(1, 5)
        mons = [m.exponents for m in monomial_basis(n, d)]
        f = Polynomial(p, n, {m: rng.randrange(p) for m in mons})
        if f.is_zero:
            continue
        v = [rng.randrange(p) for _ in range(n)]
        if not any(v):
            v[0] = 1
        b = extend_to_basis(v, p)
        cs = adapted_decomposition(f, b, d)
        rebuilt = Polynomial.zero(p, n)
        for i, c in enumerate(cs):
            assert c.is_zero or (c.is_homogeneous() and c.degree() == i)
            assert all(e[0] == 0 for e in c.terms)
            shift = Polynomial.monomial(p, n, (d - i,) + (0,) * (n - 1))
            rebuilt = rebuilt + shift * c
        assert rebuilt == f.substitute(b.entries)
        # c0 is the value at the first basis column
        assert cs[0].coefficient((0,) * n) == f.evaluate(b.entries[:, 0])


def test_decomposition_rejects_inhomogeneous():
    f = Polynomial(3, 2, {(2, 0): 1, (1, 0): 1})
    with pytest.raises(DomainError):
        adapted_decomposition(f, MatrixGFp.identity(2, 3), 2)
    g = Polynomial(3, 2, {(2, 0): 1})
    with pytest.raises(DomainError):
        adapted_decomposition(g, MatrixGFp.identity(2, 3), 3)


# ---- the reduction pipeline -------------------------------------------------------


def test_reduce_r0_linear_output():
    # degree coprime to p: the output is a linear separating form
    spec = GroupSpec.trivial(3, 2)
    f = Polynomial.monomial(3, 2, (5, 0))
    res = reduce_degree(spec, f, [1, 0])
    assert res.f_tilde == Polynomial.variable(3, 2, 0)


def test_reduce_gf2_fixture():
    spec, f, v = gf2_fixture()
    res = reduce_degree(spec, f, v)
    expected = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert res.f_tilde == expected
    assert is_invariant(res.f_tilde, spec)
    assert res.normalization.residue == 1
    assert [str(c) for c in res.c_list] == ["1", "x1", "x1^2"]
    assert res.basis_change == MatrixGFp.identity(2, 2)


def test_reduce_leaves_no_matrix_to_the_cyclic_collector():
    # a matrix and its cached inverse free each other by reference counting
    spec, f, v = gf2_fixture()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        reduce_degree(spec, f, v)
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, MatrixGFp)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_reduce_eliminates_nothing(monkeypatch):
    # the basis change and its inverse are closed forms, so a reduction runs
    # no row reduction and gives what it gave before rref_mod was refused
    rng = random.Random(1601)
    stream = support.spec_stream(1601, max_order=9)
    cases = [gf2_fixture()]
    while len(cases) < 25:
        spec, order = next(stream)
        trial = support.reduction_trial(rng, spec, order)
        if trial is not None:
            v, _, _, f = trial
            cases.append((spec, f, v))
    before = [reduce_degree(spec, f, v) for spec, f, v in cases]

    def refuse(*args):
        raise AssertionError("reduce_degree ran rref_mod")

    monkeypatch.setattr(_kernels, "rref_mod", refuse)
    assert [reduce_degree(spec, f, v) for spec, f, v in cases] == before


def test_reduce_family_witness_d1_path():
    # degree 4 = 2^2 witness: d = 1 degenerates to rescaling
    spec = example_action(2, 2, 0)
    e_m = [0, 0, 0, 1]
    res = epsilon(spec, e_m)
    out = reduce_degree(spec, res.witness, e_m)
    assert out.f_tilde.degree() == 4
    assert out.f_tilde.evaluate(e_m).residue == 1
    # with d = 1 and value already 1, nothing changes
    assert out.f_tilde == res.witness


def test_reduce_ignores_coefficients_above_p_power():
    # adding an invariant supported entirely above index p^r leaves the
    # output untouched: only c_1..c_(p^r) are ever read
    spec, f, v = gf2_fixture()
    x1 = Polynomial.variable(2, 2, 1)
    bump = x1**6
    assert is_invariant(bump, spec)
    out1 = reduce_degree(spec, f, v)
    out2 = reduce_degree(spec, f + bump, v)
    assert out1.f_tilde == out2.f_tilde
    assert out1.c_list == out2.c_list


def test_reduce_nontrivial_normalization():
    spec = GroupSpec.trivial(5, 2)
    f = Polynomial.monomial(5, 2, (3, 0), 4)  # value 4 at e0
    res = reduce_degree(spec, f, [1, 0])
    assert res.normalization.residue == 4
    assert res.f_tilde == Polynomial.variable(5, 2, 0)


def test_reduce_off_origin_point():
    # fixed point not on a coordinate axis exercises the basis change
    spec = GroupSpec.trivial(3, 2)
    v = [1, 2]
    f = Polynomial(3, 2, {(2, 0): 1, (0, 2): 1})  # f(v) = 1 + 4 = 2
    res = reduce_degree(spec, f, v)
    assert res.f_tilde.degree() == 1
    assert res.f_tilde.evaluate(v).residue == 1
    assert res.normalization.residue == 2


def factorization_cases():
    spec, f, v = gf2_fixture()
    family = example_action(2, 2, 0)
    e_m = [0, 0, 0, 1]
    return [
        (spec, f, v),
        (GroupSpec.trivial(3, 2), Polynomial.monomial(3, 2, (5, 0)), [1, 0]),
        (family, epsilon(family, e_m).witness, e_m),
        (GroupSpec.trivial(5, 2), Polynomial.monomial(5, 2, (3, 0), 4), [1, 0]),
        (GroupSpec.trivial(3, 2), Polynomial(3, 2, {(2, 0): 1, (0, 2): 1}), [1, 2]),
        (GroupSpec.trivial(3, 2), Polynomial.monomial(3, 2, (18, 0)), [1, 0]),
    ]


def test_reduce_reports_its_factorization():
    for spec, f, v in factorization_cases():
        res = reduce_degree(spec, f, v)
        assert res.factorization == factor_p_power(f.degree(), spec.p)
        assert res.f_tilde.degree() == int(spec.p) ** res.factorization.r


def full_expansion_reduction(spec, f, v):
    """c_list and f_tilde from the whole adapted expansion, reassembled with
    polynomial products: the route reduce_degree's truncation must match."""
    p, n, degree = spec.p, spec.n, f.degree()
    fact = factor_p_power(degree, p)
    q = int(p) ** fact.r
    b = extend_to_basis(v, p)
    scale = f.evaluate(v).inverse()
    c_list = [c.scale(scale) for c in adapted_decomposition(f, b, degree)[: q + 1]]
    d_inv = FieldElement(fact.d, p).inverse()
    reduced = Polynomial.monomial(p, n, (q,) + (0,) * (n - 1))
    for i in range(1, q + 1):
        reduced = reduced + Polynomial.monomial(p, n, (q - i,) + (0,) * (n - 1), d_inv) * c_list[i]
    return c_list, reduced.substitute(b.inv().entries)


def test_truncated_expansion_matches_the_full_one():
    # degree p^r*d with d in {3, 5}, on every (p, n, d) of the reduce_batch shape
    rng = random.Random(41)
    stream = support.spec_stream(43, max_order=9)
    wanted = {(p, n, d) for p in (2, 3) for n in (2, 3) for d in (3, 5) if d % p}
    seen, checked = set(), 0
    for _ in range(400):
        spec, order = next(stream)
        key = (int(spec.p), spec.n)
        trial = support.reduction_trial(rng, spec, order, ds=(3, 5))
        if trial is None:
            continue
        v, r, d, f = trial
        res = reduce_degree(spec, f, v)
        c_list, f_tilde = full_expansion_reduction(spec, f, v)
        assert list(res.c_list) == c_list
        assert res.f_tilde == f_tilde
        seen.add(key + (d,))
        checked += 1
        if seen == wanted and checked >= 24:
            break
    assert seen == wanted and checked >= 24


def test_reduce_checks_slice_limit_before_evaluating(monkeypatch):
    # degree 64 in two variables: a 65-dimensional slice
    spec, _, v = gf2_fixture()
    f = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1}) ** 32
    assert reduce_degree(spec, f, v).f_tilde.degree() == 64
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "50")

    def unreachable(*args):
        raise AssertionError("evaluated before the slice limit was checked")

    monkeypatch.setattr(Polynomial, "evaluate", unreachable)
    with pytest.raises(SliceLimitError):
        reduce_degree(spec, f, v)


@pytest.mark.parametrize(
    "mutate,code",
    [
        ("zero-vector", "zero-vector"),
        ("not-fixed", "not-fixed-point"),
        ("vanishes", "vanishes-at-point"),
        ("inhomogeneous", "inhomogeneous"),
        ("not-invariant", "not-invariant"),
        ("constant", "constant"),
    ],
)
def test_reduce_precondition_codes(mutate, code):
    spec, f, v = gf2_fixture()
    if mutate == "zero-vector":
        v = [0, 0]
    elif mutate == "not-fixed":
        v = [0, 1]
    elif mutate == "vanishes":
        f = Polynomial.monomial(2, 2, (0, 2))  # x1^2 is invariant but zero at e0
    elif mutate == "inhomogeneous":
        f = f + Polynomial.one(2, 2)
    elif mutate == "not-invariant":
        f = Polynomial.monomial(2, 2, (6, 0))
    elif mutate == "constant":
        f = Polynomial.constant(2, 2, 1)
    with pytest.raises(PreconditionError) as err:
        reduce_degree(spec, f, v)
    assert err.value.code == code


def test_reduce_vanishing_message_is_specific():
    spec, _, v = gf2_fixture()
    with pytest.raises(PreconditionError, match="invariant vanishes at point"):
        reduce_degree(spec, Polynomial.monomial(2, 2, (0, 2)), v)


def test_reduce_random_end_to_end():
    rng = random.Random(20260810)
    stream = support.spec_stream(99, max_order=9)
    successes = 0
    while successes < 40:
        spec, order = next(stream)
        trial = support.reduction_trial(rng, spec, order)
        if trial is None:
            continue
        v, r, d, f = trial
        p = int(spec.p)
        assert f.is_homogeneous() and f.degree() == p**r * d
        res = reduce_degree(spec, f, v)
        assert res.f_tilde.degree() == p**r
        assert res.f_tilde.evaluate(v).residue == 1
        assert is_invariant(res.f_tilde, spec)
        # search consistency: a degree p^r*d separating invariant exists,
        # so the minimal separating degree is at most p^r
        assert epsilon(spec, v, bound=order).value <= p**r
        successes += 1
