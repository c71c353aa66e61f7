import math
import random
from itertools import product

import numpy as np
import pytest

import support
from invred import (
    DomainError,
    FieldElement,
    Monomial,
    Polynomial,
    Prime,
    ShapeMismatchError,
    monomial_basis,
)


def naive_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Independent convolution oracle for products."""
    acc: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = (acc.get(key, 0) + c1 * c2) % int(f.p)
    return Polynomial(f.p, f.nvars, acc)


# ---- monomials -------------------------------------------------------------


def test_monomial_order_is_graded_lex():
    a, b, c = Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))
    assert a > b > c
    assert Monomial((0, 3)) > a  # degree dominates
    assert sorted([c, a, b], reverse=True) == [a, b, c]


def test_monomial_degree_and_str():
    m = Monomial((2, 0, 1))
    assert m.degree == 3
    assert str(m) == "x0^2*x2"
    assert str(Monomial((0, 0))) == "1"


def test_monomial_rejects_negative():
    with pytest.raises(DomainError):
        Monomial((1, -1))


def test_monomial_basis_examples():
    assert [m.exponents for m in monomial_basis(1, 5)] == [(5,)]
    assert [m.exponents for m in monomial_basis(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [m.exponents for m in monomial_basis(4, 0)] == [(0, 0, 0, 0)]


def test_monomial_basis_counts_match_enumeration():
    for n in range(1, 6):
        for d in range(9):
            basis = monomial_basis(n, d)
            # stars-and-bars oracle by brute enumeration
            brute = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
            assert len(basis) == len(brute) == math.comb(n + d - 1, d)
            assert {m.exponents for m in basis} == set(brute)


def test_monomial_basis_descending_and_deterministic():
    basis = monomial_basis(3, 4)
    assert basis == sorted(basis, reverse=True)
    assert basis == monomial_basis(3, 4)


# ---- ring arithmetic -------------------------------------------------------


def test_add_zero_is_identity():
    f = Polynomial(5, 2, {(1, 0): 2, (0, 2): 3})
    assert f + Polynomial.zero(5, 2) == f


def test_scale_by_zero():
    f = Polynomial(5, 2, {(1, 1): 4})
    assert f.scale(0).is_zero
    assert f.scale(FieldElement(0, Prime(5))).is_zero


def test_pow_gf2_fixture():
    x0 = Polynomial.variable(2, 2, 0)
    x1 = Polynomial.variable(2, 2, 1)
    f = x0 * x0 + x0 * x1
    cube = f**3
    expected = Polynomial(2, 2, {(6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1})
    assert cube == expected
    assert cube == naive_mul(naive_mul(f, f), f)


def test_pow_edge_cases():
    f = Polynomial(3, 2, {(1, 0): 2})
    assert f**0 == Polynomial.one(3, 2)
    assert f**1 == f
    with pytest.raises(DomainError):
        f**-1


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(101)
    for p in (2, 3, 5):
        for _ in range(25):
            n = rng.randrange(1, 5)
            f = support.random_polynomial(rng, p, n, 4)
            g = support.random_polynomial(rng, p, n, 4)
            h = support.random_polynomial(rng, p, n, 4)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == naive_mul(f, g)
            assert f - f == Polynomial.zero(p, n)


def test_shape_mismatch_errors():
    f = Polynomial(3, 2, {(1, 0): 1})
    with pytest.raises(ShapeMismatchError):
        f + Polynomial(5, 2, {(1, 0): 1})
    with pytest.raises(ShapeMismatchError):
        f * Polynomial(3, 3, {(1, 0, 0): 1})
    with pytest.raises(ShapeMismatchError):
        Polynomial(3, 2, {(1, 0, 0): 1})


# ---- evaluation ------------------------------------------------------------


def test_evaluate_examples():
    x0sq = Polynomial(2, 2, {(2, 0): 1})
    assert x0sq.evaluate([1, 0]).residue == 1
    f = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1})
    assert f.evaluate([1, 0]).residue == 1
    assert Polynomial.one(5, 3).evaluate([2, 3, 4]).residue == 1


def test_evaluate_accepts_field_elements_and_reduces():
    f = Polynomial(5, 2, {(1, 1): 3})
    assert f.evaluate([FieldElement(2, Prime(5)), 7]).residue == 3 * 2 * 2 % 5


def test_evaluate_shape_error():
    with pytest.raises(ShapeMismatchError):
        Polynomial.one(3, 2).evaluate([1])


# ---- graded structure ------------------------------------------------------


def test_degree_and_homogeneity():
    assert Polynomial.zero(3, 2).degree() is None
    assert Polynomial.one(3, 2).degree() == 0
    f = Polynomial(3, 2, {(2, 1): 1, (0, 1): 1})
    assert f.degree() == 3
    assert not f.is_homogeneous()


def test_leading_monomial():
    f = Polynomial(3, 2, {(2, 1): 1, (0, 3): 2, (1, 0): 1})
    assert f.leading_monomial() == Monomial((2, 1))
    with pytest.raises(DomainError):
        Polynomial.zero(3, 2).leading_monomial()


# ---- linear substitution ---------------------------------------------------


def test_substitute_identity():
    rng = random.Random(3)
    f = support.random_polynomial(rng, 5, 3, 4)
    assert f.substitute(np.eye(3, dtype=np.int64)) == f


def test_substitute_reads_rows():
    x0 = Polynomial.variable(2, 2, 0)
    assert x0.substitute([[1, 1], [0, 1]]) == Polynomial(2, 2, {(1, 0): 1, (0, 1): 1})


def test_substitute_char2_fixture():
    # x0 -> x0 + x1 fixes x0^2 + x0*x1 over GF(2)
    f = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1})
    assert f.substitute([[1, 1], [0, 1]]) == f


def test_substitute_roundtrip_random():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(10):
            n = rng.randrange(2, 4)
            f = support.random_polynomial(rng, p, n, 4)
            m = support.random_invertible(rng, p, n)
            assert f.substitute(m.entries).substitute(m.inv().entries) == f


def test_substitute_evaluate_compatibility():
    # the convention produces f.substitute(M).evaluate(v) == f.evaluate(M @ v)
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(10):
            n = rng.randrange(2, 4)
            f = support.random_polynomial(rng, p, n, 4)
            m = support.random_matrix(rng, p, n)
            v = [rng.randrange(p) for _ in range(n)]
            image = (m.entries @ np.asarray(v)) % p
            assert f.substitute(m.entries).evaluate(v) == f.evaluate(list(image))


def test_substitute_composition_is_matrix_product():
    rng = random.Random(17)
    p, n = 3, 3
    f = support.random_polynomial(rng, p, n, 3)
    a = support.random_matrix(rng, p, n)
    b = support.random_matrix(rng, p, n)
    lhs = f.substitute(a.entries).substitute(b.entries)
    rhs = f.substitute((a.entries @ b.entries) % p)
    assert lhs == rhs


def test_substitute_over_a_prime_beyond_int64():
    # the residues of such a p do not fit in int64 and are read as Python ints
    p = Prime(100000000000000000039)
    f = Polynomial.variable(p, 2, 0)
    assert f.substitute([[-1, 10**30], [0, 1]]) == Polynomial(p, 2, {(1, 0): -1, (0, 1): 10**30})


def test_substitute_by_a_matrix_object_matches_its_entries():
    # a MatrixGFp over the polynomial's field is read as it is; one over
    # another field is refused, while a plain array is reduced mod p
    rng = random.Random(19)
    for p in (2, 3, 5):
        n = rng.randrange(2, 4)
        f = support.random_polynomial(rng, p, n, 4)
        m = support.random_matrix(rng, p, n)
        assert f.substitute(m) == f.substitute(m.entries) == f.substitute(m.entries.tolist())
        other = support.random_matrix(rng, 7, n)
        with pytest.raises(ShapeMismatchError, match="mixed moduli"):
            f.substitute(other)
        assert f.substitute(other.entries) == f.substitute(other.entries % p)
    with pytest.raises(ShapeMismatchError):
        Polynomial.one(3, 2).substitute(support.random_matrix(rng, 3, 3))


def test_substitute_shape_errors():
    f = Polynomial.one(3, 2)
    with pytest.raises(ShapeMismatchError):
        f.substitute(np.eye(3, dtype=np.int64))
    with pytest.raises(ShapeMismatchError):
        f.substitute(np.ones((2, 3), dtype=np.int64))


def test_substitute_truncated_keeps_the_low_terms_outside_x0():
    rng = random.Random(29)
    for p in (2, 3, 5):
        for _ in range(10):
            n = rng.randrange(1, 4)
            f = support.random_polynomial(rng, p, n, 9)
            m = support.random_matrix(rng, p, n)
            k = rng.randrange(0, 6)
            full = f.substitute(m.entries).terms
            low = {e: c for e, c in full.items() if sum(e) - e[0] <= k}
            assert f.substitute(m.entries, max_rest_degree=k).terms == low


def test_substitute_by_one_term_images_matches_products():
    # each row of a scaled permutation matrix has one term, whose powers
    # substitute takes at once; * and ** build them one product at a time
    rng = random.Random(41)
    for p in (2, 3, 5):
        for _ in range(10):
            n = rng.randrange(1, 4)
            f = support.random_polynomial(rng, p, n, 9)
            perm = rng.sample(range(n), n)
            m = [[(1 + rng.randrange(p - 1)) * (j == perm[i]) for j in range(n)] for i in range(n)]
            images = [Polynomial(p, n, {tuple(int(x > 0) for x in row): max(row)}) for row in m]
            expected = Polynomial.zero(p, n)
            for exps, c in f.terms.items():
                term = Polynomial.constant(p, n, c)
                for image, e in zip(images, exps):
                    term = term * image**e
                expected = expected + term
            assert f.substitute(m) == expected
            k = rng.randrange(0, 6)
            low = {e: c for e, c in expected.terms.items() if sum(e) - e[0] <= k}
            assert f.substitute(m, max_rest_degree=k).terms == low


@pytest.mark.parametrize("p, image", [(2, 1), (3, 2)])
def test_substitute_in_one_variable_with_a_huge_exponent_returns_promptly(p, image):
    # a one-variable slice has dimension 1, so no guard stops this; the power
    # of a one-term image costs one modular exponentiation
    code = (
        f"import invred as iv; "
        f"print(iv.Polynomial({p}, 1, {{(10**23,): 1}}).substitute([[{image}]]).terms)"
    )
    proc = support.run_python("-c", code, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({(10**23,): pow(image, 10**23, p)})


def test_results_share_their_monomial_tuples():
    rng = random.Random(31)
    f = Polynomial(3, 3, {m.exponents: 1 + rng.randrange(2) for m in monomial_basis(3, 4)})
    g = Polynomial(3, 3, {m.exponents: 1 + rng.randrange(2) for m in monomial_basis(3, 2)})
    substituted = f.substitute(support.random_invertible(rng, 3, 3).entries)
    multiplied = g * g
    for h in (substituted, multiplied):
        for exps, c in h.terms.items():
            assert type(exps) is tuple and all(type(e) is int for e in exps)
            assert 0 < c < 3
    keys = {k: k for k in substituted.terms}
    common = [k for k in multiplied.terms if k in keys]
    assert common
    assert all(keys[k] is k for k in common)


@pytest.mark.parametrize("build", ["substitute", "mul"])
def test_one_polynomial_built_per_call(monkeypatch, build):
    rng = random.Random(37)
    f = support.random_polynomial(rng, 3, 3, 8, max_terms=12)
    m = support.random_invertible(rng, 3, 3).entries
    built = []
    init, wrap = Polynomial.__init__, Polynomial._wrap

    def counting_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counting_wrap(self, terms):
        built.append("_wrap")
        return wrap(self, terms)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(Polynomial, "_wrap", counting_wrap)
    f.substitute(m) if build == "substitute" else f * f
    assert len(built) == 1


# ---- slice coordinates and formatting --------------------------------------


def test_coordinates_roundtrip():
    rng = random.Random(19)
    for _ in range(10):
        n, d = rng.randrange(1, 4), rng.randrange(0, 5)
        f = Polynomial(3, n, {m.exponents: rng.randrange(3) for m in monomial_basis(n, d)})
        vec = f.coordinates(d)
        assert Polynomial.from_coordinates(3, n, d, vec) == f


def test_coordinates_rejects_wrong_degree():
    f = Polynomial(3, 2, {(1, 0): 1})
    with pytest.raises(DomainError):
        f.coordinates(2)


def test_str_formatting():
    assert str(Polynomial.zero(3, 2)) == "0"
    f = Polynomial(5, 2, {(2, 0): 1, (1, 1): 3, (0, 0): 2})
    assert str(f) == "x0^2 + 3*x0*x1 + 2"


def test_formal_semantics_frobenius():
    # x^p and x agree as functions on GF(p) but are different polynomials
    p = 3
    x = Polynomial.variable(p, 1, 0)
    frob = x**p
    assert frob != x
    for a in range(p):
        assert frob.evaluate([a]) == x.evaluate([a])
