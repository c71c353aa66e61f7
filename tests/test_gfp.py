import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from invred import (
    DomainError,
    FieldElement,
    Prime,
    ShapeMismatchError,
    binomial_congruence_holds,
    lucas_binomial,
    lucas_factors,
)

PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_prime_accepts_primes():
    for p in PRIMES_TO_31:
        assert Prime(p) == p
    assert isinstance(Prime(Prime(7)), Prime)


@pytest.mark.parametrize("bad", [-7, 0, 1, 4, 9, 15, 100])
def test_prime_rejects_nonprimes(bad):
    with pytest.raises(DomainError):
        Prime(bad)


def test_prime_agrees_with_sympy_below_10_5():
    for n in range(2, 10**5):
        try:
            Prime(n)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == isprime(n), n


@pytest.mark.parametrize(
    "bad", [561, 3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_prime_rejects_carmichael_and_strong_pseudoprimes(bad):
    # 561 is a Carmichael number; the others are the least strong
    # pseudoprimes to the bases 2, 3, 5, 7, to the first nine prime bases and
    # to the first twelve (psi_12 = 399165290221 * 798330580441)
    with pytest.raises(DomainError, match="not prime"):
        Prime(bad)


def test_prime_accepts_large_primes_and_refuses_beyond_exact_range():
    for p in (10**18 + 3, 2**61 - 1, nextprime(3 * 10**24)):
        assert Prime(p) == p
    with pytest.raises(DomainError, match="too large"):
        Prime(2**89 - 1)


def test_field_element_reduces_on_construction():
    a = FieldElement(7, Prime(5))
    assert a.residue == 2
    assert FieldElement(-1, Prime(5)).residue == 4


def test_field_arithmetic_basics():
    p = Prime(7)
    a, b = FieldElement(3, p), FieldElement(5, p)
    assert (a + b).residue == 1
    assert (a - b).residue == 5
    assert (a * b).residue == 1
    assert (-a).residue == 4
    assert (a / b).residue == (3 * pow(5, 5, 7)) % 7
    assert (a**3).residue == 27 % 7
    assert (a**-1 * a).residue == 1
    assert (2 + a).residue == 5 and (2 * a).residue == 6
    assert int(b) == 5
    assert bool(a) and not bool(a - a)


def test_field_modulus_mismatch():
    with pytest.raises(ShapeMismatchError):
        FieldElement(1, Prime(3)) + FieldElement(1, Prime(5))


def test_inverse_examples():
    for p in (2, 3, 5, 7, 31):
        assert FieldElement(1, Prime(p)).inverse().residue == 1
    # 3 mod 2 reduces to 1, the only unit
    assert FieldElement(3, Prime(2)).inverse().residue == 1
    assert FieldElement(2, Prime(5)).inverse().residue == 3


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldElement(0, Prime(5)).inverse()


def test_inverse_exhaustive_small_primes():
    for p in PRIMES_TO_31:
        for a in range(1, p):
            assert (FieldElement(a, Prime(p)).inverse() * a).residue == 1


def test_lucas_b_zero_is_one():
    for p in (2, 3, 7):
        for a in (0, 1, 5, 100, 10**9):
            assert lucas_binomial(a, 0, p).residue == 1


def test_lucas_examples():
    assert lucas_binomial(5, 2, 2).residue == 0  # C(5,2) = 10
    assert lucas_binomial(5, 2, 3).residue == 1
    assert lucas_binomial(4, 5, 3).residue == 0  # b > a


def test_lucas_factors_decomposition():
    factors = lucas_factors(5, 2, Prime(2))
    assert factors == [(1, 0, 1), (0, 1, 0), (1, 0, 1)]
    value = 1
    for _, _, f in factors:
        value = value * f % 2
    assert value == lucas_binomial(5, 2, 2).residue


def test_lucas_matches_factorial_oracle():
    for p in (2, 3, 5, 7):
        for a in range(61):
            for b in range(61):
                assert lucas_binomial(a, b, p).residue == math.comb(a, b) % p


# p from primes up to the largest accepted modulus, biased toward small ones
# so that a and b up to 5000 have several base-p digits
primes = st.one_of(st.integers(2, 100), st.integers(2, 5000), st.integers(2, 1048573)).map(
    lambda n: int(nextprime(n - 1))
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(primes, st.integers(0, 5000), st.integers(0, 5000))
def test_lucas_matches_factorials_property(p, a, b):
    assert lucas_binomial(a, b, p).residue == math.comb(a, b) % p


def test_lucas_huge_arguments():
    # digit-wise evaluation keeps enormous inputs cheap
    p = Prime(5)
    a = 5**40 * 3
    assert lucas_binomial(a, 5**40, p).residue == math.comb(3, 1) % 5


def test_congruence_examples():
    assert binomial_congruence_holds(3, 1, 2, 1, 2)
    assert binomial_congruence_holds(2, 0, 17, 1, 0)
    assert binomial_congruence_holds(5, 2, 3, 25, 0)


@pytest.mark.parametrize(
    "p,r,d,k,j",
    [
        (3, 1, 2, 0, 1),   # k below range
        (3, 1, 2, 4, 0),   # k above p^r
        (3, 1, 2, 1, 3),   # j above p^r - k
        (3, 1, 2, 1, -1),  # j negative
        (3, 1, 0, 1, 0),   # d not positive
        (3, -1, 2, 1, 0),  # r negative
    ],
)
def test_congruence_domain_errors(p, r, d, k, j):
    with pytest.raises(DomainError):
        binomial_congruence_holds(p, r, d, k, j)


def test_congruence_small_grid():
    for p in (2, 3):
        for r in range(3):
            q = p**r
            for d in range(1, 5):
                for k in range(1, q + 1):
                    for j in range(q - k + 1):
                        assert binomial_congruence_holds(p, r, d, k, j)
