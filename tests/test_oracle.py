"""act, substitute, invariant bases and epsilon witnesses checked by sympy
and by definition, not by invred itself.

Composition is done by sympy: x_i is replaced by sum_j M[i][j] x_j in an
expression and the result read back as ``Poly(..., modulus=p)``; inverses
come from sympy's ``Matrix.inv_mod``.
"""

import itertools
import random

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import support
from invred import (
    GroupSpec,
    MatrixGFp,
    Polynomial,
    act,
    enumerate_fixed_points,
    enumerate_group,
    epsilon,
    example_action,
    factor_p_power,
    invariant_basis,
    invariants,
    orbit_norm,
    poly,
    reduce_degree,
)


def sympy_compose(f: Polynomial, m) -> dict:
    """Terms of f(M x), with every coefficient a residue in 0..p-1."""
    p, n = int(f.p), f.nvars
    xs = sympy.symbols(f"x0:{n}")
    expr = sum(
        (int(c) * sympy.prod([x**e for x, e in zip(xs, exps)]) for exps, c in f.terms.items()),
        sympy.Integer(0),
    )
    images = {xs[i]: sum(int(m[i][j]) * xs[j] for j in range(n)) for i in range(n)}
    composed = sympy.Poly(expr.xreplace(images), *xs, modulus=p)
    return {exps: int(c) % p for exps, c in composed.terms() if int(c) % p}


def sympy_inverse(g: MatrixGFp) -> list:
    return sympy.Matrix(g.entries.tolist()).inv_mod(int(g.p)).tolist()


def terms_of(f: Polynomial) -> dict:
    return {exps: int(c) for exps, c in f.terms.items() if int(c)}


def sympy_product(f: Polynomial, g: Polynomial) -> dict:
    """Terms of f*g, multiplied by sympy."""
    p, n = int(f.p), f.nvars
    xs = sympy.symbols(f"x0:{n}")
    product = sympy.Poly(dict(f.terms), *xs, modulus=p) * sympy.Poly(dict(g.terms), *xs, modulus=p)
    return {exps: int(c) % p for exps, c in product.terms() if int(c) % p}


ORACLE_PRIMES = (2, 3, 5, 1048573)


def test_substitute_matches_sympy_composition():
    # inhomogeneous polynomials up to degree 20; every third matrix in two or
    # three variables is made singular by repeating a row, so each prime sees
    # singular substitutions
    rng = random.Random(71)
    for case in range(48):
        p = ORACLE_PRIMES[case % len(ORACLE_PRIMES)]
        n = rng.randrange(1, 4)
        f = support.random_polynomial(rng, p, n, rng.choice((5, 12, 20)))
        m = support.random_matrix(rng, p, n).entries.tolist()
        if case % 3 == 0:
            m[-1] = list(m[0])
        assert terms_of(f.substitute(m)) == sympy_compose(f, m)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_substitute_with_absent_variables_matches_sympy(monkeypatch, p):
    # one variable (not the last) is absent from every term and another from
    # some: _expand then meets a level where every item has exponent 0, and
    # levels where a zero-exponent part sits among others
    levels = []
    expand = poly._expand

    def recording(items, i, powers, *rest):
        if i < len(powers) - 1:
            levels.append({exps[i] for exps, _ in items})
        return expand(items, i, powers, *rest)

    monkeypatch.setattr(poly, "_expand", recording)
    rng = random.Random(89 + p)
    for case in range(12):
        n = rng.randrange(4, 7)
        absent, partial = rng.sample(range(n - 1), 2)
        terms = {}
        for _ in range(rng.randrange(2, 7)):
            exps = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
            exps[absent] = 0
            if rng.random() < 0.5:
                exps[partial] = 0
            terms[tuple(exps)] = 1 + rng.randrange(p - 1)
        f = Polynomial(p, n, terms)
        m = support.random_matrix(rng, p, n).entries.tolist()
        if case % 3 == 0:
            m[-1] = list(m[rng.randrange(n - 1)])
        full = sympy_compose(f, m)
        assert terms_of(f.substitute(m)) == full
        k = rng.randrange(0, 5)
        low = {e: c for e, c in full.items() if sum(e) - e[0] <= k}
        assert terms_of(f.substitute(m, max_rest_degree=k)) == low
    assert {0} in levels
    assert any(0 in es and len(es) > 1 for es in levels)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_substitute_cancels_binomial_terms(p):
    # (x0 + x1)^p = x0^p + x1^p: every middle binomial term cancels
    x0_p = Polynomial.monomial(p, 2, (p, 0))
    shear = [[1, 1], [0, 1]]
    assert x0_p.substitute(shear).terms == {(p, 0): 1, (0, p): 1} == sympy_compose(x0_p, shear)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_substitute_cancels_to_zero(p):
    # x0 - x1 vanishes once both variables are sent to x0
    diff = Polynomial(p, 2, {(1, 0): 1, (0, 1): p - 1}) * Polynomial.monomial(p, 2, (3, 2))
    assert diff.substitute([[1, 0], [1, 0]]).is_zero
    assert sympy_compose(diff, [[1, 0], [1, 0]]) == {}


def test_mul_matches_sympy_product():
    rng = random.Random(72)
    for case in range(48):
        p = ORACLE_PRIMES[case % len(ORACLE_PRIMES)]
        n = rng.randrange(1, 4)
        f = support.random_polynomial(rng, p, n, rng.choice((5, 10)))
        g = support.random_polynomial(rng, p, n, rng.choice((5, 10)))
        assert terms_of(f * g) == sympy_product(f, g)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_mul_cancels_to_frobenius_and_zero(p):
    x0_plus_x1 = Polynomial(p, 2, {(1, 0): 1, (0, 1): 1})
    power = Polynomial.one(p, 2)
    for _ in range(p):
        power = power * x0_plus_x1
    assert power.terms == {(p, 0): 1, (0, p): 1} == sympy_product(x0_plus_x1 ** (p - 1), x0_plus_x1)
    minus = Polynomial(p, 2, {(1, 0): p - 1, (0, 1): p - 1})
    assert (x0_plus_x1 * minus + x0_plus_x1 * x0_plus_x1).is_zero


def test_act_matches_sympy_composition():
    rng = random.Random(73)
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 4)
        f = support.random_polynomial(rng, p, n, 5)
        g = support.random_invertible(rng, p, n)
        assert terms_of(act(g, f)) == sympy_compose(f, sympy_inverse(g))


def assert_basis_invariant(spec: GroupSpec, degree: int) -> int:
    inverses = [sympy_inverse(g) for g in spec.generators]
    basis = invariant_basis(spec, degree).basis
    for f in basis:
        assert f.is_homogeneous() and f.degree() == degree
        for ginv in inverses:
            assert sympy_compose(f, ginv) == terms_of(f)
    return len(basis)


def test_invariant_basis_is_invariant_on_family_specs():
    # the fixed_point_sweep groups, at their p-power degrees and one between
    for (p, m, lam), degrees in [
        ((2, 6, 0), (1, 2, 3)),
        ((3, 2, 0), (1, 2, 3, 9)),
        ((3, 2, 1), (1, 2, 3, 9)),
        ((3, 2, 2), (1, 2, 3, 9)),
    ]:
        spec = example_action(p, m, lam)
        found = [assert_basis_invariant(spec, d) for d in degrees]
        assert all(found)  # the coordinate functionals of the fixed space at least


def test_invariant_basis_is_invariant_on_random_groups():
    rng = random.Random(79)
    total = 0
    for _ in range(12):
        p = rng.choice((2, 3))
        n = rng.randrange(2, 4)
        spec, _ = support.random_small_group(rng, p, n, max_order=27)
        for degree in range(1, 5):
            total += assert_basis_invariant(spec, degree)
    assert total > 0


def assert_invariant_by_sympy(spec: GroupSpec, f: Polynomial) -> None:
    for g in spec.generators:
        assert sympy_compose(f, sympy_inverse(g)) == terms_of(f)


def symmetric_group(p: int, n: int) -> GroupSpec:
    """S_n permuting the coordinates of GF(p)^n, by a transposition and an n-cycle."""
    eye = np.eye(n, dtype=np.int64)
    return GroupSpec(p, n, (MatrixGFp(eye[[1, 0, *range(2, n)]], p), MatrixGFp(np.roll(eye, 1, 0), p)))


@pytest.mark.parametrize("p, n", [(2, 3), (3, 4), (3, 3), (5, 3)])
def test_norm_witness_on_symmetric_groups(p, n):
    # |S_n| = q*d with d > 1 in every case but S_3 over GF(5), where p does
    # not divide |G| and the witness is linear
    spec = symmetric_group(p, n)
    group = enumerate_group(spec)
    fact = factor_p_power(group.order, p)
    q = p**fact.r
    for v in enumerate_fixed_points(spec):
        w = invariants._norm_witness(group, v, spec.p, fact)
        assert w.is_homogeneous() and w.degree() == q
        assert w.evaluate(v).residue == 1
        assert_invariant_by_sympy(spec, w)


CONTRACT_SPECS = {
    "S3-GF2": symmetric_group(2, 3),  # d = 3, epsilon = 1 < q
    "S4-GF3": symmetric_group(3, 4),  # d = 8, epsilon = 1 < q
    "S3-GF3": symmetric_group(3, 3),  # d = 2, epsilon = q = 3
    "S3-GF5": symmetric_group(5, 3),  # p does not divide |G|: q = 1
    **{f"family-3-2-{lam}": example_action(3, 2, lam) for lam in range(3)},  # d = 1, q = 9
}


@pytest.mark.parametrize("name", sorted(CONTRACT_SPECS))
def test_norm_witness_is_the_reduced_orbit_norm(name):
    # the EpsilonResult contract: where epsilon = q = |G|_p the witness is
    # reduce_degree(spec, orbit_norm(spec, x_i), v).f_tilde; _norm_witness is
    # held to it at every fixed point, epsilon where its value is q
    spec = CONTRACT_SPECS[name]
    group = enumerate_group(spec)
    p = int(spec.p)
    fact = factor_p_power(group.order, p)
    q = p**fact.r
    at_q = 0
    for v in enumerate_fixed_points(spec):
        i = int(np.flatnonzero(v)[0])
        norm = orbit_norm(spec, Polynomial.variable(p, spec.n, i))
        reduced = reduce_degree(spec, norm, v).f_tilde
        assert invariants._norm_witness(group, v, spec.p, fact) == reduced
        res = epsilon(spec, v)
        if res.value == q:
            assert res.witness == reduced
            at_q += 1
    assert at_q > 0 or name in ("S3-GF2", "S4-GF3")


@pytest.mark.parametrize("p, m, lam", [*((7, 2, lam) for lam in range(7)), (5, 3, 0)])
def test_witness_at_scale_is_the_reduced_orbit_norm(monkeypatch, p, m, lam):
    # |G| = q = p^2 here, beyond the default slice limit: epsilon at e_m is q
    # and its witness, built from the orbit, is the reduced norm of x_(2m-1)
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "400000")
    spec = example_action(p, m, lam)
    n = 2 * m
    e_m = [0] * (n - 1) + [1]
    res = epsilon(spec, e_m)
    assert res.value == p**2
    norm = orbit_norm(spec, Polynomial.variable(p, n, n - 1))
    assert res.witness == reduce_degree(spec, norm, e_m).f_tilde


def test_witness_at_11_2_returns_promptly(monkeypatch):
    # |G| = 121 orbit forms: forming only the e_k that can reach e_121 takes
    # well under a second; forming every e_k up to e_121 took over ten
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "400000")
    proc = support.run_python(
        "-c",
        "import invred as iv; print(iv.epsilon(iv.example_action(11, 2, 0), [0, 0, 0, 1]).value)",
        timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "121"


def test_epsilon_at_fixed_points_matches_full_walk_and_sympy():
    rng = random.Random(83)
    groups = [symmetric_group(3, 3), symmetric_group(3, 4)]
    while len(groups) < 14:
        p = rng.choice((2, 3))
        groups.append(support.random_small_group(rng, p, rng.randrange(2, 4), 27)[0])
    seen = set()  # (p divides |G|, |G| > |G|_p) where epsilon = |G|_p
    for spec in groups:
        p, order = int(spec.p), enumerate_group(spec).order
        q = support.p_part(order, p)
        bases = {}
        for v in itertools.islice(enumerate_fixed_points(spec), 4):
            res = epsilon(spec, v)
            walked, _ = support.full_walk_epsilon(spec, v, order, bases)
            assert res.value == walked <= q
            assert res.witness.is_homogeneous() and res.witness.degree() == res.value
            assert res.witness.evaluate(v)
            assert_invariant_by_sympy(spec, res.witness)
            if res.value == q:
                seen.add((q > 1, order > q))
    # no elimination (p does not divide |G|), a p-group, and a truncation (d > 1)
    assert {(False, True), (True, False), (True, True)} <= seen


def matrices(p, n):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n
    )


@st.composite
def action_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 3))
    g = MatrixGFp(draw(matrices(p, n)), p)
    h = MatrixGFp(draw(matrices(p, n)), p)
    assume(g.is_invertible() and h.is_invertible())
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), st.integers(0, p - 1), max_size=6
    ))
    return g, h, Polynomial(p, n, terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(action_cases())
def test_action_law(case):
    g, h, f = case
    assert act(g, act(h, f)) == act(g @ h, f)
