import random

import numpy as np
import pytest

import support
from invred import (
    DomainError,
    FieldElement,
    GroupSpec,
    GroupTooLargeError,
    MatrixGFp,
    Polynomial,
    Prime,
    ShapeMismatchError,
    SingularMatrixError,
    _kernels,
    act,
    enumerate_group,
    epsilon,
    example_action,
    fixed_space,
    is_invariant,
    reduce_degree,
)
from invred.group import as_vector, fixes


def unipotent_2d_spec():
    # order-2 action over GF(2): fixes v0, sends v1 to v0 + v1
    return GroupSpec(Prime(2), 2, (MatrixGFp([[1, 1], [0, 1]], 2),))


# ---- matrices ---------------------------------------------------------------


def test_identity_inverse():
    eye = MatrixGFp.identity(3, 5)
    assert eye.inv() == eye


def test_unipotent_self_inverse_gf2():
    g = MatrixGFp([[1, 0], [1, 1]], 2)
    assert g.inv() == g
    assert g @ g == MatrixGFp.identity(2, 2)


def test_matmul_identity():
    rng = random.Random(5)
    a = support.random_matrix(rng, 7, 3)
    assert a @ MatrixGFp.identity(3, 7) == a


def test_inverse_random_roundtrip():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(10):
            a = support.random_invertible(rng, p, rng.randrange(1, 5))
            assert a @ a.inv() == MatrixGFp.identity(a.n, p)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        MatrixGFp([[1, 1], [1, 1]], 2).inv()


def test_matrix_pow_and_getitem():
    g = MatrixGFp([[1, 0], [1, 1]], 3)
    assert g**3 == MatrixGFp.identity(2, 3)
    assert g**-1 == g.inv()
    assert g[1, 0] == FieldElement(1, Prime(3))


def test_largest_kernel_prime_inverts_exactly():
    p = 1048573  # largest prime below 2^20
    g = MatrixGFp([[p - 1, p - 2], [p - 3, p - 5]], p)
    assert g @ g.inv() == MatrixGFp.identity(2, p)


def test_prime_above_kernel_range_is_rejected():
    with pytest.raises(DomainError):
        MatrixGFp([[1, 0], [0, 1]], 1048583)  # next prime after 1048573
    # a spec over such a prime builds its generators, which refuse it
    with pytest.raises(DomainError, match="exceeds 1048573"):
        GroupSpec(10**18 + 3, 1, ([[1]],))


def test_fixes_reads_points_as_residues():
    # e_4 is fixed; 4 and -1 are 1 and 2 in GF(3), not points of their own
    spec = example_action(3, 2, 0)
    assert fixes(spec, [0, 0, 0, 4]) and fixes(spec, [[0, 0, 0, 1], [0, 0, 0, -1]])
    assert not fixes(spec, [1, 0, 0, 0])


def test_entries_beyond_int64_are_reduced():
    # they used to overflow the int64 cast with a bare OverflowError
    assert MatrixGFp([[10**30, 1], [0, 1]], 3) == MatrixGFp([[1, 1], [0, 1]], 3)
    assert MatrixGFp([[2**63 + 1, -1], [0, 1]], 3) == MatrixGFp([[0, 2], [0, 1]], 3)
    f = Polynomial.variable(3, 2, 0)
    assert f.substitute([[10**30, 0], [0, 1]]) == f


def test_matrix_shape_validation():
    with pytest.raises(ShapeMismatchError):
        MatrixGFp([[1, 2, 3], [4, 5, 6]], 7)
    with pytest.raises(ShapeMismatchError):
        MatrixGFp.identity(2, 3) @ MatrixGFp.identity(3, 3)


# ---- group specs and enumeration -------------------------------------------


def test_groupspec_validates_generators():
    with pytest.raises(SingularMatrixError):
        GroupSpec(Prime(2), 2, (MatrixGFp([[1, 1], [1, 1]], 2),))
    with pytest.raises(DomainError):
        GroupSpec(Prime(2), 2, ())
    with pytest.raises(ShapeMismatchError):
        GroupSpec(Prime(2), 2, (MatrixGFp.identity(3, 2),))


def test_enumerate_trivial_group():
    assert enumerate_group(GroupSpec.trivial(5, 3)).order == 1


def test_enumerate_family_order_p_squared():
    assert enumerate_group(example_action(2, 2, 0)).order == 4
    assert enumerate_group(example_action(3, 2, 1)).order == 9


def test_enumerate_cyclic_gf3():
    spec = GroupSpec(Prime(3), 2, (MatrixGFp([[1, 0], [1, 1]], 3),))
    assert enumerate_group(spec).order == 3


def test_enumerate_closure_and_identity():
    rng = random.Random(11)
    spec, order = support.random_small_group(rng, 3, 2, 27)
    elements = enumerate_group(spec)
    assert elements.order == order
    members = set(elements.elements)
    assert MatrixGFp.identity(2, 3) in members
    for a in elements:
        for b in elements:
            assert a @ b in members
        assert a.inv() in members


def test_enumerate_cap_exceeded():
    spec = GroupSpec(Prime(3), 2, (MatrixGFp([[1, 0], [1, 1]], 3),))
    with pytest.raises(GroupTooLargeError):
        enumerate_group(spec, cap=2)


def plain_search(spec):
    """The breadth-first closure on tuples of Python ints: an oracle that
    shares no arithmetic with the package."""
    p, n = int(spec.p), spec.n
    gens = [tuple(map(tuple, g.entries.tolist())) for g in spec.generators]

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
            for i in range(n)
        )

    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    found, frontier = {identity: None}, [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mul(m, g)
                if prod not in found:
                    found[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return list(found)


def enumeration_specs():
    family = ((2, 2, 0), (2, 6, 0), (3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 3, 0), (5, 2, 0))
    specs = [example_action(p, m, lam) for p, m, lam in family]
    stream = support.spec_stream(19)
    specs += [next(stream)[0] for _ in range(12)]
    # order 4 at the largest accepted prime: products of entries p - 1 are
    # near 2^40, so the int64 search must not wrap
    big = _kernels.MAX_PRIME
    specs.append(GroupSpec(Prime(big), 2, (MatrixGFp([[0, big - 1], [1, 0]], big),)))
    return specs


def test_enumerate_order_matches_plain_search():
    specs = enumeration_specs()
    for spec in specs:
        elements = enumerate_group(spec)
        assert [tuple(map(tuple, g.entries.tolist())) for g in elements] == plain_search(spec)
        assert all(g.p == spec.p and g.entries.dtype == np.int64 for g in elements)
    assert enumerate_group(specs[-1]).order == 4


def test_enumerate_cap_is_exactly_the_order():
    for spec in enumeration_specs():
        order = enumerate_group(spec).order
        assert enumerate_group(spec, cap=order).order == order
        if order > 1:
            with pytest.raises(GroupTooLargeError):
                enumerate_group(spec, cap=order - 1)


# ---- the action -------------------------------------------------------------


def test_act_identity():
    rng = random.Random(13)
    f = support.random_polynomial(rng, 3, 3, 4)
    assert act(MatrixGFp.identity(3, 3), f) == f


def test_act_unipotent_fixture():
    spec = unipotent_2d_spec()
    g = spec.generators[0]
    x0 = Polynomial.variable(2, 2, 0)
    assert act(g, x0) == Polynomial(2, 2, {(1, 0): 1, (0, 1): 1})
    f = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1})
    assert act(g, f) == f


def test_act_fixed_point_gives_translation_by_linear_form():
    # when g fixes e0, the image of x0 is x0 plus a form in the other variables
    for p, m, lam in [(2, 2, 1), (3, 3, 2)]:
        spec = example_action(p, m, lam)
        x0 = Polynomial.variable(p, 2 * m, 0)
        for g in spec.generators:
            gamma = act(g, x0) - x0
            assert gamma.is_zero or (
                gamma.is_homogeneous()
                and gamma.degree() == 1
                and all(e[0] == 0 for e in gamma.terms)
            )


def test_act_is_a_group_action():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(8):
            n = rng.randrange(2, 4)
            g = support.random_invertible(rng, p, n)
            h = support.random_invertible(rng, p, n)
            f = support.random_polynomial(rng, p, n, 3)
            assert act(g, act(h, f)) == act(g @ h, f)


def test_act_shape_error():
    with pytest.raises(ShapeMismatchError):
        act(MatrixGFp.identity(3, 2), Polynomial.one(2, 2))


def test_mixed_moduli_are_refused_not_reduced():
    # x0 -> x0 + 4*x1 over GF(5) would read as x0 + x1 over GF(3)
    g = MatrixGFp([[1, 4], [0, 1]], 5)
    f = Polynomial.variable(3, 2, 0)
    entries = [[FieldElement(4, 5), 0], [0, 1]]
    for call in (lambda: f.substitute(g), lambda: act(g, f),
                 lambda: is_invariant(f, GroupSpec(Prime(5), 2, (g,))),
                 lambda: MatrixGFp(g, 3), lambda: MatrixGFp(entries, 3),
                 lambda: f.substitute(entries), lambda: GroupSpec(3, 2, (g,))):
        with pytest.raises(ShapeMismatchError, match=r"mixed moduli: GF\(3\) and GF\(5\)"):
            call()


def test_as_vector_refuses_a_field_element_over_another_field():
    assert as_vector([0, 4, FieldElement(2, 3)], 3, 3).tolist() == [0, 1, 2]
    with pytest.raises(ShapeMismatchError, match="mixed moduli"):
        as_vector([0, 0, 0, FieldElement(4, 5)], 4, 3)
    # the separating invariant at e_3 is fine; only the point is over GF(5)
    spec = example_action(3, 2, 0)
    f = epsilon(spec, [0, 0, 0, 1]).witness
    with pytest.raises(ShapeMismatchError, match="mixed moduli"):
        reduce_degree(spec, f, [0, 0, 0, FieldElement(4, 5)])


# ---- fixed spaces ------------------------------------------------------------


def test_fixed_space_trivial_group():
    basis = fixed_space(GroupSpec.trivial(3, 4))
    assert len(basis) == 4
    assert np.array_equal(np.array(basis), np.eye(4, dtype=np.int64))


def test_fixed_space_family_is_second_block():
    for lam in (0, 1):
        spec = example_action(2, 2, lam)
        basis = fixed_space(spec)
        assert len(basis) == 2
        span = {tuple(int(x) for x in v) for v in basis}
        assert span == {(0, 0, 1, 0), (0, 0, 0, 1)}


def test_fixed_space_unipotent_2d():
    basis = fixed_space(unipotent_2d_spec())
    assert [v.tolist() for v in basis] == [[1, 0]]


def test_fixed_space_vectors_are_fixed():
    rng = random.Random(19)
    for _ in range(10):
        spec, _ = support.random_small_group(rng, rng.choice((2, 3)), 3, 27)
        for v in fixed_space(spec):
            for g in spec.generators:
                assert np.array_equal(g.apply(v), v)


# ---- invariance --------------------------------------------------------------


def test_constants_are_invariant():
    spec = unipotent_2d_spec()
    assert is_invariant(Polynomial.constant(2, 2, 1), spec)
    assert is_invariant(Polynomial.zero(2, 2), spec)


def test_is_invariant_fixture():
    spec = unipotent_2d_spec()
    assert is_invariant(Polynomial(2, 2, {(2, 0): 1, (1, 1): 1}), spec)
    assert not is_invariant(Polynomial.variable(2, 2, 0), spec)


@pytest.mark.parametrize("linear,expected", [((1, 0), False), ((0, 1), True)])
def test_is_invariant_on_inhomogeneous_polynomial(monkeypatch, linear, expected):
    # x0^2 + x0*x1 is invariant; x0 is not, x1 is. The whole polynomial is
    # substituted once per generator, not once per homogeneous component
    spec = unipotent_2d_spec()
    f = Polynomial(2, 2, {(2, 0): 1, (1, 1): 1, linear: 1})
    calls = []
    substitute = Polynomial.substitute

    def counting(self, matrix):
        calls.append(self)
        return substitute(self, matrix)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    assert is_invariant(f, spec) is expected
    assert calls == [f]


def test_invariance_extends_to_whole_group():
    # generator criterion implies invariance under every element
    rng = random.Random(23)
    found = 0
    while found < 6:
        spec, _ = support.random_small_group(rng, rng.choice((2, 3)), 2, 9)
        f = support.random_polynomial(rng, int(spec.p), 2, 3)
        if not is_invariant(f, spec):
            continue
        found += 1
        for g in enumerate_group(spec):
            assert act(g, f) == f


def test_is_invariant_on_many_term_high_degree_components():
    # many-term components of high degree, accepted and rejected alike
    spec = example_action(3, 2, 1)
    from invred import invariant_basis, orbit_norm

    w = invariant_basis(spec, 9).basis[0]
    big = w * w  # degree 18 with many terms
    assert is_invariant(big, spec)
    for g in spec.generators:
        assert act(g, big) == big
    x0 = Polynomial.variable(3, 4, 0)
    norm = orbit_norm(spec, x0)
    assert is_invariant(norm, spec)
    x3 = Polynomial.variable(3, 4, 3)
    assert not is_invariant(big + x3**18, spec)


# ---- the built-in family ------------------------------------------------------


def test_example_action_requires_m_at_least_2():
    with pytest.raises(DomainError):
        example_action(2, 1, 0)


def test_example_action_shapes_and_orders():
    for p, lam in [(2, 0), (2, 1), (3, 2)]:
        spec = example_action(p, 2, lam)
        assert spec.n == 4
        assert all(g.n == 4 for g in spec.generators)
        for g in spec.generators:
            assert g**p == MatrixGFp.identity(4, p)
        g1, g2 = spec.generators
        assert g1 @ g2 == g2 @ g1
        assert enumerate_group(spec).order == p * p


def test_example_action_dual_table():
    p, m, lam = 5, 3, 2
    spec = example_action(p, m, lam)
    n = 2 * m
    g1, g2 = spec.generators
    xs = [Polynomial.variable(p, n, i) for i in range(m)]
    ys = [Polynomial.variable(p, n, m + i) for i in range(m)]
    for g in (g1, g2):
        for x in xs:
            assert act(g, x) == x
    for j in range(m):
        assert act(g1, ys[j]) == ys[j] - xs[j]
    assert act(g2, ys[0]) == ys[0] - xs[0].scale(lam)
    for j in range(1, m):
        assert act(g2, ys[j]) == ys[j] - xs[j].scale(lam) - xs[j - 1]


def test_example_action_accepts_field_element_lambda():
    spec = example_action(3, 2, FieldElement(5, Prime(3)))
    assert spec.generators[1][2, 0] == FieldElement(2, Prime(3))
