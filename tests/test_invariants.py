import functools
import itertools
import math
import random

import numpy as np
import pytest

import support
from invred import (
    DomainError,
    FixedSpaceLimitError,
    GroupSpec,
    GroupTooLargeError,
    MatrixGFp,
    Polynomial,
    Prime,
    ShapeMismatchError,
    SliceLimitError,
    act,
    adapted_decomposition,
    delta_over_fixed_points,
    enumerate_fixed_points,
    enumerate_group,
    epsilon,
    example_action,
    extend_to_basis,
    fixed_space,
    induced_slice_matrix,
    invariant_basis,
    is_invariant,
    monomial_basis,
    orbit_norm,
    reduce_degree,
    slice_dimension,
    _kernels,
    poly,
)
from invred.invariants import _invariant_rows


def unipotent_2d_spec():
    return GroupSpec(Prime(2), 2, (MatrixGFp([[1, 1], [0, 1]], 2),))


# ---- induced slice matrices ---------------------------------------------------


def test_induced_identity():
    m = induced_slice_matrix(MatrixGFp.identity(3, 5), 3)
    dim = slice_dimension(3, 3)
    assert m == MatrixGFp(np.eye(dim, dtype=np.int64), 5)


def test_induced_degree_one_is_dual_action():
    rng = random.Random(3)
    for p in (2, 3):
        g = support.random_invertible(rng, p, 3)
        m = induced_slice_matrix(g, 1)
        for i in range(3):
            xi = Polynomial.variable(p, 3, i)
            expected = act(g, xi).coordinates(1)
            got = (m.entries @ xi.coordinates(1)) % p
            assert np.array_equal(got, expected)


def test_induced_gf2_degree2_fixture():
    g = unipotent_2d_spec().generators[0]
    m = induced_slice_matrix(g, 2)
    assert m.entries.tolist() == [[1, 0, 0], [0, 1, 0], [1, 1, 1]]


def test_induced_matches_act_on_monomials():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(4):
            n = rng.randrange(2, 4)
            d = rng.randrange(1, 4)
            g = support.random_invertible(rng, p, n)
            m = induced_slice_matrix(g, d)
            for mono in monomial_basis(n, d):
                f = Polynomial.monomial(p, n, mono.exponents)
                expected = act(g, f).coordinates(d)
                got = (m.entries @ f.coordinates(d)) % p
                assert np.array_equal(got, expected)


def test_induced_matches_act_at_largest_kernel_prime():
    p = 1048573  # largest prime below 2^20
    g = MatrixGFp([[p - 1, p - 2], [p - 3, p - 5]], p)
    for d in (1, 2, 3):
        m = induced_slice_matrix(g, d)
        for mono in monomial_basis(2, d):
            f = Polynomial.monomial(p, 2, mono.exponents)
            expected = act(g, f).coordinates(d)
            got = (m.entries @ f.coordinates(d)) % p  # at most 4 products < 2^40
            assert np.array_equal(got, expected)


def test_induced_is_multiplicative():
    rng = random.Random(7)
    p, n, d = 3, 3, 3
    g = support.random_invertible(rng, p, n)
    h = support.random_invertible(rng, p, n)
    lhs = induced_slice_matrix(g @ h, d)
    rhs = induced_slice_matrix(g, d) @ induced_slice_matrix(h, d)
    assert lhs == rhs


# ---- invariant bases ------------------------------------------------------------


def test_invariant_basis_trivial_group_is_all_monomials():
    for n, d in [(2, 3), (3, 2), (4, 1)]:
        basis = invariant_basis(GroupSpec.trivial(3, n), d)
        assert basis.dimension == slice_dimension(n, d) == math.comb(n + d - 1, d)
        got = {str(b) for b in basis.basis}
        assert got == {str(m) for m in monomial_basis(n, d)}


def test_invariant_basis_family_degree_one():
    for p, lam in [(2, 0), (2, 1), (3, 2)]:
        basis = invariant_basis(example_action(p, 2, lam), 1)
        assert basis.dimension == 2
        assert [str(b) for b in basis.basis] == ["x0", "x1"]


def test_invariant_basis_unipotent_degree2_fixture():
    basis = invariant_basis(unipotent_2d_spec(), 2)
    assert basis.dimension == 2
    assert [str(b) for b in basis.basis] == ["x0^2 + x0*x1", "x1^2"]


def test_invariant_basis_elements_are_invariant_and_independent():
    rng = random.Random(11)
    for _ in range(6):
        p = rng.choice((2, 3))
        spec, _ = support.random_small_group(rng, p, rng.randrange(2, 4), 27)
        d = rng.randrange(1, 5)
        basis = invariant_basis(spec, d)
        assert basis.dimension <= slice_dimension(spec.n, d)
        for b in basis.basis:
            assert b.is_homogeneous() and b.degree() == d
            assert is_invariant(b, spec)
        if basis.dimension:
            coords = np.array([b.coordinates(d) for b in basis.basis])
            _, piv = _kernels.rref_mod(coords, p)
            assert len(piv) == basis.dimension


def test_invariant_basis_rejects_degree_zero():
    with pytest.raises(DomainError):
        invariant_basis(GroupSpec.trivial(2, 2), 0)


def test_slice_limit_guard(monkeypatch):
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "5")
    with pytest.raises(SliceLimitError):
        invariant_basis(GroupSpec.trivial(2, 3), 4)  # dimension 15 > 5
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "bogus")
    with pytest.raises(DomainError):
        invariant_basis(GroupSpec.trivial(2, 3), 4)


@pytest.fixture
def built_levels(monkeypatch):
    """Row counts of the slice levels built while the test runs."""
    built = []
    next_level = _kernels.next_slice_level

    def recording(prev, parent_rank, *args):
        built.append(len(parent_rank))
        return next_level(prev, parent_rank, *args)

    monkeypatch.setattr(_kernels, "next_slice_level", recording)
    return built


def test_slice_limit_guard_runs_at_every_search_degree(monkeypatch, built_levels):
    # |G| = 4, so epsilon at this fixed point eliminates only at degrees 1
    # and 2 (dimension 10), then refuses the degree-4 witness (dimension 35)
    # before building it
    built = built_levels
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "15")
    with pytest.raises(SliceLimitError, match="slice dimension 35 at degree 4 exceeds limit 15"):
        epsilon(example_action(2, 2, 0), [0, 0, 0, 1])
    assert max(built) == 10


def test_epsilon_at_a_fixed_point_stops_below_the_p_part(built_levels):
    # |G| = 9 = |G|_p: epsilon eliminates at degrees 1 and 3 only and builds
    # the degree-9 witness from the orbit, not from a slice level
    res = epsilon(example_action(3, 3, 0), [0, 0, 0, 0, 0, 1])
    assert res.value == 9
    assert max(built_levels) == slice_dimension(6, 3) == 56


def _entry_point(name):
    # each call does degree-4 work in 3 variables: a slice of dimension 15
    p = Prime(2)
    g = MatrixGFp([[1, 1, 0], [0, 1, 1], [0, 0, 1]], p)
    spec = GroupSpec(p, 3, (g,))
    f = Polynomial(p, 3, {(4, 0, 0): 1, (2, 1, 1): 1})
    return {
        "slice_levels": lambda: list(itertools.islice(poly.slice_levels(g.entries, p), 4)),
        "slice_images": lambda: poly.slice_images(g.entries, 4, p),
        "induced_slice_matrix": lambda: induced_slice_matrix(g, 4),
        "invariant_basis": lambda: invariant_basis(spec, 4),
        "act": lambda: act(g, f),
        "is_invariant": lambda: is_invariant(f, spec),
        "orbit_norm": lambda: orbit_norm(spec, Polynomial.variable(p, 3, 0)),  # |G| = 4
        "substitute": lambda: f.substitute(g),
        "adapted_decomposition": lambda: adapted_decomposition(f, extend_to_basis([0, 0, 1], p), 4),
    }[name]


@pytest.mark.parametrize(
    "entry",
    ["slice_levels", "slice_images", "induced_slice_matrix", "invariant_basis", "act",
     "is_invariant", "orbit_norm", "substitute", "adapted_decomposition"],
)
def test_slice_limit_guard_at_every_entry_point(monkeypatch, built_levels, entry):
    # under a limit of 10 degree 3 (dimension 10) is allowed and degree 4 is
    # not: the walk builds levels 1 to 3 and stops, every other entry point
    # refuses before building any level
    call = _entry_point(entry)
    call()
    built_levels.clear()
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "10")
    with pytest.raises(SliceLimitError, match="slice dimension 15 at degree 4 exceeds limit 10"):
        call()
    assert built_levels == ([3, 6, 10] if entry == "slice_levels" else [])


@pytest.mark.parametrize(
    "code",
    [
        "iv.is_invariant(iv.Polynomial(2, 2, {(10**23, 0): 1}),"
        " iv.GroupSpec(2, 2, ([[1, 1], [0, 1]],)))",
        "iv.induced_slice_matrix(iv.example_action(3, 3, 0).generators[0], 40)",
    ],
    ids=["is_invariant_huge_exponent", "induced_slice_matrix_degree_40"],
)
def test_slice_limit_refuses_huge_library_work_promptly(code):
    # both used to run until killed; the default limit now refuses them at once
    proc = support.run_python("-c", f"import invred as iv; {code}")
    assert proc.returncode == 1
    assert "SliceLimitError: slice dimension" in proc.stderr


# ---- epsilon ---------------------------------------------------------------------


def test_epsilon_trivial_group():
    spec = GroupSpec.trivial(5, 3)
    res = epsilon(spec, [1, 0, 0])
    assert res.value == 1 and res.searched_bound == 1
    assert str(res.witness) == "x0"


def test_epsilon_rejects_zero_vector():
    with pytest.raises(DomainError):
        epsilon(GroupSpec.trivial(3, 2), [0, 0])
    with pytest.raises(ShapeMismatchError):
        epsilon(GroupSpec.trivial(3, 2), [1])


def test_epsilon_family_p2():
    for lam in (0, 1):
        res = epsilon(example_action(2, 2, lam), [0, 0, 0, 1])
        assert res.value == 4


def test_epsilon_bound_can_be_too_small():
    spec = example_action(2, 2, 0)
    res = epsilon(spec, [0, 0, 0, 1], bound=3)
    assert res.value is None and res.witness is None
    assert not res.is_finite
    assert res.searched_bound == 3


def test_epsilon_bound_at_a_fixed_point_of_a_group_over_the_cap(monkeypatch, built_levels):
    # with the group over the enumeration cap there is no |G|_p to stop at:
    # an explicit bound still answers by walking its powers of p, here up to
    # degree 4 (dimension 35); without a bound there is no |G| to search to
    spec, v = example_action(2, 2, 0), [0, 0, 0, 1]
    monkeypatch.setattr(
        "invred.invariants.enumerate_group", functools.partial(enumerate_group, cap=2)
    )
    res = epsilon(spec, v, bound=5)
    assert (res.value, res.witness) == support.full_walk_epsilon(spec, v, 5)
    assert res.value == 4 and max(built_levels) == 35
    assert epsilon(spec, v, bound=3).value is None
    with pytest.raises(GroupTooLargeError):
        epsilon(spec, v)


def test_epsilon_default_bound_is_finite_at_every_nonzero_point():
    # the default bound is |G|, and an orbit norm of degree |G| separates
    # every nonzero point from zero, fixed or not
    stream = support.spec_stream(1603, max_order=9)
    nonfixed = 0
    for _ in range(30):
        spec, order = next(stream)
        for v in itertools.product(range(int(spec.p)), repeat=spec.n):
            if any(v):
                res = epsilon(spec, v)
                assert res.is_finite and res.value <= order
                nonfixed += any(not np.array_equal(g.apply(v), v) for g in spec.generators)
    assert nonfixed >= 100


def test_epsilon_witness_properties():
    rng = random.Random(13)
    for _ in range(8):
        p = rng.choice((2, 3))
        spec, order = support.random_small_group(rng, p, rng.randrange(2, 4), 27)
        v = support.random_fixed_point(rng, spec)
        if v is None:
            continue
        res = epsilon(spec, v, bound=order)
        assert res.is_finite and res.value <= order
        w = res.witness
        assert w.is_homogeneous() and w.degree() == res.value
        assert w.evaluate(v)
        assert is_invariant(w, spec)
        # no earlier degree separates
        for d in range(1, res.value):
            assert all(not b.evaluate(v) for b in invariant_basis(spec, d).basis)
        # the witness is the reduced orbit norm where epsilon = |G|_p, else the
        # separating basis element with the least leading monomial
        separating = [b for b in invariant_basis(spec, res.value).basis if b.evaluate(v)]
        least = min(separating, key=lambda b: b.leading_monomial())
        assert w == support.epsilon_witness(spec, v, order, res.value, least)


def test_epsilon_scaling_invariance():
    rng = random.Random(17)
    for _ in range(6):
        p = rng.choice((3, 5))
        spec, order = support.random_small_group(rng, p, 2, 27)
        v = support.random_fixed_point(rng, spec)
        if v is None:
            continue
        base = epsilon(spec, v, bound=order).value
        for c in range(2, p):
            scaled = (v * c) % p
            assert epsilon(spec, scaled, bound=order).value == base


def test_epsilon_power_law_on_fixed_points():
    rng = random.Random(19)
    checked = 0
    while checked < 10:
        p = rng.choice((2, 3))
        spec, order = support.random_small_group(rng, p, rng.randrange(2, 4), 27)
        v = support.random_fixed_point(rng, spec)
        if v is None:
            continue
        checked += 1
        # the least separating degree over every degree, not only the p-powers
        walked, witness = support.full_walk_epsilon(spec, v, order)
        assert support.is_p_power(walked, p)
        assert walked <= support.p_part(order, p)
        res = epsilon(spec, v, bound=order)
        assert res.value == walked
        assert res.witness == support.epsilon_witness(spec, v, order, walked, witness)


def test_epsilon_at_a_non_fixed_point_walks_every_degree():
    # a generator of order 7 over GF(2); (0, 0, 1) is not fixed, so the
    # p-power law says nothing there and epsilon is 3
    g = MatrixGFp([[1, 1, 1], [1, 0, 0], [1, 1, 0]], 2)
    spec = GroupSpec(Prime(2), 3, (g,))
    v = [0, 0, 1]
    assert enumerate_group(spec).order == 7
    assert list(g.apply(v)) != v
    res = epsilon(spec, v)
    assert res.value == 3
    assert res.witness in invariant_basis(spec, 3).basis


# ---- orbit norm -------------------------------------------------------------------


def test_orbit_norm_trivial_group():
    l = Polynomial.variable(5, 2, 1)
    assert orbit_norm(GroupSpec.trivial(5, 2), l) == l


def test_orbit_norm_gf2_fixture():
    spec = unipotent_2d_spec()
    norm = orbit_norm(spec, Polynomial.variable(2, 2, 0))
    assert norm == Polynomial(2, 2, {(2, 0): 1, (1, 1): 1})


def test_orbit_norm_properties():
    rng = random.Random(23)
    for _ in range(5):
        p = rng.choice((2, 3))
        spec, order = support.random_small_group(rng, p, 2, 9)
        coeffs = [rng.randrange(p) for _ in range(2)]
        if not any(coeffs):
            coeffs[0] = 1
        l = Polynomial(p, 2, {(1, 0): coeffs[0], (0, 1): coeffs[1]})
        norm = orbit_norm(spec, l)
        assert norm.is_homogeneous() and norm.degree() == order
        assert is_invariant(norm, spec)
        v = support.random_fixed_point(rng, spec)
        if v is not None:
            assert norm.evaluate(v) == l.evaluate(v) ** order


def test_orbit_norm_rejects_nonlinear():
    spec = GroupSpec.trivial(3, 2)
    with pytest.raises(DomainError):
        orbit_norm(spec, Polynomial(3, 2, {(2, 0): 1}))
    with pytest.raises(DomainError):
        orbit_norm(spec, Polynomial.one(3, 2))


# ---- fixed-point enumeration and delta ----------------------------------------------


def test_enumerate_fixed_points_family():
    pts = list(enumerate_fixed_points(example_action(2, 2, 0)))
    assert sorted(tuple(int(x) for x in v) for v in pts) == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
    ]


def test_enumerate_fixed_points_limit():
    with pytest.raises(FixedSpaceLimitError):
        list(enumerate_fixed_points(GroupSpec.trivial(3, 4), max_points=10))


def test_delta_trivial_group():
    assert delta_over_fixed_points(GroupSpec.trivial(3, 2)).value == 1


def test_delta_no_fixed_points_is_zero():
    # -I on GF(3)^2 fixes only zero
    spec = GroupSpec(Prime(3), 2, (MatrixGFp([[2, 0], [0, 2]], 3),))
    assert delta_over_fixed_points(spec).value == 0


def test_delta_family_p2():
    for lam in (0, 1):
        assert delta_over_fixed_points(example_action(2, 2, lam)).value == 4


def test_delta_bounded_by_group_order():
    rng = random.Random(29)
    for _ in range(5):
        p = rng.choice((2, 3))
        spec, order = support.random_small_group(rng, p, 2, 9)
        assert delta_over_fixed_points(spec).value <= order


DELTA_SPECS = {
    "family-2-6-0": example_action(2, 6, 0),
    "family-3-2-0": example_action(3, 2, 0),
    "family-3-2-1": example_action(3, 2, 1),
    "family-3-2-2": example_action(3, 2, 2),
    "trivial": GroupSpec.trivial(3, 2),
    "no-fixed-points": GroupSpec(Prime(3), 2, (MatrixGFp([[2, 0], [0, 2]], 3),)),
}


@pytest.mark.parametrize("name", sorted(DELTA_SPECS))
def test_delta_result_matches_independent_calls(name):
    spec = DELTA_SPECS[name]
    res = delta_over_fixed_points(spec)
    order = enumerate_group(spec).order
    points = list(enumerate_fixed_points(spec))
    assert res.group_order == order
    assert res.fixed_space_dimension == len(fixed_space(spec))
    assert len(res.points) == len(res.epsilons) == len(points)
    for got, want in zip(res.points, points):
        assert np.array_equal(got, want)
    for v, eps in zip(res.points, res.epsilons):
        assert eps.value == epsilon(spec, v).value
        assert eps.searched_bound == order
    assert res.value == max((eps.value for eps in res.epsilons), default=0)


# ---- g^-1 only where act's convention needs it ------------------------------------

# the four fixed_point_sweep family groups and seeded small groups
REFERENCE_SPECS = [example_action(*args) for args in ((2, 6, 0), (3, 2, 0), (3, 2, 1), (3, 2, 2))]
REFERENCE_SPECS += [spec for spec, _ in itertools.islice(support.spec_stream(1701), 10)]


def test_computations_outside_act_never_invert(monkeypatch):
    # invariance, bases, epsilon, delta, the orbit norm and the reduction
    # depend on G only through the polynomials it fixes; none inverts g
    spec = example_action(2, 2, 1)
    e_m = [0, 0, 0, 1]

    def refuse(self):
        raise AssertionError("MatrixGFp.inv called")

    monkeypatch.setattr(MatrixGFp, "inv", refuse)
    assert invariant_basis(spec, 2).dimension > 0
    res = epsilon(spec, e_m)
    assert res.value == 4
    assert delta_over_fixed_points(spec).value == 4
    assert is_invariant(res.witness, spec)
    assert not is_invariant(Polynomial.variable(2, 4, 3), spec)
    norm = orbit_norm(spec, Polynomial.variable(2, 4, 3))
    assert reduce_degree(spec, norm, e_m).f_tilde == res.witness


def test_invariant_basis_matches_the_inverse_action_system():
    # g and g^-1 fix the same slice vectors, so the stacked system keeps its
    # row space and the basis is the same as from act's matrices
    for spec in REFERENCE_SPECS:
        n, p = spec.n, spec.p
        for d in range(1, 4 if n > 4 else 7):
            tables = [poly.slice_images(g.inv().entries, d, p) for g in spec.generators]
            want = [Polynomial.from_coordinates(p, n, d, row)
                    for row in _invariant_rows(tables, p)]
            assert list(invariant_basis(spec, d).basis) == want


def test_is_invariant_matches_act_on_the_generators():
    rng = random.Random(1703)
    seen = {True: 0, False: 0}
    for spec in REFERENCE_SPECS:
        n, p = spec.n, int(spec.p)
        candidates = [support.random_polynomial(rng, p, n, 4) for _ in range(4)]
        for d in (1, 2, p):
            for b in invariant_basis(spec, d).basis:
                candidates += [b, b + Polynomial.variable(p, n, 0) ** d]
        for f in candidates:
            got = is_invariant(f, spec)
            assert got == all(act(g, f) == f for g in spec.generators)
            seen[got] += 1
    assert min(seen.values()) > 10


def test_orbit_norm_matches_the_product_of_act_images():
    # over the group the forms l o g are the images act(g, l) in another order
    rng = random.Random(1707)
    for spec in REFERENCE_SPECS:
        n, p = spec.n, int(spec.p)
        group = enumerate_group(spec)
        for _ in range(3):
            coeffs = [rng.randrange(p) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            l = Polynomial.from_coordinates(p, n, 1, coeffs)
            want = functools.reduce(lambda a, g: a * act(g, l), group, Polynomial.one(p, n))
            assert orbit_norm(spec, l) == want
