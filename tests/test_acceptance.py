"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Randomized criteria use fixed seeds and are fully reproducible.
"""

import math
import random
import time

import pytest

import support
import invred as iv

SPEC_SEED = 424242
TRIAL_SEED = 20260810
TRIAL_COUNT = 500


def report_line(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def warm_kernels():
    # exclude one-time JIT compilation and table building from timed sections;
    # the computation itself is re-done from scratch inside the timings
    spec = iv.example_action(2, 2, 0)
    iv.epsilon(spec, [0, 0, 0, 1])


# ---------------------------------------------------------------------------
# 1. built-in family, p = 2: epsilon at the fixed basis point is exactly 4
# ---------------------------------------------------------------------------


def test_criterion_1_family_p2_epsilon():
    warm_kernels()
    worst = 0.0
    for lam in (0, 1):
        spec = iv.example_action(2, 2, lam)
        start = time.perf_counter()
        res = iv.epsilon(spec, [0, 0, 0, 1])
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert res.value == 4, f"lambda={lam}: epsilon {res.value} != 4"
        w = res.witness
        assert w.is_homogeneous() and w.degree() == 4
        assert w.evaluate([0, 0, 0, 1])
        assert iv.is_invariant(w, spec)
        assert elapsed < 1.0, f"lambda={lam}: epsilon took {elapsed:.3f}s"
    report_line(
        1, True, f"p=2, m=2, lambda in {{0,1}}: epsilon = 4 with verified witness, "
        f"worst case {worst * 1000:.1f} ms"
    )


# ---------------------------------------------------------------------------
# 2. built-in family, p = 3: nothing separates in degrees 1..8, degree 9 does
# ---------------------------------------------------------------------------


def test_criterion_2_family_p3_exhaustive():
    warm_kernels()
    e_m = [0, 0, 0, 1]
    start = time.perf_counter()
    for lam in (0, 1, 2):
        spec = iv.example_action(3, 2, lam)
        for d in range(1, 9):
            dim = iv.slice_dimension(4, d)
            assert dim <= 165, f"degree {d} slice dimension {dim} > 165"
            basis = iv.invariant_basis(spec, d)
            assert all(
                not b.evaluate(e_m) for b in basis.basis
            ), f"lambda={lam}: degree {d} separates"
        res = iv.epsilon(spec, e_m)
        assert res.value == 9, f"lambda={lam}: epsilon {res.value} != 9"
        assert res.witness.evaluate(e_m) and iv.is_invariant(res.witness, spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report_line(
        2, True, f"p=3, m=2, all lambda: no separator in degrees 1..8 "
        f"(slice dims <= 165), epsilon = 9, total {elapsed:.2f} s"
    )


# ---------------------------------------------------------------------------
# 3. delta over the fixed points of the p = 2 family equals |G| = 4
# ---------------------------------------------------------------------------


def test_criterion_3_family_delta():
    for lam in (0, 1):
        spec = iv.example_action(2, 2, lam)
        order = iv.enumerate_group(spec).order
        value = iv.delta_over_fixed_points(spec).value
        assert value == 4 == order, f"lambda={lam}: delta {value}, order {order}"
    report_line(3, True, "p=2, m=2: delta over fixed points = 4 = |G|")


# ---------------------------------------------------------------------------
# 4. 500 randomized reduction runs, zero failures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reduction_runs():
    rng = random.Random(TRIAL_SEED)
    stream = support.spec_stream(SPEC_SEED, max_order=9)
    runs = []
    while len(runs) < TRIAL_COUNT:
        spec, order = next(stream)
        trial = support.reduction_trial(rng, spec, order)
        if trial is None:
            continue
        v, r, d, f = trial
        runs.append((spec, order, v, r, d, f))
    return runs


def test_criterion_4_reduction_property(reduction_runs):
    failures = 0
    r_values = set()
    for spec, order, v, r, d, f in reduction_runs:
        p = int(spec.p)
        assert f.is_homogeneous() and f.degree() == p**r * d
        assert f.evaluate(v)
        result = iv.reduce_degree(spec, f, v)
        out = result.f_tilde
        ok = (
            out.is_homogeneous()
            and out.degree() == p**r
            and out.evaluate(v).residue == 1
            and iv.is_invariant(out, spec)
        )
        if not ok:
            failures += 1
        r_values.add(r)
    assert r_values == {0, 1, 2}
    report_line(
        4,
        failures == 0,
        f"{len(reduction_runs)} randomized reductions (p in {{2,3}}, n <= 3, "
        f"|G| <= 9, r <= 2, d in {{1,3,5}}): {failures} failures",
    )


# ---------------------------------------------------------------------------
# 5. every finite epsilon at a nonzero fixed point is 1 or a power of p
# ---------------------------------------------------------------------------


def test_criterion_5_p_power_law():
    # at fixed points epsilon eliminates only at p-powers below |G|_p, so the
    # law is checked on a full walk over every degree 1..|G| through
    # invariant_basis
    stream = support.spec_stream(SPEC_SEED, max_order=9)
    points_checked = 0
    exceptions = 0
    for _ in range(300):
        spec, order = next(stream)
        p = int(spec.p)
        bases = {}
        for v in iv.enumerate_fixed_points(spec):
            walked, witness = support.full_walk_epsilon(spec, v, order, bases)
            assert walked is not None, "fixed point with no separator up to |G|"
            if not support.is_p_power(walked, p) or walked > support.p_part(order, p):
                exceptions += 1
            res = iv.epsilon(spec, v, bound=order)
            assert res.value == walked
            assert res.witness == support.epsilon_witness(spec, v, order, walked, witness)
            points_checked += 1
    report_line(
        5,
        exceptions == 0 and points_checked >= 500,
        f"{points_checked} fixed points over 300 random groups: every epsilon "
        f"a p-power or 1 and at most the p-part of |G|, {exceptions} exceptions",
    )


# ---------------------------------------------------------------------------
# 6. binomial congruence and digit-wise binomials, exhaustively
# ---------------------------------------------------------------------------


def test_criterion_6_binomial_suites():
    checked = 0
    for p in (2, 3, 5):
        for r in range(4):
            q = p**r
            for d in range(1, 7):
                for k in range(1, q + 1):
                    for j in range(q - k + 1):
                        assert iv.binomial_congruence_holds(p, r, d, k, j), (p, r, d, k, j)
                        checked += 1
    mismatches = 0
    for p in (2, 3, 5, 7):
        for a in range(201):
            for b in range(201):
                if iv.lucas_binomial(a, b, p).residue != math.comb(a, b) % p:
                    mismatches += 1
    report_line(
        6,
        mismatches == 0,
        f"congruence holds at {checked} points (p<=5, r<=3, d<=6); digit-wise "
        f"binomials match factorials for a,b <= 200, p in {{2,3,5,7}}",
    )


# ---------------------------------------------------------------------------
# 7. r = 0 inputs always reduce to a linear invariant
# ---------------------------------------------------------------------------


def test_criterion_7_linear_specialization(reduction_runs):
    from_main = 0
    for spec, order, v, r, d, f in reduction_runs:
        if r != 0:
            continue
        result = iv.reduce_degree(spec, f, v)
        assert result.f_tilde.degree() == 1
        from_main += 1

    rng = random.Random(TRIAL_SEED + 7)
    stream = support.spec_stream(SPEC_SEED + 7, max_order=9)
    dedicated = 0
    while dedicated < 60:
        spec, order = next(stream)
        p = int(spec.p)
        trial = support.reduction_trial(rng, spec, order, max_r=0, ds=(3, 5))
        if trial is None:
            continue
        v, r, d, f = trial
        assert r == 0 and f.degree() == d
        result = iv.reduce_degree(spec, f, v)
        assert result.f_tilde.degree() == 1
        assert result.f_tilde.evaluate(v).residue == 1
        dedicated += 1
    report_line(
        7,
        True,
        f"degree-coprime-to-p inputs reduce to linear invariants "
        f"({from_main} from the main stream, {dedicated} dedicated)",
    )


# ---------------------------------------------------------------------------
# 8. the worked GF(2) fixture reduces to exactly x0^2 + x0*x1 + x1^2
# ---------------------------------------------------------------------------


def test_criterion_8_gf2_fixture():
    spec = iv.GroupSpec(iv.Prime(2), 2, (iv.MatrixGFp([[1, 1], [0, 1]], 2),))
    f = iv.Polynomial(2, 2, {(2, 0): 1, (1, 1): 1}) ** 3
    # frozen symbolic expansion of (x0^2 + x0*x1)^3 over GF(2)
    assert f == iv.Polynomial(2, 2, {(6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1})
    result = iv.reduce_degree(spec, f, [1, 0])
    expected = iv.Polynomial(2, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    ok = result.f_tilde == expected and iv.is_invariant(result.f_tilde, spec)
    report_line(8, ok, "reducing (x0^2 + x0*x1)^3 at e0 gives x0^2 + x0*x1 + x1^2")
