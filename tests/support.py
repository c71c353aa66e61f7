"""Deterministic random algebra objects shared across the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import invred as iv


def run_python(*args: str, timeout: float = 20) -> subprocess.CompletedProcess:
    """``python *args`` with this invred importable; a run that hangs fails
    the calling test with subprocess.TimeoutExpired after ``timeout`` seconds."""
    src = Path(iv.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def random_matrix(rng: random.Random, p: int, n: int) -> iv.MatrixGFp:
    return iv.MatrixGFp([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)


def random_invertible(rng: random.Random, p: int, n: int) -> iv.MatrixGFp:
    while True:
        m = random_matrix(rng, p, n)
        if m.is_invertible():
            return m


def random_unipotent(rng: random.Random, p: int, n: int) -> iv.MatrixGFp:
    mat = np.eye(n, dtype=np.int64)
    lower = rng.random() < 0.5
    for i in range(n):
        for j in range(n):
            if (i > j if lower else i < j):
                mat[i, j] = rng.randrange(p)
    return iv.MatrixGFp(mat, p)


def random_polynomial(rng: random.Random, p: int, nvars: int, max_degree: int,
                      max_terms: int = 6) -> iv.Polynomial:
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.randrange(p)
    return iv.Polynomial(p, nvars, terms)


def random_small_group(rng: random.Random, p: int, n: int, max_order: int,
                       tries: int = 400) -> tuple[iv.GroupSpec, int]:
    """A generated matrix group whose closure has at most max_order elements."""
    for _ in range(tries):
        gens = []
        for _ in range(rng.choice((1, 1, 2))):
            if rng.random() < 0.6:
                gens.append(random_unipotent(rng, p, n))
            else:
                gens.append(random_invertible(rng, p, n))
        spec = iv.GroupSpec(iv.Prime(p), n, tuple(gens))
        try:
            elements = iv.enumerate_group(spec, cap=max_order)
        except iv.GroupTooLargeError:
            continue
        return spec, elements.order
    raise RuntimeError(f"no group of order <= {max_order} found in {tries} tries")


def random_fixed_point(rng: random.Random, spec: iv.GroupSpec) -> np.ndarray | None:
    basis = iv.fixed_space(spec)
    if not basis:
        return None
    p = int(spec.p)
    mat = np.array(basis, dtype=np.int64)
    for _ in range(60):
        coeffs = [rng.randrange(p) for _ in basis]
        if any(coeffs):
            return np.asarray(coeffs, dtype=np.int64) @ mat % p
    return None


def full_walk_epsilon(spec: iv.GroupSpec, v, bound: int, bases: dict | None = None):
    """epsilon at v by its definition, independent of the library's search.

    Returns (d, witness) for the least d in 1..bound at which some element of
    ``invariant_basis(spec, d)`` is nonzero at v, the witness being the
    separating element with the least leading monomial (earliest on ties),
    or (None, None). ``bases`` caches the bases by degree across calls on
    one group.
    """
    bases = {} if bases is None else bases
    for d in range(1, bound + 1):
        if d not in bases:
            bases[d] = iv.invariant_basis(spec, d).basis
        separating = [b for b in bases[d] if b.evaluate(v)]
        if separating:
            return d, min(separating, key=lambda b: b.leading_monomial())
    return None, None


def epsilon_witness(spec: iv.GroupSpec, v, order: int, value: int, least: iv.Polynomial):
    """The witness epsilon's contract names at the fixed point v for the value
    ``value``: where it is |G|_p, the p-power reduction of the orbit norm of
    x_i, i the first nonzero coordinate of v; elsewhere ``least``, the
    separating basis element with the least leading monomial."""
    if value != p_part(order, int(spec.p)):
        return least
    i = int(np.flatnonzero(v)[0])
    norm = iv.orbit_norm(spec, iv.Polynomial.variable(spec.p, spec.n, i))
    return iv.reduce_degree(spec, norm, v).f_tilde


def p_part(order: int, p: int) -> int:
    """The largest power of p dividing order."""
    q = 1
    while order % (q * p) == 0:
        q *= p
    return q


def is_p_power(d: int, p: int) -> bool:
    """Whether d is 1 or a power of p."""
    while d % p == 0:
        d //= p
    return d == 1


def product_invariant_at(rng: random.Random, spec: iv.GroupSpec, v, target: int,
                         max_part: int) -> iv.Polynomial | None:
    """Invariant of exact degree ``target`` nonzero at v, or None.

    Built as a product of invariant-basis elements of degree <= max_part that
    are individually nonzero at v, so the product is invariant, homogeneous
    of the right degree, and nonzero at v by construction.
    """
    avail: dict[int, list[iv.Polynomial]] = {}
    for e in range(1, min(target, max_part) + 1):
        cand = [b for b in iv.invariant_basis(spec, e).basis if b.evaluate(v)]
        if cand:
            avail[e] = cand
    reach = [False] * (target + 1)
    reach[0] = True
    for s in range(1, target + 1):
        reach[s] = any(e <= s and reach[s - e] for e in avail)
    if not reach[target]:
        return None
    f = iv.Polynomial.one(spec.p, spec.n)
    remaining = target
    while remaining:
        choices = sorted(e for e in avail if e <= remaining and reach[remaining - e])
        e = rng.choice(choices)
        f = f * rng.choice(avail[e])
        remaining -= e
    return f


def spec_stream(seed: int, max_order: int = 9):
    """Infinite deterministic stream of small groups, p in {2, 3}, n in {2, 3}."""
    rng = random.Random(seed)
    while True:
        p = rng.choice((2, 3))
        n = rng.choice((2, 3, 3))
        yield random_small_group(rng, p, n, max_order)


def reduction_trial(rng: random.Random, spec: iv.GroupSpec, order: int,
                    max_r: int = 2, ds: tuple[int, ...] = (1, 3, 5)):
    """Sample (v, r, d, f) for a degree-reduction run on this group, or None.

    v is a random nonzero fixed point, f an invariant of exact degree p^r*d
    nonzero at v. Combinations are only feasible when p^r is at least the
    minimal separating degree at v; infeasible specs yield None.
    """
    p = int(spec.p)
    v = random_fixed_point(rng, spec)
    if v is None:
        return None
    eps = iv.epsilon(spec, v, bound=order)
    assert eps.value is not None, "fixed point with no separating invariant up to |G|"
    combos = [
        (r, d)
        for r in range(max_r + 1)
        if p**r >= eps.value
        for d in ds
        if d % p != 0
    ]
    rng.shuffle(combos)
    for r, d in combos:
        f = product_invariant_at(rng, spec, v, p**r * d, max_part=order)
        if f is not None:
            return v, r, d, f
    return None
