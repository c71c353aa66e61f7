"""Output checks that do not rely on invred.

Matrices are tuples of rows of ints, polynomials are dicts from exponent
tuples to residues mod p, and vectors are tuples of residues. Group
arithmetic and evaluation at a point are plain Python; polynomial products
and compositions use sympy's sparse ring over ZZ, reduced mod p and compared
as ``Poly(..., modulus=p)``. Nothing here imports invred, so a fault in the
program cannot hide a fault in its own check.

A group element g acts on f by composition with its inverse,
(g.f)(x) = f(g^-1 x), so f is invariant when f composed with g^-1 equals f
for every generator g.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import sympy
from sympy import ZZ, Poly
from sympy.polys.rings import ring


def mat_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def mat_inverse(m, p):
    """Inverse mod p by Gauss-Jordan; None when m is singular."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] % p), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def group_closure(gens, p, cap=None):
    """All elements generated by ``gens``, identity first; None past ``cap``."""
    one = identity(len(gens[0]))
    seen = {one: None}
    frontier = [one]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                q = mat_mul(m, g, p)
                if q not in seen:
                    if cap is not None and len(seen) >= cap:
                        return None
                    seen[q] = None
                    nxt.append(q)
        frontier = nxt
    return list(seen)


def apply(m, v, p):
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)


def row_times(l, m, p):
    """Row vector l times matrix m: the linear form x -> l(m x)."""
    n = len(l)
    return tuple(sum(l[i] * m[i][j] for i in range(n)) % p for j in range(n))


def dot(l, v, p):
    return sum(a * b for a, b in zip(l, v)) % p


def nonzero_vectors(p, n):
    return [v for v in itertools.product(range(p), repeat=n) if any(v)]


def value_at(terms, v, p):
    """Value of a polynomial at a point of GF(p)^n."""
    total = 0
    for exps, c in terms.items():
        t = c
        for x, e in zip(v, exps):
            t = t * pow(x, e, p) % p
        total += t
    return total % p


@lru_cache(maxsize=None)
def _ring(n):
    return ring(",".join(f"x{i}" for i in range(n)), ZZ)


def _mod(elem, p):
    return {m: c % p for m, c in elem.items() if c % p}


def _poly(terms, n, p):
    gens = sympy.symbols(f"x0:{n}")
    return Poly.from_dict(terms or {(0,) * n: 0}, *gens, modulus=p)


def product_of_forms(forms, n, p):
    """Terms of the product of linear forms, each given by its coefficients."""
    R, *xs = _ring(n)
    out = R.one
    for l in forms:
        out = out * sum(int(c) * x for c, x in zip(l, xs))
    return _mod(out, p)


def compose(terms, m, n, p):
    """Terms of f(m x): x_i is replaced by sum_j m[i][j] x_j."""
    R, *xs = _ring(n)
    images = [sum(int(m[i][j]) * xs[j] for j in range(n)) for i in range(n)]
    powers = [[R.one] for _ in range(n)]
    out = R.zero
    for exps, c in terms.items():
        term = R(int(c))
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * images[i])
            if e:
                term = term * powers[i][e]
        out += term
    return _mod(out, p)


def same_poly(a, b, n, p):
    return _poly(a, n, p) == _poly(b, n, p)


def is_invariant(terms, gens, p):
    """f composed with each generator's inverse equals f."""
    n = len(gens[0])
    return all(
        same_poly(compose(terms, mat_inverse(g, p), n, p), terms, n, p) for g in gens
    )


def is_invariant_product(forms, terms, gens, p):
    """Invariance of f = prod(forms), whose terms are ``terms``.

    Composition is a ring homomorphism, so f composed with g^-1 is the
    product of the composed forms; that avoids expanding powers of linear
    forms for every term of a high-degree f.
    """
    n = len(gens[0])
    for g in gens:
        ginv = mat_inverse(g, p)
        moved = product_of_forms([row_times(l, ginv, p) for l in forms], n, p)
        if not same_poly(moved, terms, n, p):
            return False
    return True


def homogeneous_degree(terms):
    """The common total degree of all terms, or None if mixed or empty."""
    degrees = {sum(e) for e in terms}
    return degrees.pop() if len(degrees) == 1 else None


def is_power_of(x, p):
    while x > 1 and x % p == 0:
        x //= p
    return x == 1


def p_power_part(degree, p):
    q = 1
    while degree % (q * p) == 0:
        q *= p
    return q


# ---------------------------------------------------------------------------
# the built-in family, from its definition
# ---------------------------------------------------------------------------


def family_generators(p, m, lam):
    """[[I, 0], [I, I]] and [[I, 0], [J_m(lam), I]] on coordinates h, e.

    J_m(lam) is the lower triangular Jordan block with eigenvalue lam.
    """
    n = 2 * m

    def block(lower):
        return tuple(
            tuple(
                int(i == j) if i < m or j >= m else lower(i - m, j) % p
                for j in range(n)
            )
            for i in range(n)
        )

    g1 = block(lambda i, j: int(i == j))
    g2 = block(lambda i, j: lam if i == j else int(i == j + 1))
    return g1, g2


def family_fixed_points(p, m):
    """Nonzero points with h = 0: both generators fix exactly these."""
    return {(0,) * m + e for e in nonzero_vectors(p, m)}


# ---------------------------------------------------------------------------
# checks, one per kind of output; each returns a list of problems
# ---------------------------------------------------------------------------


def check_reduction(f_tilde, gens, v, p, expected_degree):
    """f~ is homogeneous of the expected degree, 1 at v and invariant."""
    problems = []
    if homogeneous_degree(f_tilde) != expected_degree:
        problems.append(f"f~ is not homogeneous of degree {expected_degree}")
    if value_at(f_tilde, v, p) != 1:
        problems.append("f~ does not take value 1 at v")
    if not is_invariant(f_tilde, gens, p):
        problems.append("f~ is not invariant")
    return problems


def check_family_epsilon(p, m, lam, eps, witness, f_tilde):
    gens = family_generators(p, m, lam)
    order = len(group_closure(gens, p))
    e_m = (0,) * (2 * m - 1) + (1,)
    problems = []
    if not (eps == p * p == order):
        problems.append(f"epsilon {eps}, expected p^2 = |G| = {order}")
    if homogeneous_degree(witness) != eps:
        problems.append("witness is not homogeneous of degree epsilon")
    if value_at(witness, e_m, p) == 0:
        problems.append("witness vanishes at e_m")
    if not is_invariant(witness, gens, p):
        problems.append("witness is not invariant")
    problems += check_reduction(f_tilde, gens, e_m, p, p_power_part(eps, p))
    return problems


def check_delta_report(report, p, m, lam):
    gens = family_generators(p, m, lam)
    order = len(group_closure(gens, p))
    result = report.get("result", {})
    problems = []
    if not (result.get("value") == p * p == order):
        problems.append(f"delta {result.get('value')}, expected p^2 = |G| = {order}")
    if result.get("group_order") != order:
        problems.append(f"group order {result.get('group_order')}, expected {order}")
    points = result.get("per_point", [])
    vectors = [tuple(pt["vector"]) for pt in points]
    if len(vectors) != p**m - 1 or set(vectors) != family_fixed_points(p, m):
        problems.append("per-point entries are not the nonzero points with h = 0")
    epsilons = [pt["epsilon"] for pt in points]
    if not all(isinstance(e, int) and is_power_of(e, p) and e <= order for e in epsilons):
        problems.append("a per-point epsilon is not a power of p at most |G|")
    if epsilons and max(epsilons) != result.get("value"):
        problems.append("delta is not the largest per-point epsilon")
    return problems
