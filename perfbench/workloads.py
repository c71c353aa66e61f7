"""The three workloads: their inputs, one round of operations, and checks.

Each workload is built by ``setup(seed, workdir)`` and offers ``ops``, a
fixed list of zero-argument callables run in order as one round, and
``check(index, result)``, which returns the problems found in the result of
``ops[index]`` (an empty list when it is correct). Results are plain data so
that the checks in ``oracle`` never touch invred objects.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

import invred as iv
from invred import cli


def _terms(poly):
    return {tuple(e): int(c) for e, c in poly.terms.items()}


class FamilyEpsilon:
    """epsilon, then reduce_degree, at e_m of example_action(3, 3, lam)."""

    P, M, LAMBDAS = 3, 3, (0, 1)
    min_ops = 1

    def __init__(self, seed, workdir):
        self.cases = [(lam, iv.example_action(self.P, self.M, lam)) for lam in self.LAMBDAS]
        e_m = [0] * (2 * self.M - 1) + [1]
        self.ops = [self._op(spec, e_m) for _, spec in self.cases]

    @staticmethod
    def _op(spec, e_m):
        def run():
            res = iv.epsilon(spec, e_m)
            out = iv.reduce_degree(spec, res.witness, e_m)
            return res.value, _terms(res.witness), _terms(out.f_tilde)
        return run

    def check(self, index, result):
        lam = self.cases[index][0]
        eps, witness, f_tilde = result
        return oracle.check_family_epsilon(self.P, self.M, lam, eps, witness, f_tilde)


# (p, n, degree, generator count) strata for reduce_batch, each with a fixed
# number of inputs, so the mix, and with it the latency quantiles, does not
# depend on the seed. The (3, 3, 45) strata cost ~0.45 s per generator, two
# orders of magnitude above the rest; one input each keeps them under 1% of
# the calls, so op_p99_ms falls inside the next tier, (2, 3, 20, 2), instead
# of on the boundary between tiers.
PER_STRATUM = 7
HEAVY_PER_STRATUM = 1


def reduce_strata():
    out = []
    for p in (2, 3):
        for n in (2, 3):
            for r in (0, 1, 2):
                for d in (1, 3, 5):
                    if d % p == 0:
                        continue
                    for ngens in (1, 2):
                        heavy = n == 3 and p**r * d >= 45
                        out.append((p, n, r, d, ngens, HEAVY_PER_STRATUM if heavy else PER_STRATUM))
    return out


def _random_generator(rng, p, n):
    if rng.random() < 0.6:
        lower = rng.random() < 0.5
        return tuple(
            tuple(
                1 if i == j else (rng.randrange(p) if (i > j if lower else i < j) else 0)
                for j in range(n)
            )
            for i in range(n)
        )
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if oracle.mat_inverse(m, p) is not None:
            return m


def reduce_input(rng, p, n, ngens, degree, max_order=9):
    """A seeded group, fixed point v and invariant f of the given degree.

    f is a product of orbit norms prod_{g in G} g.l of linear forms with
    l(v) != 0 and of linear invariants nonzero at v, so it is invariant and
    nonzero at v whatever invred returns. Returns (gens, v, forms, terms),
    where f is the product of ``forms``.
    """
    vectors = oracle.nonzero_vectors(p, n)
    while True:
        gens = [_random_generator(rng, p, n) for _ in range(ngens)]
        group = oracle.group_closure(gens, p, cap=max_order)
        if group is None:
            continue
        fixed = [v for v in vectors if all(oracle.apply(g, v, p) == v for g in gens)]
        if not fixed:
            continue
        v = rng.choice(fixed)
        linear = [l for l in vectors
                  if oracle.dot(l, v, p) and all(oracle.row_times(l, g, p) == l for g in gens)]
        order = len(group)
        norms = next((a for a in range(degree // order, -1, -1)
                      if a * order == degree or linear), None)
        if norms is None:
            continue
        forms = []
        for _ in range(norms):
            l = rng.choice([l for l in vectors if oracle.dot(l, v, p)])
            forms += [oracle.row_times(l, h, p) for h in group]
        forms += [rng.choice(linear) for _ in range(degree - norms * order)]
        return gens, v, forms, oracle.product_of_forms(forms, n, p)


class ReduceBatch:
    """Many reduce_degree calls on seeded small groups."""

    min_ops = 1000  # so that op_p99_ms has at least ten samples beyond it

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.cases = []
        self.ops = []
        for p, n, r, d, ngens, count in reduce_strata():
            for _ in range(count):
                gens, v, forms, terms = reduce_input(rng, p, n, ngens, p**r * d)
                if not (oracle.value_at(terms, v, p)
                        and oracle.is_invariant_product(forms, terms, gens, p)):
                    raise RuntimeError(f"generated input is not a separating invariant: {terms}")
                spec = iv.GroupSpec(iv.Prime(p), n, tuple(iv.MatrixGFp(g, p) for g in gens))
                f = iv.Polynomial(p, n, terms)
                self.cases.append((p, gens, v, p**r))
                self.ops.append(self._op(spec, f, list(v)))

    @staticmethod
    def _op(spec, f, v):
        def run():
            return _terms(iv.reduce_degree(spec, f, v).f_tilde)
        return run

    def check(self, index, result):
        p, gens, v, q = self.cases[index]
        return oracle.check_reduction(result, gens, v, p, q)


class FixedPointSweep:
    """`invred delta` on family spec files: 87 fixed points over 4 groups."""

    SPECS = ((2, 6, 0), (3, 2, 0), (3, 2, 1), (3, 2, 2))
    min_ops = 1

    def __init__(self, seed, workdir):
        self.cases = []
        self.ops = []
        for p, m, lam in self.SPECS:
            spec = workdir / f"family-p{p}-m{m}-lam{lam}.json"
            report = workdir / f"delta-p{p}-m{m}-lam{lam}.json"
            gens = oracle.family_generators(p, m, lam)
            spec.write_text(json.dumps(
                {"p": p, "n": 2 * m, "generators": [[list(row) for row in g] for g in gens]}
            ))
            self.cases.append((p, m, lam))
            self.ops.append(self._op(spec, report))

    @staticmethod
    def _op(spec, report):
        def run():
            code = cli.main(["delta", "--spec", str(spec), "--output", str(report)])
            if code != 0:
                raise RuntimeError(f"invred delta exited with {code}")
            return report.read_text()
        return run

    def check(self, index, result):
        p, m, lam = self.cases[index]
        return oracle.check_delta_report(json.loads(result), p, m, lam)


WORKLOADS = {
    "family_epsilon": FamilyEpsilon,
    "reduce_batch": ReduceBatch,
    "fixed_point_sweep": FixedPointSweep,
}


def setup(name, seed, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
