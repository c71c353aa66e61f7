#!/usr/bin/env python3
"""Benchmark the exact kernels on inputs no perfbench workload covers.

Times the elimination and the matrix product on random dense inputs, the
elimination on one fixed sparse system, and slice-level builds from a dense
generator:

    rref        reduced row echelon form mod p (drives nullspaces and inverses)
    rref family the stacked (action - identity) system of example_action(3, 3, 0)
                at degree 8, 2574 x 1287 over GF(3) with under 0.4% nonzeros
    matmul      matrix product mod p
    slice       monomial-image tables of degree 1..--degree, in compressed
                sparse rows, for a random n-variable substitution (n from
                --nvars)
    slice family
                the degree 1..3 tables of the two example_action(3, 3, 0)
                generators, the levels the fixed-point search builds; small
                enough that per-call overhead, not work, sets their time

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --sizes 200,400,800 --p 31 --repeats 5
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from invred import _kernels, example_action, induced_slice_matrix
from invred.invariants import slice_images


def random_array(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def family_system():
    """Stacked (degree-8 slice action - identity) of example_action(3, 3, 0)."""
    mats = [induced_slice_matrix(g, 8).entries for g in example_action(3, 3, 0).generators]
    eye = np.eye(mats[0].shape[0], dtype=np.int64)
    return np.vstack([(mat - eye) % 3 for mat in mats])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800",
                        help="comma-separated matrix sizes for rref and matmul")
    parser.add_argument("--p", type=int, default=31, help="prime modulus")
    parser.add_argument("--nvars", type=int, default=4, help="variables for the slice build")
    parser.add_argument("--degree", type=int, default=12, help="degree for the slice build")
    parser.add_argument("--repeats", type=int, default=3, help="repeats per timing (best kept)")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",")]
    p = args.p
    rng = random.Random(args.seed)

    def report(label, seconds, note=""):
        print(f"{label:<28}{seconds * 1000:>10.2f}ms{note}")

    print(f"{'kernel':<28}{'best':>12}")
    print("-" * 40)
    for size in sizes:
        a = random_array(rng, size, size, p)
        report(f"rref {size}x{size}", time_call(lambda: _kernels.rref_mod(a, p), args.repeats))

    system = family_system()
    report(f"rref family d=8 {system.shape[0]}x{system.shape[1]}",
           time_call(lambda: _kernels.rref_mod(system, 3), args.repeats))

    for size in sizes:
        a = random_array(rng, size, size, p)
        b = random_array(rng, size, size, p)
        report(f"matmul {size}x{size}", time_call(lambda: _kernels.matmul_mod(a, b, p), args.repeats))

    subst = random_array(rng, args.nvars, args.nvars, p)
    level = slice_images(subst, args.degree, p)
    report(f"slice n={args.nvars} d={args.degree} ({level.dim})",
           time_call(lambda: slice_images(subst, args.degree, p), args.repeats),
           f"  ({len(level.vals)} nonzeros)")

    gens = [g.entries for g in example_action(3, 3, 0).generators]
    report("slice family d=1..3",
           time_call(lambda: [slice_images(g, 3, 3) for g in gens], args.repeats),
           f"  ({len(gens)} generators)")


if __name__ == "__main__":
    main()
