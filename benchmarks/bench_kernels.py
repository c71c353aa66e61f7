#!/usr/bin/env python3
"""Benchmark the exact kernels, numba against pure numpy where both exist.

Times the three hot loops on random dense inputs, and the elimination on one
fixed sparse system:

    rref        reduced row echelon form mod p (drives nullspaces and inverses)
    rref family the stacked (action - identity) system of example_action(3, 3, 0)
                at degree 8, 2574 x 1287 over GF(3) with under 0.4% nonzeros
    matmul      matrix product mod p
    slice       monomial-image tables of degree 1..--degree, in compressed
                sparse rows, for a random n-variable substitution (n from
                --nvars); one implementation, so one column

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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800",
                        help="comma-separated matrix sizes for rref and matmul")
    parser.add_argument("--p", type=int, default=31, help="prime modulus")
    parser.add_argument("--nvars", type=int, default=4, help="variables for the slice build")
    parser.add_argument("--degree", type=int, default=12, help="degree for the slice build")
    parser.add_argument("--repeats", type=int, default=3, help="repeats per timing (best kept)")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    p = args.p
    rng = random.Random(args.seed)
    impls = {name: _kernels.IMPLEMENTATIONS[name] for name in sorted(_kernels.IMPLEMENTATIONS)}
    if "numba" not in impls:
        print("note: numba not importable, benchmarking numpy only")

    # warm up JIT outside the timings
    for impl in impls.values():
        warm = random_array(rng, 8, 8, p)
        _kernels.rref_mod(warm, p, impl)
        _kernels.matmul_mod(warm, warm, p, impl)

    header = f"{'kernel':<28}" + "".join(f"{name:>12}" for name in impls)
    if len(impls) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))

    def report(label, times):
        row = f"{label:<28}" + "".join(f"{times[name] * 1000:>10.2f}ms" for name in impls)
        if len(times) == 2:
            a, b = (times[n] for n in impls)  # sorted: numba, numpy
            row += f"{b / a:>9.1f}x"
        print(row)

    for size in sizes:
        a = random_array(rng, size, size, p)
        times = {
            name: time_call(lambda im=impl: _kernels.rref_mod(a, p, im), args.repeats)
            for name, impl in impls.items()
        }
        report(f"rref {size}x{size}", times)

    system = family_system()
    times = {
        name: time_call(lambda im=impl: _kernels.rref_mod(system, 3, im), args.repeats)
        for name, impl in impls.items()
    }
    report(f"rref family d=8 {system.shape[0]}x{system.shape[1]}", times)

    for size in sizes:
        a = random_array(rng, size, size, p)
        b = random_array(rng, size, size, p)
        times = {
            name: time_call(lambda im=impl: _kernels.matmul_mod(a, b, p, im), args.repeats)
            for name, impl in impls.items()
        }
        report(f"matmul {size}x{size}", times)

    subst = random_array(rng, args.nvars, args.nvars, p)
    level = slice_images(subst, args.degree, p)
    best = time_call(lambda: slice_images(subst, args.degree, p), args.repeats)
    print(f"{f'slice n={args.nvars} d={args.degree} ({level.dim})':<28}{best * 1000:>10.2f}ms"
          f"  ({len(level.vals)} nonzeros)")

    print(f"\nactive backend for the package: {_kernels.backend()}")


if __name__ == "__main__":
    main()
