"""Command-line front end.

Subcommands:

    basis    dimension and basis of the degree-d invariant slice
    epsilon  minimal separating degree at a point, with witness
    reduce   p-power degree reduction of a separating invariant
    example  build the Z_p x Z_p family, check epsilon = p^2, reduce the witness
    lucas    binomial coefficient mod p with its digit factorization
    delta    maximum separating degree over the nonzero fixed points

Reports are JSON on stdout (or --output PATH). Apart from the
``timing_seconds`` field they are byte-stable for identical inputs.

Exit codes: 0 success, 1 internal-consistency or identity-violation alarm,
2 bad input or failed precondition, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    InternalConsistencyError,
    InvredError,
    ResourceLimitError,
    TheoremViolationError,
)
from .formats import (
    digest_inputs,
    group_spec_json,
    load_group_spec,
    load_polynomial,
    parse_vector,
    polynomial_terms_json,
    render_report,
)
from .gfp import Prime, lucas_binomial, lucas_factors
from .group import enumerate_group, example_action, fixed_space
from .invariants import (
    _epsilon_search,
    enumerate_fixed_points,
    epsilon,
    invariant_basis,
    slice_dimension,
)
from .reduction import factor_p_power, reduce_degree


def _epsilon_payload(result) -> dict:
    payload = {
        "value": result.value,
        "finite": result.is_finite,
        "searched_bound": result.searched_bound,
        "witness": str(result.witness) if result.witness is not None else None,
    }
    if result.witness is not None:
        payload["witness_terms"] = polynomial_terms_json(result.witness)
    return payload


def _spec_inputs(args) -> dict:
    return {"spec": str(args.spec), "spec_digest": digest_inputs(Path(args.spec).read_text())}


def _cmd_basis(args) -> dict:
    spec = load_group_spec(args.spec)
    basis = invariant_basis(spec, args.degree)
    return {
        "inputs": {**_spec_inputs(args), "degree": args.degree},
        "result": {
            "p": int(spec.p),
            "n": spec.n,
            "degree": basis.degree,
            "slice_dimension": slice_dimension(spec.n, args.degree),
            "dimension": basis.dimension,
            "basis": [str(b) for b in basis.basis],
        },
    }


def _cmd_epsilon(args) -> dict:
    spec = load_group_spec(args.spec)
    vec = parse_vector(args.vector, spec)
    result = epsilon(spec, vec, bound=args.bound)
    return {
        "inputs": {**_spec_inputs(args), "vector": vec, "bound": args.bound},
        "result": {"p": int(spec.p), "n": spec.n, **_epsilon_payload(result)},
    }


def _cmd_reduce(args) -> dict:
    spec = load_group_spec(args.spec)
    f = load_polynomial(args.poly, spec)
    vec = parse_vector(args.vector, spec)
    result = reduce_degree(spec, f, vec)
    degree = f.degree()
    fact = factor_p_power(degree, spec.p)
    f_tilde = result.f_tilde
    return {
        "inputs": {
            "spec": str(args.spec),
            "poly": str(args.poly),
            "inputs_digest": digest_inputs(
                Path(args.spec).read_text(), Path(args.poly).read_text()
            ),
            "vector": vec,
        },
        "result": {
            "p": int(spec.p),
            "input_degree": degree,
            "r": fact.r,
            "d": fact.d,
            "reduced_degree": int(spec.p) ** fact.r,
            "normalization": result.normalization.residue,
            "f_tilde": str(f_tilde),
            "f_tilde_terms": polynomial_terms_json(f_tilde),
            "verified": {
                "homogeneous_of_reduced_degree": True,
                "invariant": True,
                "value_at_point": 1,
            },
        },
    }


def _cmd_example(args) -> dict:
    p = Prime(args.p)
    spec = example_action(p, args.m, args.lam)
    elements = enumerate_group(spec)
    e_m = [0] * (2 * args.m - 1) + [1]
    result = epsilon(spec, e_m, bound=elements.order)
    expected = int(p) ** 2
    if result.value != expected:
        raise TheoremViolationError(
            f"epsilon at the fixed basis point is {result.value}, expected {expected}"
        )
    reduction = reduce_degree(spec, result.witness, e_m)
    fact = factor_p_power(result.value, p)
    return {
        "inputs": {"p": int(p), "m": args.m, "lambda": args.lam % int(p)},
        "result": {
            "spec": group_spec_json(spec),
            "group_order": elements.order,
            "fixed_point": e_m,
            "degree_1_invariants": [
                str(b) for b in invariant_basis(spec, 1).basis
            ],
            "epsilon": _epsilon_payload(result),
            "epsilon_equals_p_squared": True,
            "reduction": {
                "r": fact.r,
                "d": fact.d,
                "f_tilde": str(reduction.f_tilde),
                "normalization": reduction.normalization.residue,
                "value_at_point": 1,
            },
        },
    }


def _cmd_lucas(args) -> dict:
    p = Prime(args.p)
    value = lucas_binomial(args.a, args.b, p)
    factors = lucas_factors(args.a, args.b, p)
    return {
        "inputs": {"a": args.a, "b": args.b, "p": int(p)},
        "result": {
            "value": value.residue,
            "digit_factors": [
                {"a_digit": ai, "b_digit": bi, "binomial_mod_p": f}
                for ai, bi, f in factors
            ],
        },
    }


def _cmd_delta(args) -> dict:
    spec = load_group_spec(args.spec)
    elements = enumerate_group(spec)
    basis = fixed_space(spec)
    points = list(enumerate_fixed_points(spec))
    results = _epsilon_search(spec, points, elements.order)
    return {
        "inputs": _spec_inputs(args),
        "result": {
            "p": int(spec.p),
            "n": spec.n,
            "group_order": elements.order,
            "fixed_space_dimension": len(basis),
            "value": max((res.value for res in results), default=0),
            "per_point": [
                {"vector": [int(x) for x in vec], "epsilon": res.value}
                for vec, res in zip(points, results)
            ],
        },
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invred",
        description="Exact invariant theory over prime fields: separating "
        "degrees and p-power degree reduction.",
    )
    parser.add_argument("--version", action="version", version=f"invred {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("basis", help="invariant basis of one graded slice")
    sp.add_argument("--spec", required=True, type=Path, help="group spec JSON file")
    sp.add_argument("--degree", required=True, type=int)
    sp.set_defaults(func=_cmd_basis)

    sp = sub.add_parser("epsilon", help="minimal separating degree at a point")
    sp.add_argument("--spec", required=True, type=Path)
    sp.add_argument("--vector", required=True, help="comma-separated residues")
    sp.add_argument("--bound", type=int, default=None,
                    help="search bound; defaults to the group order")
    sp.set_defaults(func=_cmd_epsilon)

    sp = sub.add_parser("reduce", help="reduce a separating invariant to p-power degree")
    sp.add_argument("--spec", required=True, type=Path)
    sp.add_argument("--poly", required=True, type=Path, help="polynomial JSON file")
    sp.add_argument("--vector", required=True)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("example", help="run the built-in Z_p x Z_p family end to end")
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--m", required=True, type=int)
    sp.add_argument("--lambda", dest="lam", type=int, default=0)
    sp.set_defaults(func=_cmd_example)

    sp = sub.add_parser("lucas", help="binomial coefficient mod p, digit-wise")
    sp.add_argument("--a", required=True, type=int)
    sp.add_argument("--b", required=True, type=int)
    sp.add_argument("--p", required=True, type=int)
    sp.set_defaults(func=_cmd_lucas)

    sp = sub.add_parser("delta", help="max separating degree over nonzero fixed points")
    sp.add_argument("--spec", required=True, type=Path)
    sp.set_defaults(func=_cmd_delta)

    for sp in sub.choices.values():
        sp.add_argument("--output", type=Path, default=None, help="write the report to a file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except ResourceLimitError as exc:
        print(f"invred: resource limit: {exc}", file=sys.stderr)
        return 3
    except (InternalConsistencyError, TheoremViolationError) as exc:
        print(f"invred: ALARM: {exc}", file=sys.stderr)
        return 1
    except InvredError as exc:
        print(f"invred: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"invred: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    report = {
        "command": args.command,
        **report,
        "timing_seconds": round(elapsed, 6),
    }
    text = render_report(report)
    if args.output is not None:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
