#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of invred.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reduce_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in a fresh child process (one Python thread, BLAS and
OpenMP capped at the CPU count) as a closed loop with one caller: every
operation starts when the previous one returns, and the workload's fixed
list of operations is repeated as whole rounds until ``--seconds`` have
passed. Set-up is repeated in further child processes and its median is
reported. Every result is checked by ``oracle``, which does not use invred.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run also
writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("family_epsilon", "reduce_batch", "fixed_point_sweep")
SETUP_REPEATS = 3  # set-up samples per run, counting the measuring child's own


# ---------------------------------------------------------------------------
# launcher: spawns the children and reports
# ---------------------------------------------------------------------------


def child_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, role):
    """Start a child, wait for it, and return (its JSON line, seconds to ready)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} child for {args.workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready_at"] - started


def launch(args):
    if not (SRC / "invred" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no invred sources under {SRC}")
    if args.trace:
        report, _ = run_child(args, "measure")
        return report["result"]
    setup_times = []
    for _ in range(SETUP_REPEATS - 1):
        _, ready = run_child(args, "setup")
        setup_times.append(ready)
    report, ready = run_child(args, "measure")
    setup_times.append(ready)
    result = report["result"]
    result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    return result


# ---------------------------------------------------------------------------
# child: sets up, runs rounds, checks
# ---------------------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_round(work, results, latencies, tracer=None):
    """One pass over the workload's operations; returns its wall time."""
    round_start = time.perf_counter()
    for i, op in enumerate(work.ops):
        if tracer is not None:
            tracer.op = (tracer.round, i)
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        latencies.append(time.perf_counter() - t0)
        results.append((i, out))
    return time.perf_counter() - round_start


def run_rounds(work, seconds, results, latencies, tracer=None):
    """Whole rounds while another fits in ``seconds``; at least ``min_ops``.

    With a tracer, a first round fills the program's caches, and then each
    untraced round is followed by a traced one, so that both see the same
    state of the machine. Returns the untraced and the traced round times;
    latencies are those of the untraced rounds.
    """
    plain, traced = [], []
    start = time.perf_counter()
    if tracer is not None:
        run_round(work, results, [])
    while True:
        step = time.perf_counter()
        plain.append(run_round(work, results, latencies))
        if tracer is not None:
            tracer.round = len(traced)
            tracer.install()
            try:
                traced.append(run_round(work, results, [], tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - step) > seconds and len(latencies) >= work.min_ops:
            return plain, traced


def check_all(work, results):
    """(failed count, wrong-output count), checking each distinct output once."""
    verdicts = {}
    failed = wrong = 0
    for i, out in results:
        if isinstance(out, Exception):
            print(f"perfbench: op {i} raised {out!r}", file=sys.stderr)
            failed += 1
            continue
        key = (i, repr(out))
        if key not in verdicts:
            verdicts[key] = work.check(i, out)
            for problem in verdicts[key]:
                print(f"perfbench: op {i}: {problem}", file=sys.stderr)
        if verdicts[key]:
            failed += 1
            wrong += 1
    return failed, wrong


def child(args):
    sys.path.insert(0, str(SRC))
    import resource

    import invred
    import workloads

    if Path(invred.__file__).resolve().parent != SRC / "invred":
        raise SystemExit(f"perfbench: imported invred from {invred.__file__}, not {SRC}")
    work = workloads.setup(args.workload, args.seed, OUT / args.workload)
    ready_at = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    results, latencies = [], []
    plain, traced = run_rounds(work, args.seconds, results, latencies, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"perfbench: {args.workload} rounds " + " ".join(f"{t:.4f}" for t in plain),
          file=sys.stderr)
    wall_s = statistics.median(plain)
    if tracer is not None:
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - wall_s,
                                       "unit": "s"}
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "rounds": len(traced),
                           "wall_s": wall_s, "metrics": metrics})
        print(f"perfbench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    else:
        lat = sorted(latencies)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_p99_ms": {"value": percentile(lat, 0.99) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed, wrong = check_all(work, results)
    result = {"correct": wrong == 0, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    print(json.dumps({"ready_at": ready_at, "result": result}))


# name -> (span, field, unit); fields are per round
LAYER_METRICS = {
    "kernels.rref_mod.calls": ("kernels.rref_mod", "calls", "count"),
    "kernels.rref_mod.busy_s": ("kernels.rref_mod", "busy_s", "s"),
    "kernels.rref_mod.cells": ("kernels.rref_mod", "size", "count"),
    "kernels.nullspace_mod.calls": ("kernels.nullspace_mod", "calls", "count"),
    "kernels.nullspace_mod.self_s": ("kernels.nullspace_mod", "self_s", "s"),
    "kernels.next_slice_level.calls": ("kernels.next_slice_level", "calls", "count"),
    "kernels.next_slice_level.busy_s": ("kernels.next_slice_level", "busy_s", "s"),
    "kernels.next_slice_level.cells": ("kernels.next_slice_level", "size", "count"),
    "kernels.matmul_mod.calls": ("kernels.matmul_mod", "calls", "count"),
    "kernels.matmul_mod.busy_s": ("kernels.matmul_mod", "busy_s", "s"),
    "invariants.slice_images.calls": ("invariants.slice_images", "calls", "count"),
    "invariants.slice_images.busy_s": ("invariants.slice_images", "busy_s", "s"),
    "invariants.slice_images.levels": ("invariants.slice_images", "size", "count"),
    "invariants.invariant_basis.calls": ("invariants.invariant_basis", "calls", "count"),
    "invariants.invariant_basis.self_s": ("invariants.invariant_basis", "self_s", "s"),
    "invariants.epsilon.calls": ("invariants.epsilon", "calls", "count"),
    "invariants.epsilon.busy_s": ("invariants.epsilon", "busy_s", "s"),
    "group.is_invariant.calls": ("group.is_invariant", "calls", "count"),
    "group.is_invariant.busy_s": ("group.is_invariant", "busy_s", "s"),
    "group.is_invariant.self_s": ("group.is_invariant", "self_s", "s"),
    "group.act.calls": ("group.act", "calls", "count"),
    "group.act.busy_s": ("group.act", "busy_s", "s"),
    "group.enumerate_group.busy_s": ("group.enumerate_group", "busy_s", "s"),
    "poly.substitute.calls": ("poly.substitute", "calls", "count"),
    "poly.substitute.busy_s": ("poly.substitute", "busy_s", "s"),
    "poly.mul.calls": ("poly.mul", "calls", "count"),
    "poly.mul.busy_s": ("poly.mul", "busy_s", "s"),
    "poly.from_coordinates.busy_s": ("poly.from_coordinates", "busy_s", "s"),
    "poly.evaluate.busy_s": ("poly.evaluate", "busy_s", "s"),
    "reduction.reduce_degree.self_s": ("reduction.reduce_degree", "self_s", "s"),
    "reduction.extend_to_basis.busy_s": ("reduction.extend_to_basis", "busy_s", "s"),
    "reduction.adapted_decomposition.busy_s": ("reduction.adapted_decomposition", "busy_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "formats.load_group_spec.busy_s": ("formats.load_group_spec", "busy_s", "s"),
    "formats.render_report.busy_s": ("formats.render_report", "busy_s", "s"),
}


def layer_metrics(tracer, rounds):
    totals = tracer.layer_totals()
    metrics = {}
    for name, (span, field, unit) in LAYER_METRICS.items():
        value = totals[span][field] / rounds if span in totals else 0
        metrics[name] = {"value": value, "unit": unit}
    levels = totals.get("invariants.slice_images", {}).get("size", 0)
    bases = totals.get("invariants.invariant_basis", {}).get("calls", 0)
    metrics["invariants.slice_images.distinct_ratio"] = {
        "value": len(tracer.level_keys) / levels if levels else 0, "unit": "ratio"}
    metrics["invariants.invariant_basis.distinct_ratio"] = {
        "value": len(tracer.basis_keys) / bases if bases else 0,
        "unit": "ratio"}
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launch", "setup", "measure"), default="launch",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role != "launch":
        child(args)
        return 0
    if args.workload != "all":
        result = launch(args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        result = launch(argparse.Namespace(**{**vars(args), "workload": name}))
        print(name, json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
