"""Tests of the benchmark itself: python -m pytest perfbench -q

The short runs execute one whole round of each workload (about half a
minute in all); the check tests use small real outputs of invred.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402

import invred as iv  # noqa: E402


@pytest.mark.parametrize("workload", ["family_epsilon", "reduce_batch", "fixed_point_sweep"])
def test_short_run_has_no_failed_operations(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _reduction_case():
    gens, v, forms, terms = workloads.reduce_input(random.Random(3), 3, 3, 1, 9)
    spec = iv.GroupSpec(iv.Prime(3), 3, tuple(iv.MatrixGFp(g, 3) for g in gens))
    out = iv.reduce_degree(spec, iv.Polynomial(3, 3, terms), list(v))
    return gens, v, {tuple(e): c for e, c in out.f_tilde.terms.items()}


def test_reduction_check_rejects_one_changed_coefficient():
    gens, v, f_tilde = _reduction_case()
    assert oracle.check_reduction(f_tilde, gens, v, 3, 9) == []
    for exps in f_tilde:
        changed = dict(f_tilde)
        changed[exps] = 3 - changed[exps]  # the other nonzero residue mod 3
        assert oracle.check_reduction(changed, gens, v, 3, 9), exps


def test_delta_check_rejects_wrong_value(tmp_path):
    work = workloads.FixedPointSweep(0, tmp_path)
    index = work.SPECS.index((3, 2, 1))
    text = work.ops[index]()
    assert work.check(index, text) == []
    report = json.loads(text)
    for wrong in (3, 27):
        report["result"]["value"] = wrong
        assert work.check(index, json.dumps(report))


def test_family_definition_matches_example_action():
    for p, m, lam in ((2, 6, 0), (3, 2, 2), (3, 3, 1)):
        spec = iv.example_action(p, m, lam)
        ours = oracle.family_generators(p, m, lam)
        assert [tuple(map(tuple, g.entries.tolist())) for g in spec.generators] == list(ours)


def test_metric_names_match_benchmark_json():
    import run
    from spans import Tracer

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced = set(run.layer_metrics(Tracer(), 1)) | {"trace.wall_s", "trace.overhead_s"}
    assert traced == {m["name"] for m in bench["per_layer"]}
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in bench["workloads"]}
