import ast
import json
import sys
from pathlib import Path

import pytest

import invred
import support
from invred import epsilon, example_action
from invred.cli import main
from invred.errors import FormatError
from invred.formats import digest_inputs, group_spec_json, load_group_spec, parse_vector

SECT3_P2 = {
    "p": 2,
    "n": 4,
    "generators": [
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]],
    ],
}

UNIPOTENT_2D = {"p": 2, "n": 2, "generators": [[[1, 1], [0, 1]]]}

F6_TERMS = {
    "terms": [
        {"exponents": [6, 0], "coeff": 1},
        {"exponents": [5, 1], "coeff": 1},
        {"exponents": [4, 2], "coeff": 1},
        {"exponents": [3, 3], "coeff": 1},
    ]
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---- basis -------------------------------------------------------------------


def test_basis_family_degree_one(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    report = run_report(capsys, "basis", "--spec", str(spec), "--degree", "1")
    assert report["command"] == "basis"
    assert report["result"]["dimension"] == 2
    assert report["result"]["basis"] == ["x0", "x1"]


def test_basis_trivial_spec(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {"p": 5, "n": 2, "generators": [[[1, 0], [0, 1]]]})
    report = run_report(capsys, "basis", "--spec", str(spec), "--degree", "3")
    assert report["result"]["dimension"] == 4


def test_basis_malformed_spec_names_field(tmp_path, capsys):
    bad = dict(SECT3_P2)
    bad["generators"] = [[[1, 0], [0, "x"]]]
    spec = write_json(tmp_path, "bad.json", bad)
    code, _, err = run_cli(capsys, "basis", "--spec", str(spec), "--degree", "1")
    assert code == 2
    assert "generators[0]" in err


def test_basis_nonprime_modulus(tmp_path, capsys):
    spec = write_json(tmp_path, "bad.json", {"p": 6, "n": 1, "generators": [[[1]]]})
    code, _, err = run_cli(capsys, "basis", "--spec", str(spec), "--degree", "1")
    assert code == 2
    assert "not prime" in err


def test_basis_modulus_beyond_exact_primality_reports_why(tmp_path, capsys):
    # Prime's own reason, not "is not prime": 4*10^24 is past the range where
    # Miller-Rabin with the first 13 prime bases is exact
    spec = write_json(tmp_path, "huge.json", {"p": 4 * 10**24, "n": 1, "generators": [[[1]]]})
    code, _, err = run_cli(capsys, "basis", "--spec", str(spec), "--degree", "1")
    assert code == 2
    assert "too large to test" in err


def test_basis_prime_above_kernel_range_exits_2(tmp_path, capsys):
    p = 1048583  # next prime after 1048573, the largest accepted
    spec = write_json(tmp_path, "big.json", {"p": p, "n": 1, "generators": [[[1]]]})
    code, _, err = run_cli(capsys, "basis", "--spec", str(spec), "--degree", "1")
    assert code == 2
    assert "1048573" in err


def test_huge_prime_modulus_exits_2_promptly(tmp_path):
    # 10^18 + 3 is prime; Miller-Rabin accepts it at once and the int64
    # kernels' guard then refuses it by size
    p = 10**18 + 3
    spec = write_json(tmp_path, "huge.json", {"p": p, "n": 1, "generators": [[[1]]]})
    runs = [("basis", "--spec", str(spec), "--degree", "1"), ("example", "--p", str(p), "--m", "2")]
    for argv in runs:
        proc = support.run_python("-m", "invred.cli", *argv)
        assert proc.returncode == 2, proc.stderr
        assert "exceeds 1048573" in proc.stderr


def test_basis_reduces_oversized_entries_on_load(tmp_path, capsys):
    # entries beyond int64 are residues like any other: 3^40 + 1 = 1 and
    # -2^70 = 2 mod 3
    big = write_json(tmp_path, "big.json", {"p": 3, "n": 2, "generators": [[[1, 3**40 + 1], [0, -(2**70)]]]})
    small = write_json(tmp_path, "small.json", {"p": 3, "n": 2, "generators": [[[1, 1], [0, 2]]]})
    reports = [run_report(capsys, "basis", "--spec", str(spec), "--degree", "2") for spec in (big, small)]
    assert reports[0]["result"] == reports[1]["result"]
    assert reports[0]["result"]["dimension"] > 0


def test_basis_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "basis", "--spec", str(tmp_path / "nope.json"), "--degree", "1")
    assert code == 2


# ---- epsilon ------------------------------------------------------------------


def test_epsilon_family_p2(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    report = run_report(capsys, "epsilon", "--spec", str(spec), "--vector", "0,0,0,1")
    assert report["result"]["value"] == 4
    assert report["result"]["searched_bound"] == 4
    assert report["result"]["witness"]


def test_epsilon_family_p3(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", group_spec_json(example_action(3, 2, 1)))
    report = run_report(capsys, "epsilon", "--spec", str(spec), "--vector", "0,0,0,1")
    assert report["result"]["value"] == 9


def test_epsilon_trivial_group(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {"p": 3, "n": 2, "generators": [[[1, 0], [0, 1]]]})
    report = run_report(capsys, "epsilon", "--spec", str(spec), "--vector", "1,0")
    assert report["result"]["value"] == 1
    assert report["result"]["witness"] == "x0"


def test_epsilon_zero_vector_exits_2(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    code, _, err = run_cli(capsys, "epsilon", "--spec", str(spec), "--vector", "0,0,0,0")
    assert code == 2


def test_epsilon_wrong_vector_length(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    code, _, err = run_cli(capsys, "epsilon", "--spec", str(spec), "--vector", "1,0")
    assert code == 2
    assert "vector" in err


def test_epsilon_with_bound_reports_inconclusive(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    report = run_report(
        capsys, "epsilon", "--spec", str(spec), "--vector", "0,0,0,1", "--bound", "3"
    )
    assert report["result"]["value"] is None
    assert report["result"]["finite"] is False
    assert report["result"]["searched_bound"] == 3


def test_epsilon_resource_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "2")
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    code, _, err = run_cli(capsys, "epsilon", "--spec", str(spec), "--vector", "0,0,0,1")
    assert code == 3
    assert "limit" in err


# ---- reduce -------------------------------------------------------------------


def test_reduce_fixture(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", UNIPOTENT_2D)
    poly = write_json(tmp_path, "f.json", F6_TERMS)
    report = run_report(
        capsys, "reduce", "--spec", str(spec), "--poly", str(poly), "--vector", "1,0"
    )
    result = report["result"]
    assert result["f_tilde"] == "x0^2 + x0*x1 + x1^2"
    assert result["r"] == 1 and result["d"] == 3
    assert result["reduced_degree"] == 2
    assert result["verified"]["invariant"] is True


def test_reduce_slice_limit_exits_3(tmp_path, capsys, monkeypatch):
    # (x0^2 + x0*x1)^32 = x0^64 + x0^32*x1^32 over GF(2): an invariant of
    # degree 64, whose slice has dimension 65
    spec = write_json(tmp_path, "spec.json", UNIPOTENT_2D)
    terms = [{"exponents": [64, 0], "coeff": 1}, {"exponents": [32, 32], "coeff": 1}]
    poly = write_json(tmp_path, "f.json", {"terms": terms})
    argv = ("reduce", "--spec", str(spec), "--poly", str(poly), "--vector", "1,0")
    assert run_report(capsys, *argv)["result"]["reduced_degree"] == 64
    monkeypatch.setenv("INVRED_SLICE_LIMIT", "50")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "slice dimension 65 at degree 64" in err


def test_reduce_huge_exponent_exits_3_promptly(tmp_path):
    # x0^(10^23) is invariant and nonzero at e0; its slice is far over the limit
    spec = write_json(tmp_path, "spec.json", UNIPOTENT_2D)
    poly = write_json(tmp_path, "f.json", {"terms": [{"exponents": [10**23, 0], "coeff": 1}]})
    proc = support.run_python(
        "-m", "invred.cli", "reduce", "--spec", str(spec), "--poly", str(poly), "--vector", "1,0"
    )
    assert proc.returncode == 3, proc.stderr
    assert "resource limit" in proc.stderr


def test_reduce_vanishing_invariant_exits_2(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", UNIPOTENT_2D)
    poly = write_json(tmp_path, "f.json", {"terms": [{"exponents": [0, 2], "coeff": 1}]})
    code, _, err = run_cli(
        capsys, "reduce", "--spec", str(spec), "--poly", str(poly), "--vector", "1,0"
    )
    assert code == 2
    assert "invariant vanishes at point" in err


def test_reduce_inhomogeneous_exits_2(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", UNIPOTENT_2D)
    poly = write_json(
        tmp_path,
        "f.json",
        {"terms": [{"exponents": [2, 0], "coeff": 1}, {"exponents": [1, 0], "coeff": 1}]},
    )
    code, _, err = run_cli(
        capsys, "reduce", "--spec", str(spec), "--poly", str(poly), "--vector", "1,0"
    )
    assert code == 2


def test_reduce_poly_modulus_mismatch(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", UNIPOTENT_2D)
    poly = write_json(tmp_path, "f.json", {"p": 3, "terms": []})
    code, _, err = run_cli(
        capsys, "reduce", "--spec", str(spec), "--poly", str(poly), "--vector", "1,0"
    )
    assert code == 2
    assert "modulus" in err


# ---- example ------------------------------------------------------------------


def test_example_p2(capsys):
    report = run_report(capsys, "example", "--p", "2", "--m", "2", "--lambda", "0")
    result = report["result"]
    assert result["group_order"] == 4
    assert result["epsilon"]["value"] == 4
    assert result["epsilon_equals_p_squared"] is True
    assert result["degree_1_invariants"] == ["x0", "x1"]
    assert result["reduction"]["value_at_point"] == 1


def test_example_p3(capsys):
    report = run_report(capsys, "example", "--p", "3", "--m", "2", "--lambda", "1")
    assert report["result"]["epsilon"]["value"] == 9
    assert report["result"]["group_order"] == 9


def test_vector_and_lambda_are_read_as_residues(capsys):
    assert parse_vector("0,0,0,7", example_action(5, 2)) == [0, 0, 0, 2]
    with pytest.raises(FormatError, match="is not an integer"):
        parse_vector("0,0,1.5,1", example_action(5, 2))
    report = run_report(capsys, "example", "--p", "3", "--m", "2", "--lambda", "4")
    assert report["inputs"]["lambda"] == 1


def test_example_enumerates_the_group_once(capsys, monkeypatch):
    original = invred.group.enumerate_group
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return original(spec, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("invred") and getattr(module, "enumerate_group", None) is original:
            monkeypatch.setattr(module, "enumerate_group", counting)
    report = run_report(capsys, "example", "--p", "3", "--m", "2")
    assert report["result"]["group_order"] == 9
    assert len(calls) == 1


def test_example_m1_exits_2(capsys):
    code, _, err = run_cli(capsys, "example", "--p", "2", "--m", "1")
    assert code == 2
    assert "m must be at least 2" in err


# ---- lucas --------------------------------------------------------------------


def test_lucas_5_2_2(capsys):
    report = run_report(capsys, "lucas", "--a", "5", "--b", "2", "--p", "2")
    assert report["result"]["value"] == 0
    assert report["result"]["digit_factors"] == [
        {"a_digit": 1, "b_digit": 0, "binomial_mod_p": 1},
        {"a_digit": 0, "b_digit": 1, "binomial_mod_p": 0},
        {"a_digit": 1, "b_digit": 0, "binomial_mod_p": 1},
    ]


def test_lucas_b_zero(capsys):
    report = run_report(capsys, "lucas", "--a", "7", "--b", "0", "--p", "3")
    assert report["result"]["value"] == 1


def test_lucas_b_above_a(capsys):
    report = run_report(capsys, "lucas", "--a", "4", "--b", "5", "--p", "3")
    assert report["result"]["value"] == 0


def test_lucas_huge_prime_finishes_promptly():
    # 10^18 + 3 is prime; Miller-Rabin decides it at once (a trial-division
    # test would not finish)
    proc = support.run_python(
        "-m", "invred.cli", "lucas", "--a", "5", "--b", "2", "--p", "1000000000000000003", timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["value"] == 10


# ---- delta --------------------------------------------------------------------


def test_delta_family_p2(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    report = run_report(capsys, "delta", "--spec", str(spec))
    assert report["result"]["value"] == 4
    assert report["result"]["group_order"] == 4
    assert report["result"]["fixed_space_dimension"] == 2
    assert len(report["result"]["per_point"]) == 3
    group = load_group_spec(spec)
    for entry in report["result"]["per_point"]:
        assert entry["epsilon"] == epsilon(group, entry["vector"]).value


def test_delta_computes_the_fixed_space_once(tmp_path, capsys, monkeypatch):
    original = invred.group.fixed_space
    calls = []

    def counting(spec):
        calls.append(spec)
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("invred") and getattr(module, "fixed_space", None) is original:
            monkeypatch.setattr(module, "fixed_space", counting)
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    run_report(capsys, "delta", "--spec", str(spec))
    assert len(calls) == 1


def test_cli_imports_no_private_names():
    # the CLI formats what public library calls return; it reaches nothing private
    tree = ast.parse(Path(invred.cli.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("invred")):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            private += [name for name in parts if name.startswith("_") and not name.endswith("__")]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("invred"):
                    private += [n for n in alias.name.split(".") if n.startswith("_")]
    assert not private


def test_package_imports_no_private_names():
    # no invred module imports another's underscore name; `from . import
    # _kernels` imports a module and stays allowed
    private = []
    for path in sorted(Path(invred.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module is not None
                    and (node.level or node.module.startswith("invred"))):
                private += [
                    f"{path.name}:{node.lineno}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert not private


# ---- report plumbing -------------------------------------------------------------


def strip_timing(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if "timing_seconds" not in line
    )


def test_reports_are_stable_up_to_timing(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    argv = ("epsilon", "--spec", str(spec), "--vector", "0,0,0,1")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert strip_timing(out1) == strip_timing(out2)


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL's libcrypto, a few MB resident
    proc = support.run_python(
        "-c",
        "import sys, invred.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert digest_inputs("a", "b") == (
        "sha256:8fb20ef63ced4145fc2e983ffe597d1dcff39154c3bf21f0fa9dde6a0c50fdc9"
    )


def test_writing_a_report_leaves_openssl_unloaded(tmp_path):
    # the report digest comes from CPython's built-in SHA-256, not hashlib's
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    target = tmp_path / "report.json"
    proc = support.run_python(
        "-c",
        "import sys; from invred.cli import main; "
        "code = main(['delta', '--spec', sys.argv[1], '--output', sys.argv[2]]); "
        "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))",
        str(spec), str(target),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert json.loads(target.read_text())["inputs"]["spec_digest"] == digest_inputs(spec.read_text())


def test_digest_is_sha256_of_the_nul_terminated_chunks():
    import hashlib

    chunks = ["", "a", "spec \u00e9", json.dumps(SECT3_P2)]
    expected = hashlib.sha256(b"".join(c.encode() + b"\x00" for c in chunks)).hexdigest()
    assert digest_inputs(*chunks) == "sha256:" + expected


def test_output_flag_writes_file(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "basis", "--spec", str(spec), "--degree", "1", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["result"]["dimension"] == 2


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-parent", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    spec = write_json(tmp_path, "spec.json", SECT3_P2)
    code, out, err = run_cli(
        capsys, "basis", "--spec", str(spec), "--degree", "1", "--output", str(tmp_path / target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invred: error: ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
