import json

import pytest

from invred import epsilon, example_action
from invred.cli import main
from invred.formats import group_spec_json, load_group_spec

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


def test_basis_prime_above_kernel_range_exits_2(tmp_path, capsys):
    p = 1048583  # next prime after 1048573, the largest accepted
    spec = write_json(tmp_path, "big.json", {"p": p, "n": 1, "generators": [[[1]]]})
    code, _, err = run_cli(capsys, "basis", "--spec", str(spec), "--degree", "1")
    assert code == 2
    assert "1048573" in err


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
