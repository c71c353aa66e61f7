"""On-disk formats: group specs, polynomials, and reports.

Everything is JSON, hand-editable, with integers reduced mod p on load.
Validation errors name the offending field by path, e.g.
``generators[1][0]: expected a list of 4 integers``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

# CPython's own SHA-256, the one hashlib falls back to; hashlib maps OpenSSL's
# libcrypto, a few MB resident, into every process that writes a report
if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

from .errors import DomainError, FormatError
from .gfp import Prime, as_residue
from .group import GroupSpec, MatrixGFp
from .poly import Polynomial


def _fail(path: str, message: str):
    raise FormatError(f"{path}: {message}")


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _load_json(path: str | Path, what: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def parse_group_spec(data: Any, origin: str = "spec") -> GroupSpec:
    if not isinstance(data, dict):
        _fail(origin, "expected a JSON object")
    for key in ("p", "n", "generators"):
        if key not in data:
            _fail(origin, f"missing required field '{key}'")
    unknown = set(data) - {"p", "n", "generators", "labels"}
    if unknown:
        _fail(origin, f"unknown fields {sorted(unknown)}")
    p_raw = _require_int(data["p"], "p")
    try:
        p = Prime(p_raw)
    except DomainError as exc:
        _fail("p", str(exc))
    n = _require_int(data["n"], "n")
    if n < 1:
        _fail("n", "dimension must be positive")
    gens_raw = data["generators"]
    if not isinstance(gens_raw, list) or not gens_raw:
        _fail("generators", "expected a nonempty list of matrices")
    matrices = []
    for gi, mat in enumerate(gens_raw):
        if not isinstance(mat, list) or len(mat) != n:
            _fail(f"generators[{gi}]", f"expected a list of {n} rows")
        rows = []
        for ri, row in enumerate(mat):
            where = f"generators[{gi}][{ri}]"
            if not isinstance(row, list) or len(row) != n:
                _fail(where, f"expected a list of {n} integers")
            rows.append([_require_int(x, f"{where}[{ci}]") for ci, x in enumerate(row)])
        matrices.append(MatrixGFp(rows, p))
    return GroupSpec(p, n, tuple(matrices))


def load_group_spec(path: str | Path) -> GroupSpec:
    return parse_group_spec(_load_json(path, "group spec"), origin=str(path))


def parse_polynomial(data: Any, spec: GroupSpec, origin: str = "poly") -> Polynomial:
    if not isinstance(data, dict):
        _fail(origin, "expected a JSON object")
    if "terms" not in data:
        _fail(origin, "missing required field 'terms'")
    unknown = set(data) - {"terms", "p", "nvars"}
    if unknown:
        _fail(origin, f"unknown fields {sorted(unknown)}")
    if "p" in data and _require_int(data["p"], "p") != int(spec.p):
        _fail("p", f"polynomial modulus {data['p']} does not match spec modulus {int(spec.p)}")
    if "nvars" in data and _require_int(data["nvars"], "nvars") != spec.n:
        _fail("nvars", f"polynomial has {data['nvars']} variables, spec has {spec.n}")
    terms_raw = data["terms"]
    if not isinstance(terms_raw, list):
        _fail("terms", "expected a list of terms")
    terms = []
    for ti, term in enumerate(terms_raw):
        if not isinstance(term, dict) or set(term) != {"exponents", "coeff"}:
            _fail(f"terms[{ti}]", "expected an object with 'exponents' and 'coeff'")
        exps = term["exponents"]
        if not isinstance(exps, list) or len(exps) != spec.n:
            _fail(f"terms[{ti}].exponents", f"expected a list of {spec.n} integers")
        exps = [_require_int(e, f"terms[{ti}].exponents[{ei}]") for ei, e in enumerate(exps)]
        if any(e < 0 for e in exps):
            _fail(f"terms[{ti}].exponents", "exponents must be nonnegative")
        coeff = _require_int(term["coeff"], f"terms[{ti}].coeff")
        terms.append((tuple(exps), coeff))
    return Polynomial.from_terms(spec.p, spec.n, terms)


def load_polynomial(path: str | Path, spec: GroupSpec) -> Polynomial:
    return parse_polynomial(_load_json(path, "polynomial"), spec, origin=str(path))


def parse_vector(text: str, spec: GroupSpec) -> list[int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != spec.n:
        raise FormatError(f"vector: expected {spec.n} comma-separated residues, got {len(parts)}")
    out = []
    for i, s in enumerate(parts):
        try:
            out.append(as_residue(int(s), spec.p))
        except ValueError:
            raise FormatError(f"vector[{i}]: {s!r} is not an integer") from None
    return out


def polynomial_terms_json(f: Polynomial) -> list[dict]:
    ordered = sorted(f.terms, key=lambda e: (sum(e), e), reverse=True)
    return [{"exponents": list(e), "coeff": f.terms[e]} for e in ordered]


def group_spec_json(spec: GroupSpec) -> dict:
    return {
        "p": int(spec.p),
        "n": spec.n,
        "generators": [[[int(x) for x in row] for row in g.entries] for g in spec.generators],
    }


def digest_inputs(*chunks: str) -> str:
    h = sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\x00")
    return "sha256:" + h.hexdigest()


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
