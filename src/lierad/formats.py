"""File formats: algebra files, subspace-family files, JSON helpers.

Rationals are serialized as strings "p/q" (or "p") so no binary-float
ambiguity can enter; bracket tables store only i < j entries and the loader
synthesizes the antisymmetric counterparts.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from .chains import SubspaceFamily
from .liealg import MAX_DIM, LieAlgebra, validate
from .linalg import Q0, Subspace, qq


class AlgebraFileError(ValueError):
    """Malformed algebra file; the message names the offending entry."""


class AlgebraValidationError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "validation failed: antisymmetry violations %r, jacobi violations %r"
            % (list(report.antisymmetry_violations), list(report.jacobi_violations)))


# Exponents are bounded like plain digit strings, which int() limits to 4,300
# digits: Fraction expands "1e999999999" into a billion-digit integer.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def str_to_rational(text: str):
    literal = str(text)
    exponent = _EXPONENT.search(literal)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise AlgebraFileError("rational literal %r has an exponent beyond "
                                   "+-%d" % (literal[:40], MAX_EXPONENT))
    try:
        return qq(literal)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise AlgebraFileError("bad rational literal %r" % (literal[:40],)) from exc


def _checked_dim(data: dict, key: str) -> int:
    dim = data.get(key)
    # a JSON integer only: int() would read 2.7 as 2 and true as 1
    if type(dim) is not int:
        raise AlgebraFileError("missing or non-integer %r field" % key)
    if not 0 <= dim <= MAX_DIM:
        raise AlgebraFileError("%r is %d, outside 0 .. MAX_DIM = %d"
                               % (key, dim, MAX_DIM))
    return dim


def subspace_to_json(space: Subspace) -> list:
    return [[str(x) for x in row] for row in space.vectors()]


def subspace_from_json(ambient_dim: int, rows: Sequence) -> Subspace:
    vecs = [[str_to_rational(x) for x in row] for row in rows]
    return Subspace.span(ambient_dim, vecs)


def algebra_to_dict(algebra: LieAlgebra, name: str = "") -> dict:
    brackets = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            coeffs = algebra.c[i][j]
            if any(x != 0 for x in coeffs):
                brackets.append({
                    "i": i, "j": j,
                    "c": [str(x) for x in coeffs],
                })
    return {
        "name": name or "algebra",
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "brackets": brackets,
    }


def algebra_from_dict(data: dict) -> LieAlgebra:
    if not isinstance(data, dict):
        raise AlgebraFileError("algebra file must contain a JSON object")
    dim = _checked_dim(data, "dim")
    basis = data.get("basis", ["b%d" % (k + 1) for k in range(dim)])
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise AlgebraFileError("'basis' must be a list of label strings")
    if len(basis) != dim:
        raise AlgebraFileError("basis label count %d does not match dim %d"
                               % (len(basis), dim))
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise AlgebraFileError("'brackets' must be a list of bracket entries")
    c = [[[Q0] * dim for _ in range(dim)] for _ in range(dim)]
    for pos, entry in enumerate(brackets):
        where = "bracket entry #%d" % pos
        if not isinstance(entry, dict):
            raise AlgebraFileError("%s is not an object" % where)
        i, j = entry.get("i"), entry.get("j")
        if type(i) is not int or type(j) is not int:
            raise AlgebraFileError("%s lacks integer fields 'i', 'j'" % where)
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraFileError("%s has out-of-range index (i=%d, j=%d, dim=%d)"
                                   % (where, i, j, dim))
        if i >= j:
            raise AlgebraFileError("%s must have i < j (antisymmetry is implied)"
                                   % where)
        coeffs = entry.get("c")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise AlgebraFileError("%s coefficient vector must have length %d"
                                   % (where, dim))
        row = [str_to_rational(x) for x in coeffs]
        c[i][j] = row
        c[j][i] = [-x for x in row]
    algebra = LieAlgebra(dim, basis, c)
    report = validate(algebra)
    if not report.ok:
        raise AlgebraValidationError(report)
    return algebra


def _read_json(path: str):
    """The JSON value in a file; an unreadable file or value is an input error.

    ValueError covers invalid JSON, bytes that are not UTF-8 and integers
    past int()'s digit limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise AlgebraFileError("cannot read %r (%s)"
                               % (path, exc.strerror or exc)) from exc
    except ValueError as exc:
        raise AlgebraFileError("not valid JSON (%s)" % exc) from exc


def load_algebra(path: str) -> LieAlgebra:
    return algebra_from_dict(_read_json(path))


def save_algebra(algebra: LieAlgebra, path: str, name: str = ""):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra, name), fh, indent=2, sort_keys=True)
        fh.write("\n")


def family_from_dict(data: dict) -> SubspaceFamily:
    if not isinstance(data, dict):
        raise AlgebraFileError("family file must contain a JSON object")
    ambient = _checked_dim(data, "ambient_dim")
    raw = data.get("members", [])
    if not isinstance(raw, list):
        raise AlgebraFileError("'members' must be a list of matrices")
    members = []
    for pos, rows in enumerate(raw):
        if not isinstance(rows, list):
            raise AlgebraFileError("family member #%d is not a matrix" % pos)
        for row in rows:
            if not isinstance(row, list) or len(row) != ambient:
                raise AlgebraFileError(
                    "family member #%d has a row of wrong length" % pos)
        members.append(subspace_from_json(ambient, rows))
    return SubspaceFamily.of(ambient, members)


def load_family(path: str) -> SubspaceFamily:
    return family_from_dict(_read_json(path))


def family_to_dict(family: SubspaceFamily) -> dict:
    return {
        "ambient_dim": family.ambient_dim,
        "members": [subspace_to_json(m) for m in family.members],
    }
