"""Exact JSON documents: parsing, task dispatch, and report emission.

Scalars travel as canonical strings — ``"3"``, ``"-5/7"``, ``"1/2-3/4i"`` —
and the parser refuses anything non-canonical (``"2/4"``, ``"3/1"``,
``"1/0"``) with the JSON path of the offending value, so a parsed document
re-serializes byte-for-byte.  Reports are versioned, deterministically
ordered, and contain no timestamps: equal inputs give equal bytes, which is
what the golden-file tests pin down.

Exit-code contract used by the command line: 0 when the requested check
passes, 1 when the mathematics says no (a failed verdict is still a
successful computation), 2 for malformed or oversized input.  A relative
filtration is always decided: it is constructed, or refuted with a
certificate.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .exact import GaussianRational, Immutable, Matrix, Scalar, Subspace
from .filtration import (
    Filtration,
    MultiFiltration,
    compatible_filtrations,
)
from .lefschetz import GradedBilinearStructure, GradedSpace, polarization_check
from .monodromy import mf_property, monodromy_filtration, relative_monodromy
from .rees import compatibility_via_flatness, koszul_homology, rees_of
from .fixtures import MAX_FIXTURE_SIZE, fixture_nilsson, fixture_summary

FORMAT_TAG = "weightfilt.v1"
MAX_FAMILY_SIZE = 8  # most filtrations a check-compat, koszul-homology or rees-summary payload may hold

_INT_RE = r"-?(?:0|[1-9]\d*)"
_RAT_RE = rf"{_INT_RE}(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^({_RAT_RE})(?:([+-])({_RAT_RE})i)?$")


class DocumentError(ValueError):
    """Malformed input, annotated with the JSON path of the offender."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


def _parse_rational(text: str, path: str) -> Fraction:
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        num, den = int(num_s), int(den_s)
        if den == 0:
            raise DocumentError(path, f"{text!r} has a zero denominator")
        if den == 1:
            raise DocumentError(path, f"{text!r} has a redundant denominator; write {num_s!r}")
        if gcd(abs(num), den) != 1:
            raise DocumentError(path, f"{text!r} is not in lowest terms")
        return Fraction(num, den)
    num = int(text)
    if num == 0 and text.startswith("-"):
        raise DocumentError(path, "negative zero is not canonical")
    return Fraction(num)


def parse_scalar(text: object, path: str = "$") -> Scalar:
    """Parse a canonical scalar string; reject anything non-canonical.

    >>> parse_scalar("-5/7")
    Fraction(-5, 7)
    >>> parse_scalar("1/2-3/4i")
    GaussianRational(1/2, -3/4)
    >>> parse_scalar("2/4")
    Traceback (most recent call last):
        ...
    weightfilt.document.DocumentError: $: '2/4' is not in lowest terms
    """
    if not isinstance(text, str):
        raise DocumentError(path, f"expected a scalar string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if not m:
        raise DocumentError(path, f"{text!r} is not a canonical scalar")
    re_part = _parse_rational(m.group(1), path)
    if m.group(2) is None:
        return re_part
    im_abs = _parse_rational(m.group(3), path)
    if im_abs < 0:
        raise DocumentError(path, f"{text!r}: the imaginary part sign belongs outside")
    if im_abs == 0:
        raise DocumentError(path, f"{text!r}: a zero imaginary part must be omitted")
    im = -im_abs if m.group(2) == "-" else im_abs
    return GaussianRational(re_part, im)


def scalar_to_str(x: Scalar) -> str:
    """Canonical string form; the exact inverse of `parse_scalar`.

    >>> scalar_to_str(Fraction(-5, 7))
    '-5/7'
    >>> scalar_to_str(GaussianRational(Fraction(1, 2), Fraction(-3, 4)))
    '1/2-3/4i'
    """
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return scalar_to_str(x.re)
        sign = "-" if x.im < 0 else "+"
        return f"{scalar_to_str(x.re)}{sign}{scalar_to_str(abs(x.im))}i"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# -- structured decoding -----------------------------------------------------


def _expect_list(obj: object, path: str) -> list:
    if not isinstance(obj, list):
        raise DocumentError(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _expect_dict(obj: object, path: str) -> dict:
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_int(obj: object, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise DocumentError(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _get(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise DocumentError(path, f"missing key {key!r}")
    return obj[key]


def vector_from_json(obj: object, path: str) -> Tuple[Scalar, ...]:
    return tuple(
        parse_scalar(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(obj, path))
    )


def vector_to_json(v: Sequence[Scalar]) -> List[str]:
    return [scalar_to_str(x) for x in v]


def matrix_from_json(obj: object, path: str) -> Matrix:
    rows = [vector_from_json(r, f"{path}[{i}]") for i, r in enumerate(_expect_list(obj, path))]
    if not rows:
        raise DocumentError(path, "a matrix needs at least one row")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DocumentError(path, "matrix rows have inconsistent lengths")
    return Matrix(rows)


def matrix_to_json(m: Matrix) -> List[List[str]]:
    return [vector_to_json(row) for row in m.entries]


def subspace_from_json(obj: object, ambient_dim: int, path: str) -> Subspace:
    vecs = [vector_from_json(v, f"{path}[{i}]") for i, v in enumerate(_expect_list(obj, path))]
    for i, v in enumerate(vecs):
        if len(v) != ambient_dim:
            raise DocumentError(f"{path}[{i}]", f"vector length {len(v)} != ambient {ambient_dim}")
    return Subspace.span(vecs, ambient_dim)


def subspace_to_json(s: Subspace) -> List[List[str]]:
    return [vector_to_json(b) for b in s.basis]


def filtration_from_json(obj: object, path: str) -> Filtration:
    d = _expect_dict(obj, path)
    n = _expect_int(_get(d, "ambient_dim", path), f"{path}.ambient_dim")
    steps = []
    for i, step in enumerate(_expect_list(_get(d, "steps", path), f"{path}.steps")):
        sp = f"{path}.steps[{i}]"
        sd = _expect_dict(step, sp)
        idx = parse_scalar(_get(sd, "index", sp), f"{sp}.index")
        if isinstance(idx, GaussianRational):
            raise DocumentError(f"{sp}.index", "filtration indices must be rational")
        sub = subspace_from_json(_get(sd, "basis", sp), n, f"{sp}.basis")
        steps.append((idx, sub))
    try:
        return Filtration(n, steps)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def filtration_to_json(f: Filtration) -> Dict[str, object]:
    return {
        "ambient_dim": f.ambient_dim,
        "steps": [
            {"index": scalar_to_str(x), "basis": subspace_to_json(s)}
            for x, s in f.steps
        ],
    }


def centered_filtration_from_json(obj: object, path: str) -> Filtration:
    d = _expect_dict(obj, path)
    n = _expect_int(_get(d, "ambient_dim", path), f"{path}.ambient_dim")
    center = _expect_int(d.get("center", 0), f"{path}.center")
    steps = []
    for i, step in enumerate(_expect_list(_get(d, "steps", path), f"{path}.steps")):
        sp = f"{path}.steps[{i}]"
        sd = _expect_dict(step, sp)
        idx = _expect_int(_get(sd, "index", sp), f"{sp}.index")
        sub = subspace_from_json(_get(sd, "basis", sp), n, f"{sp}.basis")
        steps.append((idx, sub))
    try:
        return Filtration(n, steps, center=center)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def centered_filtration_to_json(f: Filtration) -> Dict[str, object]:
    """The JSON object of an integer-indexed filtration with an integer center.

    Raises ValueError naming the first index, or else the center, that is
    not an `int`, since the document format has no other encoding for them.
    """
    for k, _ in f.steps:
        if type(k) is not int:
            raise ValueError(f"centered filtration index {k} is not an integer")
    if type(f.center) is not int:
        raise ValueError(f"centered filtration center {f.center} is not an integer")
    return {
        "ambient_dim": f.ambient_dim,
        "center": f.center,
        "steps": [
            {"index": k, "basis": subspace_to_json(s)} for k, s in f.steps
        ],
    }


def multifiltration_from_json(obj: object, path: str) -> MultiFiltration:
    d = _expect_dict(obj, path)
    items = _expect_list(_get(d, "filtrations", path), f"{path}.filtrations")
    if len(items) > MAX_FAMILY_SIZE:
        # n filtrations mean 3^n cells per lattice point and n! orders
        raise DocumentError(
            f"{path}.filtrations", f"{len(items)} filtrations exceed the limit {MAX_FAMILY_SIZE}"
        )
    filts = [filtration_from_json(f, f"{path}.filtrations[{i}]") for i, f in enumerate(items)]
    try:
        return MultiFiltration(filts)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def graded_structure_from_json(obj: object, path: str) -> GradedBilinearStructure:
    d = _expect_dict(obj, path)
    n = _expect_int(_get(d, "ambient_dim", path), f"{path}.ambient_dim")
    comps: Dict[Tuple[int, ...], Subspace] = {}
    for i, comp in enumerate(_expect_list(_get(d, "components", path), f"{path}.components")):
        cp = f"{path}.components[{i}]"
        cd = _expect_dict(comp, cp)
        deg = tuple(
            _expect_int(x, f"{cp}.degree[{j}]")
            for j, x in enumerate(_expect_list(_get(cd, "degree", cp), f"{cp}.degree"))
        )
        comps[deg] = subspace_from_json(_get(cd, "basis", cp), n, f"{cp}.basis")
    ops = [
        matrix_from_json(m, f"{path}.operators[{i}]")
        for i, m in enumerate(_expect_list(_get(d, "operators", path), f"{path}.operators"))
    ]
    pairing = matrix_from_json(_get(d, "pairing", path), f"{path}.pairing")
    try:
        return GradedBilinearStructure(GradedSpace(n, comps), ops, pairing)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


# -- documents and reports ----------------------------------------------------

KNOWN_TASKS = (
    "check-monodromy",
    "check-relative",
    "check-iterated",
    "check-lefschetz",
    "check-compat",
    "koszul-homology",
    "rees-summary",
    "nilsson-demo",
    "fixture-info",
)


class Document(Immutable):
    """A versioned task document: format tag, task name, payload."""

    __slots__ = ("task", "payload")

    def __init__(self, task: str, payload: dict) -> None:
        if task not in KNOWN_TASKS:
            raise DocumentError("$.task", f"unknown task {task!r}")
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "payload", payload)

    def to_json(self) -> str:
        return json.dumps(
            {"format": FORMAT_TAG, "task": self.task, "payload": self.payload},
            sort_keys=True,
            indent=2,
        ) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.task == other.task and self.payload == other.payload

    def __repr__(self) -> str:
        return f"Document(task={self.task!r})"


def parse(text: str) -> Document:
    """Parse a document from JSON text, with path-annotated failures."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"invalid JSON: {exc}") from None
    d = _expect_dict(raw, "$")
    fmt = _get(d, "format", "$")
    if fmt != FORMAT_TAG:
        raise DocumentError("$.format", f"expected {FORMAT_TAG!r}, got {fmt!r}")
    task = _get(d, "task", "$")
    if not isinstance(task, str):
        raise DocumentError("$.task", "task must be a string")
    payload = _expect_dict(_get(d, "payload", "$"), "$.payload")
    return Document(task, payload)


def _centered_summary(f: Filtration) -> Dict[str, object]:
    return {
        "center": f.center,
        "jumps": [[k, s.dim] for k, s in f.steps],
        "graded_dims": {str(k): d for k, d in f.graded_dims().items() if d},
    }


def run_task(doc: Document) -> Dict[str, object]:
    """Execute a task document and return a deterministic report dict.

    The report always carries the format tag, the task, a boolean
    ``verdict``, and task-specific ``details``.  Precondition violations
    (non-nilpotent operators, non-commuting families, bad shapes) surface
    as `DocumentError`, distinct from negative verdicts.
    """
    p = doc.payload
    path = "$.payload"
    details: Dict[str, object] = {}

    if doc.task == "check-monodromy":
        op = matrix_from_json(_get(p, "operator", path), f"{path}.operator")
        center = _expect_int(p.get("center", 0), f"{path}.center")
        try:
            w = monodromy_filtration(op, center=center)
        except ValueError as exc:
            raise DocumentError(f"{path}.operator", str(exc)) from None
        verdict = True
        details = {"filtration": _centered_summary(w)}

    elif doc.task == "check-relative":
        op = matrix_from_json(_get(p, "operator", path), f"{path}.operator")
        lf = centered_filtration_from_json(_get(p, "filtration", path), f"{path}.filtration")
        try:
            res = relative_monodromy(op, lf)
        except ValueError as exc:
            raise DocumentError(path, str(exc)) from None
        verdict = res.exists
        if res.exists:
            details = {"filtration": _centered_summary(res.filtration)}
        else:
            c = res.certificate
            details = {
                "certificate": {
                    "level": c.level,
                    "kind": c.kind,
                    "at_jump": c.at_jump,
                    "message": c.message,
                }
            }

    elif doc.task == "check-iterated":
        ops = [
            matrix_from_json(m, f"{path}.operators[{i}]")
            for i, m in enumerate(_expect_list(_get(p, "operators", path), f"{path}.operators"))
        ]
        try:
            rep = mf_property(ops)
        except ValueError as exc:
            raise DocumentError(f"{path}.operators", str(exc)) from None
        verdict = rep.holds
        details = {"total": _centered_summary(rep.total)}
        if rep.iterated is not None:
            details["iterated"] = _centered_summary(rep.iterated)
        if rep.certificate is not None:
            details["certificate"] = {
                "level": rep.certificate.level,
                "kind": rep.certificate.kind,
                "message": rep.certificate.message,
            }

    elif doc.task == "check-lefschetz":
        structure = graded_structure_from_json(p, path)
        try:
            report = polarization_check(structure)
        except ValueError as exc:
            raise DocumentError(path, str(exc)) from None
        verdict = report.polarized
        details = {
            "primitive_route": report.primitive_route,
            "weil_route": report.weil_route,
        }
        if report.failure is not None:
            details["failure"] = [str(part) for part in report.failure]

    elif doc.task == "check-compat":
        mf = multifiltration_from_json(p, path)
        sub_route = compatible_filtrations(mf)
        flat_route = compatibility_via_flatness(mf)
        agreement = sub_route.compatible == flat_route.flat
        verdict = sub_route.compatible and flat_route.flat
        details = {
            "subquotient_route": sub_route.compatible,
            "flatness_route": flat_route.flat,
            "agreement": agreement,
        }
        if sub_route.witness is not None:
            point, cell, direction = sub_route.witness
            details["witness"] = {
                "index_tuple": [scalar_to_str(x) for x in point],
                "cell": list(cell),
                "direction": direction,
            }

    elif doc.task == "koszul-homology":
        mf = multifiltration_from_json(p, path)
        seq = [
            _expect_int(x, f"{path}.sequence[{i}]")
            for i, x in enumerate(_expect_list(_get(p, "sequence", path), f"{path}.sequence"))
        ]
        deg = tuple(
            _expect_int(x, f"{path}.multidegree[{i}]")
            for i, x in enumerate(_expect_list(_get(p, "multidegree", path), f"{path}.multidegree"))
        )
        rees = rees_of(mf)
        if len(deg) != rees.nvars:
            raise DocumentError(f"{path}.multidegree", "wrong multidegree length")
        if any(not 0 <= v < rees.nvars for v in seq):
            raise DocumentError(f"{path}.sequence", "variable index out of range")
        if len(set(seq)) != len(seq):
            raise DocumentError(f"{path}.sequence", "variable sequence must not repeat")
        hom = koszul_homology(rees, seq, deg)
        verdict = True
        details = {"homology": {str(k): v for k, v in sorted(hom.items())}}

    elif doc.task == "rees-summary":
        mf = multifiltration_from_json(p, path)
        rees = rees_of(mf)
        verdict = True
        details = {
            "box": [list(iv) for iv in rees.box],
            "piece_dims": {
                ",".join(map(str, pt)): rees.piece_dim(pt) for pt in rees.points()
            },
        }

    elif doc.task == "nilsson-demo":
        q = _expect_int(_get(p, "denominator", path), f"{path}.denominator")
        order = _expect_int(p.get("order", 0), f"{path}.order")
        if q < 1:
            raise DocumentError(f"{path}.denominator", "denominator must be positive")
        if q > MAX_FIXTURE_SIZE:
            raise DocumentError(f"{path}.denominator", f"denominator {q} exceeds the limit {MAX_FIXTURE_SIZE}")
        if order < 0:
            raise DocumentError(f"{path}.order", "truncation order must be nonnegative")
        factors = fixture_nilsson(q, order)
        relation_holds = all(
            f.eigenvalue == -(1 - (-f.shift)) for f in factors
        )
        verdict = relation_holds
        details = {
            "factors": [
                {"shift": scalar_to_str(f.shift), "eigenvalue": scalar_to_str(f.eigenvalue), "dim": f.dim}
                for f in factors
            ],
            "eigenvalue_relation": relation_holds,
        }

    elif doc.task == "fixture-info":
        name = _get(p, "name", path)
        if not isinstance(name, str):
            raise DocumentError(f"{path}.name", "fixture name must be a string")
        try:
            details = fixture_summary(name)
        except ValueError as exc:
            raise DocumentError(f"{path}.name", str(exc)) from None
        verdict = True

    else:  # pragma: no cover - Document constructor rejects unknown tasks
        raise DocumentError("$.task", f"unknown task {doc.task!r}")

    return {"format": FORMAT_TAG, "task": doc.task, "verdict": verdict, "details": details}


def emit_report(report: Dict[str, object], fmt: str = "text") -> str:
    """Render a report as stable text or versioned structured JSON."""
    if fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"task: {report['task']}",
        f"verdict: {'pass' if report['verdict'] else 'FAIL'}",
    ]
    details = report.get("details", {})
    for key in sorted(details):
        lines.append(f"{key}: {json.dumps(details[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"
