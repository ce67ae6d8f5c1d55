"""Command-line front end.

Every command funnels through the same pipeline: read a JSON document (or
build one from flags), `run_task`, `emit_report`.  Exit codes: 0 the check
passed, 1 the check ran and failed, 2 the input was malformed.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Union

import click

from .document import Document, DocumentError, emit_report, parse, run_task
from .exact import Matrix, Subspace
from .filtration import Filtration, MultiFiltration, compatible_filtrations
from .monodromy import WeightAxiomFailure, monodromy_filtration, verify_weight_axioms
from .rees import compatibility_via_flatness

_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "structured"]),
    default="text",
    show_default=True,
    help="Report rendering.",
)
_INPUT = click.option(
    "--input",
    "input_path",
    type=click.Path(allow_dash=True),
    required=True,
    help="Path to a JSON task document ('-' for stdin).",
)


def _read_document(input_path: str, expected_task: str) -> Document:
    if input_path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(input_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError("$", f"cannot read {input_path!r}: {exc.strerror}") from None
    doc = parse(text)
    if doc.task != expected_task:
        raise DocumentError("$.task", f"expected {expected_task!r}, got {doc.task!r}")
    return doc


def _run_and_exit(doc: Document, fmt: str) -> None:
    report = run_task(doc)
    click.echo(emit_report(report, fmt), nl=False)
    sys.exit(0 if report["verdict"] else 1)


def _dispatch(source: Union[str, dict], fmt: str, task: str) -> None:
    """Run a task on the document at a path, or on a payload built from flags."""
    try:
        if isinstance(source, dict):
            doc = Document(task, source)
        else:
            doc = _read_document(source, task)
        _run_and_exit(doc, fmt)
    except DocumentError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)


@click.group()
def main() -> None:
    """Exact checks for weight filtrations and graded structures."""


@main.group()
def check() -> None:
    """Verdict-producing checks (exit 0 = pass, 1 = fail)."""


@check.command("monodromy")
@_INPUT
@_FORMAT
def check_monodromy(input_path: str, fmt: str) -> None:
    """Compute the weight filtration of a nilpotent operator."""
    _dispatch(input_path, fmt, "check-monodromy")


@check.command("relmono")
@_INPUT
@_FORMAT
def check_relmono(input_path: str, fmt: str) -> None:
    """Decide existence of the relative weight filtration."""
    _dispatch(input_path, fmt, "check-relative")


@check.command("mf")
@_INPUT
@_FORMAT
def check_mf(input_path: str, fmt: str) -> None:
    """Test whether iterated relative filtrations match the sum's."""
    _dispatch(input_path, fmt, "check-iterated")


@check.command("lefschetz")
@_INPUT
@_FORMAT
def check_lefschetz(input_path: str, fmt: str) -> None:
    """Run both polarization positivity routes and compare."""
    _dispatch(input_path, fmt, "check-lefschetz")


@check.command("compat")
@_INPUT
@_FORMAT
def check_compat(input_path: str, fmt: str) -> None:
    """Run BOTH compatibility oracles and report their agreement."""
    _dispatch(input_path, fmt, "check-compat")


@main.command("koszul")
@_INPUT
@_FORMAT
def koszul(input_path: str, fmt: str) -> None:
    """Koszul homology dimensions of a multi-filtration's blowup."""
    _dispatch(input_path, fmt, "koszul-homology")


@main.command("rees")
@_INPUT
@_FORMAT
def rees(input_path: str, fmt: str) -> None:
    """Summarize the multi-index blowup module of a multi-filtration."""
    _dispatch(input_path, fmt, "rees-summary")


@main.group()
def nilsson() -> None:
    """Logarithmic-series extension utilities."""


@nilsson.command("demo")
@click.option("--denominator", "-q", type=int, default=3, show_default=True)
@click.option("--order", type=int, default=1, show_default=True)
@_FORMAT
def nilsson_demo(denominator: int, order: int, fmt: str) -> None:
    """Tabulate the standard fractional-shift factors and their eigenvalues."""
    _dispatch({"denominator": denominator, "order": order}, fmt, "nilsson-demo")


@main.command("fixture")
@click.argument("name")
@_FORMAT
def fixture(name: str, fmt: str) -> None:
    """Describe a named example (V<k>, tensor-<sizes>, nilsson-<q>-<order>)."""
    _dispatch({"name": name}, fmt, "fixture-info")


def _random_nilpotent(rng: random.Random, dim: int) -> Matrix:
    # Strictly upper triangular in a scrambled basis stays nilpotent.
    entries = [
        [Fraction(rng.randint(-2, 2)) if j > i else Fraction(0) for j in range(dim)]
        for i in range(dim)
    ]
    return Matrix(entries)


def _random_filtration_steps(rng: random.Random, dim: int) -> Filtration:
    # Cumulative spans of a random vector pool are automatically increasing.
    pool = [
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(dim)
    ]
    cuts = sorted(rng.sample(range(1, dim + 1), rng.randint(1, dim)))
    steps = []
    for pos, cut in enumerate(cuts):
        steps.append((Fraction(pos), Subspace.span(pool[:cut], dim)))
    # Force exhaustiveness at the top so it is a genuine filtration of the space.
    steps.append((Fraction(len(cuts)), Subspace.full(dim)))
    return Filtration(dim, steps)


@main.command("selfcheck")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-dim", type=int, default=4, show_default=True)
@click.option("--rounds", type=int, default=20, show_default=True)
def selfcheck(seed: int, max_dim: int, rounds: int) -> None:
    """Randomized cross-validation of the independent algorithm pairs."""
    if max_dim < 1 or rounds < 1:
        click.echo("input error: --max-dim and --rounds must be positive", err=True)
        sys.exit(2)
    rng = random.Random(seed)
    failures = 0

    for r in range(rounds):
        dim = rng.randint(1, max_dim)
        op = _random_nilpotent(rng, dim)
        w = monodromy_filtration(op, center=rng.randint(-2, 2))
        try:
            verify_weight_axioms(w, op)
        except WeightAxiomFailure as exc:
            failures += 1
            click.echo(f"round {r}: weight axioms failed: {exc}")

    for r in range(rounds):
        dim = rng.randint(1, max_dim)
        count = rng.randint(1, 2)
        mf = MultiFiltration([_random_filtration_steps(rng, dim) for _ in range(count)])
        sub = compatible_filtrations(mf)
        flat = compatibility_via_flatness(mf)
        if sub.compatible != flat.flat:
            failures += 1
            click.echo(
                f"round {r}: oracle disagreement: subquotient={sub.compatible} "
                f"flatness={flat.flat}"
            )

    if failures:
        click.echo(f"selfcheck: {failures} failure(s)")
        sys.exit(1)
    click.echo(f"selfcheck: all {2 * rounds} rounds agreed")
    sys.exit(0)


if __name__ == "__main__":  # pragma: no cover
    main()
