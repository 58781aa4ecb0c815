"""Batch command line surface.

Subcommands: ``enumerate`` (JSON Lines dumps of the non-crossing
families), ``counts`` (CSV of annular counts), ``table`` (symbolic
moment-cumulant tables as LaTeX or JSON), ``verify`` (the exhaustive
check suites; exit code 0 exactly when every check passes), and ``draw``
(SVG annular diagrams).

Every command is deterministic: identical invocations produce byte
identical output.  Every command but ``draw``, which enumerates nothing,
checks its sizes up front with the library's one size check,
``annular._check_bound``: at most NCFREE_MAX_TOTAL, or 12 when that is
unset, which every enumeration behind it obeys too.  Run as ``ncfree``
or ``python -m ncfree.cli``.
"""

from __future__ import annotations

import json
from itertools import islice

import click

from .annular import (
    AnnulusShape,
    _check_bound,
    element_lines,
    enumerate_nc,
    enumerate_psnc,
    enumerate_snc,
)
from .cumulants import snc_closed_form, symbolic_kappa_pq, symbolic_phi2_expansion
from .draw import render_svg
from .perm import Permutation, SetPartition
from .spaces import CumulantPolynomial, alpha2_symbol, kappa2_symbol
from .verify import SQUARE_BOUND, run_suite, suite_names


_ECHO_CHUNK = 4096  # lines per write of ``enumerate``: its output is never held whole

# ``table --direction``: the expansion of shape (p, q) and the symbol it expands
_TABLES = {
    "alpha-in-kappa": (symbolic_phi2_expansion, alpha2_symbol),
    "kappa-in-alpha": (symbolic_kappa_pq, kappa2_symbol),
}


def _check_total(total: int) -> None:
    try:
        _check_bound(total)
    except ValueError as exc:
        raise click.ClickException(str(exc))


@click.group()
def main() -> None:
    """Exact combinatorics of second order freeness.

    Enumeration of non-crossing disc and annular families, symbolic
    moment-cumulant tables, exhaustive verification suites, and SVG
    diagrams.  All arithmetic is exact and all output deterministic.
    """


@main.command("enumerate")
@click.argument("kind", type=click.Choice(["nc", "snc", "psnc"]))
@click.argument("sizes", nargs=-1, type=int)
def enumerate_cmd(kind: str, sizes: tuple[int, ...]) -> None:
    """Dump one family as JSON Lines, one element per line, then the count.

    KIND is nc (one size: the disc), or snc/psnc (two sizes: outer and
    inner circle).  ``annular.element_lines`` formats the element lines
    byte for byte as ``json.dumps``; only the count line uses ``json``.
    """
    want = 1 if kind == "nc" else 2
    if len(sizes) != want:
        raise click.ClickException(f"{kind} takes exactly {want} size argument(s)")
    if any(s < 1 for s in sizes):
        raise click.ClickException("sizes must be at least 1")
    _check_total(sum(sizes))
    if kind == "nc":
        family = enumerate_nc(*sizes)
    else:
        family = (enumerate_snc if kind == "snc" else enumerate_psnc)(AnnulusShape(*sizes))
    lines = element_lines(family)
    while chunk := list(islice(lines, _ECHO_CHUNK)):
        click.echo("\n".join(chunk))
    click.echo(json.dumps({"count": len(family)}, separators=(", ", ": ")))


@main.command()
@click.option("--max-total", "max_total", type=int, required=True, help="largest p+q to tabulate")
def counts(max_total: int) -> None:
    """CSV of annular family sizes: header p,q,count then one row per shape."""
    _check_total(max_total)
    click.echo("p,q,count")
    for total in range(2, max_total + 1):
        for p in range(1, total):
            click.echo(f"{p},{total - p},{snc_closed_form(p, total - p)}")


@main.command()
@click.argument("max_p", type=int)
@click.argument("max_q", type=int)
@click.option(
    "--direction",
    type=click.Choice(list(_TABLES)),
    default="alpha-in-kappa",
    show_default=True,
    help="expand second order moments in cumulants, or the reverse",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["latex", "json"]),
    default="latex",
    show_default=True,
)
def table(max_p: int, max_q: int, direction: str, fmt: str) -> None:
    """Symbolic second order tables for all shapes p <= q within the limits."""
    if max_p < 1 or max_q < 1:
        raise click.ClickException("sizes must be at least 1")
    _check_total(max_p + max_q)
    expansion, symbol = _TABLES[direction]
    for p in range(1, max_p + 1):
        for q in range(p, max_q + 1):
            poly = expansion(p, q)
            if fmt == "latex":
                lhs = CumulantPolynomial.from_symbol(symbol(p, q)).to_latex()
                click.echo(f"{lhs} = {poly.to_latex()}")
            else:
                click.echo(
                    json.dumps(
                        {"p": p, "q": q, "direction": direction, "terms": poly.to_json_obj()},
                        separators=(", ", ": "),
                    )
                )


@main.command()
@click.argument("suite", type=click.Choice(suite_names()))
@click.option("--max", "max_total", type=int, default=None, help="sweep bound override")
@click.option("--jobs", type=int, default=1, show_default=True, help="parallel worker count")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
@click.pass_context
def verify(ctx: click.Context, suite: str, max_total: int | None, jobs: int, fmt: str) -> None:
    """Run one verification suite and report per-check pass/fail.

    Exit code is 0 exactly when every check passes; failures carry the
    first counterexample found.
    """
    if jobs < 1:
        raise click.ClickException("--jobs must be at least 1")
    _check_total(max_total if max_total is not None else 1)
    if suite in ("semicircular-square", "all") and (max_total or 0) > SQUARE_BOUND:
        raise click.ClickException(
            f"semicircular-square runs to --max {SQUARE_BOUND} at most: its cells hold "
            f"every annular pairing of 2(p+q) points"
        )
    try:
        results = run_suite(suite, max_total, jobs)
    except ValueError as exc:  # a suite's default bound past the ceiling
        raise click.ClickException(str(exc))
    if not results:  # only a bound below every cell: the default bounds all check something
        raise click.ClickException(f"suite {suite} checks nothing at --max {max_total}")
    if fmt == "text":
        for res in results:
            click.echo(res.line())
        good = sum(1 for r in results if r.passed)
        click.echo(f"{good}/{len(results)} checks passed")
    else:
        click.echo(json.dumps([r.to_json_obj() for r in results], indent=2))
    if not all(r.passed for r in results):
        ctx.exit(1)


@main.command()
@click.argument("perm")
@click.option("--shape", nargs=2, type=int, required=True, metavar="P Q")
@click.option("--partition", "partition_json", default=None, help="JSON list of blocks")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
def draw(perm: str, shape: tuple[int, int], partition_json: str | None, out: str) -> None:
    """Render PERM (cycle notation) on the (P, Q)-annulus as an SVG file.

    An empty PERM string is the identity.  With --partition, blocks
    gluing two cycles are drawn with a dotted connector.
    """
    p, q = shape
    if p < 1 or q < 1:
        raise click.ClickException("both circle sizes must be at least 1")
    try:
        pi = Permutation.parse(perm, size=p + q)
        partition = None
        if partition_json is not None:
            blocks = json.loads(partition_json)
            if not isinstance(blocks, list) or not all(
                isinstance(b, list) and all(type(x) is int for x in b) for b in blocks
            ):
                raise ValueError("--partition must be a JSON list of lists of integers")
            partition = SetPartition.of_blocks(p + q, blocks)
        svg = render_svg(pi, AnnulusShape(p, q), partition)
    except (ValueError, json.JSONDecodeError) as exc:
        raise click.ClickException(str(exc))
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
