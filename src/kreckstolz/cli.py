"""Command-line interface.

Subcommands expose the invariant calculators (`invariants`), the
classification verdicts (`classify`), the sphere-bundle residue solver
(`ediffeo`), enumeration of positively curved spaces (`enumerate`),
cross-family matching (`match`), and catalog verification (`tables`).

All numeric output is exact: fractions are serialized as "num/den"
strings and residues as "value mod modulus" strings, never as binary
floating point.  Exit status is 0 on success, 1 on a domain error (the
error name is written to stderr), and 2 on a usage error.  Negative
parameter values are accepted either as plain arguments (`-b -607`) or
with `=` (`--s2=-1/36`).

The subcommands that read fixture spaces (all but `ediffeo` and
`enumerate`) take them from `--fixtures PATH`, else from the
KRECKSTOLZ_FIXTURES environment variable, else from the bundled catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Optional, Sequence

from .atlas_search import (
    eschenburg_descriptor,
    find_matches,
    parse_source,
    parse_space,
    render_matches_json,
    render_matches_text,
    render_matches_tsv,
    render_table_text,
    reproduce_table,
)
from .bundle_families import Family, describe_bundle
from .classification import (
    EdiffeoProblem,
    Orientation,
    ediffeo_solve,
    ks_diffeomorphic,
    ks_homeomorphic,
    kruggel_homotopy,
)
from .errors import CongruenceFailure, DomainError, ParityFailure
from .eschenburg import enumerate_positively_curved, load_fixtures, order_invariants
from .exact_arith import excerpt, read_fraction, read_int
from .profiles import InvariantProfile

__all__ = ["main", "run"]


class _UsageError(Exception):
    """Invalid flag combination detected after argument parsing."""


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _fields(pairs, fmt: str) -> str:
    """One 'label: value' line per pair, or 'label<TAB>value' for tsv."""
    sep = "\t" if fmt == "tsv" else ": "
    return "".join(f"{label}{sep}{value}\n" for label, value in pairs)


def _flag(reader, text: str):
    """argparse type: `reader` applied to a flag's text, its DomainError a usage error."""
    try:
        return reader(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _get_fixtures(args):
    source = args.fixtures or os.environ.get("KRECKSTOLZ_FIXTURES") or None
    return load_fixtures(source)


def _profile_payload(descriptor: str, prof: InvariantProfile) -> dict:
    lk = None
    if prof.lk is not None:
        lk = [str(c) for c in sorted(prof.lk, key=lambda c: c.value)]
    return {
        "space": descriptor,
        "cohomology_type": prof.cohomology_type.value,
        "r": prof.r,
        "s1": str(prof.s1),
        "s2": str(prof.s2),
        "s3": str(prof.s3),
        "p1": str(prof.p1),
        "lk": lk,
        "pi4": prof.pi4.value,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (exit code, output text).
# ---------------------------------------------------------------------------


def _cmd_invariants(args) -> tuple[int, str]:
    flag_style = args.family is not None or args.a is not None or args.b is not None or args.t is not None
    if args.space is not None and flag_style:
        raise _UsageError("give either a space descriptor or --family with -a/-b, not both")
    space = args.space
    if args.family is not None:
        if args.a is None or args.b is None:
            raise _UsageError("--family requires -a and -b")
        family = Family(args.family)
        needs_t = family in (Family.CIRCLE, Family.SPIN_CIRCLE)
        if needs_t and args.t is None:
            raise _UsageError(f"family {excerpt(family.value)} requires -t")
        if not needs_t and args.t is not None:
            raise _UsageError(f"family {excerpt(family.value)} does not take -t")
        space = describe_bundle(family, args.a, args.b, args.t)
    elif space is None:
        raise _UsageError("give a space descriptor or --family with -a/-b")
    descriptor, prof = parse_space(space, partial(_get_fixtures, args))
    payload = _profile_payload(descriptor, prof)
    if args.format == "json":
        return 0, _emit_json(payload)
    lk = payload["lk"]
    text = dict(payload, lk=", ".join(lk) if lk else "trivial")
    return 0, _fields(((key.replace("_", " "), value) for key, value in text.items()), args.format)


def _cmd_classify(args) -> tuple[int, str]:
    load = partial(_get_fixtures, args)
    left_desc, left = parse_space(args.left, load)
    right_desc, right = parse_space(args.right, load)
    diffeo = ks_diffeomorphic(left, right)
    homeo = ks_homeomorphic(left, right)
    homotopy = kruggel_homotopy(left, right)
    payload = {
        "left": left_desc,
        "right": right_desc,
        "diffeomorphic": diffeo.value if diffeo else None,
        "homeomorphic": homeo.value if homeo else None,
        "homotopy": homotopy.value,
    }
    if args.format == "json":
        return 0, _emit_json(payload)
    return 0, _fields(((label, value or "none") for label, value in payload.items()), args.format)


def _cmd_ediffeo(args) -> tuple[int, str]:
    problem = EdiffeoProblem(args.r, args.s1, args.s2, args.s3)
    wanted = list(Orientation) if args.orientation == "both" else [Orientation(args.orientation)]
    solutions = {}
    for orientation in wanted:
        try:
            residues = [str(c) for c in ediffeo_solve(problem, orientation).residues]
        except (ParityFailure, CongruenceFailure) as exc:
            solutions[orientation.value] = {"residues": None, "reason": f"{type(exc).__name__}: {exc}"}
        else:
            solutions[orientation.value] = {"residues": residues}
    if args.format == "json":
        return 0, _emit_json({"r": args.r, **solutions})
    text = {
        label: ", ".join(solved["residues"]) if solved["residues"] is not None else f"no solution ({solved['reason']})"
        for label, solved in solutions.items()
    }
    return 0, _fields(text.items(), args.format)


def _cmd_enumerate(args) -> tuple[int, str]:
    rows = []
    for space in enumerate_positively_curved(args.r_max):
        r, s_signed, p1 = order_invariants(space)
        rows.append({"space": eschenburg_descriptor(space), "r": r, "s_signed": s_signed, "p1": str(p1)})
    if args.format == "json":
        return 0, _emit_json(rows)
    if args.format == "tsv":
        return 0, "".join(
            f"{row['space']}\t{row['r']}\t{row['s_signed']}\t{row['p1']}\n" for row in rows
        )
    return 0, "".join(
        f"{row['space']}  r={row['r']}  s={row['s_signed']}  p1={row['p1']}\n" for row in rows
    )


def _cmd_match(args) -> tuple[int, str]:
    load = partial(_get_fixtures, args)
    left = parse_source(args.left, load)
    right = parse_source(args.right, load)
    records = find_matches(left, right, require_pi4_compat=not args.ignore_pi4)
    if args.format == "json":
        return 0, render_matches_json(records)
    if args.format == "tsv":
        return 0, render_matches_tsv(records)
    return 0, render_matches_text(records)


def _cmd_tables(args) -> tuple[int, str]:
    report = reproduce_table(args.table, _get_fixtures(args))
    code = 0 if report.passed else 1
    if args.format == "text":
        return code, render_table_text(report)
    rows = [
        {
            "r": result.row.r,
            "starred": result.row.starred,
            "space": result.space,
            "partner": result.partner,
            "orientation": result.orientation.value if result.orientation else None,
            "residues": [str(c) for c in result.residues],
            "p1": str(result.p1),
            "passed": result.passed,
            "problems": list(result.problems),
        }
        for result in report.rows
    ]
    if args.format == "json":
        return code, _emit_json({"table": report.table, "passed": report.passed, "rows": rows})
    return code, "".join(
        f"{report.table}\t{row['r']}\t{'*' if row['starred'] else ''}\t{row['orientation'] or 'undetermined'}\t"
        f"{row['partner']}\t{'pass' if row['passed'] else 'fail'}\t{'; '.join(row['problems'])}\n"
        for row in rows
    )


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreckstolz",
        description="Exact classification invariants for five families of 7-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    integer, fraction = partial(_flag, read_int), partial(_flag, read_fraction)

    def subcommand(name: str, handler, catalog: bool, **parser_kwargs) -> argparse.ArgumentParser:
        """A subcommand taking --format, and --fixtures when it reads the catalog, run by `handler`."""
        p = sub.add_parser(name, **parser_kwargs)
        p.add_argument("--format", choices=("text", "json", "tsv"), default="text", help="output format (default: text)")
        if catalog:
            p.add_argument(
                "--fixtures",
                metavar="PATH",
                help="fixture catalog path (default: $KRECKSTOLZ_FIXTURES, else the bundled catalog)",
            )
        p.set_defaults(handler=handler)
        return p

    p_inv = subcommand(
        "invariants",
        _cmd_invariants,
        True,
        help="invariant profile of one space",
        description="Compute the invariant profile of a bundle or fixture space.",
    )
    p_inv.add_argument("space", nargs="?", help="space descriptor, e.g. sphere:2,-1 or eschenburg:1,1,-2|0,0,0")
    p_inv.add_argument("--family", choices=[f.value for f in Family])
    p_inv.add_argument("-a", type=integer)
    p_inv.add_argument("-b", type=integer)
    p_inv.add_argument("-t", type=integer, help="twisting parameter (circle families only)")

    p_cls = subcommand(
        "classify", _cmd_classify, True, help="diffeomorphism/homeomorphism/homotopy verdicts for two spaces"
    )
    p_cls.add_argument("left")
    p_cls.add_argument("right")

    p_ed = subcommand(
        "ediffeo",
        _cmd_ediffeo,
        False,
        help="sphere-bundle residues realizing given s-values",
        description="Solve for all a with S_{a,a-r} carrying the given s-values; residues are reported mod 168r.",
    )
    p_ed.add_argument("-r", type=integer, required=True)
    for flag in ("--s1", "--s2", "--s3"):
        p_ed.add_argument(flag, type=fraction, required=True)
    p_ed.add_argument(
        "--orientation",
        choices=("preserving", "reversing", "both"),
        default="both",
    )

    p_enum = subcommand("enumerate", _cmd_enumerate, False, help="positively curved parameter pairs up to a bound on r")
    p_enum.add_argument(
        "--r-max",
        type=integer,
        required=True,
        help="list the spaces with 1 <= r < R_MAX; parameter entries are bounded by 3*R_MAX",
    )

    p_match = subcommand(
        "match",
        _cmd_match,
        True,
        help="all diffeomorphic pairs between two collections",
        description="Sources: 'fixtures', 'sphere:r=3,start=0,stop=504', or 'circle:r=17,bound=1000'.",
    )
    p_match.add_argument("--left", required=True)
    p_match.add_argument("--right", required=True)
    p_match.add_argument(
        "--ignore-pi4",
        action="store_true",
        help="do not let a proven pi4 difference block a match",
    )

    p_tab = subcommand("tables", _cmd_tables, True, help="verify a bundled catalog table row by row")
    p_tab.add_argument("table", choices=("A", "B"))

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and return the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, output = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
