"""Command-line front end: the ``nodecount`` batch calculator.

Subcommands mirror the library: ``bq`` dumps the node polynomials,
``plane`` / ``p4`` / ``abelian`` run the three geometric back ends,
``enriques`` checks and enumerates diagrams, and ``validity`` evaluates the
range predicates.  Every command emits a stream of records with a fixed
shape (command, inputs, result, validity annotation, reference tag) in
aligned text, JSON lines, or CSV.  Output is deterministic byte for byte.

Evaluations outside a proven validity range still succeed; the record just
carries an explicit annotation saying so.  Exit codes: 0 on success, 2 on
usage errors (conflicting modes, values outside a function's domain, an
unreadable or invalid diagram file), 1 when an internal exactness check
fails, and 141 (128 + SIGPIPE, as for a process killed by a broken pipe)
when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import abelian, enriques, grassmann, surface
from .exactpoly import ExactnessError
from .nodegen import node_polynomial

FORMATS = ("text", "json", "csv")
EXIT_BROKEN_PIPE = 141


@dataclass(frozen=True)
class OutputRecord:
    command: str
    inputs: dict[str, int | str]
    result: int | str
    valid: str | None
    ref: str


def _fmt_inputs(inputs: dict[str, int | str]) -> str:
    return " ".join(f"{k}={v}" for k, v in inputs.items())


def emit(records: Iterable[OutputRecord], fmt: str, out: io.TextIOBase) -> None:
    """Write the records; json and csv stream them, text collects to align columns."""
    if fmt == "json":
        for r in records:
            payload = {
                "command": r.command,
                "inputs": r.inputs,
                "result": r.result,
                "valid": r.valid,
                "ref": r.ref,
            }
            out.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["command", "inputs", "result", "valid", "ref"])
        for r in records:
            writer.writerow(
                [r.command, _fmt_inputs(r.inputs), str(r.result), r.valid or "", r.ref]
            )
        return
    rows = [
        (r.command, _fmt_inputs(r.inputs), str(r.result), r.valid or "", r.ref)
        for r in records
    ]
    widths = [max((len(row[i]) for row in rows), default=0) for i in range(4)]
    for row in rows:
        line = "  ".join(
            [row[0].ljust(widths[0]), row[1].ljust(widths[1]), row[2].ljust(widths[2]),
             row[3].ljust(widths[3]), row[4]]
        )
        out.write(line.rstrip() + "\n")


def _int_result(value: Fraction | int) -> int:
    value = Fraction(value)
    if value.denominator != 1:
        raise ExactnessError(f"expected an integer count, got {value}")
    return value.numerator


def _plane_annotation(r: int, m: int) -> str:
    return (
        "in range (m >= r/2+1)"
        if surface.plane_validity(r, m)
        else "outside range (m >= r/2+1)"
    )


def _p4_annotation(m: int) -> str:
    return "in range (m >= 4)" if grassmann.threefold_validity(m) else "outside range (m >= 4)"


def _cmd_bq(args: argparse.Namespace) -> list[OutputRecord]:
    qs = [args.q] if args.q is not None else range(1, 9)
    return [
        OutputRecord("bq", {"q": q}, str(node_polynomial(q)), None, "node-polynomial")
        for q in qs
    ]


def _cmd_plane(args: argparse.Namespace) -> list[OutputRecord]:
    if args.table:
        return [
            OutputRecord(
                "plane", {"q": q}, str(surface.surface_aq(q, surface.ChernNumbers.plane())),
                None, "plane-aq",
            )
            for q in range(1, 9)
        ]
    if args.symbolic:
        poly = surface.severi_degree(args.r)
        return [
            OutputRecord("plane", {"r": args.r}, str(poly), None, "severi-polynomial")
        ]
    value = surface.plane_count(args.r, args.m)
    return [
        OutputRecord(
            "plane",
            {"r": args.r, "m": args.m},
            _int_result(value),
            _plane_annotation(args.r, args.m),
            "severi-count",
        )
    ]


def _cmd_p4(args: argparse.Namespace) -> list[OutputRecord]:
    if args.symbolic:
        return [
            OutputRecord(
                "p4", {}, str(grassmann.threefold_6nodal_symbolic()), None,
                "p4-6nodal-polynomial",
            )
        ]
    if args.lines3:
        return [
            OutputRecord(
                "p4", {}, str(grassmann.threefold_3nodal_lines()), None, "p4-3nodal-lines"
            )
        ]
    if args.irreducible:
        return [
            OutputRecord(
                "p4", {"m": 5}, grassmann.quintic_irreducible(), _p4_annotation(5),
                "p4-quintic-irreducible",
            )
        ]
    return [
        OutputRecord(
            "p4", {"m": args.m}, grassmann.threefold_6nodal(args.m), _p4_annotation(args.m),
            "p4-6nodal-count",
        )
    ]


def _cmd_abelian(args: argparse.Namespace) -> list[OutputRecord]:
    if args.table:
        return [
            OutputRecord(
                "abelian", {"r": r}, str(abelian.abelian_count(r)), None, "abelian-table"
            )
            for r in range(9)
        ]
    if args.fixed_class:
        return [
            OutputRecord(
                "abelian", {"r": args.r}, str(abelian.fixed_class_count(args.r)), None,
                "abelian-fixed-class",
            )
        ]
    if args.oracle:
        return [
            OutputRecord(
                "abelian",
                {"g": args.g, "r": args.r},
                abelian.bryan_leung_count(args.g, args.r),
                None,
                "abelian-oracle",
            )
        ]
    if args.g is not None and args.g < 1:
        raise ValueError(f"g must be at least 1: {args.g}")
    poly = abelian.abelian_count(args.r)
    if args.g is None:
        return [OutputRecord("abelian", {"r": args.r}, str(poly), None, "abelian-count")]
    value = _int_result(poly.evaluate({"g": args.g}))
    return [
        OutputRecord(
            "abelian", {"r": args.r, "g": args.g}, value, None, "abelian-count"
        )
    ]


def _read_diagram(path: str) -> enriques.EnriquesDiagram:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return enriques.from_text(text)
    except (OSError, ValueError) as exc:
        raise ValueError(f"diagram {path}: {exc}") from exc


def _cmd_enriques(args: argparse.Namespace) -> Iterable[OutputRecord]:
    if args.action == "enumerate":
        inputs = {"max-v": args.max_v, "max-w": args.max_w}
        return (
            OutputRecord(
                "enriques",
                inputs,
                enriques.to_text(d).rstrip("\n").replace("\n", "; "),
                None,
                "diagram-enumeration",
            )
            for d in enriques.enumerate_diagrams(args.max_v, args.max_w)
        )
    diagram = _read_diagram(args.file)
    try:
        result, ref = _diagram_result(args.action, diagram)
    except ValueError as exc:  # not a valid (single-root) diagram
        raise ValueError(f"diagram {args.file}: {exc}") from exc
    return [OutputRecord("enriques", {"file": args.file}, result, None, ref)]


def _diagram_result(action: str, diagram: enriques.EnriquesDiagram) -> tuple[str, str]:
    """The result text and reference tag of one diagram query."""
    if action == "check":
        violation = enriques.validate(diagram)
        return ("ok" if violation is None else str(violation)), "diagram-check"
    if action == "invariants":
        inv = enriques.invariants(diagram)
        parts = [
            f"roots={inv.roots}", f"free={inv.free_vertices}", f"dim={inv.dim}",
            f"deg={inv.deg}", f"cod={inv.cod}", f"delta={inv.delta}",
            f"branches={inv.branches}", f"milnor={inv.milnor}",
        ]
        if inv.jacobian_mult is not None:
            parts.append(f"e={inv.jacobian_mult}")
        return " ".join(parts), "diagram-invariants"
    report = enriques.inequality_report(diagram)
    body = " ".join(
        f"{r.part}={'eq' if r.equality else ('holds' if r.holds else 'FAIL')}"
        for r in report
    )
    return body, "diagram-inequalities"


def _cmd_validity(args: argparse.Namespace) -> list[OutputRecord]:
    if args.predicate == "plane":
        ok = surface.plane_validity(args.r, args.m)
        return [
            OutputRecord(
                "validity", {"predicate": "plane", "r": args.r, "m": args.m},
                str(ok).lower(), None, "validity-plane",
            )
        ]
    if args.predicate == "abelian":
        ok = abelian.abelian_validity(args.m, args.g, args.r)
        return [
            OutputRecord(
                "validity",
                {"predicate": "abelian", "m": args.m, "g": args.g, "r": args.r},
                str(ok).lower(),
                None,
                "validity-abelian",
            )
        ]
    ok = abelian.k_very_ample_ok(args.surface, args.m, args.d, args.k)
    return [
        OutputRecord(
            "validity",
            {"predicate": "kva", "surface": args.surface, "m": args.m, "d": args.d,
             "k": args.k},
            str(ok).lower(),
            None,
            "validity-kva",
        )
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodecount",
        description="Exact calculator for counts of nodal curves on surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("bq", help="dump the node polynomials b_1..b_8")
    p.add_argument("--q", type=int, choices=range(1, 9))
    add_format(p)
    p.set_defaults(handler=_cmd_bq)

    p = sub.add_parser("plane", help="plane curves of degree m with r nodes")
    p.add_argument("--r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--table", action="store_true", help="the eight a_q polynomials")
    p.add_argument("--symbolic", action="store_true", help="the node polynomial N_r(m)")
    add_format(p)
    p.set_defaults(handler=_cmd_plane)

    p = sub.add_parser("p4", help="plane curves on a threefold in four-space")
    p.add_argument("--m", type=int, help="threefold degree for the 6-nodal count")
    p.add_argument("--symbolic", action="store_true", help="the degree-18 polynomial")
    p.add_argument("--lines3", action="store_true",
                   help="3-nodal curves meeting three general lines (degree-9 polynomial)")
    p.add_argument("--irreducible", action="store_true",
                   help="irreducible 6-nodal plane quintics on a quintic threefold")
    add_format(p)
    p.set_defaults(handler=_cmd_p4)

    p = sub.add_parser("abelian", help="curves in a homology class on an abelian surface")
    p.add_argument("--r", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--table", action="store_true", help="the nine count polynomials")
    p.add_argument("--fixed-class", action="store_true", dest="fixed_class",
                   help="fixed linear-system variant")
    p.add_argument("--oracle", action="store_true",
                   help="generating-function count (independent route)")
    add_format(p)
    p.set_defaults(handler=_cmd_abelian)

    p = sub.add_parser("enriques", help="check, measure or enumerate diagrams")
    p.add_argument("action", choices=("check", "invariants", "inequalities", "enumerate"))
    p.add_argument("file", nargs="?", help="diagram file, or - for standard input")
    p.add_argument("--max-v", type=int, dest="max_v")
    p.add_argument("--max-w", type=int, dest="max_w")
    add_format(p)
    p.set_defaults(handler=_cmd_enriques)

    p = sub.add_parser("validity", help="evaluate the range predicates")
    p.add_argument("predicate", choices=("plane", "abelian", "kva"))
    p.add_argument("--r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--surface", choices=("abelian", "k3", "enriques"))
    add_format(p)
    p.set_defaults(handler=_cmd_validity)

    return parser


def _refuse(
    parser: argparse.ArgumentParser, args: argparse.Namespace, mode: str, *others: str
) -> None:
    """A usage error if any of ``others`` (argument names) is given with ``mode``."""
    for other in others:
        value = getattr(args, other)
        if value is not None and value is not False:
            parser.error(f"--{mode} cannot be combined with --{other}".replace("_", "-"))


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    sc = args.subcommand
    if sc == "plane":
        if args.table:
            _refuse(parser, args, "table", "symbolic", "r", "m")
            return
        if args.symbolic:
            _refuse(parser, args, "symbolic", "m")
        if args.r is None:
            parser.error("plane needs --r (or --table)")
        if not 0 <= args.r <= 8:
            parser.error("--r must be in 0..8")
        if not args.symbolic and args.m is None:
            parser.error("plane needs --m for a numeric count")
    elif sc == "p4":
        chosen = sum(bool(x) for x in (args.symbolic, args.lines3, args.irreducible))
        if chosen > 1:
            parser.error("choose one of --symbolic, --lines3, --irreducible")
        if args.m is not None:
            _refuse(parser, args, "m", "symbolic", "lines3", "irreducible")
        if chosen == 0 and args.m is None:
            parser.error("p4 needs --m or one of --symbolic, --lines3, --irreducible")
    elif sc == "abelian":
        if args.table:
            _refuse(parser, args, "table", "r", "g", "fixed_class", "oracle")
            return
        if args.fixed_class:
            _refuse(parser, args, "fixed_class", "oracle", "g")
        if args.r is None:
            parser.error("abelian needs --r (or --table)")
        if not 0 <= args.r <= 8:
            parser.error("--r must be in 0..8")
        if args.oracle and args.g is None:
            parser.error("--oracle needs --g")
    elif sc == "enriques":
        if args.action == "enumerate":
            if args.file is not None:
                parser.error("enriques enumerate takes no diagram file")
            if args.max_v is None or args.max_w is None:
                parser.error("enumerate needs --max-v and --max-w")
            if not (1 <= args.max_v <= 7 and 1 <= args.max_w <= 6):
                parser.error("enumeration limits: 1 <= --max-v <= 7, 1 <= --max-w <= 6")
        else:
            if args.max_v is not None or args.max_w is not None:
                parser.error(f"--max-v and --max-w apply only to enumerate, not {args.action}")
            if args.file is None:
                parser.error(f"enriques {args.action} needs a diagram file (or -)")
    elif sc == "validity":
        need = {
            "plane": ("r", "m"),
            "abelian": ("m", "g", "r"),
            "kva": ("surface", "m", "d", "k"),
        }[args.predicate]
        for name in need:
            if getattr(args, name) is None:
                parser.error(f"validity {args.predicate} needs --{name}")
        for name in ("r", "m", "g", "d", "k", "surface"):
            if name not in need and getattr(args, name) is not None:
                parser.error(f"validity {args.predicate} cannot be combined with --{name}")


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        _check_args(parser, args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # records may be lazy, so errors can surface while emitting
        emit(args.handler(args), args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``).  Point stdout at devnull so
        # the interpreter's flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:  # a bad diagram file or a value outside the domain
        print(f"nodecount: error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, OSError) as exc:
        print(f"nodecount: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
