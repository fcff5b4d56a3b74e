"""Command-line front end: the ``nodecount`` batch calculator.

Subcommands mirror the library: ``bq`` dumps the node polynomials,
``plane`` / ``p4`` / ``abelian`` run the three geometric back ends,
``enriques`` checks and enumerates diagrams, and ``validity`` evaluates the
range predicates.  Every command emits runs of records (``OutputRecord``:
command, inputs, results, validity annotation, reference tag), one line per
result in aligned text, JSON lines, or CSV, deterministic byte for byte.

``MODES`` lists each subcommand's modes with the options each one needs and
may take, and its handler.  A mode is chosen by its flag (``plane --table``),
the positional action or predicate (``validity kva``), or by default; two
mode flags, a missing option or one the mode does not take are refused.

Evaluations outside a proven validity range still succeed; the record just
carries an explicit annotation saying so.  Exit codes: 0 on success, 2 on
usage errors (conflicting modes, values outside a function's domain, an
unreadable or invalid diagram file), 1 when an internal exactness check
fails, and 141 (128 + SIGPIPE, as for a process killed by a broken pipe)
when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:  # each handler imports its own back end: a command loads only what it runs
    from . import enriques

FORMATS = ("text", "json", "csv")
EXIT_BROKEN_PIPE = 141


class OutputRecord(NamedTuple):
    """A run of results that share their command, inputs, validity and reference."""

    command: str
    inputs: dict[str, int | str]
    results: Iterable[int | str]
    valid: str | None
    ref: str


#: lines per ``write`` to the output: few system calls even unbuffered, flat memory
BATCH = 512


def emit(records: Iterable[OutputRecord], fmt: str, out: io.TextIOBase) -> None:
    """Write the runs' lines ``BATCH`` to a ``write``, and those taken also on failure.

    A command emits runs of records: each ``OutputRecord`` holds the results, a
    line each, that share its other fields, which are formatted once per run.
    json and csv stream the results, so memory stays flat; text collects them
    to align its columns.  The writes are as many with or without ``-u``
    (``PYTHONUNBUFFERED``); csv writes its header on its own first.
    """
    if fmt == "json":
        import json
        line = json.JSONEncoder(sort_keys=True).encode  # as json.dumps(..., sort_keys=True)

        def shared(r: OutputRecord) -> tuple[str, str]:
            head = line({"command": r.command, "inputs": r.inputs, "ref": r.ref})[:-1]
            return head + ', "result": ', ', "valid": ' + line(r.valid) + "}\n"

        def lines(head: str, tail: str, results: list) -> str:
            return head + (tail + head).join(map(line, results)) + tail
    else:
        def shared(r: OutputRecord) -> tuple[str, str, str, str]:
            inputs = " ".join(f"{k}={v}" for k, v in r.inputs.items())
            return r.command, inputs, r.valid or "", r.ref

        if fmt == "csv":
            import csv

            def lines(command: str, inputs: str, valid: str, ref: str, results: list) -> str:
                text = io.StringIO()
                csv.writer(text, lineterminator="\n").writerows(
                    (command, inputs, str(result), valid, ref) for result in results)
                return text.getvalue()

            out.write("command,inputs,result,valid,ref\n")
        else:
            runs = [(shared(r), list(map(str, r.results))) for r in records]
            widths = [max(column) for column in zip(*(
                (len(command), len(inputs), max(map(len, results)), len(valid))
                for (command, inputs, valid, _), results in runs if results))]

            def lines(command: str, inputs: str, valid: str, ref: str, results: list) -> str:
                return "".join("  ".join([*map(str.ljust, (command, inputs, result, valid), widths),
                                          ref]).rstrip() + "\n" for result in results)

    def encode(parts: list[tuple[tuple, list]]) -> str:
        return "".join(lines(*fields, taken) for fields, taken in parts if taken)

    if fmt != "text":
        runs = ((shared(r), r.results) for r in records)
    parts, filled = [], 0  # the batch: (shared fields, results taken) per run, and its lines
    try:
        for fields, results in runs:
            results = iter(results)
            while True:
                parts.append((fields, taken := []))
                taken.extend(islice(results, BATCH - filled))  # keeps those taken if one fails
                filled += len(taken)
                if filled < BATCH:
                    break
                batch, parts, filled = parts, [], 0  # first, so that a failed write is not repeated
                out.write(encode(batch))
    finally:
        if any(taken for _, taken in parts):
            out.write(encode(parts))


def _p4_annotation(m: int) -> str:
    from . import grassmann
    return "in range (m >= 4)" if grassmann.threefold_validity(m) else "outside range (m >= 4)"


def _cmd_bq(args: argparse.Namespace) -> list[OutputRecord]:
    from .nodegen import node_polynomial
    qs = [args.q] if args.q is not None else range(1, 9)
    return [
        OutputRecord("bq", {"q": q}, (str(node_polynomial(q)),), None, "node-polynomial")
        for q in qs
    ]


def _cmd_plane_table(args: argparse.Namespace) -> list[OutputRecord]:
    from . import surface
    plane = surface.ChernNumbers.plane()
    return [
        OutputRecord("plane", {"q": q}, (str(surface.surface_aq(q, plane)),), None, "plane-aq")
        for q in range(1, 9)
    ]


def _cmd_plane_symbolic(args: argparse.Namespace) -> list[OutputRecord]:
    from . import surface
    poly = surface.severi_degree(args.r)
    return [OutputRecord("plane", {"r": args.r}, (str(poly),), None, "severi-polynomial")]


def _cmd_plane_count(args: argparse.Namespace) -> list[OutputRecord]:
    from . import surface
    from .exactpoly import integer
    value = integer(surface.plane_count(args.r, args.m), f"the count at r={args.r}, m={args.m}")
    valid = "in range" if surface.plane_validity(args.r, args.m) else "outside range"
    inputs = {"r": args.r, "m": args.m}
    return [OutputRecord("plane", inputs, (value,), f"{valid} (m >= r/2+1)", "severi-count")]


def _cmd_p4_symbolic(args: argparse.Namespace) -> list[OutputRecord]:
    from . import grassmann
    poly = grassmann.threefold_6nodal_symbolic()
    return [OutputRecord("p4", {}, (str(poly),), None, "p4-6nodal-polynomial")]


def _cmd_p4_lines3(args: argparse.Namespace) -> list[OutputRecord]:
    from . import grassmann
    poly = grassmann.threefold_3nodal_lines()
    return [OutputRecord("p4", {}, (str(poly),), None, "p4-3nodal-lines")]


def _cmd_p4_irreducible(args: argparse.Namespace) -> list[OutputRecord]:
    from . import grassmann
    value = grassmann.quintic_irreducible()
    return [OutputRecord("p4", {"m": 5}, (value,), _p4_annotation(5), "p4-quintic-irreducible")]


def _cmd_p4_count(args: argparse.Namespace) -> list[OutputRecord]:
    from . import grassmann
    value = grassmann.threefold_6nodal(args.m)
    return [OutputRecord("p4", {"m": args.m}, (value,), _p4_annotation(args.m), "p4-6nodal-count")]


def _cmd_abelian_table(args: argparse.Namespace) -> list[OutputRecord]:
    from . import abelian
    return [
        OutputRecord("abelian", {"r": r}, (str(abelian.abelian_count(r)),), None, "abelian-table")
        for r in range(9)
    ]


def _cmd_abelian_fixed_class(args: argparse.Namespace) -> list[OutputRecord]:
    from . import abelian
    poly = abelian.fixed_class_count(args.r)
    return [OutputRecord("abelian", {"r": args.r}, (str(poly),), None, "abelian-fixed-class")]


def _cmd_abelian_oracle(args: argparse.Namespace) -> list[OutputRecord]:
    from . import abelian
    value = abelian.bryan_leung_count(args.g, args.r)
    return [OutputRecord("abelian", {"g": args.g, "r": args.r}, (value,), None, "abelian-oracle")]


def _cmd_abelian_count(args: argparse.Namespace) -> list[OutputRecord]:
    """N_{g,r} as a polynomial in g, or its value when --g is given."""
    from . import abelian
    from .exactpoly import integer
    if args.g is not None and args.g < 1:
        raise ValueError(f"g must be at least 1: {args.g}")
    poly = abelian.abelian_count(args.r)
    if args.g is None:
        return [OutputRecord("abelian", {"r": args.r}, (str(poly),), None, "abelian-count")]
    value = integer(poly.evaluate({"g": args.g}), f"the count at r={args.r}, g={args.g}")
    return [OutputRecord("abelian", {"r": args.r, "g": args.g}, (value,), None, "abelian-count")]


def _cmd_enriques_enumerate(args: argparse.Namespace) -> list[OutputRecord]:
    from . import enriques
    texts = enriques.enumeration_text(args.max_v, args.max_w)
    inputs = {"max-v": args.max_v, "max-w": args.max_w}
    return [OutputRecord("enriques", inputs, texts, None, "diagram-enumeration")]


def _diagram_query(args: argparse.Namespace, query: Callable, ref: str) -> list[OutputRecord]:
    """The record of ``query`` on the diagram in ``args.file`` (``-``: standard input)."""
    from . import enriques
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        result = query(enriques.from_text(text))
    except (OSError, ValueError) as exc:  # unreadable, unparsable or not a valid diagram
        raise ValueError(f"diagram {args.file}: {exc}") from exc
    return [OutputRecord("enriques", {"file": args.file}, (result,), None, ref)]


def _invariants_text(diagram: enriques.EnriquesDiagram) -> str:
    from . import enriques
    inv = enriques.invariants(diagram)
    parts = [
        f"roots={inv.roots}", f"free={inv.free_vertices}", f"dim={inv.dim}",
        f"deg={inv.deg}", f"cod={inv.cod}", f"delta={inv.delta}",
        f"branches={inv.branches}", f"milnor={inv.milnor}",
    ]
    if inv.jacobian_mult is not None:
        parts.append(f"e={inv.jacobian_mult}")
    return " ".join(parts)


def _inequalities_text(diagram: enriques.EnriquesDiagram) -> str:
    from . import enriques
    return " ".join(
        f"{r.part}={'eq' if r.equality else ('holds' if r.holds else 'FAIL')}"
        for r in enriques.inequality_report(diagram)
    )


def _cmd_enriques_check(args: argparse.Namespace) -> list[OutputRecord]:
    from . import enriques
    return _diagram_query(args, lambda d: str(enriques.validate(d) or "ok"), "diagram-check")


def _cmd_enriques_invariants(args: argparse.Namespace) -> list[OutputRecord]:
    return _diagram_query(args, _invariants_text, "diagram-invariants")


def _cmd_enriques_inequalities(args: argparse.Namespace) -> list[OutputRecord]:
    return _diagram_query(args, _inequalities_text, "diagram-inequalities")


def _validity_record(args: argparse.Namespace, ok: bool) -> list[OutputRecord]:
    """The record of a validity predicate, with the inputs its mode needs."""
    needs = MODES["validity"][args.mode][0]
    inputs = {"predicate": args.mode, **{_dest(o): getattr(args, _dest(o)) for o in needs}}
    return [OutputRecord("validity", inputs, (str(ok).lower(),), None, f"validity-{args.mode}")]


def _cmd_validity_plane(args: argparse.Namespace) -> list[OutputRecord]:
    from . import surface
    return _validity_record(args, surface.plane_validity(args.r, args.m))


def _cmd_validity_abelian(args: argparse.Namespace) -> list[OutputRecord]:
    from . import abelian
    return _validity_record(args, abelian.abelian_validity(args.m, args.g, args.r))


def _cmd_validity_kva(args: argparse.Namespace) -> list[OutputRecord]:
    from . import abelian
    return _validity_record(args, abelian.k_very_ample_ok(args.surface, args.m, args.d, args.k))


#: subcommand -> mode -> (options the mode needs, options it may take, handler
#: name).  A mode named like a flag is chosen by that flag, a bare name by the
#: positional action or predicate, and "" when no mode flag is given.  Any
#: other option of the subcommand is refused.  Handlers are looked up by name
#: when a command runs, so a rebound ``_cmd_*`` (for tracing) is the one called.
MODES: dict[str, dict[str, tuple[tuple[str, ...], tuple[str, ...], str]]] = {
    "bq": {"": ((), ("--q",), "_cmd_bq")},
    "plane": {
        "--table": ((), (), "_cmd_plane_table"),
        "--symbolic": (("--r",), (), "_cmd_plane_symbolic"),
        "": (("--r", "--m"), (), "_cmd_plane_count"),
    },
    "p4": {
        "--symbolic": ((), (), "_cmd_p4_symbolic"),
        "--lines3": ((), (), "_cmd_p4_lines3"),
        "--irreducible": ((), (), "_cmd_p4_irreducible"),
        "": (("--m",), (), "_cmd_p4_count"),
    },
    "abelian": {
        "--table": ((), (), "_cmd_abelian_table"),
        "--fixed-class": (("--r",), (), "_cmd_abelian_fixed_class"),
        "--oracle": (("--r", "--g"), (), "_cmd_abelian_oracle"),
        "": (("--r",), ("--g",), "_cmd_abelian_count"),
    },
    "enriques": {
        "check": (("file",), (), "_cmd_enriques_check"),
        "invariants": (("file",), (), "_cmd_enriques_invariants"),
        "inequalities": (("file",), (), "_cmd_enriques_inequalities"),
        "enumerate": (("--max-v", "--max-w"), (), "_cmd_enriques_enumerate"),
    },
    "validity": {
        "plane": (("--r", "--m"), (), "_cmd_validity_plane"),
        "abelian": (("--m", "--g", "--r"), (), "_cmd_validity_abelian"),
        "kva": (("--surface", "--m", "--d", "--k"), (), "_cmd_validity_kva"),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodecount",
        description="Exact calculator for counts of nodal curves on surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bq", help="dump the node polynomials b_1..b_8")
    p.add_argument("--q", type=int, choices=range(1, 9))

    p = sub.add_parser("plane", help="plane curves of degree m with r nodes")
    p.add_argument("--r", type=int, choices=range(9))
    p.add_argument("--m", type=int)
    p.add_argument("--table", action="store_true", help="the eight a_q polynomials")
    p.add_argument("--symbolic", action="store_true", help="the node polynomial N_r(m)")

    p = sub.add_parser("p4", help="plane curves on a threefold in four-space")
    p.add_argument("--m", type=int, help="threefold degree for the 6-nodal count")
    p.add_argument("--symbolic", action="store_true", help="the degree-18 polynomial")
    p.add_argument("--lines3", action="store_true",
                   help="3-nodal curves meeting three general lines (degree-9 polynomial)")
    p.add_argument("--irreducible", action="store_true",
                   help="irreducible 6-nodal plane quintics on a quintic threefold")

    p = sub.add_parser("abelian", help="curves in a homology class on an abelian surface")
    p.add_argument("--r", type=int, choices=range(9))
    p.add_argument("--g", type=int)
    p.add_argument("--table", action="store_true", help="the nine count polynomials")
    p.add_argument("--fixed-class", action="store_true", dest="fixed_class",
                   help="fixed linear-system variant")
    p.add_argument("--oracle", action="store_true",
                   help="generating-function count (independent route)")

    p = sub.add_parser("enriques", help="check, measure or enumerate diagrams")
    p.add_argument("mode", choices=MODES["enriques"])
    p.add_argument("file", nargs="?", help="diagram file, or - for standard input")
    p.add_argument("--max-v", type=int, dest="max_v", choices=range(1, 8))
    p.add_argument("--max-w", type=int, dest="max_w", choices=range(1, 7))

    p = sub.add_parser("validity", help="evaluate the range predicates")
    p.add_argument("mode", choices=MODES["validity"])
    for name in ("--r", "--m", "--g", "--d", "--k"):
        p.add_argument(name, type=int)
    p.add_argument("--surface", choices=("abelian", "k3", "enriques"))

    for p in sub.choices.values():
        p.add_argument("--format", choices=FORMATS, default="text")
        p.set_defaults(parser=p)
    return parser


def _dest(option: str) -> str:
    """The namespace attribute of an option as the table spells it."""
    return option.lstrip("-").replace("-", "_")


def _check_args(args: argparse.Namespace) -> str:
    """The handler name of the one mode ``args`` selects; a usage error otherwise."""
    modes = MODES[args.subcommand]
    options = dict.fromkeys(
        [name for name in modes if name.startswith("-")]
        + [o for needs, may, _ in modes.values() for o in needs + may]
    )
    # identity tests: --r 0 is given, an unset flag is False
    given = [
        o for o in options
        if (value := getattr(args, _dest(o))) is not None and value is not False
    ]
    flags = [name for name in modes if name in given]
    if len(flags) > 1:
        args.parser.error(f"{flags[0]} cannot be combined with {flags[1]}")
    mode = flags[0] if flags else getattr(args, "mode", "")
    needs, may, handler = modes[mode]
    label = mode if mode.startswith("-") else f"{args.subcommand} {mode}".rstrip()
    for o in given:
        if o not in (mode, *needs, *may):
            args.parser.error(f"{label} cannot be combined with {o}")
    for o in needs:
        if o not in given:
            args.parser.error(f"{label} needs {o}")
    return handler


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        handler = globals()[_check_args(args)]
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # a run's results may be lazy, so errors can surface while emitting
        emit(handler(args), args.format, sys.stdout)
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
