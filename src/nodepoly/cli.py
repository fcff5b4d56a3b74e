"""Command-line front end: the ``nodecount`` batch calculator.

Subcommands mirror the library: ``bq`` dumps the node polynomials,
``plane`` / ``p4`` / ``abelian`` run the three geometric back ends,
``enriques`` checks and enumerates diagrams, and ``validity`` evaluates the
range predicates.  Every command emits runs of records (``OutputRecord``:
command, inputs, results, validity annotation, reference tag), one line per
result in aligned text, JSON lines, or CSV, deterministic byte for byte.

``COMMANDS`` declares the command line once: each subcommand's options,
and its modes with the options each one needs and may take and its handler.
``run`` parses ``argv`` against it, and the usage lines and help come from it.
A mode is chosen by its flag (``plane --table``), the positional action or
predicate (``validity kva``), or by default; two mode flags, a missing
option or one the mode does not take are refused.

Evaluations outside a proven validity range still succeed; the record just
carries an explicit annotation saying so.  Exit codes: 0 on success, 2 on
usage errors (conflicting modes, values outside a function's domain, an
unreadable or invalid diagram file), 1 when an internal exactness check
fails, and 141 (128 + SIGPIPE, as for a process killed by a broken pipe)
when the reader closes standard output early.
"""

from __future__ import annotations

import io
import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, NoReturn, Sequence

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


def _cmd_bq(args: SimpleNamespace) -> list[OutputRecord]:
    from .nodegen import node_polynomial
    qs = [args.q] if args.q is not None else range(1, 9)
    return [
        OutputRecord("bq", {"q": q}, (str(node_polynomial(q)),), None, "node-polynomial")
        for q in qs
    ]


def _cmd_plane_table(args: SimpleNamespace) -> list[OutputRecord]:
    from . import surface
    plane = surface.ChernNumbers.plane()
    return [
        OutputRecord("plane", {"q": q}, (str(surface.surface_aq(q, plane)),), None, "plane-aq")
        for q in range(1, 9)
    ]


def _cmd_plane_symbolic(args: SimpleNamespace) -> list[OutputRecord]:
    from . import surface
    poly = surface.severi_degree(args.r)
    return [OutputRecord("plane", {"r": args.r}, (str(poly),), None, "severi-polynomial")]


def _cmd_plane_count(args: SimpleNamespace) -> list[OutputRecord]:
    from . import surface
    from .exactpoly import integer
    value = integer(surface.plane_count(args.r, args.m), f"the count at r={args.r}, m={args.m}")
    valid = "in range" if surface.plane_validity(args.r, args.m) else "outside range"
    inputs = {"r": args.r, "m": args.m}
    return [OutputRecord("plane", inputs, (value,), f"{valid} (m >= r/2+1)", "severi-count")]


def _cmd_p4_symbolic(args: SimpleNamespace) -> list[OutputRecord]:
    from . import grassmann
    poly = grassmann.threefold_6nodal_symbolic()
    return [OutputRecord("p4", {}, (str(poly),), None, "p4-6nodal-polynomial")]


def _cmd_p4_lines3(args: SimpleNamespace) -> list[OutputRecord]:
    from . import grassmann
    poly = grassmann.threefold_3nodal_lines()
    return [OutputRecord("p4", {}, (str(poly),), None, "p4-3nodal-lines")]


def _cmd_p4_irreducible(args: SimpleNamespace) -> list[OutputRecord]:
    from . import grassmann
    value = grassmann.quintic_irreducible()
    return [OutputRecord("p4", {"m": 5}, (value,), _p4_annotation(5), "p4-quintic-irreducible")]


def _cmd_p4_count(args: SimpleNamespace) -> list[OutputRecord]:
    from . import grassmann
    value = grassmann.threefold_6nodal(args.m)
    return [OutputRecord("p4", {"m": args.m}, (value,), _p4_annotation(args.m), "p4-6nodal-count")]


def _cmd_abelian_table(args: SimpleNamespace) -> list[OutputRecord]:
    from . import abelian
    return [
        OutputRecord("abelian", {"r": r}, (str(abelian.abelian_count(r)),), None, "abelian-table")
        for r in range(9)
    ]


def _cmd_abelian_fixed_class(args: SimpleNamespace) -> list[OutputRecord]:
    from . import abelian
    poly = abelian.fixed_class_count(args.r)
    return [OutputRecord("abelian", {"r": args.r}, (str(poly),), None, "abelian-fixed-class")]


def _cmd_abelian_oracle(args: SimpleNamespace) -> list[OutputRecord]:
    from . import abelian
    value = abelian.bryan_leung_count(args.g, args.r)
    return [OutputRecord("abelian", {"g": args.g, "r": args.r}, (value,), None, "abelian-oracle")]


def _cmd_abelian_count(args: SimpleNamespace) -> list[OutputRecord]:
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


def _cmd_enriques_enumerate(args: SimpleNamespace) -> list[OutputRecord]:
    from . import enriques
    texts = enriques.enumeration_text(args.max_v, args.max_w)
    inputs = {"max-v": args.max_v, "max-w": args.max_w}
    return [OutputRecord("enriques", inputs, texts, None, "diagram-enumeration")]


def _diagram_query(args: SimpleNamespace, query: Callable, ref: str) -> list[OutputRecord]:
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


def _cmd_enriques_check(args: SimpleNamespace) -> list[OutputRecord]:
    from . import enriques
    return _diagram_query(args, lambda d: str(enriques.validate(d) or "ok"), "diagram-check")


def _cmd_enriques_invariants(args: SimpleNamespace) -> list[OutputRecord]:
    return _diagram_query(args, _invariants_text, "diagram-invariants")


def _cmd_enriques_inequalities(args: SimpleNamespace) -> list[OutputRecord]:
    return _diagram_query(args, _inequalities_text, "diagram-inequalities")


def _validity_record(args: SimpleNamespace, ok: bool) -> list[OutputRecord]:
    """The record of a validity predicate, with the inputs its mode needs."""
    needs = COMMANDS["validity"][2][args.mode][0]
    inputs = {"predicate": args.mode, **{_dest(o): getattr(args, _dest(o)) for o in needs}}
    return [OutputRecord("validity", inputs, (str(ok).lower(),), None, f"validity-{args.mode}")]


def _cmd_validity_plane(args: SimpleNamespace) -> list[OutputRecord]:
    from . import surface
    return _validity_record(args, surface.plane_validity(args.r, args.m))


def _cmd_validity_abelian(args: SimpleNamespace) -> list[OutputRecord]:
    from . import abelian
    return _validity_record(args, abelian.abelian_validity(args.m, args.g, args.r))


def _cmd_validity_kva(args: SimpleNamespace) -> list[OutputRecord]:
    from . import abelian
    return _validity_record(args, abelian.k_very_ample_ok(args.surface, args.m, args.d, args.k))


#: The command line: subcommand -> (help, options, modes).  Each option, and
#: ``file``, maps to its value (``int``, a ``range`` of ints, a tuple of words or
#: ``str``) and its help; each mode to the options it needs, those it may take,
#: its handler's name and its help.  A mode named like a flag is chosen by that
#: flag, a bare name by the positional action or predicate, and "" when no mode
#: flag is given.  Every subcommand also takes ``--format``.  Handlers are looked
#: up by name when a command runs, so a rebound ``_cmd_*`` (for tracing) is run.
COMMANDS: dict[str, tuple[str, dict[str, tuple], dict[str, tuple]]] = {
    "bq": ("dump the node polynomials b_1..b_8", {"--q": (range(1, 9), "the index q")}, {
        "": ((), ("--q",), "_cmd_bq", "b_1..b_8, or b_q alone")}),
    "plane": ("plane curves of degree m with r nodes", {
        "--r": (range(9), "the number of nodes"), "--m": (int, "the degree")}, {
        "--table": ((), (), "_cmd_plane_table", "the eight a_q polynomials"),
        "--symbolic": (("--r",), (), "_cmd_plane_symbolic", "the node polynomial N_r(m)"),
        "": (("--r", "--m"), (), "_cmd_plane_count", "the count N_r(m)")}),
    "p4": ("plane curves on a threefold in four-space", {
        "--m": (int, "threefold degree for the 6-nodal count")}, {
        "--symbolic": ((), (), "_cmd_p4_symbolic", "the degree-18 polynomial"),
        "--lines3": ((), (), "_cmd_p4_lines3", "3-nodal curves meeting three general lines"),
        "--irreducible": ((), (), "_cmd_p4_irreducible", "irreducible 6-nodal plane quintics"),
        "": (("--m",), (), "_cmd_p4_count", "6-nodal curves on a threefold of degree m")}),
    "abelian": ("curves in a homology class on an abelian surface", {
        "--r": (range(9), "the number of nodes"), "--g": (int, "the genus")}, {
        "--table": ((), (), "_cmd_abelian_table", "the nine count polynomials"),
        "--fixed-class": (("--r",), (), "_cmd_abelian_fixed_class", "fixed linear-system variant"),
        "--oracle": (("--r", "--g"), (), "_cmd_abelian_oracle", "generating-function count"),
        "": (("--r",), ("--g",), "_cmd_abelian_count", "N_{g,r}, a polynomial in g")}),
    "enriques": ("check, measure or enumerate diagrams", {
        "file": (str, "diagram file, or - for standard input"),
        "--max-v": (range(1, 8), "the most vertices"),
        "--max-w": (range(1, 7), "the largest weight")}, {
        "check": (("file",), (), "_cmd_enriques_check", "check the diagram"),
        "invariants": (("file",), (), "_cmd_enriques_invariants", "its invariants"),
        "inequalities": (("file",), (), "_cmd_enriques_inequalities", "its eight relations"),
        "enumerate": (("--max-v", "--max-w"), (), "_cmd_enriques_enumerate", "every diagram")}),
    "validity": ("evaluate the range predicates", {
        "--r": (int, "the number of nodes"), "--m": (int, "the degree or class multiple"),
        "--g": (int, "the genus"), "--surface": (("abelian", "k3", "enriques"), "the surface"),
        "--d": (int, "the class's self-intersection"), "--k": (int, "k, for k-very ampleness")}, {
        "plane": (("--r", "--m"), (), "_cmd_validity_plane", "is N_r(m) proven"),
        "abelian": (("--m", "--g", "--r"), (), "_cmd_validity_abelian", "is N_{g,r} proven"),
        "kva": (("--surface", "--m", "--d", "--k"), (), "_cmd_validity_kva",
                "is the class k-very ample")}),
}
HELP = ("-h", "--help")


def _dest(option: str) -> str:
    """The namespace attribute of an option as the table spells it."""
    return option.lstrip("-").replace("-", "_")


def _shown(option: str, spec: object) -> str:
    """An option with its value, or the ``file`` argument, as usage and help show it."""
    if isinstance(spec, (range, tuple)):
        words = ",".join(spec) if isinstance(spec, tuple) else f"{spec.start}..{spec[-1]}"
        return f"{option} {{{words}}}"
    return f"{option} {_dest(option).upper()}" if option[0] == "-" else option.upper()


def _help(sub: str) -> str:
    """The usage line, then each subcommand, or each mode and option of ``sub``, with its help.

    The usage line shows each mode with the options it needs and may take.
    """
    rows = [("-h, --help", "show this help")]
    if not sub:
        usage = f"[-h] {{{','.join(COMMANDS)}}} ..."
        about = "Exact calculator for counts of nodal curves on surfaces."
        rows += [(name, text) for name, (text, *_) in COMMANDS.items()]
    else:
        about, options, modes = COMMANDS[sub]
        shown = {o: _shown(o, spec) for o, (spec, _) in options.items()}
        forms = [" ".join([mode, *map(shown.get, needs), *(f"[{shown[o]}]" for o in may)]).strip()
                 for mode, (needs, may, *_) in modes.items()]
        forms = forms[0] if len(forms) == 1 else f"({' | '.join(forms)})"
        usage = f"{sub} [-h] {forms} [{_shown('--format', FORMATS)}]"
        rows += [(mode or "(default)", text) for mode, (*_, text) in modes.items()]
        rows += [(shown[o], text) for o, (_, text) in options.items()]
        rows.append((_shown("--format", FORMATS), "the output format (default text)"))
    width = max(len(left) for left, _ in rows)
    return "\n".join([f"usage: nodecount {usage}", "", about, "",
                      *(f"  {left:{width}}  {text}" for left, text in rows)])


def _refuse(sub: str, message: str, prog: str = "") -> NoReturn:
    """Print the usage line of ``sub`` and the error, and exit 2."""
    prog = prog or f"nodecount {sub}".rstrip()
    print(_help(sub).partition("\n")[0], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _option(arg: str, names: Sequence[str], sub: str) -> tuple[str, str | None] | None:
    """The option of ``names`` that ``arg`` gives, and its value after "=" if any.

    None for a positional argument, such as a negative number (``-3``, ``-.5``),
    and "" for an option not in ``names``.  A unique prefix gives its option
    (``--sym``), and ``-hX`` gives ``-h`` with the value X.
    """
    number = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
    if arg[:1] != "-" or arg in ("-", "--") or " " in arg or number:
        return None
    name, eq, value = arg.partition("=")
    if arg in names or eq and name in names:
        return name, value if eq else None
    name, value = (name, value if eq else None) if arg[1] == "-" else (arg[:2], arg[2:])
    matches = [option for option in names if option.startswith(name)]
    if len(matches) > 1:
        _refuse(sub, f"ambiguous option: {arg} could match {', '.join(matches)}")
    return (matches[0], value) if matches else ("", None)


def _parse(argv: list[str], sub: str = "", extras: list[str] | None = None
           ) -> tuple[SimpleNamespace, str]:
    """The namespace ``argv`` gives and its mode's handler name; exits on help or a refusal.

    Before the subcommand, ``-h`` is the only option.  After it, the first run
    of positional arguments fills the positionals, and after ``--`` every
    argument is positional.  Unknown arguments are refused after every other
    parse error, and before the mode's checks.
    """
    _, options, modes = COMMANDS[sub] if sub else ("", {}, {})
    flags = [mode for mode in modes if mode[:1] == "-"]
    words = [mode for mode in modes if mode[:1] not in ("", "-")]
    names = [*HELP, *(o for o in options if o[0] == "-"), *flags, *["--format"] * bool(sub)]
    slots = ["mode"] * bool(words) + ["file"] * ("file" in options) if sub else ["subcommand"]
    cut = argv.index("--") if sub and "--" in argv else len(argv)
    kinds = [_option(arg, names, sub) if i < cut else None for i, arg in enumerate(argv)]
    args = SimpleNamespace(subcommand=sub, mode="", format="text",
                           **dict.fromkeys(map(_dest, options)))
    extras, unfilled, closed, given = extras or [], slots, not slots, set()
    items = iter(enumerate(argv))
    for i, arg in items:
        if kinds[i] is None:  # the first run of positional arguments fills the positionals
            if i == cut and not closed:  # a "--" in that run is dropped
                continue
            if closed or not unfilled:
                extras.append(arg)
                continue
            (name, *unfilled), value = unfilled, arg
            spec = {"subcommand": COMMANDS, "mode": words}.get(name, str)
        else:
            closed = closed or len(unfilled) < len(slots)
            name, value = kinds[i]
            if not name:
                extras.append(arg)
                continue
            if name in HELP or name in flags:
                if value is not None:
                    label = "-h/--help" if name in HELP else name
                    _refuse(sub, f"argument {label}: ignored explicit argument {value!r}")
                if name in HELP:
                    print(_help(sub))
                    raise SystemExit(0)
                value, spec = True, (True,)
            else:
                if value is None:
                    if i + 1 in (cut, len(argv)) or kinds[i + 1]:
                        _refuse(sub, f"argument {name}: expected one argument")
                    value = next(items)[1]
                spec = options[name][0] if name in options else FORMATS
        try:
            value = int(value) if spec is int or isinstance(spec, range) else value
        except ValueError:
            _refuse(sub, f"argument {name}: invalid int value: {value!r}")
        if not isinstance(spec, type) and value not in spec:
            choices = ", ".join(map(repr, spec))
            _refuse(sub, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        if name in given:
            _refuse(sub, f"argument {name}: given more than once")
        if name == "subcommand":
            return _parse(argv[i + 1:], value, extras)
        setattr(args, _dest(name), value)
        given.add(name)
    if unfilled[:1] in (["subcommand"], ["mode"]):
        _refuse(sub, f"the following arguments are required: {unfilled[0]}")
    if extras:
        _refuse(sub, f"unrecognized arguments: {' '.join(extras)}", "nodecount")
    # one mode flag at most, then the mode's options, checked in the table's order
    given = [o for o in (*flags, *options) if o in given]
    chosen = [flag for flag in flags if flag in given]
    if len(chosen) > 1:
        _refuse(sub, f"{chosen[0]} cannot be combined with {chosen[1]}")
    args.mode = chosen[0] if chosen else args.mode
    needs, may, handler, _ = modes[args.mode]
    label = args.mode if chosen else f"{sub} {args.mode}".rstrip()
    for o in given:
        if o not in (args.mode, *needs, *may):
            _refuse(sub, f"{label} cannot be combined with {o}")
    for o in needs:
        if o not in given:
            _refuse(sub, f"{label} needs {o}")
    return args, handler


def run(argv: Sequence[str]) -> int:
    try:
        args, handler = _parse(list(argv))
    except SystemExit as exc:  # help printed, or a usage error
        return exc.code
    try:
        # a run's results may be lazy, so errors can surface while emitting
        emit(globals()[handler](args), args.format, sys.stdout)
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
