"""The ``nodecount`` output corpus: every listed command's exit code and output digests.

``tests/golden/cli_corpus.txt`` is recorded from the code, by running this
module as a script (``PYTHONPATH=src python tests/test_cli_corpus.py``), so it
shows that output does not change, not that it is right.  It adds to the
goldens and the independent routes and replaces none of them; a digest may
change only with a named output change.

Each line is ``argv<TAB>format<TAB>exit<TAB>sha256(stdout)<TAB>sha256(stderr)``,
and for a nonzero exit also ``<TAB>`` and the last line of stderr verbatim.  The
argv is ``shlex``-quoted; the format is appended as ``--format FORMAT``, or
nothing is appended for ``-``.  The commands run in-process through
``cli.run`` in a directory that holds the diagram files they name, with the
cusp on standard input and ``COLUMNS=80`` (the corpus was first recorded
under ``argparse``, whose usage lines wrapped at the terminal width).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from nodepoly.cli import run

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.txt"

#: the diagram files the commands name, and standard input
CUSP = "0 2 - -\n1 1 0 -\n2 1 1 0\n"
FILES = {
    "cusp.diagram": CUSP,
    "bad.diagram": "0 2 - -\n2 1 0 -\n",  # a parent listed after its child
    "free-leaf.diagram": "0 1 - -\n",  # parses, breaks minimality
    "2a1.diagram": "0 2 - -\n1 2 - -\n",  # two roots: no e=, no relations
}

FORMATS = ("text", "json", "csv")


def _in_all_formats() -> list[str]:
    """Commands run once per format: README's, the value grids and the refusals."""
    readme = [
        "bq --q 2", "plane --r 8 --m 5", "plane --symbolic --r 3", "plane --table",
        "p4 --m 5", "p4 --symbolic", "p4 --lines3", "p4 --irreducible",
        "abelian --r 2 --g 3", "abelian --table", "abelian --fixed-class --r 2",
        "abelian --oracle --g 3 --r 2", "validity plane --r 8 --m 5",
        "validity abelian --m 2 --g 13 --r 1", "validity kva --surface k3 --m 1 --d 8 --k 2",
        "enriques check cusp.diagram", "enriques invariants cusp.diagram",
        "enriques inequalities cusp.diagram", "enriques enumerate --max-v 4 --max-w 3",
    ]
    values = [
        *(f"plane --r {r} --m {m}" for r in range(9) for m in (-3, 0, 1, 3, 5, 9, 20)),
        *(f"p4 --m {m}" for m in (-3, 0, 1, 3, 4, 5, 20)),
        *(f"abelian --r {r} --g {g}" for r in range(9) for g in (1, 4)),
        "abelian --r 0 --g 25", "abelian --r 8 --g 12",
        *(f"abelian --oracle --r {r} --g 3" for r in range(9)),
        *(f"abelian --fixed-class --r {r}" for r in (0, 4, 8)),
        *(f"bq --q {q}" for q in range(1, 9)), "bq",
        *(f"plane --symbolic --r {r}" for r in range(9)),
        *(f"abelian --r {r}" for r in (0, 5, 8)),
        "enriques invariants -", "enriques enumerate --max-v 3 --max-w 3",
        "validity plane --r 3 --m 1", "validity abelian --m 1 --g 12 --r 1",
        "validity kva --surface enriques --m 2 --d 8 --k 1",
        *(f"enriques {action} 2a1.diagram" for action in ("check", "invariants", "inequalities")),
    ]
    refused = [
        # tests/test_cli.py CONFLICTING
        "plane --table --symbolic", "plane --table --r 3", "plane --table --m 4",
        "plane --table --symbolic --r 3 --m 4", "plane --symbolic --r 3 --m 4",
        "abelian --table --r 0", "abelian --table --g 3", "abelian --table --fixed-class",
        "abelian --table --oracle", "abelian --fixed-class --oracle --g 3 --r 1",
        "abelian --fixed-class --r 1 --g 3", "p4 --m 5 --symbolic", "p4 --m 5 --lines3",
        "p4 --m 0 --irreducible", "validity plane --r 1 --m 3 --g 5",
        "validity plane --r 1 --m 3 --surface k3",
        "validity abelian --m 1 --g 5 --r 3 --d 4",
        "validity kva --surface k3 --m 1 --d 8 --k 0 --r 3", "p4 --symbolic --lines3",
        "abelian --oracle --r 1", "enriques enumerate --max-v 0 --max-w 2",
        # tests/test_cli.py TestErrors
        "plane --r 99 --m 2", "plane", "validity kva --m 1", "enriques enumerate",
        "enriques check /nonexistent/x.diagram",
        *(f"enriques {action} bad.diagram" for action in ("check", "invariants", "inequalities")),
        *(f"enriques {action} free-leaf.diagram" for action in ("invariants", "inequalities")),
        "enriques enumerate x.diagram --max-v 2 --max-w 2",
        "enriques check x.diagram --max-v 3", "enriques invariants x.diagram --max-w 3",
        "enriques enumerate --max-v 2 --max-w -1",
        "validity kva --surface k3 --m 1 --d 8 --k -1", "abelian --oracle --g 0 --r 1",
        "abelian --r 2 --g 0", "validity plane --r -1 --m 5",
        "validity abelian --m 1 --g 5 --r -3",
    ]
    return readme + values + refused


def _once() -> list[str]:
    """Commands run once, with no ``--format`` appended: the forms and the bare refusals."""
    return [
        "plane --r=3 --m=5", "plane --sym --r 3", "plane --r 3 --m -3",
        "plane --r 3 --m 5 --form json",
        "plane --r 3 --r 4 --m 5", "plane --r 3 --m 5 --format json --format text",
        "plane --format csv --r 3 --m 5 --format json",
        "-h", "--help", *(f"{command} -h" for command in
                          ("bq", "plane", "p4", "abelian", "enriques", "validity")),
        "", "frobnicate", "--format json plane --r 3 --m 5",
        "plane --r x --m 5", "plane --r 3 --m", "plane --r 3 --m 5 extra",
        "plane --r 3 --m 5 --foo", "abelian --f", "plane --table=1",
        "plane --r 3 --m 5 --format xml", "validity", "validity frobnicate --r 1",
        "enriques", "enriques frobnicate",
        # positionals after an option, and "--"
        "enriques check --format json cusp.diagram", "enriques invariants --format csv -",
        "plane --r 3 -- 5", "enriques check -- cusp.diagram",
    ]


def corpus_commands() -> list[tuple[str, str]]:
    """The (argv, format) pairs of the corpus, in its order."""
    return [(argv, fmt) for argv in _in_all_formats() for fmt in FORMATS] + [
        (argv, "-") for argv in _once()]


def replay(argv: str, fmt: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one corpus command, run in-process."""
    args = shlex.split(argv) + ([] if fmt == "-" else ["--format", fmt])
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(CUSP)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def corpus_line(argv: str, fmt: str, code: int, out: str, err: str) -> str:
    fields = [argv, fmt, str(code), *(hashlib.sha256(s.encode()).hexdigest() for s in (out, err))]
    if code:
        fields.append(err.splitlines()[-1] if err else "")
    return "\t".join(fields)


@contextlib.contextmanager
def corpus_directory():
    """A working directory with the diagram files, and ``COLUMNS=80``."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"  # as at the first recording, under argparse
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def test_corpus_replays():
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    assert [tuple(line.split("\t")[:2]) for line in lines] == corpus_commands()
    changed = []
    with corpus_directory():
        for line in lines:
            argv, fmt = line.split("\t")[:2]
            got = corpus_line(argv, fmt, *replay(argv, fmt))
            if got != line:
                changed.append((line, got))
    assert not changed, "\n".join(f"corpus:  {line}\nnow:     {got}" for line, got in changed)


if __name__ == "__main__":
    with corpus_directory():
        recorded = [corpus_line(argv, fmt, *replay(argv, fmt)) for argv, fmt in corpus_commands()]
    CORPUS.write_text("\n".join(recorded) + "\n", encoding="utf-8")
    print(f"{CORPUS}: {len(recorded)} lines")
