"""Tests for the nodecount command-line interface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import nodepoly
from nodepoly import cli
from nodepoly.cli import (
    BATCH, COMMANDS, EXIT_BROKEN_PIPE, FORMATS, OutputRecord, emit, run,
)
from nodepoly.enriques import _single_root_catalog, named_diagram, to_text

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"

#: SHA-256 of ``enriques enumerate --max-v 5 --max-w 4`` per format, recorded
#: from the enumeration as it stood before forests were streamed.
ENUMERATE_5_4_SHA256 = {
    "text": "66bc69fed3f915190a7be56fa0121a7ada0f9e0d4ded98258e8ef9bc21371bd7",
    "json": "42a722aa55aa56839761639c7b5ecf40d598a7ae28220a24b10535bd7f24cae7",
    "csv": "d7329ba553adce53f40e04457dddf99290148930b6f44bff59147ab97f5dd2d9",
}
#: The same for ``--max-v 6 --max-w 5``, recorded before placed trees were
#: formatted once per position.
ENUMERATE_6_5_SHA256 = {
    "text": "9a8505b17c3f483cbfc55297e4999b5f9ca6ae7d571a84a259669396788f20ee",
    "json": "642d3e362e2485055b7d8c00f6993610e8b963ffa539112c83a860939aa5d8a5",
    "csv": "840962946d0ae58673ac1328fcb1ad0dd8d69ba5655a309132e8539c8d1e670c",
}


#: SHA-256 of the cap, ``--max-v 7 --max-w 6 --format json``, as
#: ``perfbench/reference.json`` records it.
ENUMERATE_7_6_JSON_SHA256 = "5f1b5c3031379d0977f56eae726ae2831d1e1f1b21cbb3b22c253a3dcaa485f8"


#: Refused commands, each with a fragment of its error message.
COMBINED = "cannot be combined"
CONFLICTING = [
    (["plane", "--table", "--symbolic"], COMBINED),
    (["plane", "--table", "--r", "3"], COMBINED),
    (["plane", "--table", "--m", "4"], COMBINED),
    (["plane", "--table", "--symbolic", "--r", "3", "--m", "4"], COMBINED),
    (["plane", "--symbolic", "--r", "3", "--m", "4"], COMBINED),
    (["abelian", "--table", "--r", "0"], COMBINED),
    (["abelian", "--table", "--g", "3"], COMBINED),
    (["abelian", "--table", "--fixed-class"], COMBINED),
    (["abelian", "--table", "--oracle"], COMBINED),
    (["abelian", "--fixed-class", "--oracle", "--g", "3", "--r", "1"], COMBINED),
    (["abelian", "--fixed-class", "--r", "1", "--g", "3"], COMBINED),
    (["p4", "--m", "5", "--symbolic"], COMBINED),
    (["p4", "--m", "5", "--lines3"], COMBINED),
    (["p4", "--m", "0", "--irreducible"], COMBINED),
    (["validity", "plane", "--r", "1", "--m", "3", "--g", "5"], COMBINED),
    (["validity", "plane", "--r", "1", "--m", "3", "--surface", "k3"], COMBINED),
    (["validity", "abelian", "--m", "1", "--g", "5", "--r", "3", "--d", "4"], COMBINED),
    (
        ["validity", "kva", "--surface", "k3", "--m", "1", "--d", "8", "--k", "0", "--r", "3"],
        COMBINED,
    ),
    (["p4", "--symbolic", "--lines3"], COMBINED),
    (["abelian", "--oracle", "--r", "1"], "--oracle needs --g"),
    (["enriques", "enumerate", "--max-v", "0", "--max-w", "2"], "--max-v: invalid choice: 0"),
    (["plane", "--r", "3", "--r", "4", "--m", "5"], "argument --r: given more than once"),
    (["plane", "--r", "3", "--m", "5", "--format", "json", "--format", "text"],
     "argument --format: given more than once"),
    (["plane", "--table", "--table"], "argument --table: given more than once"),
    (["abelian", "--r=2", "--r", "2"], "argument --r: given more than once"),
]


def invoke(capsys, *argv: str) -> tuple[int, str]:
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def cli_env(unbuffered: bool) -> dict[str, str]:
    """The environment of a ``nodecount`` child: this ``nodepoly``, stdio as asked."""
    src = str(Path(nodepoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class CountingStream(io.StringIO):
    """A text stream that counts its ``write`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


class HashingStream(io.TextIOBase):
    """A text stream that keeps only the SHA-256 and the line count of its text."""

    def __init__(self) -> None:
        super().__init__()
        self.sha256 = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        self.lines += text.count("\n")
        return len(text)


def lines_of(runs) -> list[dict]:
    """Each result of each run as the one-line record ``emit`` writes for it."""
    return [{"command": r.command, "inputs": r.inputs, "result": result, "valid": r.valid,
             "ref": r.ref} for r in runs for result in r.results]


def one_at_a_time(records: list[dict], fmt: str) -> str:
    """The records written one line at a time, each format as it was before runs."""
    out = io.StringIO()
    rows = [(r["command"], " ".join(f"{k}={v}" for k, v in r["inputs"].items()),
             str(r["result"]), r["valid"] or "", r["ref"]) for r in records]
    if fmt == "json":
        for r in records:
            out.write(json.dumps(r, sort_keys=True) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["command", "inputs", "result", "valid", "ref"])
        writer.writerows(rows)
    else:
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        for row in rows:
            cells = [cell.ljust(width) for cell, width in zip(row, widths)]
            out.write("  ".join(cells + [row[4]]) + "\n")
    return out.getvalue()


def readme_examples() -> list[list[str]]:
    """The ``nodecount`` lines of the first ``sh`` block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines() if line.startswith("nodecount ")
    ]
    assert examples, "no nodecount examples found in README"
    return examples


class TestReadme:
    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_example_runs(self, capsys, argv):
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert out.strip()

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_example_json_lines_are_its_records(self, capsys, monkeypatch, argv):
        """Each json line is ``json.dumps`` of a result of a run the handler returned."""
        returned: list[OutputRecord] = []

        def keeping(records, fmt, out):
            returned.extend(r._replace(results=list(r.results)) for r in records)
            emit(returned, fmt, out)

        monkeypatch.setattr("nodepoly.cli.emit", keeping)
        code, out = invoke(capsys, *argv, "--format", "json")
        assert code == 0 and returned
        assert out.splitlines() == [json.dumps(r, sort_keys=True) for r in lines_of(returned)]


def readme_mode_rows() -> list[list[str]]:
    """The cells of the ``| command | mode | needs | may take |`` rows of README's mode table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| command    | mode ", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]


def _flags(cell: str) -> tuple[str, ...]:
    """The flags a table cell names, in order; "a diagram file" is the ``file`` argument."""
    return ("file",) if cell == "a diagram file" else tuple(re.findall(r"--[a-z-]+", cell))


class TestModeTable:
    def test_rows_are_the_modes(self):
        rows = {(cmd.strip("`"), "" if mode == "(default)" else mode.strip("`")):
                (_flags(needs), _flags(may)) for cmd, mode, needs, may in readme_mode_rows()}
        assert rows == {(cmd, mode): (needs, may) for cmd, (_, _, modes) in COMMANDS.items()
                        for mode, (needs, may, *_) in modes.items()}

    def test_ranges_are_the_table_choices(self):
        for cmd, _, needs, may in readme_mode_rows():
            options = COMMANDS[cmd.strip("`")][1]
            listed = {flag: range(int(lo), int(hi) + 1) for flag, lo, hi
                      in re.findall(r"`(--[a-z-]+)` (\d+)\.\.(\d+)", needs + may)}
            ranged = {flag for flag in _flags(needs) + _flags(may)
                      if isinstance(options[flag][0], range)}
            assert set(listed) == ranged, cmd
            for flag, choices in listed.items():
                assert options[flag][0] == choices, (cmd, flag)
        checked = {flag for *_, needs, may in readme_mode_rows()
                   for flag in re.findall(r"`(--[a-z-]+)` \d", needs + may)}
        assert checked == {"--q", "--r", "--max-v", "--max-w"}

    def test_handlers_are_the_cmd_functions(self):
        """Every handler the table names is a ``_cmd_*`` function, and every one is named."""
        named = {handler for *_, modes in COMMANDS.values() for _, _, handler, _ in modes.values()}
        defined = {name for name, value in vars(cli).items()
                   if name.startswith("_cmd_") and callable(value)}
        assert named == defined

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_help_lists_every_option(self, capsys, cmd):
        assert run([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        _, options, modes = COMMANDS[cmd]
        lines = out.splitlines()
        assert lines[0].startswith(f"usage: nodecount {cmd} [-h] ")
        named = {line.split()[0] for line in lines[1:] if line.startswith("  ")}
        shown = {o if o.startswith("--") else o.upper() for o in options}  # file is FILE
        assert named >= {*shown, *(mode for mode in modes if mode), "--format", "-h,"}

class TestCounts:
    def test_plane_count(self, capsys):
        code, out = invoke(capsys, "plane", "--r", "8", "--m", "5")
        assert code == 0
        assert "26136" in out and "in range (m >= r/2+1)" in out

    def test_plane_out_of_range_annotated(self, capsys):
        code, out = invoke(capsys, "plane", "--r", "3", "--m", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["result"] == 75
        assert record["valid"] == "outside range (m >= r/2+1)"

    def test_p4_irreducible(self, capsys):
        code, out = invoke(capsys, "p4", "--irreducible")
        assert code == 0 and "17601000" in out

    def test_p4_numeric(self, capsys):
        code, out = invoke(capsys, "p4", "--m", "5", "--format", "json")
        assert json.loads(out)["result"] == 21617125

    @pytest.mark.parametrize(
        "m,valid", [(3, "outside range (m >= 4)"), (4, "in range (m >= 4)")]
    )
    def test_p4_annotation_boundary(self, capsys, m, valid):
        code, out = invoke(capsys, "p4", "--m", str(m), "--format", "json")
        assert code == 0 and json.loads(out)["valid"] == valid

    def test_abelian_numeric(self, capsys):
        code, out = invoke(capsys, "abelian", "--r", "2", "--g", "3", "--format", "json")
        assert json.loads(out)["result"] == 180

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_abelian_polynomial_without_g(self, capsys, fmt):
        code, out = invoke(capsys, "abelian", "--r", "2", "--format", fmt)
        expected = (GOLDEN / "abelian_table.txt").read_text().splitlines()[2]
        assert code == 0 and expected == "18*g^3 - 42*g^2 + 24*g"
        if fmt == "json":
            (record,) = map(json.loads, out.splitlines())
            assert record == {"command": "abelian", "inputs": {"r": 2}, "result": expected,
                              "valid": None, "ref": "abelian-count"}
        else:
            (line,) = out.splitlines()
            assert expected in line and "abelian-count" in line

    def test_abelian_oracle(self, capsys):
        code, out = invoke(
            capsys, "abelian", "--oracle", "--r", "2", "--g", "3", "--format", "json"
        )
        assert json.loads(out)["result"] == 180


class TestTables:
    def test_plane_table_matches_golden(self, capsys):
        code, out = invoke(capsys, "plane", "--table", "--format", "json")
        assert code == 0
        results = [json.loads(line)["result"] for line in out.splitlines()]
        assert results == (GOLDEN / "plane_aq.txt").read_text().splitlines()

    def test_abelian_table_matches_golden(self, capsys):
        code, out = invoke(capsys, "abelian", "--table", "--format", "json")
        results = [json.loads(line)["result"] for line in out.splitlines()]
        assert results == (GOLDEN / "abelian_table.txt").read_text().splitlines()

    def test_bq_dump(self, capsys):
        code, out = invoke(capsys, "bq", "--q", "1", "--format", "json")
        assert json.loads(out)["result"] == "v^3 + v^2*w1 + v*w2"

    def test_bq_all(self, capsys):
        code, out = invoke(capsys, "bq", "--format", "json")
        assert len(out.splitlines()) == 8

    def test_p4_symbolic(self, capsys):
        code, out = invoke(capsys, "p4", "--symbolic", "--format", "json")
        assert json.loads(out)["result"] == (
            (GOLDEN / "threefold_6nodal.txt").read_text().strip()
        )

    def test_p4_lines3(self, capsys):
        code, out = invoke(capsys, "p4", "--lines3", "--format", "json")
        assert json.loads(out)["result"] == (
            (GOLDEN / "threefold_lines3.txt").read_text().strip()
        )


class TestFormats:
    def test_deterministic_output(self, capsys):
        _, first = invoke(capsys, "plane", "--table")
        _, second = invoke(capsys, "plane", "--table")
        assert first == second

    def test_json_fields(self, capsys):
        _, out = invoke(capsys, "plane", "--r", "1", "--m", "4", "--format", "json")
        record = json.loads(out)
        assert set(record) == {"command", "inputs", "result", "valid", "ref"}
        assert record["command"] == "plane"
        assert record["inputs"] == {"r": 1, "m": 4}

    def test_csv_shape(self, capsys):
        _, out = invoke(capsys, "abelian", "--table", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["command", "inputs", "result", "valid", "ref"]
        assert len(rows) == 10

    @pytest.mark.parametrize("fmt,most", [("json", 3), ("csv", 4), ("text", 3)])
    def test_writes_in_batches(self, fmt, most):
        records = [
            OutputRecord("enriques", {"i": i}, (f"r{i}",), None if i % 3 else "in range", "x")
            for i in range(2 * BATCH + 1)
        ]
        stream = CountingStream()
        emit(records, fmt, stream)
        assert stream.writes <= most
        assert stream.getvalue() == one_at_a_time(lines_of(records), fmt)

    @pytest.mark.parametrize("fmt,most", [("json", 3), ("csv", 4), ("text", 3)])
    def test_long_run_between_runs_of_one(self, fmt, most):
        """A run of ``2*BATCH + 1`` results is written as its records one a line."""
        results = [f"r{i}" for i in range(2 * BATCH + 1)]
        records = [
            OutputRecord("enriques", {"i": 0}, ("first",), "in range", "x"),
            OutputRecord("enriques", {"max-v": 7, "max-w": 6}, results, None, "y"),
            OutputRecord("plane", {"i": 1}, (2**64 + 1,), None, "z"),
        ]
        expected = one_at_a_time(lines_of(records), fmt)
        records[1] = records[1]._replace(results=iter(results))  # lazy, as the enumeration
        stream = CountingStream()
        emit(records, fmt, stream)
        assert stream.writes <= most
        assert stream.getvalue() == expected

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_run_writes_nothing(self, fmt):
        header = "command,inputs,result,valid,ref\n" if fmt == "csv" else ""
        stream = CountingStream()
        emit([OutputRecord("enriques", {"i": 0}, (), None, "x")], fmt, stream)
        assert stream.getvalue() == header
        assert stream.writes == (1 if header else 0)
        one = OutputRecord("enriques", {"i": 1}, ("r",), None, "x")
        records = [one, OutputRecord("plane", {}, iter(()), "in range", "y"), one]
        stream = CountingStream()
        emit(records, fmt, stream)
        assert stream.getvalue() == one_at_a_time(lines_of([one, one]), fmt)
        assert stream.writes == (2 if header else 1)

    def test_json_lines_around_shared_fields(self):
        """A json line is ``json.dumps`` of its record wherever the shared fields change."""
        results = ['say "x"', "two\nlines", "Enriques – ∞ é 😀", 2**64 + 1, -7, ""]
        expected: list[str] = []

        def records():
            inputs = {"max-v": 7, "max-w": 6}
            fields = [
                ("enriques", None, "a"), ("enriques", None, "a"),
                ("enriques", "in range", "a"), ("enriques", None, "a"),  # valid flips
                ("enriques", None, "b"), ("plane", None, "b"),  # ref, then command change
            ]
            for command, valid, ref in fields:
                yield OutputRecord(command, inputs, results, valid, ref)
            # equal to the last inputs but another object; 7.0 == 7 yet encodes as 7.0
            for equal in ({"max-v": 7, "max-w": 6}, {"max-v": 7.0, "max-w": 6}):
                yield OutputRecord("plane", equal, results[:1], None, "b")
            for q in range(3):  # a fresh dict per record, as ``bq`` builds them
                yield OutputRecord("bq", {"q": q}, results[q:q + 1], None, "b")

        def recorded():
            for r in records():
                expected.extend(json.dumps(line, sort_keys=True) for line in lines_of([r]))
                yield r

        out = io.StringIO()
        emit(recorded(), "json", out)
        assert len(expected) == 6 * len(results) + 5
        assert out.getvalue().splitlines() == expected

    def test_json_run_breaks_at_a_batch_boundary(self):
        """Shared fields that change at line ``BATCH`` and again at line ``BATCH + 1``."""
        shared = {"max-v": 7, "max-w": 6}
        records = [OutputRecord("enriques", shared, [f"r{i}" for i in range(BATCH - 1)], None, "a")]
        records.append(OutputRecord("enriques", shared, ["last"], "in range", "a"))
        equal = {"max-v": 7.0, "max-w": 6}  # equal to ``shared``, yet encoded otherwise
        records.append(OutputRecord("enriques", equal, range(BATCH + 1), None, "a"))
        stream = CountingStream()
        emit(records, "json", stream)
        assert stream.writes <= 3
        lines = stream.getvalue().splitlines()
        assert lines == [json.dumps(r, sort_keys=True) for r in lines_of(records)]

    def test_text_alignment(self, capsys):
        _, out = invoke(capsys, "plane", "--table")
        lines = out.splitlines()
        assert len(lines) == 8
        # the ref column starts at the same offset on every line
        offsets = {line.rindex("plane-aq") for line in lines}
        assert len(offsets) == 1


class TestEnriques:
    def test_check_ok(self, capsys, tmp_path):
        path = tmp_path / "a2.diagram"
        path.write_text(to_text(named_diagram("A", 2)))
        code, out = invoke(capsys, "enriques", "check", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["result"] == "ok"

    def test_check_violation_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.diagram"
        path.write_text("0 1 - -\n")
        code, out = invoke(capsys, "enriques", "check", str(path), "--format", "json")
        assert code == 0
        assert "minimality" in json.loads(out)["result"]

    def test_invariants_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 2 - -\n"))
        code, out = invoke(capsys, "enriques", "invariants", "-", "--format", "json")
        result = json.loads(out)["result"]
        assert "cod=1" in result and "milnor=1" in result and "e=2" in result

    def test_inequalities(self, capsys, tmp_path):
        path = tmp_path / "a1.diagram"
        path.write_text(to_text(named_diagram("A", 1)))
        code, out = invoke(capsys, "enriques", "inequalities", str(path), "--format", "json")
        result = json.loads(out)["result"]
        assert "ii=eq" in result and "viii=eq" in result and "iv=holds" in result

    @pytest.mark.parametrize("source", ["file", "-"])
    @pytest.mark.parametrize("action", ["check", "invariants", "inequalities"])
    def test_format_before_the_file(self, capsys, monkeypatch, tmp_path, action, source):
        """``--format`` between the action and the file gives the record it gives after it."""
        text = to_text(named_diagram("A", 2))
        path = tmp_path / "a2.diagram"
        path.write_text(text)
        name = str(path) if source == "file" else "-"
        runs = []
        for argv in (["--format", "json", name], [name, "--format", "json"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            runs.append(invoke(capsys, "enriques", action, *argv))
        assert runs[0] == runs[1]
        code, out = runs[0]
        assert code == 0 and json.loads(out)["ref"] == f"diagram-{action}"

    def test_enumerate(self, capsys):
        code, out = invoke(
            capsys, "enriques", "enumerate", "--max-v", "1", "--max-w", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["result"] == "0 2 - -"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_enumerate_output_pinned(self, capsys, fmt):
        code, out = invoke(
            capsys, "enriques", "enumerate", "--max-v", "5", "--max-w", "4", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_5_4_SHA256[fmt]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_enumerate_6_5_output_pinned(self, capsys, fmt):
        code, out = invoke(
            capsys, "enriques", "enumerate", "--max-v", "6", "--max-w", "5", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_6_5_SHA256[fmt]

    def test_cap_pinned_in_flat_memory(self, monkeypatch):
        """The cap streamed in-process: its line count and SHA-256, a traced peak
        well below the 18 MB that a list of its texts alone would take, and the
        single-root catalog it is built from, counted by tree size."""
        stream = HashingStream()
        monkeypatch.setattr("sys.stdout", stream)
        tracemalloc.start()
        try:
            code = run(["enriques", "enumerate", "--max-v", "7", "--max-w", "6",
                        "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert stream.lines == 135372
        assert stream.sha256.hexdigest() == ENUMERATE_7_6_JSON_SHA256
        assert peak < 8 * 2**20
        sizes = Counter(size for _, size in _single_root_catalog(7, 6))
        assert sizes == {1: 5, 2: 15, 3: 64, 4: 208, 5: 532, 6: 1117, 7: 2083}

    def test_error_mid_stream_is_reported(self, capsys, monkeypatch):
        def failing(max_v, max_w):
            yield "0 2 - -"
            raise AssertionError("exactness check failed")

        monkeypatch.setattr("nodepoly.enriques.enumeration_text", failing)
        code = run(["enriques", "enumerate", "--max-v", "2", "--max-w", "2",
                    "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["result"] == "0 2 - -"
        assert captured.err == "nodecount: error: exactness check failed\n"

    @pytest.mark.parametrize("fmt,lines", [("json", 1100), ("csv", 1101), ("text", 0)])
    def test_error_after_several_batches_is_reported(self, capsys, monkeypatch, fmt, lines):
        # json and csv have written two batches and hold the rest when the
        # stream fails; text collects every record before writing any
        def failing(max_v, max_w):
            for i in range(1100):
                yield f"record {i}"
            raise AssertionError("exactness check failed")

        monkeypatch.setattr("nodepoly.enriques.enumeration_text", failing)
        code = run(["enriques", "enumerate", "--max-v", "2", "--max-w", "2", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.out.splitlines()) == lines
        if fmt == "json":
            assert json.loads(captured.out.splitlines()[-1])["result"] == "record 1099"
        assert captured.err == "nodecount: error: exactness check failed\n"

    def test_fractional_count_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("nodepoly.surface.plane_count", lambda r, m: Fraction(3, 2))
        code = run(["plane", "--r", "2", "--m", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "nodecount: error: the count at r=2, m=3 is not an integer: 3/2\n"

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        # the output (1.6 MB) outgrows the pipe buffer, so the writer sees
        # the reader go away after the first line
        proc = subprocess.Popen(
            [sys.executable, "-m", "nodepoly.cli", "enriques", "enumerate",
             "--max-v", "6", "--max-w", "5", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(unbuffered),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert json.loads(first)["ref"] == "diagram-enumeration"
        assert err == b""
        assert proc.returncode == EXIT_BROKEN_PIPE

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_6_5_pinned_in_a_fresh_process(self, unbuffered):
        proc = subprocess.run(
            [sys.executable, "-m", "nodepoly.cli", "enriques", "enumerate",
             "--max-v", "6", "--max-w", "5", "--format", "json"],
            capture_output=True, env=cli_env(unbuffered), timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == ENUMERATE_6_5_SHA256["json"]


class TestValidity:
    def test_plane(self, capsys):
        _, out = invoke(capsys, "validity", "plane", "--r", "8", "--m", "5",
                        "--format", "json")
        assert json.loads(out)["result"] == "true"

    def test_abelian(self, capsys):
        _, out = invoke(capsys, "validity", "abelian", "--m", "1", "--g", "12",
                        "--r", "1", "--format", "json")
        assert json.loads(out)["result"] == "false"

    def test_kva(self, capsys):
        _, out = invoke(capsys, "validity", "kva", "--surface", "enriques",
                        "--m", "2", "--d", "8", "--k", "1", "--format", "json")
        assert json.loads(out)["result"] == "true"


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_out_of_range_r(self, capsys):
        assert run(["plane", "--r", "99", "--m", "2"]) == 2

    def test_missing_flags(self, capsys):
        assert run(["plane"]) == 2
        assert run(["validity", "kva", "--m", "1"]) == 2
        assert run(["enriques", "enumerate"]) == 2

    def test_missing_file(self, capsys):
        assert run(["enriques", "check", "/nonexistent/x.diagram"]) == 2
        assert "nodecount: error: diagram /nonexistent/x.diagram" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["check", "invariants", "inequalities"])
    def test_malformed_file(self, capsys, tmp_path, action):
        path = tmp_path / "bad.diagram"
        path.write_text("0 2 - -\n2 1 0 -\n")
        assert run(["enriques", action, str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("action", ["invariants", "inequalities"])
    def test_invalid_diagram_file(self, capsys, tmp_path, action):
        path = tmp_path / "free-leaf.diagram"
        path.write_text("0 1 - -\n")
        assert run(["enriques", action, str(path)]) == 2
        assert "minimality" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enriques", "enumerate", "x.diagram", "--max-v", "2", "--max-w", "2"],
            ["enriques", "check", "x.diagram", "--max-v", "3"],
            ["enriques", "invariants", "x.diagram", "--max-w", "3"],
            ["enriques", "enumerate", "--max-v", "0", "--max-w", "2"],
            ["enriques", "enumerate", "--max-v", "2", "--max-w", "-1"],
        ],
    )
    def test_enriques_conflicting_or_out_of_domain(self, capsys, argv):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv,message",
        CONFLICTING,
        ids=[f"argv{i}" for i in range(len(CONFLICTING))],
    )
    def test_conflicting_modes(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        # refused through the subcommand's parser, whose usage lists its flags
        assert f"usage: nodecount {argv[0]} " in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["validity", "kva", "--surface", "k3", "--m", "1", "--d", "8", "--k", "-1"],
             "k must be non-negative: -1"),
            (["abelian", "--oracle", "--g", "0", "--r", "1"], "g must be at least 1: 0"),
            (["abelian", "--r", "2", "--g", "0"], "g must be at least 1: 0"),
            (["validity", "plane", "--r", "-1", "--m", "5"], "r must be non-negative: -1"),
            (["validity", "abelian", "--m", "1", "--g", "5", "--r", "-3"],
             "r must be non-negative: -3"),
        ],
    )
    def test_out_of_domain_library_input(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nodecount: error: {message}\n"

    def test_no_args(self, capsys):
        assert run([]) == 2
