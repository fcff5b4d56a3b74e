"""The package namespace, what a command imports, and the record types."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import nodepoly
from nodepoly import ChernNumbers, ExactnessError, NodePolynomialSet, parse
from nodepoly.cli import OutputRecord
from nodepoly.enriques import (
    EnriquesDiagram, InequalityResult, Vertex, Violation, invariants, named_diagram,
)

SRC = str(Path(nodepoly.__file__).resolve().parents[1])
README = Path(__file__).parents[1] / "README.md"

#: Modules that only the Enriques commands, the json and csv formats, or
#: dataclass creation need.
HEAVY = ("nodepoly.enriques", "dataclasses", "inspect", "json", "csv")

#: Every submodule of the package.
MODULES = tuple(sorted(
    f"nodepoly.{path.stem}" for path in Path(nodepoly.__file__).parent.glob("*.py")
    if path.stem != "__init__"
))

#: A polynomial command, the back end it runs, and the modules it leaves unloaded.
BACK_ENDS = [
    (["plane", "--r", "5", "--m", "4"], "surface", ("abelian", "grassmann")),
    (["plane", "--symbolic", "--r", "3"], "surface", ("abelian", "grassmann")),
    (["plane", "--table"], "surface", ("abelian", "grassmann")),
    (["validity", "plane", "--r", "2", "--m", "3"], "surface", ("abelian", "grassmann")),
    (["p4", "--m", "5"], "grassmann", ("surface", "abelian")),
    (["p4", "--irreducible"], "grassmann", ("surface", "abelian")),
    (["abelian", "--r", "2", "--g", "3"], "abelian", ("surface", "grassmann")),
    (["abelian", "--oracle", "--r", "2", "--g", "3"], "abelian", ("surface", "grassmann")),
    (["validity", "kva", "--surface", "k3", "--m", "1", "--d", "8", "--k", "2"], "abelian",
     ("surface", "grassmann")),
    (["bq", "--q", "2"], "nodegen", ("surface", "grassmann", "abelian")),
]

ENRIQUES_NAMES = (
    "DiagramInvariants", "EnriquesDiagram", "Vertex", "enumerate_diagrams",
    "invariants", "inequality_report", "named_diagram", "validate",
)


def fresh_python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )


class TestImportFootprint:
    #: Runs commands in one fresh process and prints, as its last line, which
    #: of the watched modules the import and the commands loaded.
    SCRIPT = """
import sys
before = set(sys.modules)
import nodepoly.cli
codes = [nodepoly.cli.run(argv) for argv in {argvs!r}]
print([codes, sorted(set({watch!r}) & (set(sys.modules) - before))])
"""

    def loaded(self, *argvs: list[str], watch: tuple[str, ...] = HEAVY) -> list[str]:
        proc = fresh_python(self.SCRIPT.format(argvs=list(argvs), watch=watch))
        assert proc.returncode == 0, proc.stderr
        codes, loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(argvs)
        return loaded

    def test_plane_count_loads_none(self):
        assert self.loaded(["plane", "--r", "5", "--m", "4"]) == []

    def test_polynomial_commands_in_text_load_none(self):
        assert self.loaded(
            ["plane", "--symbolic", "--r", "3"], ["p4", "--m", "5"], ["p4", "--irreducible"],
            ["abelian", "--r", "2", "--g", "3"], ["abelian", "--table"], ["bq", "--q", "2"],
            ["validity", "kva", "--surface", "k3", "--m", "1", "--d", "8", "--k", "2"],
        ) == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_format_loads_its_encoder_only(self, fmt):
        assert self.loaded(["plane", "--r", "5", "--m", "4", "--format", fmt]) == [fmt]

    def test_enumeration_loads_enriques(self):
        loaded = self.loaded(["enriques", "enumerate", "--max-v", "2", "--max-w", "1"])
        assert "nodepoly.enriques" in loaded

    def test_package_import_loads_no_submodule(self):
        proc = fresh_python(
            "import sys, nodepoly\n"
            "print(sorted(name for name in sys.modules if name.startswith('nodepoly.')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stdout.splitlines()[-1]) == []

    def test_cli_import_loads_no_other_submodule(self):
        assert self.loaded(watch=MODULES) == ["nodepoly.cli"]

    @pytest.mark.parametrize("argv,own,absent", BACK_ENDS)
    def test_a_polynomial_command_loads_its_own_back_end_only(self, argv, own, absent):
        loaded = self.loaded(argv, watch=MODULES)
        assert f"nodepoly.{own}" in loaded
        assert not {f"nodepoly.{name}" for name in absent} & set(loaded)

    @pytest.mark.parametrize("mode", ["check", "enumerate"])
    def test_an_enriques_command_loads_no_polynomial_module(self, mode, tmp_path):
        diagram = tmp_path / "a2.txt"
        diagram.write_text("0 2 - -\n1 1 0 -\n2 1 1 0\n", encoding="utf-8")
        argv = {"check": ["enriques", "check", str(diagram)],
                "enumerate": ["enriques", "enumerate", "--max-v", "2", "--max-w", "1"]}[mode]
        loaded = self.loaded(argv, watch=(*MODULES, "dataclasses"))
        assert loaded == ["nodepoly.cli", "nodepoly.enriques"]


class TestLazyNamespace:
    def test_every_exported_name_is_its_modules_object(self):
        for name in nodepoly.__all__:
            obj = getattr(nodepoly, name)
            assert obj.__module__.startswith("nodepoly.")
            assert getattr(import_module(obj.__module__), name) is obj

    def test_enriques_names_come_from_enriques(self):
        enriques = import_module("nodepoly.enriques")
        for name in ENRIQUES_NAMES:
            assert name in nodepoly.__all__
            assert getattr(nodepoly, name) is getattr(enriques, name)

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from nodepoly import *", namespace)
        assert set(nodepoly.__all__) <= set(namespace)

    def test_enriques_is_the_submodule(self):
        assert nodepoly.enriques is sys.modules["nodepoly.enriques"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nodepoly.no_such_name
        assert not hasattr(nodepoly, "no_such_name")

    def test_dir_lists_the_enriques_names(self):
        listed = dir(nodepoly)
        assert set(ENRIQUES_NAMES) | {"enriques", "Poly", "node_polynomials"} <= set(listed)
        assert listed == sorted(listed)

    def test_a_resolved_name_is_bound(self):
        proc = fresh_python(
            "import nodepoly\n"
            "assert 'Poly' not in vars(nodepoly)\n"
            "assert nodepoly.Poly is nodepoly.exactpoly.Poly\n"
            "assert 'Poly' in vars(nodepoly)\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_first_access_imports_enriques(self):
        proc = fresh_python(
            "import sys, nodepoly\n"
            "assert 'nodepoly.enriques' not in sys.modules\n"
            "assert nodepoly.Vertex is sys.modules['nodepoly.enriques'].Vertex\n"
            "assert 'enriques' in vars(nodepoly)\n"
        )
        assert proc.returncode == 0, proc.stderr


def test_no_module_checks_with_assert():
    """``python -O`` strips ``assert`` statements, so no check in the package is one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(nodepoly.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_library_layout_lists_every_module():
    section = README.read_text(encoding="utf-8").split("\n## Library layout\n", 1)[1]
    table = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(nodepoly\.\w+)`", table, re.MULTILINE)
    assert tuple(sorted(rows)) == MODULES


def test_no_module_line_is_over_100_characters():
    found = [
        f"{path.name}:{number}"
        for path in sorted(Path(nodepoly.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert found == []


def _imported_packages(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").partition(".")[0]]
    return []


def test_package_imports_the_standard_library_only():
    """``pyproject.toml`` declares no dependencies: every absolute import in the package
    is of a standard-library module; relative imports stay inside it."""
    found = [
        f"{path.name}:{node.lineno}:{name}"
        for path in sorted(Path(nodepoly.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if not (isinstance(node, ast.ImportFrom) and node.level)
        for name in _imported_packages(node)
        if name not in sys.stdlib_module_names
    ]
    assert found == []


def test_oracles_import_nothing_from_nodepoly():
    """The independent routes in ``tests/oracles.py`` share no code with the package."""
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(tree) if "nodepoly" in _imported_packages(node)]
    assert found == []


X = parse("v^3 + v*w2", ("v", "w1", "w2"))
POLY = "Poly(('v', 'w1', 'w2'), v^3 + v*w2)"

A2 = (
    "EnriquesDiagram(vertices=(Vertex(weight=2, parent=None, remote=None),"
    " Vertex(weight=1, parent=0, remote=None), Vertex(weight=1, parent=1, remote=0)))"
)

#: Each record type: two equal instances, one that differs in one field, and
#: the repr the type had as a frozen dataclass (``OutputRecord``'s since its
#: ``result`` became the run ``results``).
RECORDS = {
    "ChernNumbers": (
        ChernNumbers.plane, lambda: ChernNumbers.of(4, -6, 0, 24),
        "ChernNumbers(d=Poly(('m',), m^2), k=Poly(('m',), -3*m), s=Poly(('m',), 9),"
        " x=Poly(('m',), 3))",
    ),
    "NodePolynomialSet": (
        lambda: NodePolynomialSet((X,), X, X, X), lambda: NodePolynomialSet((X, X), X, X, X),
        f"NodePolynomialSet(polys=({POLY},), x2={POLY}, x3={POLY}, x4={POLY})",
    ),
    "OutputRecord": (
        lambda: OutputRecord("plane", {"r": 5, "m": 4}, (378,), "in range (m >= r/2+1)",
                             "severi-count"),
        lambda: OutputRecord("plane", {"r": 5, "m": 4}, (378,), None, "severi-count"),
        "OutputRecord(command='plane', inputs={'r': 5, 'm': 4}, results=(378,),"
        " valid='in range (m >= r/2+1)', ref='severi-count')",
    ),
    "Vertex": (
        lambda: Vertex(2, 0), lambda: Vertex(2, 0, 1), "Vertex(weight=2, parent=0, remote=None)",
    ),
    "EnriquesDiagram": (
        lambda: EnriquesDiagram((Vertex(2), Vertex(1, 0), Vertex(1, 1, remote=0))),
        lambda: EnriquesDiagram((Vertex(2), Vertex(1, 0), Vertex(1, 1))),
        A2,
    ),
    "Violation": (
        lambda: Violation("minimality", 1, "free leaf of weight 1"),
        lambda: Violation("minimality", 2, "free leaf of weight 1"),
        "Violation(axiom='minimality', vertex=1, detail='free leaf of weight 1')",
    ),
    "DiagramInvariants": (
        lambda: invariants(named_diagram("A", 2)),
        lambda: invariants(named_diagram("A", 1)),
        "DiagramInvariants(roots=1, free_vertices=2, dim=3, deg=5, cod=2, delta=1, branches=1,"
        " milnor=2, jacobian_mult=3)",
    ),
    "InequalityResult": (
        lambda: InequalityResult("ii", True, False), lambda: InequalityResult("ii", True, True),
        "InequalityResult(part='ii', holds=True, equality=False)",
    ),
}

#: The Enriques record types, each equal only to a record of its own type.
ENRIQUES_RECORDS = (
    "DiagramInvariants", "EnriquesDiagram", "InequalityResult", "Vertex", "Violation",
)


@pytest.mark.parametrize("kind", sorted(RECORDS))
class TestRecordTypes:
    def test_repr(self, kind):
        make, _, expected = RECORDS[kind]
        assert repr(make()) == expected

    def test_equality(self, kind):
        make, other, _ = RECORDS[kind]
        assert make() == make()
        assert make() != other()

    def test_hash(self, kind):
        make, _, _ = RECORDS[kind]
        if kind == "OutputRecord":  # its inputs are a dict, so it is unhashable
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())

    def test_immutable(self, kind):
        make, _, _ = RECORDS[kind]
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, next(iter(type(record).__annotations__)), None)


@pytest.mark.parametrize("kind", ENRIQUES_RECORDS)
def test_enriques_record_is_not_the_tuple_of_its_fields(kind):
    record = RECORDS[kind][0]()
    fields = tuple(getattr(record, name) for name in type(record).__annotations__)
    assert record != fields and fields != record
    assert not (record == fields or fields == record)


def test_enriques_replace_runs_the_construction_checks():
    diagram = RECORDS["EnriquesDiagram"][0]()
    assert diagram._replace(vertices=diagram.vertices[:2]) == EnriquesDiagram(diagram.vertices[:2])
    with pytest.raises(ValueError, match="vertex 1: parent 3 does not precede it"):
        diagram._replace(vertices=(Vertex(1), Vertex(1, 3)))
    with pytest.raises(ExactnessError, match="invariants break their defining identities"):
        RECORDS["DiagramInvariants"][0]()._replace(dim=99)
