"""The package namespace, what a command imports, and the record types."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import nodepoly
from nodepoly import ChernNumbers, NodePolynomialSet, parse
from nodepoly.cli import OutputRecord

SRC = str(Path(nodepoly.__file__).resolve().parents[1])

#: Modules that only the Enriques commands, the json and csv formats, or
#: dataclass creation need.
HEAVY = ("nodepoly.enriques", "dataclasses", "inspect", "json", "csv")

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
    #: of HEAVY the import and the commands loaded.
    SCRIPT = """
import sys
before = set(sys.modules)
import nodepoly.cli
codes = [nodepoly.cli.run(argv) for argv in {argvs!r}]
print([codes, sorted(set({heavy!r}) & (set(sys.modules) - before))])
"""

    def loaded(self, *argvs: list[str]) -> list[str]:
        proc = fresh_python(self.SCRIPT.format(argvs=list(argvs), heavy=HEAVY))
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
}


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
