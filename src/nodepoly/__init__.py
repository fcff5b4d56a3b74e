"""Exact computation of node polynomials and nodal-curve counts.

The package generates the eight universal node polynomials b_1..b_8 and
evaluates them through three intersection-theoretic back ends: linear
systems on a fixed surface (Severi degrees of plane curves), plane curves
on a threefold in four-space, and curves in a homology class on an abelian
surface.  A separate combinatorial engine handles Enriques diagrams and
their invariant inequalities.  Each submodule and each name it exports here
is imported on first access (PEP 562), so a command loads only what it
runs.  All arithmetic is exact.
"""

from importlib import import_module

__version__ = "0.1.0"


class ExactnessError(AssertionError):
    """An exact result broke an identity it must satisfy: a bug, not bad input.

    Raised by explicit checks, so it fires under ``python -O`` too.  It is
    the kernel's (``nodepoly.exactpoly``), defined here, where every import
    runs, so that ``enriques`` raises it without loading the kernel.
    """

    __module__ = "nodepoly.exactpoly"


#: Each exported name and the submodule it comes from.
_HOME = {name: module for module, names in [
    ("abelian", "abelian_aq abelian_count abelian_validity bryan_leung_count"
                " bryan_leung_log_coefficients fixed_class_count k_very_ample_ok"),
    ("bell", "bell_polynomial bell_value"),
    ("enriques", "DiagramInvariants EnriquesDiagram Vertex enumerate_diagrams invariants"
                 " inequality_report named_diagram validate"),
    ("exactpoly", "Poly parse"),
    ("grassmann", "grass_aq grass_integrate line_restricted_multiplier quintic_irreducible"
                  " threefold_3nodal_lines threefold_6nodal threefold_6nodal_symbolic"
                  " threefold_validity"),
    ("nodegen", "NodePolynomialSet node_polynomials q_transform"),
    ("surface", "ChernNumbers plane_count plane_validity severi_degree surface_aq"),
] for name in names.split()}

__all__ = sorted(["ExactnessError", *_HOME])


def __getattr__(name: str) -> object:
    # import_module, because ``from . import enriques`` would call this hook
    # again.  Importing a submodule binds it here; a name is bound below, so
    # the hook runs once per name.
    if name in _HOME.values():
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOME.values()} - {"_HOME"})  # the table is no export
