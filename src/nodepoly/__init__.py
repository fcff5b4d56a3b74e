"""Exact computation of node polynomials and nodal-curve counts.

The package generates the eight universal node polynomials b_1..b_8 and
evaluates them through three intersection-theoretic back ends: linear
systems on a fixed surface (Severi degrees of plane curves), plane curves
on a threefold in four-space, and curves in a homology class on an abelian
surface.  A separate combinatorial engine handles Enriques diagrams and
their invariant inequalities; ``nodepoly.enriques`` and its names here are
imported on first access (PEP 562).  All arithmetic is exact.
"""

from importlib import import_module

from .abelian import (
    abelian_aq,
    abelian_count,
    bryan_leung_count,
    bryan_leung_log_coefficients,
    fixed_class_count,
    k_very_ample_ok,
    abelian_validity,
)
from .bell import bell_polynomial, bell_value
from .exactpoly import ExactnessError, Poly, parse
from .grassmann import (
    grass_aq,
    grass_integrate,
    line_restricted_multiplier,
    quintic_irreducible,
    threefold_3nodal_lines,
    threefold_6nodal,
    threefold_6nodal_symbolic,
    threefold_validity,
)
from .nodegen import NodePolynomialSet, node_polynomials, q_transform
from .surface import (
    ChernNumbers,
    plane_count,
    plane_validity,
    severi_degree,
    surface_aq,
)
from .truncated import Truncated

__version__ = "0.1.0"

__all__ = [
    "ChernNumbers",
    "DiagramInvariants",
    "EnriquesDiagram",
    "ExactnessError",
    "NodePolynomialSet",
    "Poly",
    "Truncated",
    "Vertex",
    "abelian_aq",
    "abelian_count",
    "bell_polynomial",
    "bell_value",
    "bryan_leung_count",
    "bryan_leung_log_coefficients",
    "enumerate_diagrams",
    "fixed_class_count",
    "grass_aq",
    "grass_integrate",
    "invariants",
    "k_very_ample_ok",
    "inequality_report",
    "line_restricted_multiplier",
    "named_diagram",
    "node_polynomials",
    "parse",
    "plane_count",
    "plane_validity",
    "q_transform",
    "quintic_irreducible",
    "severi_degree",
    "surface_aq",
    "abelian_validity",
    "threefold_3nodal_lines",
    "threefold_6nodal",
    "threefold_6nodal_symbolic",
    "threefold_validity",
    "validate",
]


def __getattr__(name: str) -> object:
    # The names of __all__ not bound above are the enriques ones.  import_module,
    # because ``from . import enriques`` would call this hook again.
    if name == "enriques" or name in __all__:
        enriques = import_module(".enriques", __name__)
        return enriques if name == "enriques" else getattr(enriques, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "enriques"})
