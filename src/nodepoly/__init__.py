"""Exact computation of node polynomials and nodal-curve counts.

The package generates the eight universal node polynomials b_1..b_8 and
evaluates them through three intersection-theoretic back ends: linear
systems on a fixed surface (Severi degrees of plane curves), plane curves
on a threefold in four-space, and curves in a homology class on an abelian
surface.  A separate combinatorial engine handles Enriques diagrams and
their invariant inequalities.  All arithmetic is exact.
"""

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
from .enriques import (
    DiagramInvariants,
    EnriquesDiagram,
    Vertex,
    enumerate_diagrams,
    invariants,
    inequality_report,
    named_diagram,
    validate,
)
from .exactpoly import ExactnessError, Homogeneity, Poly, parse
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
    "Homogeneity",
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
