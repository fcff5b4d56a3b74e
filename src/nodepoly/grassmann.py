"""Counting nodal plane curves on a threefold in four-space.

Here the family base Y is the Grassmannian of 2-planes in P^4 and the total
space is the tautological plane bundle over it.  A general degree-m threefold
cuts each plane in a degree-m curve, and the classes feeding the node
polynomials are

    v  = m*f        w1 = q1 - 3*f        w2 = q2 - 2*f*q1 + 3*f^2

where f is the pulled-back hyperplane class of P^4 and q1, q2 are c1 and c2
of S*, the dual of the rank-3 tautological subbundle S of C^5 (not of the
rank-2 quotient C^5/S).  On the bundle f^j = 0 for j > 4, and integration
over the fibers sends

    f^0, f^1 -> 0      f^2 -> 1      f^3 -> q1      f^4 -> q1^2 - q2

Classes on the Grassmannian are kept as free polynomials in q1, q2 with no
relation reduction; the only quotient-ring input needed is the table of
degree-6 integrals

    q1^6 -> 5      q1^4*q2 -> 3      q1^2*q2^2 -> 2      q2^3 -> 1

and every integration call sees only those four monomials.

The main outputs: the degree-18 polynomial in m counting 6-nodal plane
curves on a general degree-m threefold (valid for m >= 4); the degree-9
polynomial counting 3-nodal plane curves whose plane meets three general
lines; and the count of irreducible 6-nodal plane quintics on a general
quintic threefold, obtained by subtracting the reducible ones (conic+cubic
pairs, and line+binodal-quartic pairs counted via a Schubert-restricted run
of the same machinery).
"""

from __future__ import annotations

from functools import lru_cache

from .bell import nodal_class
from .exactpoly import Poly, integer, integrate, parse
from .nodegen import node_polynomial

#: The fiber grading on the tautological plane bundle.
_FIBER = {"f": 1}

#: Integration over the plane fibers, keyed by the exponent of f.
_FIBER_INTEGRALS = {
    (2,): Poly.constant(1),
    (3,): Poly.variable("q1"),
    (4,): parse("q1^2 - q2", ("q1", "q2")),
}

#: Degree-6 integrals on the Grassmannian of 2-planes in P^4 (q1 has degree
#: 1 and q2 degree 2); exponents keyed as (e_q1, e_q2).
_BASE = {"q1": 1, "q2": 2}
DEGREE6_INTEGRALS = {(6, 0): 5, (4, 1): 3, (2, 2): 2, (0, 3): 1}

#: Classical counts on a general quintic threefold, used as imported
#: constants by the irreducible-quintic pipeline.
SMOOTH_CONICS_ON_QUINTIC = 609250
LINES_ON_QUINTIC = 2875

#: Classes on the Grassmannian are polynomials in q1, q2 and the degree m.
_CONTEXT = ("q1", "q2", "m")
_ONE = Poly.constant(1, _CONTEXT)


def _aq_for(v: Poly, q: int) -> Poly:
    """Push b_q at v and the tautological w1, w2 down to the Grassmannian."""
    images = {"v": v, "w1": parse("q1 - 3*f"), "w2": parse("q2 - 2*f*q1 + 3*f^2")}
    pushed = integrate(node_polynomial(q).substitute(images), _FIBER, _FIBER_INTEGRALS)
    return pushed.in_context(_CONTEXT)


def grass_aq(q: int) -> Poly:
    """a_q for the family of all planes: the pushforward of b_q at v = m*f.

    Homogeneous of degree q in q1, q2 (degree 1 and 2), with coefficients
    polynomial in the threefold degree m.
    """
    return _aq_for(parse("m*f"), q)


def grass_integrate(cls: Poly) -> Poly:
    """Integrate a degree-6 class over the Grassmannian.

    The input must be homogeneous of degree 6 in (q1, q2); its monomials are
    then exactly the four of the integral table.  Coefficients may involve
    m; the result is a polynomial in m (possibly constant).
    """
    cls = cls.in_context(_CONTEXT)
    if not cls.is_weighted_homogeneous({**_BASE, "m": 0}, 6):
        raise ValueError(f"not a degree-6 class in q1 (degree 1) and q2 (degree 2): {cls}")
    return integrate(cls, _BASE, DEGREE6_INTEGRALS)


@lru_cache(maxsize=None)
def threefold_6nodal_symbolic() -> Poly:
    """The number of 6-nodal plane curves on a general degree-m threefold.

    A polynomial of degree 18 in m; the count is valid for m >= 4.
    """
    return grass_integrate(nodal_class([grass_aq(q) for q in range(1, 7)], _ONE))


def threefold_validity(m: int) -> bool:
    """Whether the 6-nodal count is proven at threefold degree m: m >= 4."""
    return m >= 4


def threefold_6nodal(m: int) -> int:
    """Value of the 6-nodal count at integer degree m."""
    return integer(threefold_6nodal_symbolic().evaluate({"m": m}), f"the 6-nodal count at m={m}")


def threefold_3nodal_lines() -> Poly:
    """3-nodal plane curves on a degree-m threefold whose plane meets three
    general lines; each line imposes the special Schubert class q1."""
    cls = nodal_class([grass_aq(q) for q in range(1, 4)], _ONE)
    return grass_integrate(cls * Poly.variable("q1") ** 3)


def line_restricted_multiplier() -> int:
    """Binodal residual quartics per line on a general quintic threefold.

    Restrict the family to the Schubert variety of planes through a fixed
    line; the residual quartic family has divisor class v' = 4*f + q1 and
    the same w1, w2.  Classes on the restriction are integrated through the
    ambient Grassmannian against the Schubert class (q1^2 - q2)^2 times the
    two-nodal class.
    """
    v_line = parse("4*f + q1")
    cls = nodal_class([_aq_for(v_line, q) for q in (1, 2)], _ONE)
    schubert = parse("q1^2 - q2") ** 2
    return integer(grass_integrate(schubert * cls).constant_value(), "the line multiplier")


def quintic_irreducible() -> int:
    """Irreducible 6-nodal plane quintics on a general quintic threefold.

    All 6-nodal quintics, minus the conic+cubic pairs (one per conic), minus
    the line+binodal-quartic pairs (the per-line multiplier times the number
    of lines).
    """
    return (
        threefold_6nodal(5)
        - SMOOTH_CONICS_ON_QUINTIC
        - LINES_ON_QUINTIC * line_restricted_multiplier()
    )
