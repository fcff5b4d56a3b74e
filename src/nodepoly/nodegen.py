"""Generation of the node polynomials b_1..b_8.

Each b_q is a weighted homogeneous polynomial of degree q+2 in three classes:
v (the divisor class of the family of curves) and w1, w2 (the Chern classes
of the relative cotangent bundle), with weights v:1, w1:1, w2:2.  Pushing
b_q down a family of surfaces yields the ingredient a_q of the counting
formula P_r(a_1,...,a_r)/r! for curves with r nodes; the geometric back ends
in this package implement three such pushforwards.

One recursion, with a transform Q(i, R) and three fixed input polynomials
x2, x3, x4, defines every b_q (s = q - 1):

    b_{s+1} = P_s(Q(2,b_1),...,Q(2,b_s)) * x2
              - s(s-1)(s-2) * P_{s-3}(Q(3,b_1),...,Q(3,b_{s-3})) * x3
              + [s = 7] * 3281 * 7! * x4

where P_n is the complete Bell polynomial and the x3 term vanishes for
s < 3.  ``tests/test_surface.py::test_x4_multiplier_derived`` derives the x4
multiplier from Bryan and Leung's counts of 8-nodal curves on a K3 surface.
``node_polynomial(q)`` builds b_q on demand from b_1..b_{q-1} and caches
it, and each Q(i, b_j) is cached by (i, j): b_8 costs eleven transforms.

x2, x3 and x4 are fixed input data, embedded verbatim below.  The tests derive x2 and
x3 as top Chern classes of jet bundles, and x4 up to its v^5*w1^3*w2 coefficient (29).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .bell import bell_value
from .exactpoly import ExactnessError, Poly, parse

#: Variable context of every node polynomial.
CLASS_VARIABLES = ("v", "w1", "w2")

#: Weights making b_q homogeneous of degree q+2.
CLASS_WEIGHTS = {"v": 1, "w1": 1, "w2": 2}

X2 = parse("v^3 + v^2*w1 + v*w2", CLASS_VARIABLES)

X3 = parse(
    "v^6 + 4*v^5*w1 + 5*v^4*w1^2 + 5*v^4*w2 + 2*v^3*w1^3 + 11*v^3*w1*w2"
    " + 6*v^2*w1^2*w2 + 4*v^2*w2^2 + 4*v*w1*w2^2",
    CLASS_VARIABLES,
)

X4 = parse(
    "v^10 + 10*v^9*w1 + 40*v^8*w1^2 + 15*v^8*w2 + 82*v^7*w1^3 + 111*v^7*w1*w2"
    " + 91*v^6*w1^4 + 315*v^6*w1^2*w2 + 63*v^6*w2^2"
    " + 52*v^5*w1^5 + 29*v^5*w1^3*w2 + 324*v^5*w1*w2^2"
    " + 12*v^4*w1^6 + 282*v^4*w1^4*w2 + 593*v^4*w1^2*w2^2 + 85*v^4*w2^3"
    " + 72*v^3*w1^5*w2 + 464*v^3*w1^3*w2^2 + 259*v^3*w1*w2^3"
    " + 132*v^2*w1^4*w2^2 + 246*v^2*w1^2*w2^3 + 36*v^2*w2^4"
    " + 72*v*w1^3*w2^3 + 36*v*w1*w2^4",
    CLASS_VARIABLES,
)

#: Multiplier of x4 in b_8.
X4_MULTIPLIER = 3281 * factorial(7)

_E_DIVISOR = parse("e^3 + w1*e^2 + w2*e", ("e", "w1", "w2"))


def q_transform(i: int, poly: Poly) -> Poly:
    """The transform Q(i, R) feeding the Bell arguments of the generator.

    Substitute v -> v - i*e, w1 -> w1 + e, w2 -> w2 - e^2, take the remainder
    modulo e^3 + w1*e^2 + w2*e viewed in e, and negate the e^2 coefficient.
    The result contains no e and is linear in the input.
    """
    e = Poly.variable("e")
    shifted = poly.substitute(
        {
            "v": Poly.variable("v") - i * e,
            "w1": Poly.variable("w1") + e,
            "w2": Poly.variable("w2") - e * e,
        }
    )
    _, rem = shifted.divrem(_E_DIVISOR, "e")
    return (-rem.coefficient_of("e", 2)).in_context(CLASS_VARIABLES)


@lru_cache(maxsize=None)
def _q_of_b(i: int, j: int) -> Poly:
    """Q(i, b_j), computed once per pair: i = 2 for j <= 7, i = 3 for j <= 4."""
    return q_transform(i, node_polynomial(j))


@lru_cache(maxsize=None)
def node_polynomial(q: int) -> Poly:
    """b_q for q in 1..8 by the recursion above, built on first use from
    b_1..b_{q-1} only.  All coefficients are integers."""
    if not 1 <= q <= 8:
        raise ValueError(f"q must be in 1..8: {q}")
    s = q - 1
    one = Poly.constant(1, CLASS_VARIABLES)
    bq = bell_value(s, [_q_of_b(2, j) for j in range(1, s + 1)], one) * X2
    if s >= 3:
        q3 = [_q_of_b(3, j) for j in range(1, s - 2)]
        bq = bq - s * (s - 1) * (s - 2) * bell_value(s - 3, q3, one) * X3
    if q == 8:
        bq = bq + X4_MULTIPLIER * X4
    if not bq.is_weighted_homogeneous(CLASS_WEIGHTS, q + 2):
        raise ExactnessError(f"b_{q} is not weighted homogeneous of degree {q + 2}; generator bug")
    if bq.denominator != 1:
        raise ExactnessError(f"b_{q} has a non-integer coefficient; generator bug")
    return bq


class NodePolynomialSet(NamedTuple):
    """The eight node polynomials plus the fixed inputs they were built from."""

    polys: tuple[Poly, ...]
    x2: Poly
    x3: Poly
    x4: Poly

    def b(self, q: int) -> Poly:
        """b_q for q in 1..8."""
        if not 1 <= q <= len(self.polys):
            raise ValueError(f"q must be in 1..{len(self.polys)}: {q}")
        return self.polys[q - 1]


def node_polynomials() -> NodePolynomialSet:
    """All eight node polynomials, built now if they are not yet cached."""
    return NodePolynomialSet(tuple(node_polynomial(q) for q in range(1, 9)), X2, X3, X4)
