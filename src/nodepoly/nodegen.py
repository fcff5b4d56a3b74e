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
Q is the back ends' recipe: substitute its shift images, then integrate in e through
a table of e^k modulo e^3 + w1*e^2 + w2*e; b_q is one sum of products of its three
terms.  ``node_polynomial(q)`` builds b_q on demand from b_1..b_{q-1} and caches it,
and each Q(i, b_j) is cached by (i, j): b_8 costs eleven transforms.

x2, x3 and x4 are fixed input data, embedded verbatim below.  The tests derive x2 and
x3 as top Chern classes of jet bundles, and x4 up to its v^5*w1^3*w2 coefficient (29).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .bell import bell_value
from .exactpoly import ExactnessError, Poly, integrate, parse, sum_of_products

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


@lru_cache(maxsize=None)
def _shift_images(i: int) -> dict[str, Poly]:
    """v -> v - i*e, w1 -> w1 + e, w2 -> w2 - e^2, built in one context."""
    v, w1, w2, e = (Poly.variable(name, (*CLASS_VARIABLES, "e")) for name in "v w1 w2 e".split())
    return {"v": v - i * e, "w1": w1 + e, "w2": w2 - e * e}


@lru_cache(maxsize=None)
def _e_table(top: int) -> dict[tuple[int], Poly]:
    """Q's table up to e^top: entry (k,) is -A_k, where e^k = A_k*e^2 + B_k*e modulo
    e^3 + w1*e^2 + w2*e.  A_2 = 1, B_2 = 0, A_{k+1} = B_k - w1*A_k and B_{k+1} = -w2*A_k,
    so A_3 = -w1 and A_{k+1} = -w1*A_k - w2*A_{k-1}.  Up to e^12 serves all of b_1..b_7."""
    w1, w2 = (Poly.variable(name, CLASS_VARIABLES) for name in ("w1", "w2"))
    table = {(2,): Poly.constant(-1, CLASS_VARIABLES), (3,): w1}
    for k in range(4, top + 1):
        table[k,] = -(w1 * table[k - 1,]) - w2 * table[k - 2,]
    return table


def q_transform(i: int, poly: Poly) -> Poly:
    """The transform Q(i, R) feeding the Bell arguments of the generator: substitute
    v -> v - i*e, w1 -> w1 + e, w2 -> w2 - e^2, reduce modulo e^3 + w1*e^2 + w2*e, and
    negate the e^2 coefficient.  So it is the back ends' recipe, integrating in e through
    ``_e_table``.  The result contains no e and is linear in the input."""
    shifted = poly.in_context(CLASS_VARIABLES).substitute(_shift_images(i))
    return integrate(shifted, {"e": 1}, _e_table(max(shifted.degree_in("e"), 12)))


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
    s, one = q - 1, Poly.constant(1, CLASS_VARIABLES)
    q3 = [_q_of_b(3, j) for j in range(1, s - 2)]  # none for s < 3, where s(s-1)(s-2) = 0
    bq = sum_of_products([(1, bell_value(s, [_q_of_b(2, j) for j in range(1, q)], one), X2),
                          (-s * (s - 1) * (s - 2), bell_value(len(q3), q3, one), X3),
                          (X4_MULTIPLIER * (q == 8), one, X4)])
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
