"""Generation of the node polynomials b_1..b_8.

Each b_q is a weighted homogeneous polynomial of degree q+2 in three classes:
v (the divisor class of the family of curves) and w1, w2 (the Chern classes
of the relative cotangent bundle), with weights v:1, w1:1, w2:2.  Pushing
b_q down a family of surfaces yields the ingredient a_q of the counting
formula P_r(a_1,...,a_r)/r! for curves with r nodes; the geometric back ends
in this package implement three such pushforwards.

The generator combines a recursive transform Q(i, R) with three fixed input
polynomials x2, x3, x4.  Q substitutes v -> v - i*e, w1 -> w1 + e,
w2 -> w2 - e^2 for an auxiliary class e, reduces modulo e^3 + w1*e^2 + w2*e,
and negates the e^2 coefficient.  The loop then builds

    b_{s+1} = P_s(Q(2,b_1),...,Q(2,b_s)) * x2                    for s = 0..2
    b_{s+1} = (as above) - s(s-1)(s-2) * P_{s-3}(Q(3,b_1),...) * x3  for s = 3..6
    b_8     = (as above at s=7) + 3281 * 7! * x4

where P_s is the complete Bell polynomial.  The x4 multiplier 3281 * 7! is
the constant fixed by the known count of 26136 eight-nodal quintic plane
curves through 12 general points; the suite checks that consistency.

x2, x3 and x4 are fixed input data, embedded verbatim below; the tests pin
their term counts (3, 9 and 24) against transcription slips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

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


@dataclass(frozen=True)
class NodePolynomialSet:
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


@lru_cache(maxsize=None)
def node_polynomials() -> NodePolynomialSet:
    """Generate b_1..b_8.  Deterministic; all coefficients are integers."""
    one = Poly.constant(1, CLASS_VARIABLES)
    b: list[Poly] = []

    def q2_values() -> list[Poly]:
        return [q_transform(2, bq) for bq in b]

    def q3_values(count: int) -> list[Poly]:
        return [q_transform(3, b[j]) for j in range(count)]

    for s in range(0, 3):
        b.append(bell_value(s, q2_values(), one) * X2)
    for s in range(3, 7):
        head = bell_value(s, q2_values(), one) * X2
        tail = s * (s - 1) * (s - 2) * bell_value(s - 3, q3_values(s - 3), one) * X3
        b.append(head - tail)
    b.append(
        bell_value(7, q2_values(), one) * X2
        - 7 * 6 * 5 * bell_value(4, q3_values(4), one) * X3
        + X4_MULTIPLIER * X4
    )

    for q, bq in enumerate(b, start=1):
        if not bq.is_weighted_homogeneous(CLASS_WEIGHTS, q + 2):
            raise ExactnessError(
                f"b_{q} is not weighted homogeneous of degree {q + 2}; generator bug"
            )
        if any(c.denominator != 1 for c in bq.terms.values()):
            raise ExactnessError(f"b_{q} has a non-integer coefficient; generator bug")
    return NodePolynomialSet(polys=tuple(b), x2=X2, x3=X3, x4=X4)
