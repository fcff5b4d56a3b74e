"""Classes in a ring truncated above a weighted degree, and their integrals.

Every back end evaluates b_q at its images of v, w1, w2 in a ring of
polynomials modulo the monomials whose weighted degree in some graded
variables exceeds a cap (f^5 = 0 on the plane bundle over the Grassmannian,
surface degree above 2 on a fixed surface, ...), then integrates.  A
``Truncated`` is one such class; the weights and the cap travel with it, so a
back end is just data: its images and its table, which ``pushforward`` takes.
``integrate`` works on a plain polynomial: each monomial in the graded
variables goes through a table of integrals (to 0 with no key, so it needs no
truncation), and the other variables ride along as coefficients.
"""

from __future__ import annotations

from typing import Any, Mapping

from .exactpoly import Exponents, Poly, Scalar, evaluate_in, in_one_context


class Truncated:
    """A polynomial modulo the monomials above ``cap`` in the graded variables.

    ``weights`` maps each graded variable to its positive weight; variables
    not listed are coefficients and are never truncated.  Truncation is
    applied on construction, so sums and products stay reduced.
    """

    __slots__ = ("poly", "weights", "cap")

    def __init__(self, value: Poly | Scalar, weights: Mapping[str, int], cap: int):
        poly = value if isinstance(value, Poly) else Poly.constant(value)
        self.poly = poly.truncated(weights, cap)
        self.weights, self.cap = weights, cap

    def _like(self, poly: Poly) -> Truncated:
        return Truncated(poly, self.weights, self.cap)

    def __add__(self, other: Any) -> Truncated:
        return self._like(self.poly + _poly(other))

    __radd__ = __add__

    def __sub__(self, other: Any) -> Truncated:
        return self._like(self.poly - _poly(other))

    def __mul__(self, other: Any) -> Truncated:
        return self._like(self.poly * _poly(other))

    __rmul__ = __mul__

    def __eq__(self, other: Any) -> bool:
        return self.poly == _poly(other)

    def __repr__(self) -> str:
        return f"Truncated({self.poly}, {dict(self.weights)}, cap={self.cap})"


def _poly(value: Any) -> Any:
    return value.poly if isinstance(value, Truncated) else value


def pushforward(
    poly: Poly,
    images: Mapping[str, Poly | Scalar],
    weights: Mapping[str, int],
    cap: int,
    table: Mapping[Exponents, Poly | Scalar],
) -> Poly:
    """``poly`` evaluated at ``images``, moved into one context by ``in_one_context``, modulo
    the monomials above ``cap``, then integrated through ``table``: one back end's pushforward."""
    values, one = in_one_context(images)
    values = {v: Truncated(value, weights, cap) for v, value in values.items()}
    return integrate(evaluate_in(poly, values, Truncated(one, weights, cap)).poly, weights, table)


def integrate(
    poly: Poly, weights: Mapping[str, int], table: Mapping[Exponents, Poly | Scalar]
) -> Poly:
    """The linear map sending each monomial in the graded variables through ``table``.

    Keys are exponent tuples of the graded variables, in the order of
    ``weights``; a monomial with no key integrates to 0.  The remaining
    variables are carried through unchanged, in their order in ``poly``.
    """
    rest = tuple(v for v in poly.variables if v not in weights)
    total = Poly.zero(rest)
    for key, part in poly.coefficients_in(tuple(weights)).items():
        if key in table:
            total = total + part.in_context(rest) * table[key]
    return total
