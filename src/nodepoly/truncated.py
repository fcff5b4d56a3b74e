"""Classes in a ring truncated above a weighted degree, and their integrals.

Every back end evaluates b_q at its images of v, w1, w2 in a ring of
polynomials modulo the monomials whose weighted degree in some graded
variables exceeds a cap (f^5 = 0 on the plane bundle over the Grassmannian,
surface degree above 2 on a fixed surface, ...), then integrates: each
monomial in the graded variables goes through a table of integrals, and the
other variables ride along as coefficients.  A ``Truncated`` is one such
class; the weights and the cap travel with it, so a back end is just data:
its images and its table.
"""

from __future__ import annotations

from typing import Any, Mapping

from .exactpoly import Exponents, Poly, Scalar


class Truncated:
    """A polynomial modulo the monomials above ``cap`` in the graded variables.

    ``weights`` maps each graded variable to its positive weight; variables
    not listed are coefficients and are never truncated.  Truncation is
    applied on construction, so sums and products stay reduced.
    """

    __slots__ = ("poly", "weights", "cap")

    def __init__(self, value: Poly | Scalar, weights: Mapping[str, int], cap: int):
        poly = value if isinstance(value, Poly) else Poly.constant(value)
        slots = [(i, weights[v]) for i, v in enumerate(poly.variables) if v in weights]
        if slots:
            kept = {
                exps: c
                for exps, c in poly.terms.items()
                if sum(exps[i] * w for i, w in slots) <= cap
            }
            if len(kept) < poly.term_count():
                poly = Poly._raw(poly.variables, kept)
        self.poly = poly
        self.weights = weights
        self.cap = cap

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

    def integrate(self, table: Mapping[Exponents, Poly | Scalar]) -> Poly:
        """The linear map sending each graded monomial through ``table``.

        Keys are exponent tuples of the graded variables, in the order of
        ``weights``; a monomial with no key integrates to 0.  The remaining
        variables are carried through unchanged.
        """
        n = len(self.weights)
        rest = tuple(v for v in self.poly.variables if v not in self.weights)
        grouped: dict[Exponents, dict[Exponents, Any]] = {}
        for exps, coeff in self.poly.in_context(tuple(self.weights) + rest).terms.items():
            if exps[:n] in table:
                grouped.setdefault(exps[:n], {})[exps[n:]] = coeff
        total = Poly.zero(rest)
        for key, terms in grouped.items():
            total = total + Poly._raw(rest, terms) * table[key]
        return total


def _poly(value: Any) -> Any:
    return value.poly if isinstance(value, Truncated) else value
