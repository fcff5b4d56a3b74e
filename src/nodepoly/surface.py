"""Counting nodal curves in a linear system on a fixed surface.

The family here is a projective space Y of curves on a fixed surface S, with
total space S x Y.  Writing c for the class of the line bundle cut out by the
system, K for the canonical class and X for the point class of c_2 of the
cotangent bundle, the node-polynomial classes specialize to v = c + h,
w1 = K, w2 = X, where h is the hyperplane class on Y.  Pushing down to Y
integrates the surface-degree-2 part and keeps the h power, so everything is
controlled by four Chern numbers:

    d = integral of c^2      k = integral of c*K
    s = integral of K^2      x = integral of c_2

For the projective plane with curves of degree m these are m^2, -3m, 9, 3.
The resulting a_q are quadratic polynomials in m, and the Severi degree
N_r(m), the number of degree-m plane curves with exactly r nodes through
m(m+3)/2 - r general points, equals P_r(a_1,...,a_r)/r! whenever r <= 8 and
m >= r/2 + 1.  Outside that range the polynomial is still computed; callers
decide what it means (``plane_validity`` exposes the range test).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .bell import bell_value
from .exactpoly import ExactnessError, Poly, Scalar, evaluate_in, parse
from .nodegen import node_polynomial
from .truncated import Truncated

#: The surface grading: c and K have degree 1, the point class X degree 2,
#: and everything above surface degree 2 vanishes.
_SURFACE = {"c": 1, "K": 1, "X": 2}
_SURFACE_CAP = 2

#: Integrals of the surface-degree-2 monomials, keyed by the exponents of
#: (c, K, X), as the symbolic Chern numbers d, k, s, x.
_SURFACE_INTEGRALS = {
    (2, 0, 0): Poly.variable("d"),
    (1, 1, 0): Poly.variable("k"),
    (0, 2, 0): Poly.variable("s"),
    (0, 0, 1): Poly.variable("x"),
}


#: The Chern numbers, the a_q and N_r are polynomials in m alone.
_CONTEXT = ("m",)


def _as_poly(value: Poly | Scalar) -> Poly:
    if isinstance(value, Poly):
        return value.in_context(_CONTEXT)
    return Poly.constant(value, _CONTEXT)


@dataclass(frozen=True)
class ChernNumbers:
    """The four surface invariants, as polynomials in the formal parameter m."""

    d: Poly
    k: Poly
    s: Poly
    x: Poly

    @classmethod
    def of(
        cls, d: Poly | Scalar, k: Poly | Scalar, s: Poly | Scalar, x: Poly | Scalar
    ) -> ChernNumbers:
        return cls(d=_as_poly(d), k=_as_poly(k), s=_as_poly(s), x=_as_poly(x))

    @classmethod
    def plane(cls) -> ChernNumbers:
        """Degree-m curves in the projective plane: (m^2, -3m, 9, 3)."""
        m = Poly.variable("m")
        return cls.of(m * m, -3 * m, 9, 3)


@lru_cache(maxsize=None)
def _universal_aq(q: int) -> Poly:
    """a_q as a linear form in the symbolic Chern numbers d, k, s, x.

    b_q is evaluated at v = c + h, w1 = K, w2 = X modulo surface degree 3
    and integrated over the surface; every surviving monomial lands in h^q.
    """
    images = {"v": "c + h", "w1": "K", "w2": "X"}
    values = {w: Truncated(parse(t), _SURFACE, _SURFACE_CAP) for w, t in images.items()}
    pushed = evaluate_in(node_polynomial(q), values, Truncated(1, _SURFACE, _SURFACE_CAP))
    total = pushed.integrate(_SURFACE_INTEGRALS)
    form = total.coefficient_of("h", q)
    if total != form * Poly.variable("h") ** q:
        raise ExactnessError(f"pushforward of b_{q} is not concentrated in h^{q}")
    return form


def surface_aq(q: int, cn: ChernNumbers) -> Poly:
    """The h^q coefficient of the pushforward of b_q; linear in (d, k, s, x)."""
    if not 1 <= q <= 8:
        raise ValueError(f"q must be in 1..8: {q}")
    point = {"d": cn.d, "k": cn.k, "s": cn.s, "x": cn.x}
    return _universal_aq(q).substitute(point).in_context(_CONTEXT)


def severi_degree(r: int, cn: ChernNumbers | None = None) -> Poly:
    """The node polynomial N_r as a polynomial in m.

    N_r = P_r(a_1,...,a_r)/r!.  Defaults to the plane.  The polynomial may
    have rational coefficients (N_2 carries a 3/2), but its values at the
    integers in the validity range are the actual curve counts.
    """
    if not 0 <= r <= 8:
        raise ValueError(f"r must be in 0..8: {r}")
    if cn is None:
        cn = ChernNumbers.plane()
    aq = [surface_aq(q, cn) for q in range(1, r + 1)]
    return bell_value(r, aq, Poly.constant(1, _CONTEXT)) / factorial(r)


@lru_cache(maxsize=None)
def _plane_severi_degree(r: int) -> Poly:
    """The plane N_r(m), cached per r (nine entries at most)."""
    return severi_degree(r)


def plane_count(r: int, m: int) -> Fraction:
    """Value of the plane node polynomial N_r at degree m (exact)."""
    return _plane_severi_degree(r).evaluate({"m": m})


def plane_validity(r: int, m: int) -> bool:
    """Whether (r, m) lies in the proven range: r <= 8 and m >= r/2 + 1."""
    if r < 0:
        raise ValueError(f"r must be non-negative: {r}")
    return r <= 8 and Fraction(m) >= Fraction(r, 2) + 1
