"""Counting nodal curves in a homology class on an abelian surface.

For an abelian surface of Picard number 1, the curves in a fixed homology
class of self-intersection d are parameterized by a projective bundle Y over
the dual surface, of dimension d/2 + 1.  The canonical class is trivial, so
w1 = w2 = 0 and each node polynomial b_q collapses to its pure power of v,
with v = l + h for a fiberwise theta-type class l and the tautological class
h on Y.  Integration over the first factor obeys

    l^2 -> d * (fundamental class)
    l^3 -> 6 * C1
    l^4 -> 12 * (C1^2 - 2*C2)
    l^i -> 0 otherwise

where C1, C2 are the Chern classes of the rank-d/2 direct-image bundle whose
projectivization is Y.  This route keeps every coefficient polynomial in d
(no division by d ever occurs).  Together with the top integrals

    integral C1^2 = d        integral C2 = d/2 - 1

and the Segre pushforwards of powers of h, the count of irreducible curves
of geometric genus g with r nodes through g general points becomes a
polynomial N_{g,r} in g of degree r+1, after substituting the adjunction
relation d = 2g + 2r - 2.

An independent route to the same numbers is the generating function

    sum_{r>=0} (N_{g,r}/g) q^r = ( sum_{k>=1} k*sigma_1(k)*q^(k-1) )^(g-1)

with sigma_1 the divisor sum; ``bryan_leung_count`` implements it with exact
integer series arithmetic and the suite checks the two routes agree.

Validity is a separate concern from computation: ``abelian_validity`` gives
the genus threshold under which the polynomial formulas are proven (it
depends on the multiple m of the primitive class), and ``k_very_ample_ok``
exposes the underlying line-bundle positivity test, including its K3 and
Enriques variants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .bell import bell_value
from .exactpoly import ExactnessError, Poly, evaluate_in, parse
from .nodegen import node_polynomial
from .truncated import Truncated

#: The fiber grading: l^j = 0 for j > 4, and integration over the first
#: factor, keyed by the exponent of l.
_FIBER = {"l": 1}
_FIBER_CAP = 4
_FIBER_INTEGRALS = {
    (2,): Poly.variable("d"),
    (3,): 6 * Poly.variable("C1"),
    (4,): parse("12*C1^2 - 24*C2"),
}

#: The base grading: classes on the dual surface above degree 2 vanish.
_BASE = {"C1": 1, "C2": 2}
_BASE_CAP = 2

#: Weight of each base monomial, keyed by the exponents of (C1, C2), in the
#: point count through g general points.  The g point conditions contribute
#: h^g; pushing h^(g+r-j) to the dual surface gives the fundamental class,
#: -C1, or C1^2 - C2 as j = 2, 1, 0, and the top integrals are
#: integral C1^2 = d, integral C2 = d/2 - 1.
_POINT_INTEGRALS = {
    (0, 0): parse("1/2*d + 1"),  # C1^2 - C2 integrated
    (1, 0): parse("-d"),  # C1 * (-C1) integrated
    (2, 0): Poly.variable("d"),
    (0, 1): parse("1/2*d - 1"),
}

#: A class of total grade r has weighted degree r in these weights.
_TOTAL_GRADE = {"C1": 1, "C2": 2, "h": 1, "d": 0}

_AQ_CONTEXT = ("C1", "C2", "h", "d")


@lru_cache(maxsize=None)
def abelian_aq(q: int) -> Poly:
    """a_q on the abelian family, a polynomial in (C1, C2, h, d).

    With w's zero, b_q = kappa_q * v^(q+2) and v = l + h; expanding the
    binomial and applying the l-integration table gives

        a_q = kappa_q * ( C(q+2,2)*d*h^q + 6*C(q+2,3)*C1*h^(q-1)
                          + 12*C(q+2,4)*(C1^2 - 2*C2)*h^(q-2) )

    which is polynomial in d (never rational in d).
    """
    if not 1 <= q <= 8:
        raise ValueError(f"q must be in 1..8: {q}")
    zero = Truncated(0, _FIBER, _FIBER_CAP)
    values = {"v": Truncated(parse("l + h"), _FIBER, _FIBER_CAP), "w1": zero, "w2": zero}
    pushed = evaluate_in(node_polynomial(q), values, Truncated(1, _FIBER, _FIBER_CAP))
    aq = pushed.integrate(_FIBER_INTEGRALS).in_context(_AQ_CONTEXT)
    if any(c.denominator != 1 for c in aq.terms.values()):
        raise ExactnessError(f"a_{q} picked up a rational coefficient; route bug")
    return aq


@lru_cache(maxsize=None)
def nodal_locus_class(r: int) -> Poly:
    """The class of the r-nodal locus on Y: P_r(a_1,...,a_r)/r!.

    A polynomial in (C1, C2, h, d) of total grade r, with base grade at most 2.
    Cached per r (nine entries at most).
    """
    if not 0 <= r <= 8:
        raise ValueError(f"r must be in 0..8: {r}")
    aq = [Truncated(abelian_aq(q), _BASE, _BASE_CAP) for q in range(1, r + 1)]
    cls = bell_value(r, aq, Truncated(1, _BASE, _BASE_CAP)).poly / factorial(r)
    if not cls.is_weighted_homogeneous(_TOTAL_GRADE, r):
        raise ExactnessError(f"the {r}-nodal class is not pure of total grade {r}")
    return cls


def _pushed_count(r: int, table: dict) -> Poly:
    """Integrate the r-nodal class through a base table, as a polynomial in g.

    Purity fixes the h power of each base monomial, so h is set to 1, and d
    is eliminated by adjunction, d = 2g + 2r - 2.
    """
    pushed = Truncated(nodal_locus_class(r), _BASE, _BASE_CAP).integrate(table)
    g = Poly.variable("g")
    return pushed.substitute({"h": 1, "d": 2 * g + 2 * r - 2}).in_context(("g",))


def _check_integer_valued(poly: Poly, var: str, count: int) -> None:
    # integer values at enough consecutive integers pin integrality everywhere
    for value in range(count):
        if poly.evaluate({var: value}).denominator != 1:
            raise ExactnessError(f"{poly} is not integer-valued at {var}={value}")


@lru_cache(maxsize=None)
def abelian_count(r: int) -> Poly:
    """N_{g,r} as a polynomial in g: curves of genus g with r nodes in the
    class, through g general points.  Degree r+1, integer-valued.  Cached
    per r (nine entries at most)."""
    result = _pushed_count(r, _POINT_INTEGRALS)
    _check_integer_valued(result, "g", r + 3)
    return result


@lru_cache(maxsize=None)
def fixed_class_count(r: int) -> Poly:
    """The fixed-linear-system variant: curves through g-2 general points in
    one linear equivalence class.  This is the fundamental-class coefficient
    of the grade-0 part of the r-nodal class; lower h powers push to zero.
    Cached per r (nine entries at most)."""
    return _pushed_count(r, {(0, 0): 1})


def divisor_sum(k: int) -> int:
    """sigma_1(k): the sum of the divisors of k."""
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    return sum(d for d in range(1, k + 1) if k % d == 0)


def _node_series(order: int) -> list[int]:
    """Coefficients of sum_{k>=1} k*sigma_1(k)*q^(k-1) up to q^order."""
    return [(j + 1) * divisor_sum(j + 1) for j in range(order + 1)]


def _series_mul(a: list, b: list, order: int) -> list:
    """Truncated product of series coefficient lists (ints or Fractions)."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def bryan_leung_count(g: int, r: int) -> int:
    """N_{g,r} from the generating function: g times the q^r coefficient of
    the (g-1)-st power of sum k*sigma_1(k)*q^(k-1).  Exact integers."""
    if g < 1:
        raise ValueError(f"g must be at least 1: {g}")
    if r < 0:
        raise ValueError(f"r must be non-negative: {r}")
    base = _node_series(r)
    power = [1] + [0] * r
    e = g - 1
    sq = base
    while e:
        if e & 1:
            power = _series_mul(power, sq, r)
        sq = _series_mul(sq, sq, r)
        e >>= 1
    return g * power[r]


def bryan_leung_log_coefficients(count: int = 8) -> list[int]:
    """The integers b_r with log(sum k*sigma_1(k)*q^(k-1)) = sum b_r q^r/r!.

    These are 6, -12, 168, -2448, ... and encode the per-genus factorization
    of the counts: evaluating the node polynomials with a_r = (g-1)*b_r
    reproduces N_{g,r}/g.
    """
    series = [Fraction(c) for c in _node_series(count)]
    u = series[:]
    u[0] -= 1  # log(1 + u) with u the positive-order part
    log = [Fraction(0)] * (count + 1)
    term = [Fraction(1)] + [Fraction(0)] * count
    for i in range(1, count + 1):
        term = _series_mul(term, u, count)
        sign = Fraction((-1) ** (i + 1), i)
        for j in range(count + 1):
            log[j] += sign * term[j]
    out = []
    for rr in range(1, count + 1):
        value = log[rr] * factorial(rr)
        if value.denominator != 1:
            raise ExactnessError(f"log coefficient b_{rr} is not an integer: {value}")
        out.append(value.numerator)
    return out


def abelian_validity(m: int, g: int, r: int) -> bool:
    """Whether the polynomial count is proven at (m, g, r).

    Primitive classes (m = 1) need g > 5r + 7; multiples need
    g > (3m^2 r + 3m^2 - 2mr + 2m + 2r - 2) / (2m - 2), compared exactly.
    """
    if m < 1:
        raise ValueError(f"class multiple must be positive: {m}")
    if r < 0:
        raise ValueError(f"r must be non-negative: {r}")
    if m == 1:
        return g > 5 * r + 7
    threshold = Fraction(3 * m * m * r + 3 * m * m - 2 * m * r + 2 * m + 2 * r - 2, 2 * m - 2)
    return Fraction(g) > threshold


def k_very_ample_ok(surface: str, m: int, d: int, k: int) -> bool:
    """Positivity test guaranteeing k-very ampleness of the class.

    For an abelian surface: m = 1 with d > 4(k+1), or m >= 2 with
    (m-1)d > m^2(k+1).  A K3 surface weakens the primitive case to d >= 4k;
    an Enriques surface needs only d >= 4(k+1) for any m.
    """
    if surface not in ("abelian", "k3", "enriques"):
        raise ValueError(f"unknown surface kind {surface!r}")
    if m < 1:
        raise ValueError(f"class multiple must be positive: {m}")
    if k < 0:
        raise ValueError(f"k must be non-negative: {k}")
    if surface == "enriques":
        return d >= 4 * (k + 1)
    multiple_case = m >= 2 and (m - 1) * d > m * m * (k + 1)
    if surface == "k3":
        return (m == 1 and d >= 4 * k) or multiple_case
    return (m == 1 and d > 4 * (k + 1)) or multiple_case
