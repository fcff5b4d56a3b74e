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
(no division by d ever occurs).  The r-nodal class, the Bell polynomial in
the a_q, is truncated once above base grade 2, where classes on the dual
surface vanish; truncation is a ring map, so truncating the a_q first would
give the same class.  Together with the top integrals

    integral C1^2 = d        integral C2 = d/2 - 1

and the Segre pushforwards of powers of h, the count of irreducible curves
of geometric genus g with r nodes through g general points becomes a
polynomial N_{g,r} in g of degree r+1, after substituting the adjunction
relation d = 2g + 2r - 2.

An independent route to the same numbers is the generating function

    sum_{r>=0} (N_{g,r}/g) q^r = ( sum_{k>=1} k*sigma_1(k)*q^(k-1) )^(g-1)

with sigma_1 the divisor sum; ``bryan_leung_count`` takes the power and
``bryan_leung_log_coefficients`` the log of that series by the classical
recurrences (Knuth, TAOCP vol. 2, 4.7).  The suite checks the two routes agree.

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

from .bell import nodal_class
from .exactpoly import ExactnessError, Poly, integer, integrate, parse
from .nodegen import node_polynomial

#: The fiber grading, and integration over the first factor, keyed by the
#: exponent of l.
_FIBER = {"l": 1}
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
_TOTAL_GRADE = {**_BASE, "h": 1, "d": 0}

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
    images = {"v": parse("l + h"), "w1": 0, "w2": 0}
    aq = integrate(node_polynomial(q).substitute(images), _FIBER, _FIBER_INTEGRALS)
    aq = aq.in_context(_AQ_CONTEXT)
    if aq.denominator != 1:
        raise ExactnessError(f"a_{q} picked up a rational coefficient; route bug")
    return aq


@lru_cache(maxsize=None)
def nodal_locus_class(r: int) -> Poly:
    """The class of the r-nodal locus on Y: P_r(a_1,...,a_r)/r!.

    A polynomial in (C1, C2, h, d) of total grade r, truncated to base grade
    at most 2.  Cached per r (nine entries at most).
    """
    if not 0 <= r <= 8:
        raise ValueError(f"r must be in 0..8: {r}")
    aq = [abelian_aq(q) for q in range(1, r + 1)]
    cls = nodal_class(aq, Poly.constant(1, _AQ_CONTEXT)).truncated(_BASE, _BASE_CAP)
    if not cls.is_weighted_homogeneous(_TOTAL_GRADE, r):
        raise ExactnessError(f"the {r}-nodal class is not pure of total grade {r}")
    return cls


def _pushed_count(r: int, table: dict) -> Poly:
    """Integrate the r-nodal class through a base table, as a polynomial in g.

    Purity fixes the h power of each base monomial, so h is set to 1, and d
    is eliminated by adjunction, d = 2g + 2r - 2.
    """
    pushed = integrate(nodal_locus_class(r), _BASE, table)
    g = Poly.variable("g")
    return pushed.substitute({"h": 1, "d": 2 * g + 2 * r - 2}).in_context(("g",))


@lru_cache(maxsize=None)
def abelian_count(r: int) -> Poly:
    """N_{g,r} as a polynomial in g: curves of genus g with r nodes in the
    class, through g general points.  Degree r+1, integer-valued.  Cached
    per r (nine entries at most)."""
    result = _pushed_count(r, _POINT_INTEGRALS)
    for g in range(r + 3):  # integer values at enough consecutive integers pin them all
        integer(result.evaluate({"g": g}), f"the count at r={r}, g={g}")
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


@lru_cache(maxsize=None)
def _node_series(order: int) -> tuple[int, ...]:
    """Coefficients of sum_{k>=1} k*sigma_1(k)*q^(k-1) up to q^order, cached per order."""
    return tuple(k * divisor_sum(k) for k in range(1, order + 2))


def bryan_leung_count(g: int, r: int) -> int:
    """N_{g,r} from the generating function: g times the q^r coefficient of
    p = F^(g-1), F = sum k*sigma_1(k)*q^(k-1), by the power recurrence
    n*p_n = sum_{k=1..n} (g*k - n)*F_k*p_{n-k}, F_0 = 1.  Exact integers: each
    step divides by n with ``divmod``, and a nonzero remainder raises ExactnessError."""
    if g < 1:
        raise ValueError(f"g must be at least 1: {g}")
    if r < 0:
        raise ValueError(f"r must be non-negative: {r}")
    series = _node_series(r)
    power = [1]
    for n in range(1, r + 1):
        total = sum((g * k - n) * series[k] * power[n - k] for k in range(1, n + 1))
        p, rest = divmod(total, n)
        if rest:
            integer(Fraction(total, n), f"the q^{n} coefficient of F^{g - 1}")
        power.append(p)
    return g * power[r]


def bryan_leung_log_coefficients(count: int = 8) -> list[int]:
    """The integers b_r with log(sum k*sigma_1(k)*q^(k-1)) = sum b_r q^r/r!.

    These are 6, -12, 168, -2448, ... and encode the per-genus factorization
    of the counts: evaluating the node polynomials with a_r = (g-1)*b_r
    reproduces N_{g,r}/g.  For l = log F, F that series, the log recurrence
    n*l_n = n*F_n - sum_{k=1..n-1} k*l_k*F_{n-k} runs on the integers n*l_n,
    and b_n = n!*l_n = (n-1)! * n*l_n.
    """
    series = _node_series(count)
    scaled = [0]  # scaled[n] = n * l_n
    for n in range(1, count + 1):
        scaled.append(n * series[n] - sum(scaled[k] * series[n - k] for k in range(1, n)))
    return [scaled[n] * factorial(n - 1) for n in range(1, count + 1)]


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
