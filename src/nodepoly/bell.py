"""Complete Bell polynomials.

P_n is the polynomial in a_1..a_n defined by the exponential identity

    sum_{i>=0} P_i t^i / i!  =  exp( sum_{j>=1} a_j t^j / j! )

so P_0 = 1, P_1 = a_1, P_2 = a_1^2 + a_2, P_3 = a_1^3 + 3*a_1*a_2 + a_3.
Assigning a_j weight j makes P_n weighted homogeneous of degree n, and all
coefficients are positive integers.

The constructive path used here is the binomial recurrence obtained by
differentiating the identity in t:

    P_{n+1} = sum_{k=0}^{n} C(n, k) * a_{k+1} * P_{n-k}

``bell_value`` runs this recurrence on the values themselves, polynomials or
scalars, moved into one variable context first; each P_{k+1} is one sum of
products, accumulated in one coefficient map.  So the same construction gives
exact counts over plain rationals, the back ends' polynomial classes and, at
the symbols a_1..a_n, ``bell_polynomial`` itself.  Truncating above a
weighted degree is a ring homomorphism, so the class of truncated arguments
is the truncation of the class.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .exactpoly import Poly, Scalar, in_one_context, sum_of_products

#: Orders above this are refused to bound term growth; the counts computed
#: by this package need n <= 8.
MAX_ORDER = 16


def bell_polynomial(n: int) -> Poly:
    """The complete Bell polynomial P_n as a polynomial in a1..an."""
    return bell_value(n, [Poly.variable(f"a{j}") for j in range(1, n + 1)], Poly.constant(1))


def bell_value(
    n: int, values: Sequence[Poly | Scalar], one: Poly | Scalar = Fraction(1)
) -> Poly | Fraction:
    """P_n evaluated at the first n entries of ``values``.

    ``one`` is the identity of the ring the values live in; its context joins
    theirs.  The result is a ``Poly`` when ``one`` or one of those n values is a
    ``Poly``, else a ``Fraction``.
    """
    if len(values) < n:
        raise ValueError(f"need {n} values, got {len(values)}")
    if n < 0:
        raise ValueError(f"order must be non-negative: {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    args = [one, *values[:n]]
    images, unit = in_one_context(dict(enumerate(args)))
    bell = [unit]
    for k in range(n):
        # P_{k+1} = sum_{j=0}^{k} C(k, j) a_{j+1} P_{k-j}
        terms = [(comb(k, j), images[j + 1], bell[k - j]) for j in range(k + 1)]
        bell.append(sum_of_products(terms))
    return bell[n] if any(isinstance(a, Poly) for a in args) else bell[n].constant_value()


def nodal_class(aq: Sequence[Poly | Scalar], one: Poly | Scalar) -> Poly | Fraction:
    """The r-nodal class P_r(a_1,...,a_r)/r!, with r = len(aq), in the ring of ``one``."""
    r = len(aq)
    return bell_value(r, aq, one) * Fraction(1, factorial(r))
