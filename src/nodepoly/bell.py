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
scalars, moved into one variable context first, as the kernel's one loop
``bell_recurrence``: on integer numerators over D^k, D the lcm of the values'
denominators, reduced once at the end.  So the same construction gives
exact counts over plain rationals, the back ends' polynomial classes and, at
the symbols a_1..a_n, ``bell_polynomial`` itself.  Truncating above a
weighted degree is a ring homomorphism, so the class of truncated arguments
is the truncation of the class.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .exactpoly import Poly, Scalar, bell_recurrence, in_one_context

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
    # the basis is the values themselves: a_{j+1} is row j, (0, ..., 0, 1)
    rows = [(0,) * j + (1,) for j in range(n)]
    value = bell_recurrence(unit, [images[j] for j in range(1, n + 1)], rows)
    return value if any(isinstance(a, Poly) for a in args) else value.constant_value()


def nodal_class(aq: Sequence[Poly | Scalar], one: Poly | Scalar) -> Poly | Fraction:
    """The r-nodal class P_r(a_1,...,a_r)/r!, with r = len(aq), in the ring of ``one``."""
    r = len(aq)
    return bell_value(r, aq, one) * Fraction(1, factorial(r))
