"""Complete Bell polynomials.

P_n is the polynomial in a_1..a_n defined by the exponential identity

    sum_{i>=0} P_i t^i / i!  =  exp( sum_{j>=1} a_j t^j / j! )

so P_0 = 1, P_1 = a_1, P_2 = a_1^2 + a_2, P_3 = a_1^3 + 3*a_1*a_2 + a_3.
Assigning a_j weight j makes P_n weighted homogeneous of degree n, and all
coefficients are positive integers.

The constructive path used here is the binomial recurrence obtained by
differentiating the identity in t:

    P_{n+1} = sum_{k=0}^{n} C(n, k) * a_{k+1} * P_{n-k}

Evaluation substitutes ring elements for the a_j, so the same polynomials
drive exact counts over plain rationals and over the back ends' polynomial
classes.  Truncating above a weighted degree is a ring homomorphism, so the
class of truncated arguments is the truncation of the class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Any, Sequence

from .exactpoly import Poly, evaluate_in

#: Orders above this are refused to bound term growth; the counts computed
#: by this package need n <= 8.
MAX_ORDER = 16


def _symbol(j: int) -> str:
    return f"a{j}"


@lru_cache(maxsize=None)
def bell_polynomial(n: int) -> Poly:
    """The complete Bell polynomial P_n as a polynomial in a1..an."""
    if n < 0:
        raise ValueError(f"order must be non-negative: {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    if n == 0:
        return Poly.constant(1)
    # P_n = sum_{k=0}^{n-1} C(n-1, k) a_{k+1} P_{n-1-k}
    total = Poly.zero(tuple(_symbol(j) for j in range(1, n + 1)))
    for k in range(n):
        total = total + comb(n - 1, k) * Poly.variable(_symbol(k + 1)) * bell_polynomial(n - 1 - k)
    return total


def bell_value(n: int, values: Sequence[Any], one: Any = Fraction(1)) -> Any:
    """P_n evaluated at the first n entries of ``values``.

    The entries live in any commutative ring with + and *; ``one`` is that
    ring's identity (used when n = 0).
    """
    if len(values) < n:
        raise ValueError(f"need {n} values, got {len(values)}")
    symbolic = bell_polynomial(n)
    assignment = {_symbol(j + 1): values[j] for j in range(n)}
    return evaluate_in(symbolic, assignment, one)


def nodal_class(aq: Sequence[Any], one: Any) -> Any:
    """The r-nodal class P_r(a_1,...,a_r)/r!, with r = len(aq), in the ring of ``one``."""
    r = len(aq)
    return bell_value(r, aq, one) * Fraction(1, factorial(r))
