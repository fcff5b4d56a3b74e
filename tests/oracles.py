"""Independent routes to published curve counts, used by the test suite.

These share no code with the node-polynomial route under test beyond exact
integer series arithmetic, so agreement is evidence for both.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, prod

from nodepoly.abelian import _series_mul, divisor_sum


def k3_counts(g: int, order: int) -> list[int]:
    """N_g(r) for r = 0..order on a K3 surface, by Bryan–Leung.

    N_g(r) counts the curves of geometric genus g with r nodes in a
    primitive class of self-intersection 2g + 2r - 2, through g general
    points.  Bryan and Leung, "The enumerative geometry of K3 surfaces and
    modular forms", J. AMS 13 (2000), prove

        sum_r N_g(r) q^(g+r-1) = (sum_k k*sigma_1(k)*q^k)^g / (q * prod_m (1 - q^m)^24)

    so N_g(r) is the q^r coefficient of
    (sum_k k*sigma_1(k)*q^(k-1))^g / prod_m (1 - q^m)^24.  For g = 0 this is
    the Yau–Zaslow count of rational curves.
    """
    series = [1] + [0] * order
    for m in range(1, order + 1):  # divide by (1 - q^m), 24 times
        for _ in range(24):
            for i in range(m, order + 1):
                series[i] += series[i - m]
    node = [k * divisor_sum(k) for k in range(1, order + 2)]
    for _ in range(g):
        series = _series_mul(series, node, order)
    return series


def grassmannian_integral(integrand, k: int, weights=(3, 17, -5, 29, 41)) -> Fraction:
    """The integral over G(k, n) of a class given by ``integrand(roots)``.

    G(k, n) parametrizes k-dimensional subspaces S of C^n, n = len(weights).
    ``integrand`` takes the Chern roots of S* at a fixed point and returns
    the class there as an integer.  By the Bott residue formula (Ellingsrud
    and Strømme, "Bott's formula and enumerative geometry", J. AMS 9 (1996))
    a torus acting on C^n with distinct integer weights t fixes the
    coordinate subspaces S_I, one per k-subset I; there S* has Chern roots
    -t_i (i in I) and the tangent space Hom(S, C^n/S) has weights
    t_j - t_i (i in I, j not in I), so

        integral = sum_I integrand(-t_I) / prod (t_j - t_i).

    The sum does not depend on the weights when the integrand has the
    dimension k(n - k) as its degree.
    """
    total = Fraction(0)
    for subset in combinations(range(len(weights)), k):
        euler = prod(weights[j] - weights[i] for i in subset
                     for j in range(len(weights)) if j not in subset)
        total += Fraction(integrand([-weights[i] for i in subset]), euler)
    return total


def plane_severi_degree(d: int, delta: int) -> int:
    """N^{d,delta}: plane curves of degree d with delta nodes through
    d(d+3)/2 - delta general points, by the Caporaso–Harris recursion.

    Caporaso and Harris, "Counting plane curves of any genus", Invent.
    Math. 131 (1998), count the curves N^{d,delta}(alpha, beta) that meet a
    fixed line L with contact of order k at alpha_k given points of L and at
    beta_k further points, through 2d + g - 1 + |beta| general points
    (g = (d-1)(d-2)/2 - delta).  Moving one general point onto L gives

        N^{d,delta}(alpha, beta) = sum_k k N^{d,delta}(alpha + e_k, beta - e_k)
            + sum (alpha choose alpha') (beta' choose beta) I^(beta' - beta)
                  N^{d-1,delta'}(alpha', beta')

    where the first sum runs over the k with beta_k > 0 (a moving contact
    point becomes the moved point) and the second over the curves that
    contain L: alpha' <= alpha, beta' >= beta, I alpha' + I beta' = d - 1 and
    delta - delta' + |beta' - beta| = d - 1, with I alpha = sum k alpha_k and
    I^beta = prod k^beta_k.  The count asked for is N^{d,delta}(0, d e_1).
    Curves may be reducible, as the node polynomials count them.
    """
    return _caporaso_harris(d, delta, (), (d,))


@cache
def _caporaso_harris(d: int, delta: int, alpha: tuple, beta: tuple) -> int:
    # alpha[k-1], beta[k-1]: contacts of order k, with no trailing zeros
    points = 2 * d + (d - 1) * (d - 2) // 2 - delta - 1 + sum(beta)
    if d == 0:
        return int(delta == 0)
    if delta < 0 or points <= 0:  # every nonempty family has a point per component
        return 0
    total = 0
    for k, b in enumerate(beta, start=1):
        if b:
            total += k * _caporaso_harris(d, delta, _bump(alpha, k, 1), _bump(beta, k, -1))
    for sub in product(*(range(a + 1) for a in alpha)):
        sub_alpha = _trim(sub)
        room = d - 1 - _weight(sub_alpha) - _weight(beta)
        if room < 0:
            continue
        factor = prod(comb(a, s) for a, s in zip(alpha, sub_alpha))
        for extra in _partitions(room, room):
            sub_beta = beta
            for k in extra:
                sub_beta = _bump(sub_beta, k, 1)
            chosen = prod(comb(n, b) for n, b in zip(sub_beta, beta))
            total += (factor * chosen * prod(extra)
                      * _caporaso_harris(d - 1, delta - d + 1 + len(extra), sub_alpha, sub_beta))
    return total


def _bump(vector: tuple, k: int, step: int) -> tuple:
    """``vector`` with ``step`` added at order k."""
    out = list(vector) + [0] * (k - len(vector))
    out[k - 1] += step
    return _trim(out)


def _trim(vector) -> tuple:
    out = list(vector)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _weight(vector: tuple) -> int:
    return sum(k * n for k, n in enumerate(vector, start=1))


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)
