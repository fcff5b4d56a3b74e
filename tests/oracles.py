"""Independent routes to published curve counts, used by the test suite.

This module is stdlib only: it imports nothing from ``nodepoly``, so it
shares no code with the routes under test, and agreement is evidence for
both.  A route that needs the node polynomials b_q takes an evaluator for
them as an argument.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod


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
    return _series_product(series, node_series_power(g, order))


def node_series_power(e: int, order: int) -> list[int]:
    """The coefficients of F^e up to q^order, F = sum_k k*sigma_1(k)*q^(k-1),
    by e repeated truncated products.

    F generates Bryan and Leung's counts on K3 surfaces (``k3_counts``) and
    on abelian surfaces (Duke Math. J. 99 (1999)), where the curves of genus
    g with r nodes through g points number g times the q^r coefficient of
    F^(g-1).
    """
    node = [k * sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, order + 2)]
    power = [1] + [0] * order
    for _ in range(e):
        power = _series_product(power, node)
    return power


def _series_product(a: list, b: list) -> list:
    """The product of two series of the same length, truncated to that length."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _residue(value, tangent, weights) -> Fraction:
    """``value`` divided by the Euler class of a fixed point's tangent space.

    Raises ValueError, naming the torus ``weights``, when a tangent weight
    is 0: the weights are not generic enough for this space (two repeat, or
    two sums of them coincide).
    """
    euler = prod(tangent)
    if not euler:
        raise ValueError(f"the torus weights {tuple(weights)} give a fixed point with "
                         f"tangent weights {tuple(tangent)}, one of them 0")
    return Fraction(value, euler)


def grassmannian_integral(integrand, k: int, weights=(3, 17, -5, 29, 41)) -> Fraction:
    """The integral over G(k, n) of a class given by ``integrand(roots)``.

    G(k, n) parametrizes k-dimensional subspaces S of C^n, n = len(weights).
    ``integrand`` takes the Chern roots of S* at a fixed point and returns
    the class there as an integer or a ``Fraction``.  By the Bott residue
    formula (Ellingsrud and Strømme, "Bott's formula and enumerative
    geometry", J. AMS 9 (1996)) a torus acting on C^n with distinct integer
    weights t fixes the
    coordinate subspaces S_I, one per k-subset I; there S* has Chern roots
    -t_i (i in I) and the tangent space Hom(S, C^n/S) has weights
    t_j - t_i (i in I, j not in I), so

        integral = sum_I integrand(-t_I) / prod (t_j - t_i).

    The sum does not depend on the weights when the integrand has the
    dimension k(n - k) as its degree.  Repeated weights raise ValueError.
    """
    total = Fraction(0)
    for subset in combinations(range(len(weights)), k):
        tangent = [weights[j] - weights[i] for i in subset
                   for j in range(len(weights)) if j not in subset]
        total += _residue(integrand([-weights[i] for i in subset]), tangent, weights)
    return total


def _fiber_aq(bq, r: int, roots, v) -> list[Fraction]:
    """a_1..a_r at a fixed point S_I of the base of the plane bundle P(S).

    ``roots`` are the Chern roots rho_i of S* and ``v[i]`` the divisor class
    at the fiber's fixed point e_i, where the hyperplane class is f = rho_i.
    The relative cotangent bundle there has the weights rho_j - rho_i
    (j != i), whose sum and product are w1 and w2, and the relative tangent
    bundle has their negatives.  Localizing on the fiber,

        a_q = sum_i b_q(v[i], w1, w2) / prod_j (rho_i - rho_j).
    """
    weights = [-rho for rho in roots]
    aq = [Fraction(0)] * r
    for i, f in enumerate(roots):
        cotangent = [rho - f for j, rho in enumerate(roots) if j != i]
        w1, w2 = sum(cotangent), prod(cotangent)
        tangent = [-x for x in cotangent]
        for q in range(1, r + 1):
            aq[q - 1] += _residue(bq(q, v[i], w1, w2), tangent, weights)
    return aq


def plane_bundle_class(bq, r: int, m: int):
    """The integrand, for ``grassmannian_integral`` over G(3, n), of the
    r-nodal plane curves cut by a degree-m hypersurface in P^(n-1).

    ``bq(q, v, w1, w2)`` is the value of the node polynomial b_q.  The family
    is the plane bundle P(S) over G(3, n) with v = m*f; the class is
    P_r(a_1, ..., a_r)/r! with a_q from ``_fiber_aq``.  This route uses
    neither the back end's fiber table, its degree-6 table nor its images of
    w1, w2.
    """
    def integrand(roots):
        return complete_bell(_fiber_aq(bq, r, roots, [m * f for f in roots])) / factorial(r)

    return integrand


def conics_on_quintic(weights=(2, 11, 37, 101, 263)) -> Fraction:
    """The conics on a general quintic threefold in P^4: 609250.

    A conic spans a plane, so the conics form the projective bundle
    P(Sym^2 S*) over G(3, 5), of dimension 11.  The quintic's equation
    restricted to a conic is a section of E = Sym^5 S* / (O(-1) ⊗ Sym^3 S*),
    of rank 11, and the count is the integral of its top Chern class.  A
    fixed point is a coordinate plane S_I with a monomial conic x_a*x_b
    (a, b in I), where x_i has weight -t_i: 60 in all.  Its tangent weights
    are those of G(3, 5) and, along the fiber, w(x') - w(x_a*x_b) for the
    five other quadratic monomials x' in x_I; e(E) there is the product of
    the weights of the 11 quintic monomials in x_I that x_a*x_b does not
    divide.  Weights with two equal sums of two, such as (3, 17, -5, 29, 41),
    leave a zero fiber weight and raise ValueError.
    """
    def weight(monomial):
        return -sum(weights[i] for i in monomial)

    total = Fraction(0)
    for subset in combinations(range(len(weights)), 3):
        base = [weights[j] - weights[i] for i in subset
                for j in range(len(weights)) if j not in subset]
        quadrics = list(combinations_with_replacement(subset, 2))
        quintics = list(combinations_with_replacement(subset, 5))
        for conic in quadrics:
            fiber = [weight(other) - weight(conic) for other in quadrics if other != conic]
            sections = [weight(quintic) for quintic in quintics
                        if not Counter(conic) <= Counter(quintic)]
            total += _residue(prod(sections), base + fiber, weights)
    return total


def residual_binodal_per_line(bq, m: int, weights=(2, 11, 37, 101, 263)) -> Fraction:
    """The binodal residual curves of degree m - 1 in the planes through a
    line on a general degree-m threefold in P^4: 1185 on the quintic.

    The planes through the coordinate line W = <e_0, e_1> form a P^2, with
    fixed points S = W + <e_k> (k = 2..4) and tangent weights t_j - t_k
    (j not in {0, 1, k}).  On such a plane the threefold's equation F,
    which vanishes on the line, factors as F = x_k * G: the residual curve
    G has degree m - 1, and its divisor class is that of F, m*f, less that
    of x_k.  The coordinate x_k has weight rho_k = -t_k, so as a section of
    O(1) its divisor has class f - rho_k, and v = (m - 1)*f + rho_k.  The
    residual curve lies in the same plane, so w1 and w2 are the plane's, and
    the count is the integral of P_2(a_1, a_2)/2 over the P^2.
    """
    total = Fraction(0)
    for k in range(2, len(weights)):
        roots = [-weights[0], -weights[1], -weights[k]]
        tangent = [weights[j] - weights[k] for j in range(2, len(weights)) if j != k]
        v = [(m - 1) * f + roots[2] for f in roots]
        total += _residue(complete_bell(_fiber_aq(bq, 2, roots, v)) / 2, tangent, weights)
    return total


def jet_bundle_top_class(k: int, alpha, beta, v):
    """The top Chern class of J^k(L), the bundle of principal parts of order k
    of a line bundle L on a surface, at Chern roots.

    J^k(L) is filtered with graded pieces Sym^i(Omega) (x) L for i = 0..k, so
    with alpha, beta the Chern roots of the cotangent bundle Omega
    (w1 = alpha + beta, w2 = alpha*beta) and v = c_1(L), its Chern roots are
    v + i*alpha + j*beta over i + j <= k, and its rank is (k+1)(k+2)/2.  The
    class counts the points where a curve of the linear system has
    multiplicity > k: Kleiman, "The enumerative theory of singularities"
    (1977), and Kleiman–Piene, "Enumerating singular curves on surfaces",
    Contemp. Math. 241 (1999).
    """
    return prod(v + i * alpha + j * beta for i in range(k + 1) for j in range(k + 1 - i))


def term_by_term(poly, values, one):
    """``poly`` at ``values``, named by its variables, in any ring with identity ``one``:
    each term of ``poly.terms`` by ``**`` and ``*``, and the terms summed by ``+``."""
    total = 0 * one
    for exps, c in poly.terms.items():
        term = c * one
        for name, e in zip(poly.variables, exps):
            term = term * values[name] ** e
        total = total + term
    return total


def complete_bell(a) -> Fraction:
    """P_n(a_1, ..., a_n), n = len(a), by P_{k+1} = sum_j C(k, j) a_{j+1} P_{k-j}."""
    p = [Fraction(1)]
    for k in range(len(a)):
        p.append(sum(comb(k, j) * a[j] * p[k - j] for j in range(k + 1)))
    return p[-1]


def bell_by_series(a, one):
    """P_n(a_1, ..., a_n), n = len(a), in any ring with identity ``one``: n! times
    the t^n coefficient of exp(U) = sum_i U^i/i!, U = sum_j a_j t^j/j!.  Uses
    ``+``, ``*`` and exact scalars only."""
    n, zero = len(a), 0 * one
    u = [zero] + [Fraction(1, factorial(j)) * a[j - 1] for j in range(1, n + 1)]
    power = [one] + [zero] * n  # the coefficients of t^0..t^n in U^i, from i = 0
    total = power[n]
    for i in range(1, n + 1):
        power = [sum((power[k] * u[m - k] for k in range(i - 1, m)), zero) for m in range(n + 1)]
        total = total + Fraction(1, factorial(i)) * power[n]
    return factorial(n) * total


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


#: The generator's fixed inputs x2, x3, x4 and the multiplier of x4, as the
#: recursion for the node polynomials prints them: maps from the exponents of
#: v^a * w1^b * w2^c, keyed (a, b, c), to the coefficients.
X2 = {(3, 0, 0): 1, (2, 1, 0): 1, (1, 0, 1): 1}
X3 = {
    (6, 0, 0): 1, (5, 1, 0): 4, (4, 2, 0): 5, (4, 0, 1): 5, (3, 3, 0): 2, (3, 1, 1): 11,
    (2, 2, 1): 6, (2, 0, 2): 4, (1, 1, 2): 4,
}
X4 = {
    (10, 0, 0): 1, (9, 1, 0): 10, (8, 2, 0): 40, (8, 0, 1): 15, (7, 3, 0): 82,
    (7, 1, 1): 111, (6, 4, 0): 91, (6, 2, 1): 315, (6, 0, 2): 63, (5, 5, 0): 52,
    (5, 3, 1): 29, (5, 1, 2): 324, (4, 6, 0): 12, (4, 4, 1): 282, (4, 2, 2): 593,
    (4, 0, 3): 85, (3, 5, 1): 72, (3, 3, 2): 464, (3, 1, 3): 259, (2, 4, 2): 132,
    (2, 2, 3): 246, (2, 0, 4): 36, (1, 3, 3): 72, (1, 1, 4): 36,
}
X4_MULTIPLIER = 3281 * factorial(7)


@cache
def node_polynomials_by_recursion() -> tuple[dict, ...]:
    """b_1..b_8 by the recursion of the node-polynomial generator (s = q - 1):

        b_{s+1} = P_s(Q(2,b_1),...,Q(2,b_s)) * x2
                  - s(s-1)(s-2) * P_{s-3}(Q(3,b_1),...,Q(3,b_{s-3})) * x3
                  + [s = 7] * 3281 * 7! * x4

    Each b_q is a map from the exponents (a, b, c) of v^a * w1^b * w2^c to
    the integer coefficient.  Polynomials here are such maps, with a fourth
    exponent for e inside ``_q_transform``; P_n comes from the exponential
    series (``_bell_by_partitions``).
    """
    b: list[dict] = []
    q2: list[dict] = []
    q3: list[dict] = []
    for s in range(8):
        bq = poly_product(_bell_by_partitions(q2), X2)
        if s >= 3:
            bq = poly_sum(bq, poly_product(_bell_by_partitions(q3[:s - 3]), X3),
                          -s * (s - 1) * (s - 2))
        if s == 7:
            bq = poly_sum(bq, X4, X4_MULTIPLIER)
        b.append(bq)
        q2.append(_q_transform(2, bq))
        q3.append(_q_transform(3, bq))
    return tuple(b)


def poly_sum(x: dict, y: dict, scale=1) -> dict:
    """x + scale * y, for maps from exponent tuples to coefficients, without zeros."""
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def poly_product(x: dict, y: dict) -> dict:
    """x * y, for maps from exponent tuples to coefficients, without zeros."""
    out: dict = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            key = tuple(i + j for i, j in zip(kx, ky))
            out[key] = out.get(key, 0) + cx * cy
    return {key: c for key, c in out.items() if c}


def _bell_by_partitions(a: list[dict]) -> dict:
    """P_n(a_1, ..., a_n), n = len(a), read off the exponential series.

    exp(sum_j a_j t^j/j!) = prod_j sum_m a_j^m t^(j*m) / ((j!)^m * m!), so the
    coefficient of t^n/n! is the sum over the partitions of n, with m_j parts
    j, of n! / prod_j ((j!)^m_j * m_j!) * prod_j a_j^m_j.
    """
    n = len(a)
    total: dict = {}
    for parts in _partitions(n, n):
        weight, term = factorial(n), {(0, 0, 0): 1}
        for j, m in Counter(parts).items():
            weight //= factorial(j) ** m * factorial(m)
            for _ in range(m):
                term = poly_product(term, a[j - 1])
        total = poly_sum(total, term, weight)
    return total


def _q_transform(i: int, poly: dict) -> dict:
    """Q(i, R): substitute v -> v - i*e, w1 -> w1 + e, w2 -> w2 - e^2, reduce
    by e^3 = -w1*e^2 - w2*e until the degree in e is at most 2, and negate
    the coefficient of e^2."""
    out: dict = {}
    for (a, b, c), coeff in poly.items():
        for j, k, m in product(range(a + 1), range(b + 1), range(c + 1)):
            key = (a - j, b - k, c - m, j + k + 2 * m)
            term = coeff * comb(a, j) * (-i) ** j * comb(b, k) * comb(c, m) * (-1) ** m
            out[key] = out.get(key, 0) + term
    for degree in range(max((key[3] for key in out), default=0), 2, -1):
        for (a, b, c, e) in [key for key in out if key[3] == degree]:
            coeff = out.pop((a, b, c, e))
            for key in ((a, b + 1, c, e - 1), (a, b, c + 1, e - 2)):
                out[key] = out.get(key, 0) - coeff
    return {(a, b, c): -coeff for (a, b, c, e), coeff in out.items() if e == 2 and coeff}
