"""Independent routes to published curve counts, used by the test suite.

These share no code with the node-polynomial route under test beyond exact
integer series arithmetic, so agreement is evidence for both.
"""

from __future__ import annotations

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
