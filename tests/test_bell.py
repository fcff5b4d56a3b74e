"""Tests for the complete Bell polynomials."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest

from nodepoly.bell import MAX_ORDER, bell_polynomial, bell_value, nodal_class
from nodepoly.exactpoly import Poly, parse


def series_exponentiation(n: int) -> Poly:
    """Oracle: truncated formal exponentiation of sum a_j t^j / j!.

    Works with lists of Poly coefficients in t (index = power of t) and
    returns n! times the t^n coefficient of the exponential.
    """
    ctx = tuple(f"a{j}" for j in range(1, n + 1))
    # u[j] = a_j / j! for j >= 1
    u = [Poly.zero(ctx)] + [Poly.variable(f"a{j}", ctx) / factorial(j) for j in range(1, n + 1)]
    total = [Poly.zero(ctx) for _ in range(n + 1)]
    total[0] = Poly.constant(1, ctx)
    term = [Poly.zero(ctx) for _ in range(n + 1)]
    term[0] = Poly.constant(1, ctx)
    for i in range(1, n + 1):
        # term <- term * u, truncated at t^n
        new = [Poly.zero(ctx) for _ in range(n + 1)]
        for a in range(n + 1):
            if term[a].is_zero():
                continue
            for b in range(1, n + 1 - a):
                new[a + b] = new[a + b] + term[a] * u[b]
        term = [t / i for t in new]
        for j in range(n + 1):
            total[j] = total[j] + term[j]
    return total[n] * factorial(n)


class TestSymbolic:
    def test_first_orders(self):
        assert bell_polynomial(0) == Poly.constant(1)
        assert bell_polynomial(1) == Poly.variable("a1")
        assert bell_polynomial(2) == parse("a1^2 + a2", ("a1", "a2"))
        assert bell_polynomial(3) == parse("a1^3 + 3*a1*a2 + a3", ("a1", "a2", "a3"))

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_series_oracle(self, n):
        assert bell_polynomial(n) == series_exponentiation(n)

    @pytest.mark.parametrize("n", range(11))
    def test_weighted_homogeneity(self, n):
        weights = {f"a{j}": j for j in range(1, n + 1)}
        assert bell_polynomial(n).is_weighted_homogeneous(weights, n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_positive_integer_coefficients(self, n):
        for coeff in bell_polynomial(n).terms.values():
            assert coeff.denominator == 1 and coeff > 0

    def test_order_cap(self):
        with pytest.raises(ValueError):
            bell_polynomial(MAX_ORDER + 1)
        with pytest.raises(ValueError):
            bell_polynomial(-1)


# a_q values of the plane back end at m=1 and m=2 (from the quadratic table)
PLANE_AQ_AT_1 = [0, 0, 450]
PLANE_AQ_AT_2 = [3, -9, -138]


class TestEvaluation:
    def test_plane_values_at_m1(self):
        value = bell_value(3, [Fraction(a) for a in PLANE_AQ_AT_1])
        assert value == 450
        assert value / factorial(3) == 75

    def test_plane_values_at_m2(self):
        value = bell_value(3, [Fraction(a) for a in PLANE_AQ_AT_2])
        assert value == -192
        assert value / factorial(3) == -32

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_zero_values(self, n):
        assert bell_value(n, [Fraction(0)] * n) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bell_value(3, [Fraction(1)])

    def test_polynomial_context(self):
        m = Poly.variable("m")
        one = Poly.constant(1, ("m",))
        assert bell_value(2, [m, m * m], one) == m * m + m * m
        assert bell_value(0, [], one) == one

    def test_matches_direct_recurrence_on_numbers(self):
        # P_{k+1} = sum C(k, j) a_{j+1} P_{k-j} evaluated at a_j = j
        values = [Fraction(j) for j in range(1, 9)]
        direct = [Fraction(1)]
        for k in range(8):
            direct.append(
                sum(comb(k, j) * values[j] * direct[k - j] for j in range(k + 1))
            )
        for n in range(9):
            assert bell_value(n, values) == direct[n]


class TestNodalClass:
    def test_plane_counts(self):
        assert nodal_class([Fraction(a) for a in PLANE_AQ_AT_1], Fraction(1)) == 75
        assert nodal_class([Fraction(a) for a in PLANE_AQ_AT_2], Fraction(1)) == -32

    def test_two_nodes(self):
        a1, a2 = parse("3*m + 1"), parse("m^2 - 2")
        one = Poly.constant(1, ("m",))
        assert nodal_class([a1, a2], one) == (a1 * a1 + a2) / 2

    def test_no_nodes_is_one(self):
        one = Poly.constant(1, ("m",))
        assert nodal_class([], one) == one

    def test_truncated_ring(self):
        # truncating the arguments, then the class, equals truncating the class
        aq = [parse("x + 2*y"), parse("x^2 - y + x^3*y"), parse("x*y + 3")]
        weights, cap = {"x": 1}, 2
        one = Poly.constant(1)
        reduced = [a.truncated(weights, cap) for a in aq]
        assert reduced != aq
        truncated = nodal_class(reduced, one).truncated(weights, cap)
        assert truncated == nodal_class(aq, one).truncated(weights, cap)
        assert truncated != nodal_class(aq, one)
