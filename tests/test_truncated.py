"""Tests for the truncated class algebra and its integrals."""

from __future__ import annotations

import pytest

from nodepoly.abelian import _FIBER, _FIBER_CAP, _FIBER_INTEGRALS
from nodepoly.exactpoly import Poly, parse
from nodepoly.nodegen import node_polynomial
from nodepoly.truncated import Truncated, integrate, pushforward

#: x and y are graded (weights 1 and 2), a and b are coefficients.
WEIGHTS = {"x": 1, "y": 2}
CAP = 2
TABLE = {(2, 0): 3, (0, 1): Poly.variable("d")}


def cls(text: str) -> Truncated:
    return Truncated(parse(text), WEIGHTS, CAP)


class TestTruncated:
    def test_construction_truncates(self):
        assert cls("x^3 + x*y + y^2 + y + x^2*a + a^7").poly == parse("y + x^2*a + a^7")

    def test_a_scalar_is_a_constant(self):
        assert Truncated(5, WEIGHTS, CAP) == 5
        assert Truncated(0, WEIGHTS, CAP).poly.is_zero()

    def test_products_stay_reduced(self):
        x, y = cls("x + a"), cls("y")
        assert (x * x).poly == parse("x^2 + 2*a*x + a^2")
        assert (x * x * x).poly == parse("3*a*x^2 + 3*a^2*x + a^3")
        assert (x * y).poly == parse("a*y")
        assert (y * y).poly.is_zero()

    def test_sums_stay_reduced(self):
        x = cls("x")
        assert (x * x + 2 * x - cls("y")).poly == parse("x^2 + 2*x - y")
        assert (1 + x * x * x).poly == parse("1")
        assert isinstance(x * x + x, Truncated) and isinstance(3 * x, Truncated)


class TestIntegrate:
    def test_table(self):
        assert integrate(parse("x^2"), WEIGHTS, TABLE) == 3
        assert integrate(parse("a*y + b*x^2"), WEIGHTS, TABLE) == parse("a*d + 3*b")

    def test_monomial_with_no_key_is_zero(self):
        assert integrate(parse("x + x*y + y^2 + a + b*x^3"), WEIGHTS, TABLE).is_zero()

    def test_needs_no_truncation(self):
        # monomials above the cap have no key, so truncating first changes nothing
        poly = parse("x^5*a + x^2*y^3 + x^2*b + y")
        assert integrate(poly, WEIGHTS, TABLE) == integrate(
            poly.truncated(WEIGHTS, CAP), WEIGHTS, TABLE)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, -3), (0, 5)])
    def test_linear(self, alpha, beta):
        p, q = parse("a*x^2 + y + x"), parse("b*y - x^2 + a*b + 1/2*x^2*b")
        parts = alpha * integrate(p, WEIGHTS, TABLE) + beta * integrate(q, WEIGHTS, TABLE)
        assert integrate(alpha * p + beta * q, WEIGHTS, TABLE) == parts

    def test_carries_the_other_variables_in_their_order(self):
        poly = parse("b*x^2 + a*x*y + b*y + 3*a*x^2", ("b", "x", "a", "y"))
        result = integrate(poly, WEIGHTS, {(2, 0): 1})
        assert result.variables == ("b", "a")
        assert result == parse("b + 3*a")
        assert integrate(poly, WEIGHTS, TABLE).variables == ("b", "a", "d")

    def test_keys_follow_the_order_of_weights(self):
        poly = parse("x*y^2")
        assert integrate(poly, {"x": 1, "y": 2}, {(1, 2): 7}) == 7
        assert integrate(poly, {"y": 2, "x": 1}, {(2, 1): 7}) == 7
        assert integrate(poly, {"y": 2, "x": 1}, {(1, 2): 7}).is_zero()


class TestPushforward:
    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("w", [0, 2])
    def test_scalar_image_equals_the_poly_route(self, q, w):
        # the abelian fiber: v -> l + h, w1 -> w, w2 -> 0, truncated at l^5 = 0
        bq, v = node_polynomial(q), parse("l + h")
        scalar = pushforward(bq, {"v": v, "w1": w, "w2": 0}, _FIBER, _FIBER_CAP, _FIBER_INTEGRALS)
        images = {"v": v, "w1": Poly.constant(w, ("l",)), "w2": Poly.zero(("h",))}
        as_polys = pushforward(bq, images, _FIBER, _FIBER_CAP, _FIBER_INTEGRALS)
        substituted = bq.substitute(images).truncated(_FIBER, _FIBER_CAP)
        assert scalar == as_polys == integrate(substituted, _FIBER, _FIBER_INTEGRALS)
        assert not scalar.is_zero()
