"""Unit and property tests for the exact polynomial substrate."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodepoly
from nodepoly import abelian, nodegen
from nodepoly.abelian import _FIBER, _FIBER_INTEGRALS
from nodepoly.exactpoly import (
    MAX_EXPONENT, ExactnessError, Poly, in_one_context, integer, integrate, parse, sum_of_products,
)
from nodepoly.nodegen import node_polynomial
from oracles import term_by_term

V = Poly.variable
C = Poly.constant

VARS = ("v", "w1", "w2")
GOLDEN = Path(__file__).parent / "golden"


def poly_strategy(variables=VARS, max_exp=3, max_terms=4):
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=5),
    )
    exps = st.tuples(*(st.integers(min_value=0, max_value=max_exp),) * len(variables))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda d: Poly(variables, d)
    )


polys = poly_strategy()


class TestArithmetic:
    def test_difference_of_squares(self):
        v, w1 = V("v"), V("w1")
        assert (v + w1) * (v - w1) == v * v - w1 * w1

    def test_additive_identity(self):
        p = parse("3*v^2 - w1", VARS)
        assert p + Poly.zero(VARS) == p

    def test_x2_times_one(self):
        x2 = parse("v^3 + v^2*w1 + v*w2", VARS)
        assert x2 * C(1) == x2

    def test_context_extension(self):
        v = V("v")
        e = V("e")
        assert str(v + e) in ("v + e", "e + v")
        assert (v + e).variables == ("v", "e")

    def test_scalar_division(self):
        assert parse("3*m") / 3 == parse("m")
        with pytest.raises(ZeroDivisionError):
            parse("m") / 0

    @given(polys, polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_identities(self, p):
        assert p + Poly.zero(VARS) == p
        assert p * C(1, VARS) == p
        assert p * C(0, VARS) == Poly.zero(VARS)
        assert p - p == Poly.zero(VARS)


class TestSubstitute:
    def test_binomial_expansion(self):
        v, e = V("v"), V("e")
        p = (v * v).substitute({"v": v - 2 * e})
        assert p == parse("v^2 - 4*v*e + 4*e^2", ("v", "e"))

    def test_images_move_into_one_context(self):
        values, one = in_one_context({"v": parse("c + h"), "w1": 3, "w2": parse("K*h")})
        assert {p.variables for p in (*values.values(), one)} == {("c", "h", "K")}
        assert values == {"v": parse("c + h"), "w1": 3, "w2": parse("K*h")} and one == 1

    def test_identity_map(self):
        p = parse("v^3 + v^2*w1 + v*w2", VARS)
        assert p.substitute({}) == p
        assert p.substitute({name: V(name) for name in VARS}) == p

    def test_x2_shift(self):
        # hand-expanded image of x2 under v -> v-2e, w1 -> w1+e, w2 -> w2-e^2
        x2 = parse("v^3 + v^2*w1 + v*w2", VARS)
        e = V("e")
        image = x2.substitute(
            {"v": V("v") - 2 * e, "w1": V("w1") + e, "w2": V("w2") - e * e}
        )
        expected = (
            x2
            + e * parse("-5*v^2 - 4*v*w1 - 2*w2", VARS)
            + e * e * parse("7*v + 4*w1", VARS)
            - 2 * e * e * e
        )
        assert image == expected

    @given(polys, polys)
    def test_homomorphism(self, p, q):
        e = V("e")
        images = {"v": V("v") - e, "w1": V("w1") + e, "w2": e * e}
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_surface_images_term_by_term(self, q):
        bq = node_polynomial(q)
        images = {"v": parse("c + h"), "w1": parse("K"), "w2": parse("X")}
        assert bq.substitute(images) == term_by_term(bq, images, C(1))

    def test_powers_are_built_from_halves(self, monkeypatch):
        real, products = Poly.__mul__, []

        def counting(self, other):
            products.append(other)
            return real(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert parse("x^1000 + x^999").substitute({"x": parse("y")}) == parse("y^1000 + y^999")
        # two exponents per halving level at most: O(log e), not a dense table of 999
        assert len(products) <= 2 * (1000).bit_length()


DIVISOR = parse("e^3 + w1*e^2 + w2*e", ("e", "w1", "w2"))


#: x and y are graded (weights 1 and 2), a and b are coefficients; the keys of
#: the table lie at or below the cap.
GRADED = {"x": 1, "y": 2}
GRADED_CAP = 2
INTEGRALS = {(2, 0): 3, (0, 1): Poly.variable("d")}


class TestIntegrate:
    def test_table(self):
        assert integrate(parse("x^2"), GRADED, INTEGRALS) == 3
        assert integrate(parse("a*y + b*x^2"), GRADED, INTEGRALS) == parse("a*d + 3*b")

    def test_monomial_with_no_key_is_zero(self):
        assert integrate(parse("x + x*y + y^2 + a + b*x^3"), GRADED, INTEGRALS).is_zero()

    def test_needs_no_truncation(self):
        # monomials above the cap have no key, so truncating first changes nothing
        poly = parse("x^5*a + x^2*y^3 + x^2*b + y")
        assert integrate(poly, GRADED, INTEGRALS) == integrate(
            poly.truncated(GRADED, GRADED_CAP), GRADED, INTEGRALS)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, -3), (0, 5)])
    def test_linear(self, alpha, beta):
        p, q = parse("a*x^2 + y + x"), parse("b*y - x^2 + a*b + 1/2*x^2*b")
        parts = alpha * integrate(p, GRADED, INTEGRALS) + beta * integrate(q, GRADED, INTEGRALS)
        assert integrate(alpha * p + beta * q, GRADED, INTEGRALS) == parts

    def test_carries_the_other_variables_in_their_order(self):
        poly = parse("b*x^2 + a*x*y + b*y + 3*a*x^2", ("b", "x", "a", "y"))
        result = integrate(poly, GRADED, {(2, 0): 1})
        assert result.variables == ("b", "a")
        assert result == parse("b + 3*a")
        assert integrate(poly, GRADED, INTEGRALS).variables == ("b", "a", "d")

    def test_keys_follow_the_order_of_weights(self):
        poly = parse("x*y^2")
        assert integrate(poly, {"x": 1, "y": 2}, {(1, 2): 7}) == 7
        assert integrate(poly, {"y": 2, "x": 1}, {(2, 1): 7}) == 7
        assert integrate(poly, {"y": 2, "x": 1}, {(1, 2): 7}).is_zero()


class TestScalarImages:
    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("w", [0, 2])
    def test_scalar_images_equal_poly_images(self, q, w):
        # the abelian fiber: v -> l + h, w1 -> w, w2 -> 0, integrated over l
        bq, v = node_polynomial(q), parse("l + h")
        scalar = integrate(bq.substitute({"v": v, "w1": w, "w2": 0}), _FIBER, _FIBER_INTEGRALS)
        images = {"v": v, "w1": Poly.constant(w, ("l",)), "w2": Poly.zero(("h",))}
        as_polys = integrate(bq.substitute(images), _FIBER, _FIBER_INTEGRALS)
        substituted = bq.substitute(images).truncated(_FIBER, 4)
        assert scalar == as_polys == integrate(substituted, _FIBER, _FIBER_INTEGRALS)
        assert not scalar.is_zero()


def by_the_loop(p, images):
    """``p.substitute(images)`` term by term, one product and one sum per term: the
    reference for the one-map route."""
    return term_by_term(p, *in_one_context({v: images.get(v, V(v)) for v in p.variables}))


def integrate_by_parts(poly, weights, table):
    """``integrate`` term by term: one product and one sum per term with a key in the table."""
    rest = tuple(v for v in poly.variables if v not in weights)
    total = Poly.zero(rest)
    for exps, c in poly.terms.items():
        named = dict(zip(poly.variables, exps))
        if (key := tuple(named.get(v, 0) for v in weights)) in table:
            total = total + Poly(rest, {tuple(named[v] for v in rest): c}) * table[key]
    return total


fractions = st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(1, 5))


class TestOneMapRoutes:
    """``substitute`` and ``integrate`` each sum in one coefficient map; the reference loops,
    a product and a sum per term, give the same polynomials in the same contexts."""

    @pytest.mark.parametrize("i", [1, 2, 3])
    @pytest.mark.parametrize("q", range(1, 9))
    def test_substitute_at_the_shift_images(self, q, i):
        images = nodegen._shift_images(i)
        assert {p.variables for p in images.values()} == {("v", "w1", "w2", "e")}
        bq = node_polynomial(q)
        assert bq.substitute(images) == by_the_loop(bq, images)

    @given(polys, polys, polys)
    def test_substitute_with_fractional_coefficients(self, p, a, b):
        images = {"v": a + Fraction(1, 3), "w1": b * Fraction(-5, 2), "w2": a * b}
        assert p.substitute(images) == by_the_loop(p, images)

    @given(polys, fractions)
    def test_substitute_with_scalar_images(self, p, x):
        images = {"v": x, "w1": 2, "w2": parse("c - 1/2*h")}
        assert p.substitute(images) == by_the_loop(p, images)
        point = {"v": x, "w1": 2, "w2": Fraction(1, 7)}
        value = p.substitute(point)
        assert value.variables == () and value == p.evaluate(point) == by_the_loop(p, point)

    @given(polys)
    def test_substitute_with_images_in_differing_contexts(self, p):
        images = {"v": parse("c + h"), "w1": parse("K", ("K", "c")),
                  "w2": parse("x*y - h^2", ("y", "x", "h"))}
        result = p.substitute(images)
        assert result == by_the_loop(p, images)
        assert result.variables == by_the_loop(p, images).variables == ("c", "h", "K", "y", "x")

    @pytest.mark.parametrize("p", [Poly.zero(VARS), Poly.zero(), Poly.zero(("v",))],
                             ids=["three", "none", "one"])
    def test_substitute_on_the_zero_polynomial(self, p):
        images = {"v": parse("c + h"), "w1": 3, "w2": Fraction(1, 2)}
        result = p.substitute(images)
        assert result.is_zero() and result.variables == by_the_loop(p, images).variables

    @pytest.mark.parametrize("r", range(9))
    def test_integrate_through_scalar_values(self, r):
        cls, table = abelian.nodal_locus_class(r), {(0, 0): 1}
        result = integrate(cls, abelian._BASE, table)
        assert result == integrate_by_parts(cls, abelian._BASE, table)
        assert result.variables == ("h", "d")

    @pytest.mark.parametrize("r", range(9))
    def test_integrate_through_fraction_values(self, r):
        cls = abelian.nodal_locus_class(r)
        for table in (abelian._POINT_INTEGRALS, {(1, 0): Fraction(-3, 4), (0, 1): Fraction(5, 2)}):
            result = integrate(cls, abelian._BASE, table)
            assert result == integrate_by_parts(cls, abelian._BASE, table)
            assert result.variables == integrate_by_parts(cls, abelian._BASE, table).variables

    def test_integrate_through_a_disjoint_table_context(self):
        poly = parse("b*x^2 + a*x*y + b*y + 3*a*x^2 + x*y", ("b", "x", "a", "y"))
        table = {(2, 0): parse("d*k", ("d", "k")), (1, 1): 2, (0, 1): parse("s")}
        result = integrate(poly, GRADED, table)
        assert result == parse("b*d*k + 3*a*d*k + 2*a + 2 + b*s")
        assert result == integrate_by_parts(poly, GRADED, table)
        # the remaining variables, then those of the values in the order their keys occur
        assert result.variables == ("b", "a", "d", "k", "s")

    @given(poly_strategy(("b", "x", "a", "y"), max_terms=6), fractions)
    def test_integrate_matches_the_sum_over_parts(self, poly, c):
        table = {(2, 0): parse("d*k - b"), (1, 1): c, (0, 1): parse("1/3*a + s"), (0, 0): 5}
        result = integrate(poly, GRADED, table)
        assert result == integrate_by_parts(poly, GRADED, table)


class TestDivrem:
    def test_single_reduction(self):
        e = V("e")
        q, r = (e**3).divrem(DIVISOR, "e")
        assert q == C(1)
        assert r == parse("-w1*e^2 - w2*e", ("e", "w1", "w2"))

    def test_low_degree_passthrough(self):
        p = parse("v^2*e + w1", ("v", "e", "w1"))
        q, r = p.divrem(DIVISOR, "e")
        assert q == Poly.zero() and r == p

    def test_scalar_multiple(self):
        e = V("e")
        q, r = (-2 * e**3).divrem(DIVISOR, "e")
        assert q == C(-2)
        assert r == parse("2*w1*e^2 + 2*w2*e", ("e", "w1", "w2"))

    def test_monicity_required(self):
        with pytest.raises(ValueError):
            parse("e^2").divrem(parse("2*e + 1", ("e",)), "e")

    @given(poly_strategy(("e", "w1", "w2"), max_exp=4, max_terms=5))
    def test_reconstruction(self, p):
        q, r = p.divrem(DIVISOR, "e")
        assert q * DIVISOR + r == p
        assert r.degree_in("e") <= 2


class TestCoefficientOf:
    def test_direct_read(self):
        p = parse("7*v*e^2 + 4*w1*e^2", ("v", "w1", "e"))
        assert p.coefficient_of("e", 2) == parse("7*v + 4*w1", ("v", "w1"))

    def test_absent_power(self):
        x2 = parse("v^3 + v^2*w1 + v*w2", VARS)
        assert x2.in_context(VARS + ("e",)).coefficient_of("e", 1) == Poly.zero()

    def test_absent_power_keeps_the_remaining_context(self):
        p = parse("7*v*e^2", ("v", "w1", "e"))
        assert p.coefficient_of("e", 5).variables == ("v", "w1")

    def test_variable_outside_the_context_raises(self):
        with pytest.raises(KeyError, match="e"):
            parse("v^3 + v*w2", VARS).coefficient_of("e", 0)

    def test_coefficients_keep_the_context(self):
        p = parse("x^2*y + 3*x*y + y^2", ("x", "y"))
        assert p.coefficient_of("x", 1).variables == ("y",)

    @given(poly_strategy(("e", "w1"), max_exp=3), st.integers(0, 3))
    def test_recompose(self, p, k):
        e = V("e")
        total = sum(
            (p.coefficient_of("e", j) * e**j for j in range(p.degree_in("e") + 1)),
            Poly.zero(),
        )
        assert total == p


class TestWeightedDegree:
    WEIGHTS = {"v": 1, "w1": 1, "w2": 2}

    def test_x2_weight(self):
        x2 = parse("v^3 + v^2*w1 + v*w2", VARS)
        assert x2.is_weighted_homogeneous(self.WEIGHTS, 3)
        assert not x2.is_weighted_homogeneous(self.WEIGHTS, 4)

    def test_inhomogeneous(self):
        p = parse("v + w2", ("v", "w2"))
        assert not any(p.is_weighted_homogeneous({"v": 1, "w2": 2}, d) for d in range(6))

    def test_zero_has_every_degree(self):
        z = Poly.zero(VARS)
        assert all(z.is_weighted_homogeneous(self.WEIGHTS, d) for d in range(6))

    def test_unweighted_used_variable_raises(self):
        with pytest.raises(KeyError, match="w2"):
            parse("v^2 + w2", VARS).is_weighted_homogeneous({"v": 1, "w1": 1}, 2)

    def test_unweighted_unused_variable_is_ignored(self):
        assert parse("v^2 + v*w1", VARS).is_weighted_homogeneous({"v": 1, "w1": 1}, 2)


class TestDenominator:
    def test_common_denominator(self):
        assert (V("x") / 6).denominator == 6
        assert parse("1/2*x + 1/3*y").denominator == 6

    def test_integral_polynomials_have_denominator_one(self):
        assert parse("3*x - 4").denominator == 1
        assert Poly.zero().denominator == 1


class TestInteger:
    def test_integral_values(self):
        assert integer(Fraction(6, 3), "two") == 2
        assert type(integer(Fraction(6, 3), "two")) is int
        assert integer(-7, "minus seven") == -7

    def test_fraction_raises_naming_what(self):
        with pytest.raises(ExactnessError, match="half is not an integer: 3/2"):
            integer(Fraction(3, 2), "half")


class TestExactnessError:
    #: Builds invariants that break dim = roots + free vertices, under -O.
    BROKEN = (
        "import sys\n"
        "if not sys.flags.optimize: sys.exit('not run with -O')\n"
        "from nodepoly.enriques import DiagramInvariants\n"
        "DiagramInvariants(roots=1, free_vertices=0, dim=5, deg=1, cod=-4, delta=0,\n"
        "                  branches=1, milnor=0, jacobian_mult=0)\n"
    )

    def test_is_an_assertion_error(self):
        assert issubclass(ExactnessError, AssertionError)

    def test_check_survives_optimize(self):
        src = str(Path(nodepoly.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.BROKEN],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "nodepoly.exactpoly.ExactnessError: invariants break" in proc.stderr


class TestEvaluate:
    def test_line_pair_count(self):
        p = parse("3*m^2 - 6*m + 3")
        assert p.evaluate({"m": 2}) == 3

    def test_all_zero_gives_constant_term(self):
        p = parse("5*v^2 + 2*v - 7", ("v",))
        assert p.evaluate({"v": 0}) == -7

    def test_unassigned_variable(self):
        with pytest.raises(KeyError, match="variable 'w1' unassigned"):
            parse("v + w1", ("v", "w1")).evaluate({"v": 1})

    @given(polys, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_evaluation_is_a_homomorphism(self, p, a, b, c):
        point = {"v": a, "w1": b, "w2": c}
        q = p * p + 3 * p
        assert q.evaluate(point) == p.evaluate(point) ** 2 + 3 * p.evaluate(point)

    SPARSE = "x^37*y^5 - 3/4*x + 2"

    @pytest.mark.parametrize(
        "point", [(2, 3), (-2, -1), (0, 5), (Fraction(-3, 2), Fraction(5, 7))]
    )
    def test_sparse_high_exponents_match_the_reference(self, point):
        p = parse(self.SPARSE, ("x", "y"))
        value = p.evaluate(dict(zip(("x", "y"), point)))
        assert value == _ref_evaluate(p.terms, point)
        assert type(value) is Fraction

    @pytest.mark.parametrize("p", [Poly.zero(VARS), Poly.zero(), C(7, VARS), C(Fraction(-2, 3))])
    def test_zero_and_constants_give_fractions(self, p):
        value = p.evaluate({"v": 5})
        assert type(value) is Fraction and value == p.constant_value()

    def test_unassigned_variable_that_does_not_occur_is_no_error(self):
        assert parse("2*v^3 + 1/2", VARS).evaluate({"v": 3}) == Fraction(109, 2)

    def test_float_in_the_point_is_refused(self):
        with pytest.raises(TypeError, match="not an exact scalar: 1.5"):
            parse("v + 1", VARS).evaluate({"v": 1.5})


class TestSerialization:
    def test_canonical_examples(self):
        assert str(parse("3*m^2 - 6*m + 3")) == "3*m^2 - 6*m + 3"
        assert str(Poly.zero(VARS)) == "0"
        assert str(parse("-v + 1/2", ("v",))) == "-v + 1/2"
        assert str(parse("5/6*m^9 + 40*m")) == "5/6*m^9 + 40*m"

    def test_graded_lex_order(self):
        p = parse("v*w2 + v^3 + v^2*w1", VARS)
        assert str(p) == "v^3 + v^2*w1 + v*w2"

    @given(polys)
    def test_round_trip(self, p):
        assert parse(str(p), VARS) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("3*m^2 $ 2")
        with pytest.raises(ValueError):
            parse("m^")

    @pytest.mark.parametrize(
        "text",
        ["x**2", "x*", "*x", "x*-y", "x * * y", "2*x^2*", "x + *y", "1/0", "3/00*x",
         "x +", "-", "x^2^3", "2x", "x y", "x^-1", "1.5", "x^2/3", "2^3", "z"],
    )
    def test_parse_rejects_a_star_without_two_factors_and_zero_denominators(self, text):
        """Also every other text outside the grammar, and a name outside the context."""
        with pytest.raises(ValueError):
            parse(text, ("x", "y"))

    @pytest.mark.parametrize(
        "text, expected",
        [("x*y", Poly.variable("x") * Poly.variable("y")), ("2 * x*3", 6 * Poly.variable("x")),
         ("3/10*x", Fraction(3, 10) * Poly.variable("x")), ("2/04", Poly.constant(Fraction(1, 2))),
         ("x + -y", Poly.variable("x") - Poly.variable("y")), ("- - x", Poly.variable("x")),
         ("+x", Poly.variable("x")), ("x ^ 2", Poly.variable("x") ** 2),
         ("x*x*2", 2 * Poly.variable("x") ** 2), ("", Poly.zero()), ("  ", Poly.zero()),
         ("x - x", Poly.zero())],
    )
    def test_parse_products_and_fractions(self, text, expected):
        assert parse(text, ("x", "y")) == expected.in_context(("x", "y"))

    @pytest.mark.parametrize(
        "name", ["abelian_table", "node_polynomials", "plane_aq", "threefold_6nodal", "threefold_lines3"]
    )
    def test_golden_polynomials_parse_back_to_their_text(self, name):
        lines = (GOLDEN / f"{name}.txt").read_text().split("\n")
        for line in filter(None, lines):
            assert str(parse(line)) == line


class TestConstructor:
    @pytest.mark.parametrize("exponent", [1.5, 1.0, Fraction(1), "1", -1])
    def test_rejects_exponents_that_are_not_natural_numbers(self, exponent):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Poly(("x",), {(exponent,): 1})

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Poly(("x", "y"), {(1,): 1})

    def test_rejects_inexact_coefficients(self):
        with pytest.raises(TypeError):
            Poly(("x",), {(1,): 0.5})


class TestCoefficientStorage:
    """``terms`` shows integral coefficients as ``int``, the others as ``Fraction``."""

    @pytest.mark.parametrize("q", range(1, 9))
    def test_node_and_abelian_polynomials_are_int(self, q):
        from nodepoly.abelian import abelian_aq
        from nodepoly.nodegen import node_polynomial

        for poly in (node_polynomial(q), abelian_aq(q)):
            assert all(type(c) is int for c in poly.terms.values())

    def test_integral_quotient_is_demoted(self):
        p = (V("x") / 2) * 2
        assert p.terms == {(1,): 1}
        assert type(p.terms[(1,)]) is int

    def test_division_gives_a_fraction(self):
        (coeff,) = (V("x") / 3).terms.values()
        assert type(coeff) is Fraction and coeff == Fraction(1, 3)

    def test_constructor_demotes_integral_fractions(self):
        (coeff,) = Poly(("x",), {(1,): Fraction(4, 2)}).terms.values()
        assert type(coeff) is int and coeff == 2

    def test_values_are_fractions(self):
        from nodepoly.surface import plane_count

        assert type(parse("3*m^2 - 6*m + 3").evaluate({"m": 2})) is Fraction
        assert type(Poly.zero(VARS).evaluate({})) is Fraction
        assert type(C(7, VARS).constant_value()) is Fraction
        assert type(Poly.zero(VARS).constant_value()) is Fraction
        assert type(plane_count(8, 5)) is Fraction and plane_count(8, 5) == 26136

    def test_int_and_fraction_coefficients_agree(self):
        as_int = Poly(VARS, {(1, 0, 0): 2, (0, 0, 1): -3})
        as_fraction = Poly(VARS, {(1, 0, 0): Fraction(2), (0, 0, 1): Fraction(-3)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert str(as_int) == str(as_fraction) == "2*v - 3*w2"

    def test_scalar_operands_keep_int_coefficients(self):
        x = V("x")
        for p, text in ((x * True, "x"), (True * x, "x"), (x + Fraction(2), "x + 2")):
            assert str(p) == text
            assert all(type(c) is int for c in p.terms.values())
        assert x != 1 and C(1, ("x",)) == 1 and C(1, ("x",)) == Fraction(1)
        assert hash(C(2)) == hash(2) and hash(C(2, ("x",))) == hash(2)
        assert hash(Poly.zero()) == hash(0) and hash(C(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert len({C(2), 2}) == 1
        assert hash(x) == hash(x.in_context(("y", "x")))
        assert hash(x * V("y")) == hash(V("y") * x)

    def test_mixed_terms_show_int_where_integral(self):
        p = V("x") + V("y") / 2
        assert p.terms == {(1, 0): 1, (0, 1): Fraction(1, 2)}
        assert type(p.terms[(1, 0)]) is int and type(p.terms[(0, 1)]) is Fraction

    def test_halves_sum_to_int(self):
        (coeff,) = (V("x") / 2 + V("x") / 2).terms.values()
        assert type(coeff) is int and coeff == 1

    def test_integer_scalar_reduces_the_denominator(self):
        p = (V("x") / 6) * 3
        assert p == V("x") / 2 and str(p) == "1/2*x"

    def test_negative_divisor(self):
        assert str(V("x") / -3) == "-1/3*x"


#: Raw term maps over VARS; zero coefficients occur and must vanish.
raw_terms = st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=3),) * 3),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)),
    max_size=4,
)
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


def _ref_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for value, k in zip(point, e):
            c *= value**k
        total += c
    return total


class TestDifferential:
    """``Poly`` against a reference that keeps terms as a dict of ``Fraction``s."""

    @given(raw_terms, raw_terms, fractions, st.tuples(fractions, fractions, fractions), st.integers(0, 3))
    def test_operations_match_the_reference(self, raw_a, raw_b, c, point, k):
        a, b = _clean(raw_a), _clean(raw_b)
        p, q = Poly(VARS, raw_a), Poly(VARS, raw_b)
        assert p.terms == a
        assert (p + q).terms == _ref_add(a, b)
        assert (p - q).terms == _ref_add(a, b, -1)
        assert (p * q).terms == _ref_mul(a, b)
        assert (p * c).terms == (c * p).terms == _clean({e: v * c for e, v in a.items()})
        if c:
            assert (p / c).terms == {e: v / c for e, v in a.items()}
        moved = {(w2, 0, v, w1): x for (v, w1, w2), x in a.items()}
        assert p.in_context(("w2", "u", "v", "w1")).terms == moved
        inserted = p.in_context(("v", "u", "w1", "w2"))  # a variable in the middle
        assert inserted.terms == {(v, 0, w1, w2): x for (v, w1, w2), x in a.items()}
        reversed_ = inserted.in_context(("w2", "w1", "v"))  # drops u, reverses the rest
        assert reversed_.terms == {(w2, w1, v): x for (v, w1, w2), x in a.items()}
        coeff = _clean({(v, w2): x for (v, w1, w2), x in a.items() if w1 == k})
        assert p.coefficient_of("w1", k).terms == coeff
        assert p.evaluate(dict(zip(VARS, point))) == _ref_evaluate(a, point)


class TestPower:
    def test_fifth_power_takes_three_products(self, monkeypatch):
        calls = []
        product = Poly.__mul__

        def counting(self, other):
            calls.append(other)
            return product(self, other)

        p = V("x") + V("y")
        monkeypatch.setattr(Poly, "__mul__", counting)
        result = p**5
        monkeypatch.undo()
        assert len(calls) == 3
        assert result == p * p * p * p * p

    def test_zeroth_power_is_one_in_the_context(self):
        one = parse("x + y") ** 0
        assert one == 1 and one.variables == ("x", "y")

    @pytest.mark.parametrize("e", range(1, 9))
    def test_powers_match_repeated_products(self, e):
        p = parse("x - 2*y + 1/3")
        expected = p
        for _ in range(e - 1):
            expected = expected * p
        assert p**e == expected


class TestExponentCap:
    def test_cap_is_the_slot_width(self):
        assert MAX_EXPONENT == 2**31 - 1
        assert Poly(("x",), {(MAX_EXPONENT,): 1}).degree_in("x") == MAX_EXPONENT

    def test_exponent_above_the_cap_is_refused(self):
        with pytest.raises(ValueError):
            Poly(("x",), {(2**31,): 1})
        with pytest.raises(ValueError):
            parse(f"x^{2**31}")
        with pytest.raises(ValueError):
            parse(f"x^{2**31 - 1}*x")

    @pytest.mark.parametrize("split", [(2**30, 2**30), (MAX_EXPONENT, 1), (MAX_EXPONENT, MAX_EXPONENT)])
    def test_product_crossing_the_cap_raises(self, split):
        a, b = split
        y = V("y", ("x", "y"))
        p = Poly(("x", "y"), {(a, 1): 1, (0, 0): 3})
        q = Poly(("x", "y"), {(b, 0): 2})
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            p * q
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            (y * p) * q

    def test_product_at_the_cap_is_exact(self):
        p = Poly(("x", "y"), {(2**30, 3): 1}) * Poly(("x", "y"), {(2**30 - 1, 2): 1})
        assert p.terms == {(MAX_EXPONENT, 5): 1}
        assert str(p) == f"x^{MAX_EXPONENT}*y^5"


class TestSumOfProducts:
    XY = ("x", "y")

    def test_one_triple_is_the_product(self):
        x, y = parse("1/2*x - y + 3", self.XY), parse("x*y + 2/3", self.XY)
        assert sum_of_products([(-5, x, y)]) == -5 * x * y

    def test_mixed_denominators_reduce_to_lowest_terms(self):
        a, b = parse("1/6*x + 1/4", self.XY), parse("2*y", self.XY)
        c, d = parse("1/10*y", self.XY), parse("5/3*x + 1", self.XY)
        total = sum_of_products([(3, a, b), (2, c, d)])
        assert total == 3 * a * b + 2 * c * d
        # 4/3*x*y + 17/10*y: the products meet over lcm(12, 30) = 60, which reduces to 30
        assert str(total) == "4/3*x*y + 17/10*y"
        assert total.denominator == 30
        assert math.gcd(total.denominator, *total._num.values()) == 1

    def test_full_cancellation_is_zero_over_one(self):
        x, y = parse("1/3*x + 1/7", self.XY), parse("y - 1/5", self.XY)
        total = sum_of_products([(2, x, y), (-1, x, y), (-1, y, x)])
        assert total.is_zero() and total.denominator == 1
        assert total.variables == self.XY

    def test_no_triples_is_zero(self):
        assert sum_of_products([]) == Poly.zero()

    @pytest.mark.parametrize("other", [("y", "x"), ("x",), ("x", "y", "z")])
    def test_operands_must_share_one_context(self, other):
        x = parse("x + y", self.XY)
        with pytest.raises(ValueError, match="not"):
            sum_of_products([(1, x, x), (1, x, Poly.constant(2, other))])
        with pytest.raises(ValueError, match="not"):
            sum_of_products([(1, Poly.constant(2, other), x)])

    def test_exponent_overflow_raises_as_the_product_does(self):
        p = Poly(self.XY, {(MAX_EXPONENT, 1): 1})
        q = Poly(self.XY, {(1, 0): 2})
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            p * q
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            sum_of_products([(1, q, q), (3, p, q)])

    @given(st.lists(st.tuples(st.integers(-9, 9), polys, polys), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_products_and_sums(self, triples):
        expected = Poly.zero(VARS)
        for c, x, y in triples:
            expected = expected + c * x * y
        total = sum_of_products(triples)
        assert total == expected
        assert total.denominator == expected.denominator


class TestRefusals:
    @pytest.mark.parametrize(
        "call,fragment",
        [
            (lambda: Poly(("v", "w1", "v"), {}), "duplicate variable in context"),
            (lambda: V("w2", ("v", "w1")), "variable 'w2' not in context"),
            (lambda: parse("v + 1").constant_value(), "not a constant polynomial"),
            (lambda: parse("v*w1").in_context(("v",)), "cannot drop used variable 'w1'"),
            (lambda: V("v") ** -1, "exponent must be a non-negative integer: -1"),
            (lambda: V("v") ** 2.0, "exponent must be a non-negative integer: 2.0"),
        ],
        ids=["repeated-variable", "variable-outside", "non-constant", "drop-used",
             "negative-power", "non-int-power"],
    )
    def test_refused_with_its_message(self, call, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            call()
