"""Unit and property tests for the exact polynomial substrate."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nodepoly
from nodepoly.exactpoly import ExactnessError, Homogeneity, Poly, parse

V = Poly.variable
C = Poly.constant

VARS = ("v", "w1", "w2")


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


DIVISOR = parse("e^3 + w1*e^2 + w2*e", ("e", "w1", "w2"))


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
        assert x2.weighted_degree(self.WEIGHTS) == 3

    def test_inhomogeneous(self):
        p = parse("v + w2", ("v", "w2"))
        assert p.weighted_degree({"v": 1, "w2": 2}) is Homogeneity.MIXED

    def test_zero_sentinel(self):
        z = Poly.zero(VARS)
        assert z.weighted_degree(self.WEIGHTS) is Homogeneity.ZERO
        assert z.is_weighted_homogeneous(self.WEIGHTS, 5)
        assert z.is_weighted_homogeneous(self.WEIGHTS, 0)


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
        with pytest.raises(KeyError):
            parse("v + w1", ("v", "w1")).evaluate({"v": 1})

    @given(polys, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_evaluation_is_a_homomorphism(self, p, a, b, c):
        point = {"v": a, "w1": b, "w2": c}
        q = p * p + 3 * p
        assert q.evaluate(point) == p.evaluate(point) ** 2 + 3 * p.evaluate(point)


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
    """Integral coefficients are stored as ``int``, the others as ``Fraction``."""

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
