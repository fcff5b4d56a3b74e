"""Tests for the threefold-in-four-space back end."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

from nodepoly.exactpoly import Poly, integrate, parse
from nodepoly.grassmann import (
    DEGREE6_INTEGRALS,
    _FIBER,
    _FIBER_INTEGRALS,
    SMOOTH_CONICS_ON_QUINTIC,
    LINES_ON_QUINTIC,
    grass_aq,
    grass_integrate,
    line_restricted_multiplier,
    quintic_irreducible,
    threefold_3nodal_lines,
    threefold_6nodal,
    threefold_6nodal_symbolic,
    threefold_validity,
)
from nodepoly.nodegen import node_polynomial
from oracles import (
    conics_on_quintic,
    grassmannian_integral,
    plane_bundle_class,
    residual_binodal_per_line,
)

GOLDEN = Path(__file__).parent / "golden"


def push(cls: Poly) -> Poly:
    """A class on the tautological plane bundle integrated over the fibers."""
    return integrate(cls, _FIBER, _FIBER_INTEGRALS)


F = Poly.variable("f")
F3 = F * F * F
F4 = F3 * F
Q1 = Poly.variable("q1")


class TestFiberClasses:
    def test_pushforward_table(self):
        assert push(F * F) == parse("1", ("q1", "q2", "m"))
        assert push(F) == Poly.zero()
        assert push(Poly.constant(1)) == Poly.zero()
        assert push(F3) == parse("q1", ("q1", "q2", "m"))
        assert push(F4) == parse("q1^2 - q2", ("q1", "q2", "m"))
        assert push(F4 * F).is_zero()

    def test_pushforward_linearity(self):
        assert push(Q1 * F3) == parse("q1^2", ("q1", "q2", "m"))
        combo = 3 * F * F - 2 * F3
        assert push(combo) == parse("3 - 2*q1", ("q1", "q2", "m"))


class TestIntegration:
    def test_table_values(self):
        q1 = Poly.variable("q1")
        q2 = Poly.variable("q2")
        assert grass_integrate(q1**6) == 5
        assert grass_integrate(q1**4 * q2) == 3
        assert grass_integrate(q1**2 * q2**2) == 2
        assert grass_integrate(q2**3) == 1

    def test_schubert_self_intersection(self):
        q1 = Poly.variable("q1")
        q2 = Poly.variable("q2")
        assert grass_integrate((q1 * q1 - q2) ** 2 * q1 * q1) == 1
        assert grass_integrate((q1 * q1 - q2) ** 2 * q2) == 0

    @pytest.mark.parametrize("weights", [(3, 17, -5, 29, 41), (0, 1, 2, 3, 4)])
    def test_table_is_c1_and_c2_of_the_dual_subbundle(self, weights):
        # q1, q2 are c1, c2 of S* on G(3, 5), S the rank-3 subbundle; with
        # the rank-2 quotient C^5/S in their place the table would read 5, 2, 1, 1
        def c1_c2_power(a, b):
            return lambda roots: sum(roots) ** a * sum(x * y for x, y in combinations(roots, 2)) ** b

        derived = {(a, b): grassmannian_integral(c1_c2_power(a, b), 3, weights)
                   for a, b in DEGREE6_INTEGRALS}
        assert derived == DEGREE6_INTEGRALS

    def test_wrong_degree_rejected(self):
        q1 = Poly.variable("q1")
        with pytest.raises(ValueError):
            grass_integrate(q1**5)


class TestAq:
    @pytest.mark.parametrize("q", [0, 9])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError, match=f"q must be in 1..8: {q}"):
            grass_aq(q)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_homogeneous_of_degree_q(self, q):
        aq = grass_aq(q)
        for (e1, e2, _em) in aq.terms:
            assert e1 + 2 * e2 == q

    def test_vanishes_at_m_zero(self):
        # every node polynomial carries a factor v, and v = m*f
        for q in range(1, 7):
            aq = grass_aq(q)
            assert aq.substitute({"m": Poly.constant(0)}).is_zero()

    def test_a1_leading_fiber_term(self):
        # the m^3 part of a_1 comes from v^3 = m^3 f^3 alone, pushing to q1
        a1 = grass_aq(1)
        m3_part = {exps: c for exps, c in a1.terms.items() if exps[2] == 3}
        assert m3_part == {(1, 0, 3): 1}


class TestCounts:
    def test_printed_degree18_polynomial(self):
        golden = (GOLDEN / "threefold_6nodal.txt").read_text().strip()
        assert str(threefold_6nodal_symbolic()) == golden

    def test_value_at_5(self):
        assert threefold_6nodal(5) == 21617125

    def test_symbolic_matches_numeric_pipeline(self):
        symbolic = threefold_6nodal_symbolic()
        assert symbolic.evaluate({"m": 5}) == threefold_6nodal(5)
        assert symbolic.evaluate({"m": 4}) == threefold_6nodal(4)

    def test_printed_degree9_polynomial(self):
        golden = (GOLDEN / "threefold_lines3.txt").read_text().strip()
        assert str(threefold_3nodal_lines()) == golden

    def test_lines3_leading_term(self):
        poly = threefold_3nodal_lines()
        assert poly.degree_in("m") == 9
        assert poly.terms.get((9,)) == Fraction(5, 6)

    def test_line_multiplier(self):
        assert line_restricted_multiplier() == 1185

    def test_validity_boundary(self):
        assert not threefold_validity(3)
        assert threefold_validity(4)

    def test_irreducible_pipeline(self):
        assert SMOOTH_CONICS_ON_QUINTIC == 609250
        assert LINES_ON_QUINTIC == 2875
        assert quintic_irreducible() == 21617125 - 609250 - 2875 * 1185
        assert quintic_irreducible() == 17601000


def bq_value(q, v, w1, w2):
    return node_polynomial(q).evaluate({"v": v, "w1": w1, "w2": w2})


def sym5(roots):
    """c_6 of Sym^5 S* on G(2, 5): the quintic's equation restricted to a line."""
    return prod(a * roots[0] + (5 - a) * roots[1] for a in range(6))


#: Torus weights generic enough for the space of conics (no two sums of two
#: weights coincide, unlike those of ``grassmannian_integral``'s default).
CONIC_WEIGHTS = [(2, 11, 37, 101, 263), (7, 23, 62, 131, 311)]


class TestLocalization:
    """The p4 numbers by Bott residues on G(2, 5) and G(3, 5), in ``tests/oracles.py``."""

    def test_lines_on_the_quintic(self):
        assert grassmannian_integral(sym5, 2) == LINES_ON_QUINTIC == 2875

    @pytest.mark.parametrize("weights", CONIC_WEIGHTS)
    def test_conics_on_the_quintic(self, weights):
        assert conics_on_quintic(weights) == SMOOTH_CONICS_ON_QUINTIC == 609250

    @pytest.mark.parametrize("weights", CONIC_WEIGHTS)
    def test_line_multiplier(self, weights):
        assert residual_binodal_per_line(bq_value, 5, weights) == line_restricted_multiplier()
        assert line_restricted_multiplier() == 1185

    def test_irreducible_quintics(self):
        six_nodal = grassmannian_integral(plane_bundle_class(bq_value, 6, 5), 3)
        reducible = (conics_on_quintic()
                     + grassmannian_integral(sym5, 2) * residual_binodal_per_line(bq_value, 5))
        assert quintic_irreducible() == six_nodal - reducible == 17601000

    def test_coinciding_weights_are_refused(self):
        # 17 + 41 = 29 + 29: the conics x_1*x_4 and x_3^2 share a weight
        with pytest.raises(ValueError, match=r"torus weights \(3, 17, -5, 29, 41\)"):
            conics_on_quintic((3, 17, -5, 29, 41))
        with pytest.raises(ValueError, match=r"torus weights \(1, 1, 2, 3, 4\)"):
            grassmannian_integral(sym5, 2, (1, 1, 2, 3, 4))
        with pytest.raises(ValueError, match=r"torus weights \(1, 1, 2\)"):
            plane_bundle_class(bq_value, 1, 3)([-1, -1, -2])

    def test_degree18_polynomial(self):
        poly = threefold_6nodal_symbolic()
        for m in range(1, 20):  # 19 values fix a polynomial of degree 18
            count = grassmannian_integral(plane_bundle_class(bq_value, 6, m), 3)
            assert count == poly.evaluate({"m": m})

    def test_quintic_count_at_other_weights(self):
        integrand = plane_bundle_class(bq_value, 6, 5)
        assert grassmannian_integral(integrand, 3, (0, 1, 2, 3, 4)) == 21617125

    def test_degree9_lines_polynomial(self):
        poly = threefold_3nodal_lines()
        for m in range(1, 11):  # 10 values fix a polynomial of degree 9
            nodal = plane_bundle_class(bq_value, 3, m)
            count = grassmannian_integral(lambda roots: nodal(roots) * sum(roots) ** 3, 3)
            assert count == poly.evaluate({"m": m})


class TestPlaneSections:
    """Salmon's counts for the plane sections of a degree-m surface in P^3.

    The family is the plane bundle over G(3, 4) = P^3*, where w1 and w2
    vary, so these see b_1..b_3 beyond the surface pushforwards.  The
    hyperplane class of P^3* is q1; the planes through a point have class
    q1 and those through a line q1^2.  Each count is a polynomial of degree
    at most 9 in m, fixed by its values at m = 2..11.
    """

    WEIGHTS = (3, 17, -5, 29)

    def count(self, r, m, schubert):
        nodal = plane_bundle_class(bq_value, r, m)
        return grassmannian_integral(lambda roots: nodal(roots) * sum(roots) ** schubert, 3,
                                     self.WEIGHTS)

    @pytest.mark.parametrize("m", range(2, 12))
    def test_dual_degree(self, m):
        assert self.count(1, m, 2) == m * (m - 1) ** 2

    @pytest.mark.parametrize("m", range(2, 12))
    def test_bitangent_planes_through_a_point(self, m):
        assert self.count(2, m, 1) == Fraction(m * (m - 1) * (m - 2) * (m**3 - m**2 + m - 12), 2)

    @pytest.mark.parametrize("m", range(2, 12))
    def test_tritangent_planes(self, m):
        salmon = m * (m - 2) * (m**7 - 4 * m**6 + 7 * m**5 - 45 * m**4 + 114 * m**3
                                - 111 * m**2 + 548 * m - 960)
        assert self.count(3, m, 0) == Fraction(salmon, 6)

    def test_cubic_and_quartic(self):
        assert (self.count(3, 3, 0), self.count(3, 4, 0)) == (45, 3200)
