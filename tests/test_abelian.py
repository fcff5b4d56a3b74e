"""Tests for the abelian-surface back end."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from nodepoly import abelian
from nodepoly.abelian import (
    _BASE,
    _BASE_CAP,
    abelian_aq,
    abelian_count,
    bryan_leung_count,
    bryan_leung_log_coefficients,
    divisor_sum,
    fixed_class_count,
    k_very_ample_ok,
    nodal_locus_class,
    abelian_validity,
)
from nodepoly.bell import nodal_class
from nodepoly.exactpoly import ExactnessError, Poly, parse
from nodepoly.surface import ChernNumbers, severi_degree
from oracles import complete_bell, node_series_power

GOLDEN = Path(__file__).parent / "golden"


def base(cls: Poly | str) -> Poly:
    """A class over the dual surface, truncated above base grade 2."""
    return (parse(cls) if isinstance(cls, str) else cls).truncated(_BASE, _BASE_CAP)


class TestYClassAlgebra:
    def test_c1_squares_to_c1sq(self):
        c1 = base("C1")
        assert base(c1 * c1) == parse("C1^2")
        assert not base(c1 * c1).is_zero()

    def test_grade_truncation(self):
        c1 = base("C1")
        c2 = base("C2")
        assert base(c1 * c1 * c1).is_zero()
        assert base(c1 * c2).is_zero()
        assert base(c2 * c2).is_zero()

    def test_one_is_identity(self):
        x = base("d*h + 3*C1")
        assert base(base("1") * x) == x


class TestAq:
    def test_a1(self):
        assert abelian_aq(1) == parse("3*d*h + 6*C1")

    def test_a2(self):
        # kappa_2 = -7 against the binomial/pushforward profile of v^4
        assert abelian_aq(2) == parse("-42*d*h^2 - 168*C1*h - 84*C1^2 + 168*C2")

    @pytest.mark.parametrize("q", [0, 9])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError, match=f"q must be in 1..8: {q}"):
            abelian_aq(q)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_polynomial_in_d(self, q):
        # the route never divides by d
        for coeff in abelian_aq(q).terms.values():
            assert coeff.denominator == 1

    def test_nodal_class_cached_per_r(self):
        # the counts are cached too; forget them so each one asks for its class
        abelian_count.cache_clear()
        fixed_class_count.cache_clear()
        nodal_locus_class.cache_clear()
        for r in range(9):
            abelian_count(r)
            fixed_class_count(r)
        info = nodal_locus_class.cache_info()
        assert (info.currsize, info.misses, info.hits) == (9, 9, 9)

    @pytest.mark.parametrize("count", [abelian_count, fixed_class_count])
    def test_counts_cached_per_r(self, count):
        count.cache_clear()
        first = [count(r) for r in range(9)]
        assert all(count(r) is first[r] for r in range(9))
        info = count.cache_info()
        assert (info.currsize, info.misses, info.hits) == (9, 9, 9)

    @pytest.mark.parametrize("r", range(9))
    def test_grade_bookkeeping(self, r):
        # the r-nodal class decomposes as beta0 h^r + beta1 h^(r-1) + beta2 h^(r-2)
        cls = nodal_locus_class(r).in_context(("C1", "C2", "h", "d"))
        for e1, e2, eh, _ in cls.terms:
            j = e1 + 2 * e2  # base grade
            assert j <= 2
            assert eh == r - j


    @pytest.mark.parametrize("r", range(9))
    def test_class_is_the_plain_class_truncated_once(self, r):
        aq = [abelian_aq(q) for q in range(1, r + 1)]
        plain = nodal_class(aq, Poly.constant(1, abelian._AQ_CONTEXT))
        assert nodal_locus_class(r) == plain.truncated(_BASE, 2)


class TestTable:
    def test_all_nine_polynomials(self):
        golden = (GOLDEN / "abelian_table.txt").read_text().splitlines()
        for r, line in enumerate(golden):
            assert str(abelian_count(r)) == line

    def test_factored_forms(self):
        g = Poly.variable("g")
        assert abelian_count(0) == g
        assert abelian_count(1) == 6 * g * (g - 1)
        assert abelian_count(2) == 6 * g * (g - 1) * (3 * g - 4)
        assert abelian_count(8) == (
            3 * g * (g - 1)
            * parse("486*g^7 - 7938*g^6 + 69930*g^5 - 389970*g^4 + 1413384*g^3"
                    " - 3216332*g^2 + 4143290*g - 2279375")
            / 35
        )

    @pytest.mark.parametrize("r", range(1, 9))
    def test_divisible_by_g_g_minus_1(self, r):
        poly = abelian_count(r)
        assert poly.evaluate({"g": 0}) == 0
        assert poly.evaluate({"g": 1}) == 0

    @pytest.mark.parametrize("r", range(9))
    def test_integer_valued(self, r):
        poly = abelian_count(r)
        for g in range(-3, 15):
            assert poly.evaluate({"g": g}).denominator == 1


class TestFixedClass:
    def test_r0(self):
        assert fixed_class_count(0) == Poly.constant(1, ("g",))

    def test_r1(self):
        assert fixed_class_count(1) == parse("6*g")

    def test_r2_brute_force(self):
        # independent recomputation: beta0 of (a1^2 + a2)/2 by hand expansion
        # a1 = 3dh + 6C1, a2 = -7(6dh^2 + 24C1h + 12C1SQ - 24C2)
        # beta0 of a1^2 = 9 d^2 h^2; beta0 of a2 = -42 d h^2
        d = Poly.variable("d")
        beta0 = (9 * d * d - 42 * d) / 2
        g = Poly.variable("g")
        expected = beta0.substitute({"d": 2 * g + 2 * 2 - 2}).in_context(("g",))
        assert fixed_class_count(2) == expected

    def test_frozen_values(self):
        # golden-frozen from the first run of this implementation
        expected = {
            0: "1",
            1: "6*g",
            2: "18*g^2 - 6*g - 24",
            3: "36*g^3 - 36*g^2 - 116*g + 200",
            4: "54*g^4 - 108*g^3 - 246*g^2 + 1242*g - 1350",
        }
        for r, text in expected.items():
            assert str(fixed_class_count(r)) == text

    @pytest.mark.parametrize("r", range(9))
    def test_equals_the_surface_count_at_d(self, r):
        # ties the fiber table (l^2 -> d, l^3 -> 6*C1, l^4 -> 12*(C1^2 - 2*C2))
        # to the surface table: an abelian surface has K = 0 and c2 = 0, so
        # k = s = x = 0, and the class has square d = 2g + 2r - 2
        poly = fixed_class_count(r)
        for g in range(1, 12):
            surface = severi_degree(r, ChernNumbers.of(2 * g + 2 * r - 2, 0, 0, 0))
            assert poly.evaluate({"g": g}) == surface.constant_value()


class TestBryanLeungOracle:
    def test_divisor_sums(self):
        assert [divisor_sum(k) for k in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]

    def test_r0_is_g(self):
        for g in range(1, 10):
            assert bryan_leung_count(g, 0) == g

    def test_r1(self):
        for g in range(1, 10):
            assert bryan_leung_count(g, 1) == 6 * g * (g - 1)

    def test_log_coefficients(self):
        assert bryan_leung_log_coefficients(8) == [
            6, -12, 168, -2448, 46944, -1071360, 29064960, -921110400
        ]

    def test_power_recurrence_against_repeated_products(self):
        # g times the q^r coefficient of F^(g-1), F^(g-1) built by g-1 truncated products
        for g in range(1, 41):
            power = node_series_power(g - 1, 12)
            assert [bryan_leung_count(g, r) for r in range(13)] == [g * p for p in power]

    def test_exp_undoes_the_log(self):
        # sum P_n(b_1..b_n) q^n/n! = exp(sum b_r q^r/r!) = F
        b = bryan_leung_log_coefficients(12)
        series = node_series_power(1, 12)
        for n in range(13):
            assert complete_bell(b[:n]) / factorial(n) == series[n]

    def test_inexact_power_names_its_coefficient(self, monkeypatch):
        # F = 1 + q/3: the q^1 coefficient of F^2 is 2/3, not an integer
        monkeypatch.setattr(
            abelian, "_node_series", lambda order: [1, Fraction(1, 3)] + [0] * (order - 1)
        )
        message = r"the q\^1 coefficient of F\^2 is not an integer: 2/3"
        with pytest.raises(ExactnessError, match=message):
            bryan_leung_count(3, 1)

    def test_integral_total_not_divisible_by_n_is_refused(self, monkeypatch):
        # F = 1 + q^2/2, g = 2: 2*p_2 = (2*2 - 2)*(1/2) = 1, so p_2 = 1/2
        monkeypatch.setattr(
            abelian, "_node_series", lambda order: [1, 0, Fraction(1, 2)] + [0] * (order - 2)
        )
        message = r"the q\^2 coefficient of F\^1 is not an integer: 1/2"
        with pytest.raises(ExactnessError, match=message):
            bryan_leung_count(2, 2)

    @pytest.mark.parametrize("r", range(9))
    def test_oracle_equals_intersection_route(self, r):
        poly = abelian_count(r)
        for g in range(2, 13):
            assert poly.evaluate({"g": g}) == bryan_leung_count(g, r)

    def test_per_genus_bell_identity(self):
        # N_{g,r} = g * P_r(a_1,...,a_r)/r! with a_j = (g-1) * b_j
        from nodepoly.bell import bell_value

        b = bryan_leung_log_coefficients(8)
        for g in (2, 5, 9):
            values = [Fraction((g - 1) * bj) for bj in b]
            for r in range(9):
                expected = g * bell_value(r, values) / factorial(r)
                assert bryan_leung_count(g, r) == expected


class TestSetupAndValidity:
    @pytest.mark.parametrize(
        "m,g,r,expected",
        [
            (1, 18, 2, True),
            (1, 17, 2, False),  # 17 = 5*2+7 is not strict
            (2, 13, 1, True),   # threshold 12
            (2, 12, 1, False),
            (1, 12, 1, False),  # 12 = 5*1+7
            (1, 13, 1, True),
            (3, 14, 2, False),  # threshold 77/4
            (3, 20, 2, True),
        ],
    )
    def test_abelian_validity_grid(self, m, g, r, expected):
        assert abelian_validity(m, g, r) is expected

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="r must be non-negative: -3"):
            abelian_validity(1, 5, -3)

    @pytest.mark.parametrize(
        "surface,m,d,k,expected",
        [
            ("abelian", 1, 9, 1, True),    # 9 > 8
            ("abelian", 1, 8, 1, False),   # strict
            ("abelian", 2, 10, 1, True),   # 10 > 8
            ("abelian", 2, 8, 1, False),
            ("k3", 1, 4, 1, True),         # d >= 4k
            ("k3", 1, 3, 1, False),
            ("k3", 2, 10, 1, True),
            ("enriques", 1, 8, 1, True),   # d >= 4(k+1)
            ("enriques", 7, 8, 1, True),
            ("enriques", 1, 7, 1, False),
        ],
    )
    def test_k_very_ample_grid(self, surface, m, d, k, expected):
        assert k_very_ample_ok(surface, m, d, k) is expected

    def test_boundary_parametrized_in_k(self):
        for k in range(0, 6):
            assert k_very_ample_ok("abelian", 1, 4 * k + 5, k)
            assert not k_very_ample_ok("abelian", 1, 4 * k + 4, k)
            assert k_very_ample_ok("k3", 1, 4 * k, k)
            assert not k_very_ample_ok("k3", 1, 4 * k - 1, k)
            assert k_very_ample_ok("enriques", 3, 4 * (k + 1), k)
            assert not k_very_ample_ok("enriques", 3, 4 * k + 3, k)

    def test_unknown_surface(self):
        with pytest.raises(ValueError):
            k_very_ample_ok("rational", 1, 10, 1)

    @pytest.mark.parametrize(
        "call,fragment",
        [
            (lambda: nodal_locus_class(9), "r must be in 0..8: 9"),
            (lambda: divisor_sum(0), "k must be positive: 0"),
            (lambda: bryan_leung_count(3, -1), "r must be non-negative: -1"),
            (lambda: bryan_leung_count(0, 2), "g must be at least 1: 0"),
            (lambda: abelian_validity(0, 3, 1), "class multiple must be positive: 0"),
            (lambda: k_very_ample_ok("k3", 0, 8, 1), "class multiple must be positive: 0"),
        ],
        ids=["nodal-locus-r", "divisor-sum-k", "bryan-leung-r", "bryan-leung-g", "validity-m",
             "kva-m"],
    )
    def test_refused_with_its_message(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()
