"""Tests for the complete Bell polynomials."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import import_module
from math import factorial

import pytest

from nodepoly import bell, cli
from nodepoly.bell import MAX_ORDER, bell_polynomial, bell_value, nodal_class
from nodepoly.exactpoly import Poly, parse
from oracles import bell_by_series, complete_bell, term_by_term


class TestSymbolic:
    def test_first_orders(self):
        assert bell_polynomial(0) == Poly.constant(1)
        assert bell_polynomial(1) == Poly.variable("a1")
        assert bell_polynomial(2) == parse("a1^2 + a2", ("a1", "a2"))
        assert bell_polynomial(3) == parse("a1^3 + 3*a1*a2 + a3", ("a1", "a2", "a3"))

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_series_oracle(self, n):
        ctx = tuple(f"a{j}" for j in range(1, n + 1))
        symbols = [Poly.variable(name, ctx) for name in ctx]
        assert bell_polynomial(n) == bell_by_series(symbols, Poly.constant(1, ctx))

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
        values = [Fraction(j) for j in range(1, 9)]
        for n in range(9):
            assert bell_value(n, values) == complete_bell(values[:n])


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


class TestExponentGuard:
    @pytest.mark.parametrize("n", [2, 4])
    def test_checked_at_every_step(self, n):
        """x^(2^30) squared is x^(2^31), one past MAX_EXPONENT.  At n = 4 the last step's
        a_1^4 is x^(2^32), whose guard bit is clear again, so only a check at every step
        of the fused loop sees the overflow."""
        x = Poly(("x",), {(2**30,): 1})
        with pytest.raises(ValueError, match="MAX_EXPONENT") as raised:
            bell_value(n, [x] + [Poly.zero(("x",))] * (n - 1), Poly.constant(1, ("x",)))
        assert raised.traceback[-1].name == "bell_recurrence"


#: str(bell_polynomial(n)) for n = 0..8, as the symbolic construction printed them.
BELL_TEXT = [
    "1",
    "a1",
    "a1^2 + a2",
    "a1^3 + 3*a1*a2 + a3",
    "a1^4 + 6*a1^2*a2 + 4*a1*a3 + 3*a2^2 + a4",
    "a1^5 + 10*a1^3*a2 + 10*a1^2*a3 + 15*a1*a2^2 + 5*a1*a4 + 10*a2*a3 + a5",
    "a1^6 + 15*a1^4*a2 + 20*a1^3*a3 + 45*a1^2*a2^2 + 15*a1^2*a4 + 60*a1*a2*a3 + 15*a2^3"
    " + 6*a1*a5 + 15*a2*a4 + 10*a3^2 + a6",
    "a1^7 + 21*a1^5*a2 + 35*a1^4*a3 + 105*a1^3*a2^2 + 35*a1^3*a4 + 210*a1^2*a2*a3"
    " + 105*a1*a2^3 + 21*a1^2*a5 + 105*a1*a2*a4 + 70*a1*a3^2 + 105*a2^2*a3 + 7*a1*a6"
    " + 21*a2*a5 + 35*a3*a4 + a7",
    "a1^8 + 28*a1^6*a2 + 56*a1^5*a3 + 210*a1^4*a2^2 + 70*a1^4*a4 + 560*a1^3*a2*a3"
    " + 420*a1^2*a2^3 + 56*a1^3*a5 + 420*a1^2*a2*a4 + 280*a1^2*a3^2 + 840*a1*a2^2*a3"
    " + 105*a2^4 + 28*a1^2*a6 + 168*a1*a2*a5 + 280*a1*a3*a4 + 210*a2^2*a4 + 280*a2*a3^2"
    " + 8*a1*a7 + 28*a2*a6 + 56*a3*a5 + 35*a4^2 + a8",
]


def random_poly(rng: random.Random) -> Poly:
    """0-3 terms over a random ordered subset of x, y, z; exponents 0..2, numerators
    -9..9 over denominators 1..5."""
    ctx = tuple(rng.sample("xyz", rng.randint(0, 3)))
    terms = {
        tuple(rng.randint(0, 2) for _ in ctx): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(rng.randint(0, 3))
    }
    return Poly(ctx, terms)


def generic(n: int, values, one):
    """P_n through the symbolic polynomial, term by term."""
    return term_by_term(bell_polynomial(n), {f"a{j}": values[j - 1] for j in range(1, n + 1)}, one)


class TestContract:
    """What ``bell_value`` and ``bell_polynomial`` promise, whatever builds them."""

    @pytest.mark.parametrize("n", range(9))
    def test_text_pinned(self, n):
        assert str(bell_polynomial(n)) == BELL_TEXT[n]
        assert bell_polynomial(n).variables == tuple(f"a{j}" for j in range(1, n + 1))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", range(9))
    def test_poly_arguments_in_differing_contexts(self, n, seed):
        rng = random.Random(1000 * n + seed)
        values = [random_poly(rng) for _ in range(n + rng.randint(0, 2))]
        one = Poly.constant(1, tuple(rng.sample("xyzw", rng.randint(0, 4))))
        value = bell_value(n, values, one)
        assert isinstance(value, Poly)
        assert value == generic(n, values, one)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", range(9))
    def test_scalar_arguments(self, n, seed):
        rng = random.Random(1000 * n + seed)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        value = bell_value(n, values)
        assert isinstance(value, Fraction)
        assert value == generic(n, values, Fraction(1))

    @pytest.mark.parametrize("n", range(9))
    def test_result_types(self, n):
        m = Poly.variable("m")
        assert isinstance(bell_value(n, [Fraction(j, 3) for j in range(n)]), Fraction)
        assert isinstance(bell_value(n, [m] * n, Poly.constant(1, ("m",))), Poly)
        assert isinstance(bell_value(n, list(range(n))), Fraction)
        assert isinstance(bell_value(n, list(range(n)), Poly.constant(1)), Poly)

    def test_error_messages(self):
        with pytest.raises(ValueError, match="^need 3 values, got 1$"):
            bell_value(3, [Fraction(1)])
        with pytest.raises(ValueError, match="^order must be non-negative: -1$"):
            bell_value(-1, [])
        too_high = MAX_ORDER + 1
        with pytest.raises(ValueError, match=f"^order {too_high} exceeds the supported cap "):
            bell_value(too_high, [Fraction(1)] * too_high)
        with pytest.raises(ValueError, match=f"^need {too_high} values, got 2$"):
            bell_value(too_high, [Fraction(1)] * 2)


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the computing modules."""
    for name in ("exactpoly", "bell", "nodegen", "surface", "grassmann", "abelian"):
        for value in vars(import_module(f"nodepoly.{name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.mark.parametrize("argv", [
    "plane --r 8 --m 5", "plane --symbolic --r 8", "abelian --table", "p4 --irreducible", "bq --q 8",
])
def test_commands_never_build_the_symbolic_polynomial(argv, capsys, monkeypatch):
    clear_caches()
    assert cli.run(argv.split()) == 0
    expected = capsys.readouterr().out

    def refuse(n):
        raise RuntimeError(f"bell_polynomial({n}) built on a command path")

    clear_caches()
    monkeypatch.setattr(bell, "bell_polynomial", refuse)
    assert cli.run(argv.split()) == 0
    assert capsys.readouterr().out == expected


#: The seven cold command kinds of the bench's ``cli-cold`` workload.
COLD_KINDS = ["bq --q 8", "plane --r 8 --m 5", "plane --symbolic --r 8", "p4 --m 5",
              "p4 --irreducible", "abelian --r 8 --g 5", "abelian --table"]


def test_cold_commands_rarely_realign_contexts(capsys, monkeypatch):
    """Each pushforward moves its operands into one context once, so few arithmetic
    operations meet operands in different contexts: 1 over the seven kinds, where a
    product or sum per term of a substitution or integration would make hundreds."""
    real, realigned = Poly._aligned, []

    def counting(self, other):
        if isinstance(other, Poly) and other.variables != self.variables:
            realigned.append((self.variables, other.variables))
        return real(self, other)

    monkeypatch.setattr(Poly, "_aligned", counting)
    for argv in COLD_KINDS:
        clear_caches()
        assert cli.run(argv.split()) == 0
    capsys.readouterr()
    assert 0 < len(realigned) <= 5
