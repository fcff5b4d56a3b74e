"""Tests for the node-polynomial generator."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodepoly import abelian, grassmann, nodegen, surface
from nodepoly.bell import bell_value, nodal_class
from nodepoly.cli import run
from nodepoly.exactpoly import Poly, in_one_context, integrate, parse
from nodepoly.grassmann import grass_aq, grass_integrate
from nodepoly.nodegen import (
    CLASS_VARIABLES,
    CLASS_WEIGHTS,
    X2,
    X3,
    X4,
    X4_MULTIPLIER,
    node_polynomial,
    node_polynomials,
    q_transform,
)
from nodepoly.surface import ChernNumbers
from oracles import jet_bundle_top_class, node_polynomials_by_recursion, term_by_term
from test_surface import pushforward_monomial

#: ``str(b_q)`` for q = 1..8, one line each, recorded from the generator
#: while every coefficient was still stored as a ``Fraction``.
GOLDEN_BQ = (Path(__file__).parent / "golden" / "node_polynomials.txt").read_text().splitlines()


def clear_generator() -> None:
    """Forget every cached b_q and Q(i, b_j)."""
    nodegen.node_polynomial.cache_clear()
    nodegen._q_of_b.cache_clear()


@pytest.fixture
def cold_generator():
    clear_generator()
    yield
    clear_generator()


@pytest.fixture
def transforms(cold_generator, monkeypatch):
    """The (i, j) of every Q(i, b_j) computed while the test runs."""
    polys: list[tuple[int, Poly]] = []
    real = nodegen.q_transform

    def counting(i, poly):
        polys.append((i, poly))
        return real(i, poly)

    monkeypatch.setattr(nodegen, "q_transform", counting)

    def pairs() -> list[tuple[int, int]]:
        seen = list(polys)  # naming them builds the rest, which adds calls
        built = {q: node_polynomial(q) for q in range(1, 9)}
        return sorted((i, next(q for q, b in built.items() if b == poly)) for i, poly in seen)

    return pairs


class TestFixedInputs:
    def test_term_counts(self):
        # transcription checksum for the embedded input polynomials
        assert X2.term_count() == 3
        assert X3.term_count() == 9
        assert X4.term_count() == 24

    def test_weighted_degrees(self):
        assert X2.is_weighted_homogeneous(CLASS_WEIGHTS, 3)
        assert X3.is_weighted_homogeneous(CLASS_WEIGHTS, 6)
        assert X4.is_weighted_homogeneous(CLASS_WEIGHTS, 10)

    def test_v_divides_everything(self):
        for x in (X2, X3, X4):
            for exps in x.terms:
                assert exps[0] >= 1  # every term carries a factor v

    def test_x4_multiplier(self):
        assert X4_MULTIPLIER == 3281 * factorial(7) == 16536240


def root_grid(degree: int):
    """Integer (alpha, beta, v), degree + 2 values on each axis.

    A polynomial of at most that degree in each variable which vanishes on
    the grid is zero, so agreement on it is an identity of polynomials.
    """
    axis = range(-(degree // 2) - 1, degree - degree // 2 + 1)
    return product(axis, repeat=3)


def at_roots(x: Poly, alpha: int, beta: int, v: int) -> Fraction:
    """``x`` at w1 = alpha + beta, w2 = alpha*beta."""
    return x.evaluate({"v": v, "w1": alpha + beta, "w2": alpha * beta})


class TestJetBundles:
    """X2, X3 and X4 against top Chern classes of jet bundles, in ``tests/oracles.py``.

    A polynomial in v, w1, w2 is determined by its values at w1 = alpha + beta,
    w2 = alpha*beta, and there each side has degree at most its weighted degree
    in alpha, in beta and in v.
    """

    @pytest.mark.parametrize("k,x", [(1, X2), (2, X3)], ids=["X2", "X3"])
    def test_is_the_jet_bundle_class(self, k, x):
        degree = (k + 1) * (k + 2) // 2
        for alpha, beta, v in root_grid(degree):
            assert at_roots(x, alpha, beta, v) == jet_bundle_top_class(k, alpha, beta, v)

    def test_x4_differs_by_a_multiple_of_one_monomial(self):
        """c_10(J^3 L) - X4 is n*v^5*w1^3*w2 for one integer n.

        This pins 23 of X4's 24 coefficients.  The one left open is that of
        v^5*w1^3*w2, which no other check sees: a fixed surface integrates it
        to 0, the abelian back end sets w = 0, and b_8 enters no G(3,5) count.
        X4 has 29 there, where c_10(J^3 L) has 429, and the test holds for
        either.  X4 stays as printed, since changing it changes b_8 and the
        recorded ``bq --q 8`` output that the benchmark checks against.
        """
        multiples = set()
        for alpha, beta, v in root_grid(10):
            difference = jet_bundle_top_class(3, alpha, beta, v) - at_roots(X4, alpha, beta, v)
            monomial = v**5 * (alpha + beta) ** 3 * alpha * beta
            if monomial:
                multiples.add(difference / monomial)
            else:
                assert difference == 0
        assert len(multiples) == 1
        assert multiples.pop().denominator == 1


#: The images of v, w1, w2 in ``grassmann.grass_aq``.
PLANE_BUNDLE_IMAGES = {
    "v": parse("m*f"), "w1": parse("q1 - 3*f"), "w2": parse("q2 - 2*f*q1 + 3*f^2"),
}

#: Degree-3 integrals on G(3, 4), the dual P^3, keyed as (e_q1, e_q2): there
#: c(S*) = 1 + H + H^2 + H^3, so q1^3 and q1*q2 both integrate to 1.
G34_INTEGRALS = {(3, 0): 1, (1, 1): 1}

#: The 1 of the Grassmannian classes.
GRASS_ONE = Poly.constant(1, grassmann._CONTEXT)


def on_g34(cls: Poly) -> Poly:
    """A degree-3 class in q1, q2 (coefficients in m) integrated over G(3, 4).

    Every key of ``G34_INTEGRALS`` has degree 3 (``test_g34_table_has_degree_3_only``),
    so a monomial above degree 3 integrates to 0 with no truncation.
    """
    return integrate(cls, grassmann._BASE, G34_INTEGRALS)


def class_monomials(q: int) -> list[tuple[int, int, int]]:
    """The exponents (a, b, c) of the monomials v^a*w1^b*w2^c of weighted degree q + 2."""
    degree = q + 2
    return [(degree - b - 2 * c, b, c)
            for c in range(degree // 2 + 1) for b in range(degree - 2 * c + 1)]


def rank(columns: list[dict]) -> int:
    """The rank of the matrix with these columns, each a map from row keys to
    rationals, by exact Gaussian elimination."""
    keys = {key for column in columns for key in column}
    rows = [[Fraction(column.get(key, 0)) for column in columns] for key in keys]
    found = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(found, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        for i in range(found + 1, len(rows)):
            if rows[i][j]:
                factor = rows[i][j] / top[j]
                rows[i] = [x - factor * y for x, y in zip(rows[i], top)]
        found += 1
    return found


class TestWhatTheChecksSee:
    """How many directions of each b_q's coefficient space the independent checks see.

    The checks: the plane a_q (Caporaso–Harris), the K3 a_q with k = s = 0
    (Bryan–Leung), the degree-18 and degree-9 p4 polynomials (Bott residues)
    and Salmon's plane-section counts over G(3, 4).  To first order, a change
    db_q changes a_q by its pushforward da_q, and a count P_r(a)/r! by
    P_{r-q}(a)/((r-q)!*q!) * da_q.  Each monomial of b_q gives one column; each
    coefficient of a checked polynomial in m (on the K3, m stands for d) one row.
    A fixed surface integrates every monomial with b + 2c > 2 to 0, and b_7,
    b_8 enter no Grassmannian count, so those two are seen in 4 directions
    only.  Without the plane, K3 or degree-18 rows, some rank drops; the
    degree-9 and Salmon rows add no direction at first order.
    """

    DIMS = (6, 9, 12, 16, 20, 25, 30, 36)
    SEEN = (4, 6, 9, 11, 9, 9, 4, 4)

    @staticmethod
    def columns(q: int) -> list[dict]:
        m, q1 = Poly.variable("m"), Poly.variable("q1")
        a = [grass_aq(j) for j in range(1, 7 - q)]

        def derivative(r: int, da: Poly) -> Poly:  # d(P_r/r!)/da_q times da
            scale = Fraction(1, factorial(r - q) * factorial(q))
            return bell_value(r - q, a, GRASS_ONE) * scale * da

        columns = []
        for exps in class_monomials(q):
            checked = {
                "plane": pushforward_monomial(*exps, ChernNumbers.plane()),
                "K3": pushforward_monomial(*exps, ChernNumbers.of(m, 0, 0, 24)),  # d = m
            }
            if q <= 6:
                db = Poly(CLASS_VARIABLES, {exps: 1})
                da = integrate(db.substitute(PLANE_BUNDLE_IMAGES), grassmann._FIBER,
                               grassmann._FIBER_INTEGRALS)
                checked["degree 18"] = grass_integrate(derivative(6, da))
            if q <= 3:
                checked["degree 9"] = grass_integrate(derivative(3, da) * q1**3)
                for r in range(q, 4):  # r nodes, the plane through 3 - r points
                    checked[f"Salmon r={r}"] = on_g34(derivative(r, da) * q1 ** (3 - r))
            columns.append({(name, key): c for name, poly in checked.items()
                            for key, c in poly.terms.items()})
        return columns

    def test_rank_of_the_first_order_map(self):
        columns = [self.columns(q) for q in range(1, 9)]
        assert tuple(len(c) for c in columns) == self.DIMS
        assert tuple(rank(c) for c in columns) == self.SEEN

    def test_g34_table_has_degree_3_only(self):
        assert {e1 + 2 * e2 for e1, e2 in G34_INTEGRALS} == {3}

    def test_g34_table_gives_salmons_tritangent_planes(self):
        count = on_g34(nodal_class([grass_aq(q) for q in range(1, 4)], GRASS_ONE))
        assert [count.evaluate({"m": m}) for m in (3, 4)] == [45, 3200]


#: Each back end's images of v, w1, w2, grading, table and the q it integrates
#: b_q for, with the cap above which its fiber or surface classes vanish.
BACK_END_ROUTES = {
    "surface": ({"v": parse("c + h"), "w1": parse("K"), "w2": parse("X")}, surface._SURFACE,
                surface._SURFACE_INTEGRALS, 2, range(1, 9)),
    "plane bundle": (PLANE_BUNDLE_IMAGES, grassmann._FIBER, grassmann._FIBER_INTEGRALS, 4,
                     range(1, 7)),
    "line restriction": ({**PLANE_BUNDLE_IMAGES, "v": parse("4*f + q1")}, grassmann._FIBER,
                         grassmann._FIBER_INTEGRALS, 4, range(1, 7)),
    "abelian fiber": ({"v": parse("l + h"), "w1": 0, "w2": 0}, abelian._FIBER,
                      abelian._FIBER_INTEGRALS, 4, range(1, 9)),
}


class TestIntegrationNeedsNoTruncation:
    """Every key of a back end's table lies at or below its cap, so integrating
    b_q at the images gives the same class with or without truncating first."""

    @pytest.mark.parametrize("route,q", [(route, q) for route, (*_, qs) in BACK_END_ROUTES.items()
                                         for q in qs])
    def test_integral_of_the_substituted_bq(self, route, q):
        images, weights, table, cap, _ = BACK_END_ROUTES[route]
        bq = node_polynomial(q)
        integral = integrate(bq.substitute(images), weights, table)
        assert integral == integrate(bq.substitute(images).truncated(weights, cap), weights, table)
        assert not integral.is_zero()


class TestQTransform:
    def test_zero(self):
        assert q_transform(3, Poly.zero(CLASS_VARIABLES)) == Poly.zero()

    def test_on_x2_with_i2(self):
        assert q_transform(2, X2) == parse("-7*v - 6*w1", CLASS_VARIABLES)

    def test_on_x2_with_i3(self):
        assert q_transform(3, X2) == parse("-20*v - 24*w1", CLASS_VARIABLES)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_linearity(self, i, alpha, beta):
        r = parse("v^3 + 2*v*w2", CLASS_VARIABLES)
        s = parse("v^2*w1 - w2*v", CLASS_VARIABLES)
        combined = q_transform(i, alpha * r + beta * s)
        assert combined == alpha * q_transform(i, r) + beta * q_transform(i, s)

    def test_lowers_weighted_degree_by_two(self):
        p = q_transform(2, X3)
        assert not p.is_zero() and p.is_weighted_homogeneous(CLASS_WEIGHTS, 4)


E_DIVISOR = parse("e^3 + w1*e^2 + w2*e", ("e", "w1", "w2"))

#: Every monomial in v, w1, w2 of weighted degree at most 10.
LOW_MONOMIALS = [(a, b, c) for a in range(11) for b in range(11) for c in range(6)
                 if a + b + 2 * c <= 10]


def q_by_division(i: int, poly: Poly) -> Poly:
    """Q(i, R) by its definition: substitute term by term, divide by
    e^3 + w1*e^2 + w2*e, and negate the remainder's e^2 coefficient."""
    e = Poly.variable("e")
    images = {"v": Poly.variable("v") - i * e, "w1": Poly.variable("w1") + e,
              "w2": Poly.variable("w2") - e * e}
    shifted = term_by_term(poly, *in_one_context(images))  # not the one-map route
    _, rem = shifted.divrem(E_DIVISOR, "e")
    return (-rem.coefficient_of("e", 2)).in_context(CLASS_VARIABLES)


class TestQRoute:
    """``q_transform`` integrates in e through a table; the division route is the definition."""

    def test_table_entries_are_negated_remainder_coefficients(self):
        table = nodegen._e_table(12)
        for k in range(2, 13):
            _, rem = (Poly.variable("e") ** k).divrem(E_DIVISOR, "e")
            assert table[k,] == -rem.coefficient_of("e", 2)
            assert table[k,].variables == CLASS_VARIABLES
        assert (0,) not in table and (1,) not in table

    @given(
        st.integers(min_value=1, max_value=4),
        st.dictionaries(
            st.sampled_from(LOW_MONOMIALS),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
            max_size=5,
        ),
    )
    def test_equals_the_division_route(self, i, terms):
        poly = Poly(CLASS_VARIABLES, terms)
        q = q_transform(i, poly)
        assert q == q_by_division(i, poly)
        assert q.variables == CLASS_VARIABLES

    @pytest.mark.parametrize("j", range(1, 8))
    def test_node_polynomials_take_the_same_route(self, j):
        for i in (2, 3):
            assert q_transform(i, node_polynomial(j)) == q_by_division(i, node_polynomial(j))


class TestGenerator:
    def test_b1_is_x2_verbatim(self):
        assert node_polynomials().b(1) == X2

    def test_b2(self):
        expected = parse("-7*v - 6*w1", CLASS_VARIABLES) * X2
        assert node_polynomials().b(2) == expected

    @pytest.mark.parametrize("q", range(1, 9))
    def test_weighted_homogeneity(self, q):
        b = node_polynomials().b(q)
        assert not b.is_zero() and b.is_weighted_homogeneous(CLASS_WEIGHTS, q + 2)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_integer_coefficients(self, q):
        for coeff in node_polynomials().b(q).terms.values():
            assert coeff.denominator == 1
        assert node_polynomials().b(q).denominator == 1

    def test_generator_and_golden_match_the_oracle(self):
        # b_1..b_8 by a second implementation of the recursion, in tests/oracles.py
        oracle = node_polynomials_by_recursion()
        for q in range(1, 9):
            assert dict(node_polynomial(q).in_context(CLASS_VARIABLES).terms) == oracle[q - 1]
            assert dict(parse(GOLDEN_BQ[q - 1], CLASS_VARIABLES).terms) == oracle[q - 1]

    def test_x4_block_in_b8(self):
        # rebuild the two Bell blocks of b_8 from scratch; the leftover must
        # be exactly the x4 block with its multiplier 3281 * 7!
        from nodepoly.bell import bell_value

        ns = node_polynomials()
        one = Poly.constant(1, CLASS_VARIABLES)
        head = bell_value(7, [q_transform(2, ns.b(j)) for j in range(1, 8)], one) * X2
        tail = 210 * bell_value(4, [q_transform(3, ns.b(j)) for j in range(1, 5)], one) * X3
        assert ns.b(8) - head + tail == X4_MULTIPLIER * X4

    def test_pure_v_coefficients(self):
        # coefficient of v^(q+2) in b_q; frozen from an independent
        # symbolic run of the generator
        kappa = [1, -7, 138, -4824, 248832, -17187120, 1497698640, -158186669760]
        ns = node_polynomials()
        for q in range(1, 9):
            assert ns.b(q).terms.get((q + 2, 0, 0)) == Fraction(kappa[q - 1])

    def test_determinism(self, cold_generator):
        first = node_polynomials()
        clear_generator()
        second = node_polynomials()
        for q in range(1, 9):
            assert first.b(q) is not second.b(q)  # really rebuilt
            assert first.b(q) == second.b(q)
            assert str(first.b(q)) == str(second.b(q))

    def test_text_matches_golden(self):
        assert [str(node_polynomial(q)) for q in range(1, 9)] == GOLDEN_BQ

    def test_bq_command_matches_golden(self, capsys):
        assert run(["bq", "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["result"] for line in lines] == GOLDEN_BQ

    def test_set_holds_the_lazy_polynomials(self):
        ns = node_polynomials()
        assert all(ns.b(q) is node_polynomial(q) for q in range(1, 9))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            node_polynomials().b(0)
        with pytest.raises(ValueError):
            node_polynomials().b(9)
        for q in (0, 9):
            with pytest.raises(ValueError, match=f"q must be in 1..8: {q}"):
                node_polynomial(q)


class TestLazyBuild:
    def test_b8_transforms_each_pair_once(self, transforms):
        node_polynomial(8)
        assert transforms() == [(2, j) for j in range(1, 8)] + [(3, j) for j in range(1, 5)]

    def test_b3_builds_only_what_it_needs(self, transforms):
        node_polynomial(3)
        assert nodegen.node_polynomial.cache_info().currsize == 3  # b_1, b_2, b_3
        assert transforms() == [(2, 1), (2, 2)]

    def test_warm_build_transforms_nothing(self, transforms):
        node_polynomials()
        before = len(transforms())
        node_polynomials()
        node_polynomial(5)
        assert len(transforms()) == before == 11
