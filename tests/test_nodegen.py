"""Tests for the node-polynomial generator."""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodepoly import nodegen
from nodepoly.cli import run
from nodepoly.exactpoly import Poly, parse
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
        assert X2.weighted_degree(CLASS_WEIGHTS) == 3
        assert X3.weighted_degree(CLASS_WEIGHTS) == 6
        assert X4.weighted_degree(CLASS_WEIGHTS) == 10

    def test_v_divides_everything(self):
        for x in (X2, X3, X4):
            for exps in x.terms:
                assert exps[0] >= 1  # every term carries a factor v

    def test_x4_multiplier(self):
        assert X4_MULTIPLIER == 3281 * factorial(7) == 16536240


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
        assert p.weighted_degree(CLASS_WEIGHTS) == 4


class TestGenerator:
    def test_b1_is_x2_verbatim(self):
        assert node_polynomials().b(1) == X2

    def test_b2(self):
        expected = parse("-7*v - 6*w1", CLASS_VARIABLES) * X2
        assert node_polynomials().b(2) == expected

    @pytest.mark.parametrize("q", range(1, 9))
    def test_weighted_homogeneity(self, q):
        assert node_polynomials().b(q).weighted_degree(CLASS_WEIGHTS) == q + 2

    @pytest.mark.parametrize("q", range(1, 9))
    def test_integer_coefficients(self, q):
        for coeff in node_polynomials().b(q).terms.values():
            assert coeff.denominator == 1

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
