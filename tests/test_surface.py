"""Tests for the fixed-surface back end (plane curves)."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest

from nodepoly import surface
from nodepoly.bell import bell_value
from nodepoly.exactpoly import ExactnessError, Poly, integrate, parse
from nodepoly.nodegen import CLASS_VARIABLES, X4, X4_MULTIPLIER
from nodepoly.surface import (
    _SURFACE,
    _SURFACE_INTEGRALS,
    ChernNumbers,
    _plane_severi_degree,
    plane_count,
    plane_validity,
    severi_degree,
    surface_aq,
)
from oracles import complete_bell, k3_counts, plane_severi_degree

GOLDEN = Path(__file__).parent / "golden"
PLANE = ChernNumbers.plane()


def golden_lines(name: str) -> list[str]:
    return (GOLDEN / name).read_text().splitlines()


def pushforward_monomial(a: int, b: int, c: int, cn: ChernNumbers) -> Poly:
    """v^a * w1^b * w2^c at v = c + h, w1 = K, w2 = X, pushed down to Y
    through the surface table and evaluated at the Chern numbers ``cn``."""
    images = {"v": parse("c + h"), "w1": parse("K"), "w2": parse("X")}
    monomial = Poly(CLASS_VARIABLES, {(a, b, c): 1})
    pushed = integrate(monomial.substitute(images), _SURFACE, _SURFACE_INTEGRALS)
    return pushed.substitute(
        {"d": cn.d, "k": cn.k, "s": cn.s, "x": cn.x}
    )


class TestPushforwardMonomial:
    def test_v_cubed(self):
        # only 3*c^2*h survives at surface degree 2
        assert pushforward_monomial(3, 0, 0, PLANE) == parse("3*m^2*h", ("m", "h"))

    def test_point_class_alone(self):
        assert pushforward_monomial(0, 0, 1, PLANE) == parse("3", ("m", "h"))

    def test_canonical_squared(self):
        assert pushforward_monomial(0, 2, 0, PLANE) == parse("9", ("m", "h"))

    def test_overweight_w_part_dies(self):
        assert pushforward_monomial(4, 1, 1, PLANE).is_zero()
        assert pushforward_monomial(2, 3, 0, PLANE).is_zero()

    def test_generic_surface(self):
        cn = ChernNumbers.of(Poly.variable("m"), 2, -1, 7)
        assert pushforward_monomial(2, 1, 0, cn) == parse("4*h", ("m", "h"))


class TestAq:
    def test_table_of_quadratics(self):
        for q, line in enumerate(golden_lines("plane_aq.txt"), start=1):
            assert str(surface_aq(q, PLANE)) == line

    @pytest.mark.parametrize("q", [0, 9])
    def test_q_out_of_range(self, q):
        with pytest.raises(ValueError, match=f"q must be in 1..8: {q}"):
            surface_aq(q, PLANE)

    def test_a_form_not_in_h_to_the_q_is_refused(self, monkeypatch):
        # its pushforward, 6*d*h^2, is in h^2, but the term v has degree 1, not q + 2
        monkeypatch.setattr(surface, "node_polynomial", lambda q: parse("v^4 + v"))
        with pytest.raises(ExactnessError, match=r"b_2 is not concentrated in h\^2"):
            surface._universal_aq.__wrapped__(2)  # past the cache, which it never fills

    def test_a1_from_monomial_oracle(self):
        # independent route: push the three monomials of b_1 one by one
        oracle = (
            pushforward_monomial(3, 0, 0, PLANE)
            + pushforward_monomial(2, 1, 0, PLANE)
            + pushforward_monomial(1, 0, 1, PLANE)
        ).coefficient_of("h", 1)
        assert surface_aq(1, PLANE) == oracle

    def test_every_construction_converts_the_numbers(self):
        expected = surface_aq(1, ChernNumbers.of(1, 2, 3, 4))
        built = ChernNumbers(1, 2, 3, 4)
        assert surface_aq(1, built) == expected
        assert surface_aq(1, ChernNumbers._make((1, 2, 3, 4))) == expected
        assert surface_aq(1, ChernNumbers.of(9, 2, 3, 4)._replace(d=1)) == expected
        assert all(number.variables == ("m",) for number in built)
        m = Poly.variable("m")
        assert ChernNumbers(d=m * m, k=-3 * m, s=9, x=3) == PLANE

    def test_linearity_over_chern_numbers(self):
        zero = ChernNumbers.of(0, 0, 0, 0)
        assert surface_aq(1, zero).is_zero()
        # a_1 = 3d + 2k + x
        d_only = ChernNumbers.of(1, 0, 0, 0)
        k_only = ChernNumbers.of(0, 1, 0, 0)
        s_only = ChernNumbers.of(0, 0, 1, 0)
        x_only = ChernNumbers.of(0, 0, 0, 1)
        assert surface_aq(1, d_only) == Poly.constant(3, ("m",))
        assert surface_aq(1, k_only) == Poly.constant(2, ("m",))
        assert surface_aq(1, s_only) == Poly.constant(0, ("m",))
        assert surface_aq(1, x_only) == Poly.constant(1, ("m",))

    @pytest.mark.parametrize("q", range(1, 9))
    def test_linear_combination_reconstructs(self, q):
        # a_q(plane) equals the (d,k,s,x)-linear form evaluated at the
        # plane numbers; verifies linearity for every q
        coeffs = {
            name: surface_aq(q, ChernNumbers.of(*(1 if key == name else 0 for key in "dksx")))
            for name in "dksx"
        }
        m = Poly.variable("m")
        recombined = (
            coeffs["d"] * m * m + coeffs["k"] * (-3 * m)
            + coeffs["s"] * 9 + coeffs["x"] * 3
        )
        assert recombined == surface_aq(q, PLANE)


class TestSeveriDegrees:
    def test_steiner(self):
        m = Poly.variable("m")
        assert severi_degree(1) == 3 * (m - 1) ** 2

    def test_cayley(self):
        m = Poly.variable("m")
        expected = (m - 1) * (m - 2) * (3 * m * m - 3 * m - 11) * Fraction(3, 2)
        assert severi_degree(2) == expected

    def test_roberts(self):
        expected = parse(
            "9/2*m^6 - 27*m^5 + 9/2*m^4 + 423/2*m^3 - 229*m^2 - 829/2*m + 525"
        )
        assert severi_degree(3) == expected

    @pytest.mark.parametrize("r", range(9))
    def test_degree_and_leading_coefficient(self, r):
        poly = severi_degree(r)
        assert poly.degree_in("m") == 2 * r
        assert poly.terms.get((2 * r,)) == Fraction(3**r, factorial(r))

    def test_eight_nodes_on_quintics(self):
        assert plane_count(8, 5) == 26136

    def test_line_pairs(self):
        assert plane_count(1, 2) == 3

    def test_edge_values_at_m1(self):
        assert [plane_count(r, 1) for r in range(4)] == [1, 0, 0, 75]

    def test_edge_values_at_m2(self):
        assert plane_count(2, 2) == 0
        assert plane_count(3, 2) == -32

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            severi_degree(9)

    def test_plane_polynomial_cached_per_r(self):
        _plane_severi_degree.cache_clear()
        for r in range(9):
            for m in (1, 5, 9):
                plane_count(r, m)
        info = _plane_severi_degree.cache_info()
        assert (info.currsize, info.misses, info.hits) == (9, 9, 18)
        # a caller's Chern numbers key no cache
        assert not hasattr(severi_degree, "cache_info")

    @pytest.mark.parametrize("cn", [ChernNumbers.of(12, -5, 3, 24), ChernNumbers.of(
        3 * Poly.variable("m") ** 2, -2 * Poly.variable("m"), 9, 3)], ids=["integer", "poly"])
    def test_one_pass_builds_few_polys(self, cn, monkeypatch):
        """a_1..a_8 and the Bell recurrence run on numerator maps, reduced once: one
        ``Poly`` per N_8, where a ``Poly`` per a_q and per Bell step would make 16 or more."""
        expected = severi_degree(8, cn)  # fills the cached forms
        real, built = Poly._new.__func__, []

        def counting(cls, *args):
            built.append(args)
            return real(cls, *args)

        monkeypatch.setattr(Poly, "_new", classmethod(counting))
        assert severi_degree(8, cn) == expected
        assert 0 < len(built) <= 2


def seeded_chern_numbers(kind: str, seed: int) -> ChernNumbers:
    """Chern numbers of one kind: integers, fractions over distinct denominators,
    polynomials in m with fractional coefficients, or zeros: seed + 2 of them, the rest
    fractions."""
    rng = random.Random(seed)
    if kind == "integers":
        return ChernNumbers.of(*(rng.randint(-40, 40) for _ in range(4)))
    if kind == "fractions":
        dens = rng.sample([2, 3, 4, 5, 7, 9], 4)
        return ChernNumbers.of(*(Fraction(rng.choice((-1, 1)) * (rng.randint(0, 9) * den + 1), den)
                                 for den in dens))
    if kind == "polys":
        return ChernNumbers.of(*(Poly(("m",), {(e,): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                               for e in range(3)}) for _ in range(4)))
    zeros = rng.sample(range(4), min(seed + 2, 4))
    return ChernNumbers.of(*(0 if i in zeros else Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             for i in range(4)))


class TestSecondRoute:
    """N_r from the cached forms by ``*`` and ``+`` and the oracle's Bell recurrence,
    with no call to the kernel's fused loop."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["integers", "fractions", "polys", "zeros"])
    def test_severi_degree_term_by_term(self, kind, seed):
        cn = seeded_chern_numbers(kind, seed)
        if kind == "fractions":
            assert lcm(*(number.denominator for number in cn)) > 1
        aq = [sum((c * number for c, number in zip(surface._universal_aq(q), cn)), 0 * cn.d)
              for q in range(1, 9)]
        for r in range(9):
            assert severi_degree(r, cn) == complete_bell(aq[:r]) / factorial(r), r


def k3(g: int, r: int) -> ChernNumbers:
    """A primitive class on a K3 surface whose r-nodal curves have genus g."""
    return ChernNumbers.of(2 * g + 2 * r - 2, 0, 0, 24)


def pushed_x4(cn: ChernNumbers) -> Poly:
    """The h^8 coefficient of x4 pushed down through the surface table."""
    pushed = sum(c * pushforward_monomial(*e, cn) for e, c in X4.terms.items())
    return pushed.coefficient_of("h", 8)


class TestK3Oracle:
    """Bryan–Leung's K3 counts: an independent route to the universal a_q."""

    @pytest.mark.parametrize("g", range(12))
    def test_severi_degrees_match(self, g):
        counts = k3_counts(g, 8)
        assert [severi_degree(r, k3(g, r)).constant_value() for r in range(9)] == counts

    def test_yau_zaslow(self):
        assert k3_counts(0, 4) == [1, 24, 324, 3200, 25650]

    def test_x4_multiplier_derived(self):
        # x4 pushes to 45d + 360 on a K3, never 0, so the r = 8 count is
        # linear in the multiplier with a nonzero slope: solve for it
        m = Poly.variable("m")
        assert pushed_x4(ChernNumbers.of(m, 0, 0, 24)) == 45 * m + 360
        for g in range(12):
            cn = k3(g, 8)
            slope = pushed_x4(cn).constant_value()
            aq = [surface_aq(q, cn).constant_value() for q in range(1, 9)]
            aq[7] -= X4_MULTIPLIER * slope  # a_8 of the generator without x4
            rest = bell_value(8, aq)
            multiplier = (factorial(8) * k3_counts(g, 8)[8] - rest) / slope
            assert multiplier == 3281 * factorial(7)


class TestPlaneOracle:
    """Caporaso–Harris Severi degrees: an independent route to the plane a_q.

    P_r = a_r + (a polynomial in a_1..a_{r-1}) and each plane a_q is
    quadratic in m, so agreement at three in-range m per r fixes every
    plane a_q, by induction on r.
    """

    @pytest.mark.parametrize("r", range(9))
    def test_matches_plane_count_in_range(self, r):
        degrees = [m for m in range(1, 8) if plane_validity(r, m)]
        assert len(degrees) >= 3
        for m in degrees:
            assert plane_severi_degree(m, r) == plane_count(r, m)

    def test_published_values(self):
        assert plane_severi_degree(3, 1) == 12
        assert plane_severi_degree(4, 3) == 675
        assert plane_severi_degree(5, 8) == 26136

    def test_no_cubic_with_eight_nodes(self):
        # out of range: the polynomial gives 13378635 there
        assert plane_count(8, 3) == 13378635
        assert plane_severi_degree(3, 8) == 0


class TestValidity:
    @pytest.mark.parametrize(
        "r,m,expected",
        [
            (8, 5, True),   # boundary: 5 = 8/2 + 1
            (8, 4, False),
            (3, 1, False),
            (0, 1, True),
            (1, 2, True),
            (3, 3, True),   # 3 > 3/2 + 1
            (5, 3, False),  # 3 < 5/2 + 1 = 3.5
            (9, 100, False),
        ],
    )
    def test_grid(self, r, m, expected):
        assert plane_validity(r, m) is expected

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="r must be non-negative: -1"):
            plane_validity(-1, 5)
