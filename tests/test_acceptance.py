"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is a hard equality (tolerance zero).  Each test prints a PASS
line when it completes; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion report.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nodepoly.abelian import (
    abelian_aq,
    abelian_count,
    bryan_leung_count,
    bryan_leung_log_coefficients,
    k_very_ample_ok,
    abelian_validity,
)
from nodepoly.bell import bell_value
from nodepoly.enriques import (
    canonical_key,
    enumerate_diagrams,
    invariants,
    inequality_report,
    named_diagram,
)
from nodepoly.exactpoly import Poly, integrate, parse
from nodepoly.grassmann import (
    _FIBER,
    _FIBER_INTEGRALS,
    grass_aq,
    grass_integrate,
    line_restricted_multiplier,
    quintic_irreducible,
    threefold_3nodal_lines,
    threefold_6nodal_symbolic,
)
from nodepoly.nodegen import (
    CLASS_VARIABLES,
    CLASS_WEIGHTS,
    X4,
    X4_MULTIPLIER,
    node_polynomials,
    q_transform,
)
from nodepoly.surface import ChernNumbers, plane_count, plane_validity, surface_aq
from oracles import bell_by_series

GOLDEN = Path(__file__).parent / "golden"
PLANE = ChernNumbers.plane()

MANY = settings(max_examples=1000, deadline=None)


def report(n: int, label: str) -> None:
    print(f"[acceptance] criterion {n:2d}: PASS  {label}")


def test_criterion_01_algorithm_fidelity():
    ns = node_polynomials()
    assert ns.b(1) == ns.x2
    for q in range(1, 9):
        b = ns.b(q)
        assert not b.is_zero() and b.is_weighted_homogeneous(CLASS_WEIGHTS, q + 2)
    # the x4 block: subtract the recomputed Bell blocks of b_8
    one = Poly.constant(1, CLASS_VARIABLES)
    head = bell_value(7, [q_transform(2, ns.b(j)) for j in range(1, 8)], one) * ns.x2
    tail = 210 * bell_value(4, [q_transform(3, ns.b(j)) for j in range(1, 5)], one) * ns.x3
    assert ns.b(8) - head + tail == X4_MULTIPLIER * X4
    assert X4_MULTIPLIER == 3281 * factorial(7)
    report(1, "b_1 = x2; b_q weighted homogeneous of degree q+2; x4 block in b_8")


def test_criterion_02_plane_quadratics_table():
    golden = (GOLDEN / "plane_aq.txt").read_text().splitlines()
    for q, line in enumerate(golden, start=1):
        assert str(surface_aq(q, PLANE)) == line, f"a_{q} mismatch"
    report(2, "all eight plane a_q quadratics, coefficient-exact")


def test_criterion_03_historical_oracles():
    from nodepoly.surface import severi_degree

    m = Poly.variable("m")
    assert severi_degree(1) == 3 * (m - 1) ** 2  # Steiner 1848
    assert severi_degree(2) == Fraction(3, 2) * (m - 1) * (m - 2) * (
        3 * m * m - 3 * m - 11
    )  # Cayley 1863 / Salmon 1865
    assert severi_degree(3) == parse(
        "9/2*m^6 - 27*m^5 + 9/2*m^4 + 423/2*m^3 - 229*m^2 - 829/2*m + 525"
    )  # Roberts 1875
    report(3, "Steiner, Cayley/Salmon and Roberts node polynomials, symbolically")


def test_criterion_04_spot_values():
    assert plane_count(8, 5) == 26136
    a_at_1 = [surface_aq(q, PLANE).evaluate({"m": 1}) for q in range(1, 4)]
    a_at_2 = [surface_aq(q, PLANE).evaluate({"m": 2}) for q in range(1, 4)]
    assert bell_value(3, a_at_1) / factorial(3) == 75
    assert bell_value(3, a_at_2) / factorial(3) == -32
    assert plane_count(1, 2) == 3
    report(4, "N_8(5)=26136, P_3(1)/3!=75, P_3(2)/3!=-32, N_1(2)=3")


def test_criterion_05_threefold_degree18():
    symbolic = threefold_6nodal_symbolic()
    assert str(symbolic) == (GOLDEN / "threefold_6nodal.txt").read_text().strip()
    assert symbolic.evaluate({"m": 5}) == 21617125
    # independent numeric pipeline: specialize m = 5 before the Bell step
    aq5 = [grass_aq(q).substitute({"m": Poly.constant(5)}) for q in range(1, 7)]
    one = Poly.constant(1, ("q1", "q2"))
    numeric = grass_integrate(bell_value(6, aq5, one) / factorial(6))
    assert numeric.constant_value() == 21617125
    report(5, "degree-18 polynomial matches print; value 21617125 at m=5 both routes")


def test_criterion_06_threefold_lines3():
    assert str(threefold_3nodal_lines()) == (
        (GOLDEN / "threefold_lines3.txt").read_text().strip()
    )
    report(6, "degree-9 three-lines polynomial matches print")


def test_criterion_07_irreducible_quintics():
    assert line_restricted_multiplier() == 1185
    assert quintic_irreducible() == 21617125 - 609250 - 2875 * 1185
    assert quintic_irreducible() == 17601000
    report(7, "line multiplier 1185; irreducible count 17601000")


def test_criterion_08_abelian_table():
    golden = (GOLDEN / "abelian_table.txt").read_text().splitlines()
    for r, line in enumerate(golden):
        assert str(abelian_count(r)) == line, f"count polynomial r={r} mismatch"
    report(8, "all nine abelian count polynomials, coefficient-exact")


def test_criterion_09_bryan_leung_equivalence():
    for r in range(9):
        poly = abelian_count(r)
        for g in range(2, 13):
            assert poly.evaluate({"g": g}) == bryan_leung_count(g, r)
    assert bryan_leung_log_coefficients(8) == [
        6, -12, 168, -2448, 46944, -1071360, 29064960, -921110400
    ]
    report(9, "counts agree with the generating function for r<=8, g=2..12")


def test_criterion_10_diagram_inequalities():
    named: dict = {}
    for k in range(1, 30):
        d = named_diagram("A", k)
        if len(d) <= 6 and max(v.weight for v in d.vertices) <= 5:
            named[canonical_key(d)] = f"A{k}"
    for k in range(4, 30):
        d = named_diagram("D", k)
        if len(d) <= 6 and max(v.weight for v in d.vertices) <= 5:
            named[canonical_key(d)] = f"D{k}"
    for k in (6, 7, 8):
        named[canonical_key(named_diagram("E", k))] = f"E{k}"
    a1 = canonical_key(named_diagram("A", 1))
    a2 = canonical_key(named_diagram("A", 2))

    eq_sets: dict[str, set] = {p: set() for p in ("ii", "iii", "iv", "v", "vi", "vii", "viii")}
    checked = 0
    for diagram in enumerate_diagrams(6, 5):
        if len(diagram.roots()) != 1:
            continue
        checked += 1
        key = canonical_key(diagram)
        inv = invariants(diagram)
        m_root = diagram.vertices[diagram.roots()[0]].weight
        results = inequality_report(diagram)
        for result in results:
            assert result.holds, f"part {result.part} fails on {key}"
            if result.part != "i" and result.equality:
                eq_sets[result.part].add(key)
        # per-diagram equality conditions
        report_map = {r.part: r for r in results}
        assert report_map["iv"].equality == (inv.branches == 1)
        assert report_map["vi"].equality == (m_root == inv.branches)
    assert checked > 500  # exhaustive enumeration is non-trivial
    assert eq_sets["ii"] == {a1}
    assert eq_sets["viii"] == {a1}
    assert eq_sets["vii"] == {a1, a2}
    assert eq_sets["iii"] == set(named)
    even_a_e68 = {
        key
        for key, name in named.items()
        if (name.startswith("A") and int(name[1:]) % 2 == 0) or name in ("E6", "E8")
    }
    assert eq_sets["v"] == even_a_e68
    report(10, f"parts (i)-(viii) with exact equality sets over {checked} diagrams")


def test_criterion_11_validity_predicates():
    # plane: m >= r/2 + 1, boundary inclusive
    for r in range(9):
        boundary = Fraction(r, 2) + 1
        for m in range(1, 8):
            assert plane_validity(r, m) is (r <= 8 and Fraction(m) >= boundary)
    assert not plane_validity(9, 100)
    # homology-class counts: strict thresholds in g
    for r in range(9):
        assert not abelian_validity(1, 5 * r + 7, r)
        assert abelian_validity(1, 5 * r + 8, r)
        for m in (2, 3, 5):
            t = Fraction(3 * m * m * r + 3 * m * m - 2 * m * r + 2 * m + 2 * r - 2,
                         2 * m - 2)
            floor_t = t.numerator // t.denominator
            assert not abelian_validity(m, floor_t, r)
            assert abelian_validity(m, floor_t + 1, r) is (floor_t + 1 > t)
    # positivity thresholds: strict for abelian, weakened variants for K3
    # and Enriques surfaces
    for k in range(6):
        assert k_very_ample_ok("abelian", 1, 4 * k + 5, k)
        assert not k_very_ample_ok("abelian", 1, 4 * k + 4, k)
        assert k_very_ample_ok("k3", 1, 4 * k, k)
        assert not k_very_ample_ok("k3", 1, 4 * k - 1, k)
        assert k_very_ample_ok("enriques", 1, 4 * (k + 1), k)
        assert k_very_ample_ok("enriques", 9, 4 * (k + 1), k)
        assert not k_very_ample_ok("enriques", 9, 4 * k + 3, k)
        for m in (2, 3):
            target = m * m * (k + 1)  # the multiple case needs (m-1)*d > target
            d_true = target // (m - 1) + 1
            assert k_very_ample_ok("abelian", m, d_true, k)
            assert not k_very_ample_ok("abelian", m, d_true - 1, k)
            assert k_very_ample_ok("k3", m, d_true, k)
            assert not k_very_ample_ok("k3", m, d_true - 1, k)
    report(11, "plane, homology-class and k-very-ampleness predicates on boundary grids")


# -- criterion 12: randomized property families, 1000 instances each --------

coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys3 = st.dictionaries(exps3, coeffs, max_size=4).map(
    lambda d: Poly(CLASS_VARIABLES, d)
)
epolys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2)),
    coeffs,
    max_size=4,
).map(lambda d: Poly(("e", "w1", "w2"), d))

E_DIVISOR = parse("e^3 + w1*e^2 + w2*e", ("e", "w1", "w2"))


@MANY
@given(polys3, polys3, polys3)
def test_criterion_12a_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(CLASS_VARIABLES) == p
    assert p * Poly.constant(1, CLASS_VARIABLES) == p


@MANY
@given(epolys)
def test_criterion_12b_divrem_reconstruction(p):
    q, r = p.divrem(E_DIVISOR, "e")
    assert q * E_DIVISOR + r == p
    assert r.degree_in("e") <= 2


@MANY
@given(polys3, polys3)
def test_criterion_12c_substitution_homomorphism(p, q):
    e = Poly.variable("e")
    images = {
        "v": Poly.variable("v") - 2 * e,
        "w1": Poly.variable("w1") + e,
        "w2": Poly.variable("w2") - e * e,
    }
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


@MANY
@given(st.integers(0, 10), st.lists(coeffs, min_size=10, max_size=10))
def test_criterion_12d_bell_recurrence_vs_series(n, values):
    assert bell_value(n, values) == bell_by_series(values[:n], Fraction(1))


fiber_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 1)),
    coeffs,
    max_size=4,
).map(lambda d: Poly(("f", "q1", "q2"), d))


def fiber_pushforward(x: Poly) -> Poly:
    # f^5 has no key in the table, so it integrates to 0 without a truncation
    return integrate(x, _FIBER, _FIBER_INTEGRALS)


@MANY
@given(fiber_polys, fiber_polys, st.integers(-5, 5), st.integers(-5, 5))
def test_criterion_12e_fiber_pushforward_linearity(x, y, alpha, beta):
    combined = fiber_pushforward(alpha * x + beta * y)
    assert combined == alpha * fiber_pushforward(x) + beta * fiber_pushforward(y)
    # degrees 0 and 1 in f are annihilated
    low = Poly(("f", "q1", "q2"), {(0, 1, 0): Fraction(2), (1, 0, 1): Fraction(-3)})
    assert fiber_pushforward(low).is_zero()


@MANY
@given(st.integers(1, 8), st.integers(-30, 30), st.integers(-9, 9))
def test_criterion_12f_no_spurious_denominators(q, d0, h0):
    # the coefficient of each base class 1, C1, C1^2, C2 in the abelian a_q
    # evaluates to an integer at any integer (d, h): the route through the
    # integral table for powers of the fiber class involves no division by d
    aq = abelian_aq(q)
    for e1, e2 in ((0, 0), (1, 0), (2, 0), (0, 1)):
        part = aq.coefficient_of("C1", e1).coefficient_of("C2", e2)
        assert part.evaluate({"d": d0, "h": h0}).denominator == 1


def test_criterion_12_report():
    report(12, "six property families, 1000 randomized instances each")
