"""Expected outputs for the benchmark, from routes independent of nodepoly.

Every checked value comes from one of these sources, in this order:

* the golden files under ``tests/golden/`` and three published values:
  N_8(5) = 26136, the 17601000 irreducible 6-nodal plane quintics on a
  general quintic threefold, and the abelian count N_{3,2} = 180;
* the closed forms of Steiner (r = 1), Cayley (r = 2) and Roberts (r = 3)
  for the plane node polynomials;
* the Bryan-Leung generating function for abelian counts, implemented here;
* ``reference.json``, a table recorded from the seed commit by
  ``make_reference.py``.

``References.load`` re-derives what it can of the table from the first three
sources (plane N_r from the golden a_q through an independent complete-Bell
evaluation, the closed forms, N_8(5), the abelian golden table against the
oracle) and refuses to run when they disagree.

Univariate polynomials are dicts mapping a degree to a ``Fraction``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join("tests", "golden")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

N_8_AT_5 = 26136
QUINTIC_IRREDUCIBLE = 17601000
ABELIAN_N_3_2 = 180


# -- univariate polynomials ---------------------------------------------------


def parse_univariate(text: str, var: str) -> dict[int, Fraction]:
    """Parse nodepoly's canonical text form of a polynomial in one variable."""
    out: dict[int, Fraction] = {}
    for piece in text.strip().replace(" - ", " + -").split(" + "):
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        if "*" in piece:
            coeff, mono = piece.split("*", 1)
        elif piece[0].isdigit():
            coeff, mono = piece, ""
        else:
            coeff, mono = "1", piece
        if mono == "":
            degree = 0
        elif mono == var:
            degree = 1
        elif mono.startswith(var + "^"):
            degree = int(mono[len(var) + 1:])
        else:
            raise ValueError(f"not a polynomial in {var}: {text!r}")
        out[degree] = out.get(degree, Fraction(0)) + sign * Fraction(coeff)
    return {d: c for d, c in out.items() if c}


def evaluate(poly: dict[int, Fraction], x: int) -> Fraction:
    return sum((c * Fraction(x) ** d for d, c in poly.items()), Fraction(0))


def padd(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, Fraction(0)) + c
    return {d: c for d, c in out.items() if c}


def pmul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, Fraction(0)) + ca * cb
    return {d: c for d, c in out.items() if c}


def pscale(a: dict[int, Fraction], c: Fraction | int) -> dict[int, Fraction]:
    return {d: v * c for d, v in a.items() if v * c}


def bell(n: int, a: list[dict[int, Fraction]]) -> dict[int, Fraction]:
    """Complete Bell polynomial P_n at a_1..a_n, by P_{j+1} = sum C(j,k) a_{k+1} P_{j-k}."""
    p = [{0: Fraction(1)}]
    for j in range(n):
        total: dict[int, Fraction] = {}
        for k in range(j + 1):
            total = padd(total, pscale(pmul(a[k], p[j - k]), comb(j, k)))
        p.append(total)
    return p[n]


def node_polynomial(r: int, aq: list[dict[int, Fraction]]) -> dict[int, Fraction]:
    """N_r = P_r(a_1, ..., a_r) / r!."""
    return pscale(bell(r, aq[:r]), Fraction(1, factorial(r)))


# -- closed forms and oracles -------------------------------------------------


def _closed_forms() -> dict[int, dict[int, Fraction]]:
    one = {0: Fraction(1)}
    steiner = {2: Fraction(3), 1: Fraction(-6), 0: Fraction(3)}  # 3(m-1)^2
    # Cayley: 3/2 (m-1)(m-2)(3m^2-3m-11)
    cayley = pscale(
        pmul(pmul({1: Fraction(1), 0: Fraction(-1)}, {1: Fraction(1), 0: Fraction(-2)}),
             {2: Fraction(3), 1: Fraction(-3), 0: Fraction(-11)}),
        Fraction(3, 2),
    )
    # Roberts: 9/2 m^6 - 27 m^5 + 9/2 m^4 + 423/2 m^3 - 229 m^2 - 829/2 m + 525
    roberts = {
        6: Fraction(9, 2), 5: Fraction(-27), 4: Fraction(9, 2), 3: Fraction(423, 2),
        2: Fraction(-229), 1: Fraction(-829, 2), 0: Fraction(525),
    }
    return {0: one, 1: steiner, 2: cayley, 3: roberts}


#: N_r(m) for r <= 3: Steiner, Cayley and Roberts.
CLOSED_FORMS = _closed_forms()


def sigma1(k: int) -> int:
    return sum(d for d in range(1, k + 1) if k % d == 0)


def bryan_leung(g: int, r: int) -> int:
    """N_{g,r} = g * [q^r] (sum_{k>=1} k sigma_1(k) q^(k-1))^(g-1)."""
    base = [(j + 1) * sigma1(j + 1) for j in range(r + 1)]
    power = [1] + [0] * r
    for _ in range(g - 1):
        power = [sum(power[i] * base[j - i] for i in range(j + 1)) for j in range(r + 1)]
    return g * power[r]


def plane_annotation(r: int, m: int) -> str:
    inside = r <= 8 and 2 * m >= r + 2
    return f"{'in' if inside else 'outside'} range (m >= r/2+1)"


def is_integral_text(text: str) -> bool:
    """Whether a result printed in canonical form has only integer coefficients."""
    return "/" not in text


# -- the reference table --------------------------------------------------------


class ReferenceError(Exception):
    """The reference data disagree with the goldens or the published values."""


class References:
    """Goldens, the seed reference table and the oracles, cross-checked on load."""

    def __init__(self, golden: dict[str, list[str]], table: dict):
        self.plane_aq_text = golden["plane_aq"]
        self.abelian_table = golden["abelian_table"]
        self.threefold = parse_univariate(golden["threefold_6nodal"][0], "m")
        self.bq = table["bq"]
        self.severi_text = table["severi"]
        self.severi = [parse_univariate(t, "m") for t in self.severi_text]
        self.aq_linear = [[Fraction(c) for c in row] for row in table["aq_linear"]]
        self.fixed_class = table["fixed_class"]
        self.diagrams = table["diagrams"]
        self.enumerate = table["enumerate"]

    @classmethod
    def load(cls) -> References:
        golden = {}
        for name in ("plane_aq", "abelian_table", "threefold_6nodal"):
            with open(os.path.join(GOLDEN_DIR, name + ".txt"), encoding="utf-8") as fh:
                golden[name] = fh.read().splitlines()
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
        refs = cls(golden, table)
        refs.cross_check()
        return refs

    def cross_check(self) -> None:
        plane_aq = [parse_univariate(t, "m") for t in self.plane_aq_text]
        for q, (alpha, beta, gamma, eps) in enumerate(self.aq_linear, start=1):
            # plane: d = m^2, k = -3m, s = 9, x = 3
            expect = {2: alpha, 1: -3 * beta, 0: 9 * gamma + 3 * eps}
            if {d: c for d, c in expect.items() if c} != plane_aq[q - 1]:
                raise ReferenceError(f"a_{q} coefficients disagree with plane_aq golden")
        for r in range(9):
            if node_polynomial(r, plane_aq) != self.severi[r]:
                raise ReferenceError(f"N_{r} disagrees with the golden a_q")
        for r, form in CLOSED_FORMS.items():
            if form != self.severi[r]:
                raise ReferenceError(f"N_{r} disagrees with its classical closed form")
        if evaluate(self.severi[8], 5) != N_8_AT_5:
            raise ReferenceError("N_8(5) is not 26136")
        if bryan_leung(3, 2) != ABELIAN_N_3_2:
            raise ReferenceError("Bryan-Leung oracle gives N_{3,2} != 180")
        for r, line in enumerate(self.abelian_table):
            poly = parse_univariate(line, "g")
            for g in range(1, 8):
                if evaluate(poly, g) != bryan_leung(g, r):
                    raise ReferenceError(f"abelian golden N_(g,{r}) disagrees at g={g}")

    # -- expected values ----------------------------------------------------

    def plane_value(self, r: int, m: int) -> Fraction:
        return evaluate(CLOSED_FORMS.get(r, self.severi[r]), m)

    def surface_aq(self, q: int, d, k, s, x) -> dict[int, Fraction]:
        """a_q on a surface with Chern numbers given as univariate polynomials."""
        alpha, beta, gamma, eps = self.aq_linear[q - 1]
        total: dict[int, Fraction] = {}
        for coeff, value in ((alpha, d), (beta, k), (gamma, s), (eps, x)):
            total = padd(total, pscale(value, coeff))
        return total

    def surface_severi(self, r: int, d, k, s, x) -> dict[int, Fraction]:
        return node_polynomial(r, [self.surface_aq(q, d, k, s, x) for q in range(1, r + 1)])

    def threefold_value(self, m: int) -> Fraction:
        return evaluate(self.threefold, m)
