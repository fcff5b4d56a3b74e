"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names, integer numerators
keyed by packed monomials, and one positive denominator coprime to them (the
layout of FLINT's ``fmpq_poly``), so sums and products cost integer
arithmetic only.  A packed monomial is one ``int`` with a 32-bit slot per
variable, the first variable most significant; a slot's top bit is a guard,
so an exponent is at most ``MAX_EXPONENT`` = 2^31 - 1, and a larger one,
also from a product, raises ``ValueError``.  ``terms`` maps exponent tuples
to an ``int`` when integral, else to a ``Fraction``; values (``evaluate``,
``constant_value``) are ``Fraction``.  This module is the arithmetic
substrate for the whole package and never touches floating point.

Two polynomials over different variable contexts are reconciled by extending each to
the union context with zero exponents, so ``v + q1`` just works; ``in_one_context`` does
so once for the images of ``substitute`` and the values ``integrate`` uses, and each of the
two sums its terms in one coefficient map; ``evaluate`` sums exact scalars in one loop over the
same power tables as ``substitute``.  Equality is semantic: it compares reconciled terms.

The canonical text form sorts terms by graded-lexicographic order on exponent
vectors, highest first, and prints coefficients as ``num/den`` with the
denominator omitted when it is 1, e.g. ``3*m^2 - 6*m + 3``.  ``parse`` reads
this form back; serialize-then-parse round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from . import ExactnessError  # defined by the package, which enriques imports without this

Scalar = int | Fraction

#: Exponent tuple, one entry per context variable.
Exponents = tuple[int, ...]

_SLOT_BITS = 32
_SLOT = (1 << _SLOT_BITS) - 1

#: The largest exponent a polynomial holds: a slot without its guard bit.
MAX_EXPONENT = (1 << (_SLOT_BITS - 1)) - 1


def integer(value: Scalar, what: str) -> int:
    """``value`` as an ``int``; raises ExactnessError, naming ``what``, if it is not one."""
    value = Fraction(value)
    if value.denominator != 1:
        raise ExactnessError(f"{what} is not an integer: {value}")
    return value.numerator


def _exact(value: Scalar) -> Scalar:
    """An exact scalar as an ``int`` when integral, else as a ``Fraction``."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def _context(variables: Iterable[str]) -> tuple[str, ...]:
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable in context {vs}")
    return vs


def _shifts(n: int) -> range:
    """The slot shifts of an n-variable context, first variable most significant."""
    return range(_SLOT_BITS * (n - 1), -1, -_SLOT_BITS)


def _repacked(num: dict[int, int], moves: Sequence[tuple[int, int]]) -> dict[int, int]:
    """The terms with each kept slot moved from its old shift to its new one."""
    return {sum((k >> old & _SLOT) << new for old, new in moves): c for k, c in num.items()}


class Poly:
    """An immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_variables", "_num", "_den")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        vs = _context(variables)
        shifts = _shifts(len(vs))
        values: dict[int, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vs) or any(
                type(e) is not int or not 0 <= e <= MAX_EXPONENT for e in exps
            ):
                raise ValueError(f"bad exponent vector {exps} for context {vs} (0..MAX_EXPONENT)")
            c = _exact(coeff)
            if c:
                values[sum(e << s for e, s in zip(exps, shifts))] = c
        # the lcm of reduced denominators is coprime to the scaled numerators
        den = lcm(*(c.denominator for c in values.values()))
        self._variables = vs
        self._num = {k: c.numerator * (den // c.denominator) for k, c in values.items()}
        self._den = den

    @classmethod
    def _new(cls, variables: tuple[str, ...], num: dict[int, int], den: int = 1) -> Poly:
        """Trusted: nonzero numerators over a positive ``den``, reduced by their common factor."""
        if den != 1 and (g := gcd(den, *num.values())) != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
        poly = object.__new__(cls)
        poly._variables, poly._num, poly._den = variables, num, den
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> Poly:
        return cls._new(_context(variables), {})

    @classmethod
    def constant(cls, value: Scalar, variables: Iterable[str] = ()) -> Poly:
        c = _exact(value)
        return cls._new(_context(variables), {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> Poly:
        vs = _context(variables) if variables is not None else (name,)
        if name not in vs:
            raise ValueError(f"variable {name!r} not in context {vs}")
        return cls._new(vs, {1 << _shifts(len(vs))[vs.index(name)]: 1})

    # -- introspection -----------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def denominator(self) -> int:
        """The positive common denominator of the coefficients; 1 when all are integers."""
        return self._den

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """Exponent tuples to coefficients, built from the packed storage on request."""
        return MappingProxyType({e: _exact(Fraction(c, self._den)) for e, c in self._unpacked()})

    def _unpacked(self) -> list[tuple[Exponents, int]]:
        """(exponent tuple, numerator) for each term."""
        shifts = _shifts(len(self._variables))
        return [(tuple(k >> s & _SLOT for s in shifts), c) for k, c in self._num.items()]

    def is_zero(self) -> bool:
        return not self._num

    def term_count(self) -> int:
        return len(self._num)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial.

        Raises ValueError when any variable actually occurs.
        """
        if any(self._num):
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._num.get(0, 0), self._den)

    def degree_in(self, var: str) -> int:
        """Largest exponent of ``var``; 0 for the zero polynomial."""
        self._index(var)  # a KeyError for a variable outside the context
        return max(self._degrees({var: 1}), default=0)

    def _index(self, var: str) -> int:
        try:
            return self._variables.index(var)
        except ValueError:
            raise KeyError(f"variable {var!r} not in context {self._variables}") from None

    # -- context reconciliation --------------------------------------------

    def in_context(self, variables: Sequence[str]) -> Poly:
        """Re-express this polynomial over a context containing its variables.

        Variables this polynomial uses with nonzero exponent must appear in
        the target context; others may be dropped.
        """
        vs = tuple(variables)
        if vs == self._variables:
            return self
        target = dict(zip(_context(vs), _shifts(len(vs))))
        moves = []
        for v, s in zip(self._variables, _shifts(len(self._variables))):
            if v in target:
                moves.append((s, target[v]))
            elif any(k >> s & _SLOT for k in self._num):
                raise ValueError(f"cannot drop used variable {v!r} from context")
        return Poly._new(vs, _repacked(self._num, moves), self._den)

    def _aligned(self, other: Any) -> tuple[Poly, Poly]:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self, Poly.constant(other, self._variables)
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if self._variables == other._variables:
            return self, other
        ctx = tuple(dict.fromkeys(self._variables + other._variables))
        return self.in_context(ctx), other.in_context(ctx)

    # -- ring arithmetic -----------------------------------------------------

    def _combined(self, other: Any, sign: int) -> Poly:
        """self + sign*other over the lcm of the denominators."""
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        da, db = a._den, b._den
        den = da if da == db else lcm(da, db)
        out = dict(a._num) if den == da else {k: c * (den // da) for k, c in a._num.items()}
        scale = sign * (den // db)
        get = out.get
        for k, c in b._num.items():
            if s := get(k, 0) + c * scale:
                out[k] = s
            else:
                del out[k]
        return Poly._new(a._variables, out, den)

    def __add__(self, other: Any) -> Poly:
        return self._combined(other, 1)

    def __radd__(self, other: Any) -> Poly:
        return self.__add__(other)

    def __sub__(self, other: Any) -> Poly:
        return self._combined(other, -1)

    def __rsub__(self, other: Any) -> Poly:
        return (-self).__add__(other)

    def __neg__(self) -> Poly:
        return Poly._new(self._variables, {k: -c for k, c in self._num.items()}, self._den)

    def _scaled(self, c: Scalar) -> Poly:
        # an integer scalar leaves the denominator, so an integral result skips the gcd pass
        num = {k: v * c.numerator for k, v in self._num.items()} if c else {}
        return Poly._new(self._variables, num, self._den * c.denominator)

    def __mul__(self, other: Any) -> Poly:
        if not isinstance(other, Poly):
            return self._scaled(other) if isinstance(other, (int, Fraction)) else NotImplemented
        a, b = self._aligned(other)
        out: dict[int, int] = {}
        get = out.get
        right = b._num.items()
        for ka, ca in a._num.items():
            for kb, cb in right:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        # 2^(32n) // (2^32 - 1) has a 1 in each of the n slots; shifted, it marks their guards
        guards = (1 << _SLOT_BITS * len(a._variables)) // _SLOT << _SLOT_BITS - 1
        if reduce(or_, out, 0) & guards:
            raise ValueError(f"a product exponent exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        return Poly._new(a._variables, {k: c for k, c in out.items() if c}, a._den * b._den)

    def __rmul__(self, other: Any) -> Poly:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer: {exponent!r}")
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Poly.constant(1, self._variables) if result is None else result

    def __truediv__(self, other: Scalar) -> Poly:
        c = _exact(other)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self._scaled(1 / Fraction(c))

    def __eq__(self, other: Any) -> bool:
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        return a._den == b._den and a._num == b._num

    def __hash__(self) -> int:
        if not any(self._num):  # no used variable: hash as the value, like int and Fraction
            return hash(self.constant_value())
        vs = self._variables
        return hash((frozenset(
            (frozenset((v, e) for v, e in zip(vs, exps) if e), c) for exps, c in self._unpacked()
        ), self._den))

    # -- the operations the rest of the package is built on -----------------

    def substitute(self, mapping: Mapping[str, Poly | Scalar]) -> Poly:
        """Apply the ring homomorphism sending each variable to its image.

        Variables absent from ``mapping`` map to themselves.  The identity
        mapping returns an equal polynomial.  The images move into one context, and each
        term is one triple of a ``sum_of_products``: its numerator, the product of all its
        factors but the last, and the last, so the terms meet in one coefficient map.
        """
        images = {v: mapping[v] if v in mapping else Poly.variable(v) for v in self._variables}
        values, one = in_one_context(images)
        tables, triples = _power_tables(self, values), []
        for key, c in self._num.items():
            factors = [table[e] if e in table else _power(table, e)
                       for s, table in tables if (e := key >> s & _SLOT)]
            *init, last = factors or [one]
            triples.append((c, reduce(mul, init) if init else one, last))
        total = sum_of_products(triples)
        return Poly._new(one._variables, total._num, total._den * self._den)

    def divrem(self, divisor: Poly, var: str) -> tuple[Poly, Poly]:
        """Long division in ``var`` over the remaining-variable coefficient ring.

        The divisor must be monic in ``var``: its leading coefficient, viewed
        as a polynomial in the other variables, must be the constant 1.
        Returns (quotient, remainder) with self = quotient*divisor + remainder
        and degree_var(remainder) < degree_var(divisor), all exact.
        """
        p, d = self._aligned(divisor)
        ctx = p._variables
        n = d.degree_in(var)
        if d.coefficient_of(var, n) != 1:
            raise ValueError(f"divisor is not monic in {var!r}: {divisor}")
        s = _shifts(len(ctx))[ctx.index(var)]
        quotient = Poly.zero(ctx)
        rem = p
        while not rem.is_zero() and (k := rem.degree_in(var)) >= n:
            # t: the var^k terms of rem, divided by var^n
            lead = {key: c for key, c in rem._num.items() if key >> s & _SLOT == k}
            t = Poly._new(ctx, {key - (n << s): c for key, c in lead.items()}, rem._den)
            quotient = quotient + t
            rem = rem - t * d
        return quotient, rem

    def coefficient_of(self, var: str, k: int) -> Poly:
        """The polynomial in the remaining variables multiplying var**k."""
        self._index(var)  # a KeyError for a variable outside the context
        return integrate(self, {var: 1}, {(k,): 1})

    def _degrees(self, weights: Mapping[str, int]) -> list[int]:
        """The weighted degree of each term, in storage order; unweighted variables count 0."""
        degrees = [0] * len(self._num)
        for v, s in zip(self._variables, _shifts(len(self._variables))):
            if v in weights:  # one pass over the terms per weighted slot
                degrees = [d + (k >> s & _SLOT) * weights[v] for d, k in zip(degrees, self._num)]
        return degrees

    def truncated(self, weights: Mapping[str, int], cap: int) -> Poly:
        """This polynomial without its monomials of weighted degree above ``cap``.

        Only the variables in ``weights`` count towards the degree.
        """
        kept = {k: c for (k, c), d in zip(self._num.items(), self._degrees(weights)) if d <= cap}
        return self if len(kept) == len(self._num) else Poly._new(self._variables, kept, self._den)

    def is_weighted_homogeneous(self, weights: Mapping[str, int], degree: int) -> bool:
        """Whether every term has weighted degree ``degree``; the zero polynomial has every degree.

        Every variable occurring with nonzero exponent needs a weight.
        """
        used = reduce(or_, self._num, 0)
        for v, s in zip(self._variables, _shifts(len(self._variables))):
            if v not in weights and used >> s & _SLOT:
                raise KeyError(f"no weight given for variable {v!r}")
        return all(d == degree for d in self._degrees(weights))

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point; every occurring variable must be assigned.

        Each numerator times its powers is summed over the integers, or the rationals for a
        ``Fraction`` point, and the sum is divided by the denominator once, as one ``Fraction``.
        """
        values = {v: _exact(point[v]) for v in self._variables if v in point}
        tables, total = _power_tables(self, values), 0
        for key, term in self._num.items():
            for s, table in tables:
                if e := key >> s & _SLOT:
                    term *= table[e] if e in table else _power(table, e)
            total += term
        return Fraction(total, self._den)

    # -- canonical text form -------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        pieces: list[str] = []
        # graded lex, highest first: total degree, then exponent vector
        ordered = sorted(self._unpacked(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        for idx, (exps, c) in enumerate(ordered):
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self._variables, exps)
                if e
            )
            mag = Fraction(abs(c), self._den)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self._variables!r}, {self})"


#: One factor of a term: a number ``n`` or ``n/d``, whose denominator has a
#: nonzero digit so that "1/0" is refused, or a name with an optional ``^k``.
_FACTOR = re.compile(
    r"\s*(?:(?P<number>\d+(?:/0*[1-9]\d*)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(?P<power>\d+))?)\s*"
)


def parse(text: str, variables: Iterable[str] | None = None) -> Poly:
    """Parse the canonical text form back into a polynomial.

    Terms are separated by runs of signs, and a term is factors joined by
    ``*``.  When ``variables`` is omitted the context is the variables
    encountered, in order of first appearance.
    """
    pieces = re.split(r"([+-])", text)
    if len(pieces) > 1 and not pieces[-1].strip():
        raise ValueError(f"polynomial text ends in a sign: {text!r}")
    parsed: list[tuple[Fraction, dict[str, int]]] = []
    sign = 1
    for i, piece in enumerate(pieces):
        if i % 2:  # a sign; a run of them folds into one
            sign = -sign if piece == "-" else sign
            continue
        if not piece.strip():  # before the first sign or between two signs
            continue
        coeff, exps = Fraction(sign), {}
        for factor in piece.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"cannot parse factor {factor!r} of polynomial text {text!r}")
            if m["number"] is not None:
                coeff *= Fraction(m["number"])
            else:
                name = m["name"]
                exps[name] = exps.get(name, 0) + int(m["power"] or 1)
        parsed.append((coeff, exps))
        sign = 1

    seen = dict.fromkeys(name for _, exps in parsed for name in exps)
    ctx = tuple(seen if variables is None else variables)
    terms: dict[Exponents, Fraction] = {}
    for coeff, exps in parsed:
        for name in exps:
            if name not in ctx:
                raise ValueError(f"variable {name!r} not in context {ctx}")
        key = tuple(exps.get(v, 0) for v in ctx)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(ctx, terms)


def sum_of_products(terms: Sequence[tuple[int, Poly, Poly]]) -> Poly:
    """The sum of c*x*y over the ``(c, x, y)`` triples, with ``c`` an ``int``.

    Every polynomial must be in one context, else ValueError.  The numerators of all the
    products meet in one map over the lcm of the triples' denominators, and the sum is
    reduced once; no triples give the zero polynomial over the empty context.
    """
    if not terms:
        return Poly.zero()
    variables = terms[0][1]._variables
    dens = [x._den * y._den for _, x, y in terms]
    den = lcm(*dens)
    out: dict[int, int] = {}
    get = out.get
    for (c, x, y), d in zip(terms, dens):
        if x._variables != variables or y._variables != variables:
            raise ValueError(f"operands over {x._variables} and {y._variables}, not {variables}")
        scale = c * (den // d)
        right = y._num.items()
        for kx, cx in x._num.items():
            cx *= scale
            for ky, cy in right:
                k = kx + ky
                out[k] = get(k, 0) + cx * cy
    guards = (1 << _SLOT_BITS * len(variables)) // _SLOT << _SLOT_BITS - 1  # as in a product
    if reduce(or_, out, 0) & guards:
        raise ValueError(f"a product exponent exceeds MAX_EXPONENT = {MAX_EXPONENT}")
    return Poly._new(variables, {k: c for k, c in out.items() if c}, den)


def in_one_context(images: Mapping[Any, Poly | Scalar]) -> tuple[dict[Any, Poly], Poly]:
    """Each image, a polynomial or a scalar, over the union of the images' contexts, and the
    1 of that context: the context step of ``Poly.substitute``, ``integrate`` and ``bell_value``."""
    polys = {v: img if isinstance(img, Poly) else Poly.constant(img) for v, img in images.items()}
    union = tuple(dict.fromkeys(w for img in polys.values() for w in img._variables))
    return {v: img.in_context(union) for v, img in polys.items()}, Poly.constant(1, union)


def _power_tables(poly: Poly, values: Mapping[str, Any]) -> list[tuple[int, dict[int, Any]]]:
    """(slot shift, power table seeded with its value) per occurring variable: the walk of
    ``evaluate`` on scalars and ``substitute`` on polynomials; x^e costs O(log e) products."""
    used = reduce(or_, poly._num, 0)
    tables = []
    for v, s in zip(poly._variables, _shifts(len(poly._variables))):
        if used >> s & _SLOT:
            if v not in values:
                raise KeyError(f"variable {v!r} unassigned")
            tables.append((s, {1: values[v]}))
    return tables


def _power(table: dict[int, Any], e: int) -> Any:
    """The e-th power in a power table, e >= 1: the product of two halves taken from the
    table, each built the same way when missing, and stored for the other terms."""
    if e not in table:
        table[e] = _power(table, e // 2) * _power(table, e - e // 2)
    return table[e]


def integrate(
    poly: Poly, weights: Mapping[str, int], table: Mapping[Exponents, Poly | Scalar]
) -> Poly:
    """The linear map sending each monomial in the graded variables through ``table``.

    Keys are exponent tuples of the graded variables, in the order of
    ``weights``; a monomial with no key integrates to 0.  The remaining
    variables are carried through unchanged, in their order in ``poly``, followed
    by those of the values used.  The terms are grouped by key in one pass, and the
    groups times their values meet in one ``sum_of_products``.
    """
    shift = dict(zip(poly._variables, _shifts(len(poly._variables))))
    picks = [shift.get(v) for v in weights]
    rest = tuple(v for v in poly._variables if v not in weights)
    groups: dict[Exponents, dict[int, int]] = {}
    for k, c in poly._num.items():
        if (key := tuple(0 if s is None else k >> s & _SLOT for s in picks)) in table:
            groups.setdefault(key, {})[k] = c
    values, one = in_one_context({None: Poly.zero(rest), **{key: table[key] for key in groups}})
    moves = [(shift[v], s) for v, s in zip(rest, _shifts(len(one._variables)))]  # rest leads
    return sum_of_products([(1, Poly._new(one._variables, _repacked(num, moves), poly._den),
                             values[key]) for key, num in groups.items()]) if groups else 0 * one
