"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a term map from
exponent tuples (one non-negative integer per variable) to nonzero rational
coefficients.  A coefficient is stored as an ``int`` when it is integral and
as a ``fractions.Fraction`` otherwise, so every operation is exact and the
integral polynomials the package is built on cost integer arithmetic only.
Values (``evaluate``, ``constant_value``) are always ``Fraction``.  This
module is the arithmetic substrate for the whole package and never touches
floating point.

Two polynomials over different variable contexts are reconciled by extending
each to the union context with zero exponents, so ``v + q1`` just works.
Equality is semantic: it compares term maps after reconciliation.

The canonical text form sorts terms by graded-lexicographic order on exponent
vectors, highest first, and prints coefficients as ``num/den`` with the
denominator omitted when it is 1, e.g. ``3*m^2 - 6*m + 3``.  ``parse`` reads
this form back; serialize-then-parse round-trips exactly.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

Scalar = int | Fraction

#: Exponent tuple, one entry per context variable.
Exponents = tuple[int, ...]


class ExactnessError(AssertionError):
    """An exact result broke an identity it must satisfy: a bug, not bad input.

    Raised by explicit checks, so it fires under ``python -O`` too.
    """


class Homogeneity(enum.Enum):
    """Special weighted-degree results.

    ZERO marks the zero polynomial, which is vacuously homogeneous of every
    degree; MIXED marks a polynomial whose terms have differing weights.
    """

    ZERO = "zero"
    MIXED = "inhomogeneous"


def _exact(value: Scalar) -> Scalar:
    """The stored form of a coefficient: an ``int`` when integral, else a ``Fraction``."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Poly:
    """An immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable in context {vs}")
        clean: dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vs) or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for context {vs}")
            c = _exact(coeff)
            if c != 0:
                clean[exps] = c
        self._variables = vs
        self._terms = clean

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: Mapping[Exponents, Scalar]) -> Poly:
        """A polynomial from terms built out of valid polynomials by this module.

        Trusts the context and the exponent vectors; only drops zero
        coefficients and stores integral ones as ``int``.
        """
        poly = object.__new__(cls)
        poly._variables = variables
        poly._terms = {
            exps: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for exps, c in terms.items()
            if c
        }
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> Poly:
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Scalar, variables: Iterable[str] = ()) -> Poly:
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> Poly:
        vs = tuple(variables) if variables is not None else (name,)
        if name not in vs:
            raise ValueError(f"variable {name!r} not in context {vs}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    # -- introspection -----------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial.

        Raises ValueError when any variable actually occurs.
        """
        value = Fraction(0)
        for exps, coeff in self._terms.items():
            if any(exps):
                raise ValueError(f"not a constant polynomial: {self}")
            value = Fraction(coeff)
        return value

    def degree_in(self, var: str) -> int:
        """Largest exponent of ``var``; 0 for the zero polynomial."""
        i = self._index(var)
        return max((exps[i] for exps in self._terms), default=0)

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
        pos = {v: i for i, v in enumerate(vs)}
        if len(pos) != len(vs):
            raise ValueError(f"duplicate variable in context {vs}")
        out: dict[Exponents, Scalar] = {}
        for exps, coeff in self._terms.items():
            new = [0] * len(vs)
            for v, e in zip(self._variables, exps):
                if e == 0:
                    continue
                if v not in pos:
                    raise ValueError(f"cannot drop used variable {v!r} from context")
                new[pos[v]] = e
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff
        return Poly._raw(vs, out)

    @staticmethod
    def _merged_context(a: Poly, b: Poly) -> tuple[str, ...]:
        merged = list(a._variables)
        for v in b._variables:
            if v not in merged:
                merged.append(v)
        return tuple(merged)

    def _aligned(self, other: Any) -> tuple[Poly, Poly]:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self._variables)
        if not isinstance(other, Poly):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if self._variables == other._variables:
            return self, other
        ctx = Poly._merged_context(self, other)
        return self.in_context(ctx), other.in_context(ctx)

    # -- ring arithmetic -----------------------------------------------------

    def __add__(self, other: Any) -> Poly:
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        out = dict(a._terms)
        for exps, coeff in b._terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Poly._raw(a._variables, out)

    def __radd__(self, other: Any) -> Poly:
        return self.__add__(other)

    def __sub__(self, other: Any) -> Poly:
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        out = dict(a._terms)
        for exps, coeff in b._terms.items():
            out[exps] = out.get(exps, 0) - coeff
        return Poly._raw(a._variables, out)

    def __rsub__(self, other: Any) -> Poly:
        return (-self).__add__(other)

    def __neg__(self) -> Poly:
        return Poly._raw(self._variables, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Any) -> Poly:
        a, b = self._aligned(other)
        if a is NotImplemented:
            return NotImplemented
        out: dict[Exponents, Scalar] = {}
        for ea, ca in a._terms.items():
            for eb, cb in b._terms.items():
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Poly._raw(a._variables, out)

    def __rmul__(self, other: Any) -> Poly:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer: {exponent!r}")
        result = Poly.constant(1, self._variables)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other: Scalar) -> Poly:
        c = _exact(other)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        quotient = {e: Fraction(coeff) / c for e, coeff in self._terms.items()}
        return Poly._raw(self._variables, quotient)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self._variables)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._aligned(other)
        return a._terms == b._terms

    def __hash__(self) -> int:
        used = sorted(
            (tuple(sorted((v, e) for v, e in zip(self._variables, exps) if e)), coeff)
            for exps, coeff in self._terms.items()
        )
        return hash(tuple(used))

    # -- the operations the rest of the package is built on -----------------

    def substitute(self, mapping: Mapping[str, Poly | Scalar]) -> Poly:
        """Apply the ring homomorphism sending each variable to its image.

        Variables absent from ``mapping`` map to themselves.  The identity
        mapping returns an equal polynomial.  All images are moved into one
        context first, so no product of the evaluation reconciles contexts.
        """
        images: dict[str, Poly] = {}
        for v in self._variables:
            img = mapping.get(v, None)
            if img is None:
                img = Poly.variable(v)
            elif isinstance(img, (int, Fraction)):
                img = Poly.constant(img)
            images[v] = img
        union = tuple(dict.fromkeys(w for img in images.values() for w in img._variables))
        images = {v: img.in_context(union) for v, img in images.items()}
        return evaluate_in(self, images, Poly.constant(1, union))

    def divrem(self, divisor: Poly, var: str) -> tuple[Poly, Poly]:
        """Long division in ``var`` over the remaining-variable coefficient ring.

        The divisor must be monic in ``var``: its leading coefficient, viewed
        as a polynomial in the other variables, must be the constant 1.
        Returns (quotient, remainder) with self = quotient*divisor + remainder
        and degree_var(remainder) < degree_var(divisor), all exact.
        """
        ctx = Poly._merged_context(self, divisor)
        p = self.in_context(ctx)
        d = divisor.in_context(ctx)
        n = d.degree_in(var)
        if d.coefficient_of(var, n) != Poly.constant(1):
            raise ValueError(f"divisor is not monic in {var!r}: {divisor}")
        i = ctx.index(var)
        quotient = Poly.zero(ctx)
        rem = p
        while not rem.is_zero() and rem.degree_in(var) >= n:
            k = rem.degree_in(var)
            lead = rem.coefficient_of(var, k).in_context(ctx)
            shift = tuple(k - n if j == i else 0 for j in range(len(ctx)))
            t = lead * Poly._raw(ctx, {shift: 1})
            quotient = quotient + t
            rem = rem - t * d
        return quotient, rem

    def coefficient_of(self, var: str, k: int) -> Poly:
        """The polynomial in the remaining variables multiplying var**k."""
        i = self._index(var)
        rest = tuple(v for v in self._variables if v != var)
        out: dict[Exponents, Scalar] = {}
        for exps, coeff in self._terms.items():
            if exps[i] != k:
                continue
            key = tuple(e for j, e in enumerate(exps) if j != i)
            out[key] = out.get(key, 0) + coeff
        return Poly._raw(rest, out)

    def weighted_degree(self, weights: Mapping[str, int]) -> int | Homogeneity:
        """Common weighted degree of all terms, or a Homogeneity sentinel.

        Every variable occurring with nonzero exponent needs a positive
        weight.  The zero polynomial reports Homogeneity.ZERO, which is
        compatible with every degree.
        """
        degree: int | Homogeneity = Homogeneity.ZERO
        for exps in self._terms:
            w = 0
            for v, e in zip(self._variables, exps):
                if e == 0:
                    continue
                if v not in weights:
                    raise KeyError(f"no weight given for variable {v!r}")
                w += weights[v] * e
            if degree is Homogeneity.ZERO:
                degree = w
            elif degree != w:
                return Homogeneity.MIXED
        return degree

    def is_weighted_homogeneous(self, weights: Mapping[str, int], degree: int) -> bool:
        d = self.weighted_degree(weights)
        return d == Homogeneity.ZERO or d == degree

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point; every occurring variable must be assigned."""
        values = {v: _exact(point[v]) for v in self._variables if v in point}
        return Fraction(evaluate_in(self, values, 1))

    # -- canonical text form -------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        # graded lex, highest first: total degree, then exponent vector
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for idx, (exps, coeff) in enumerate(self._sorted_terms()):
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self._variables, exps)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = _format_fraction(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_format_fraction(mag)}*{mono}"
            if idx == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self._variables!r}, {self})"


def _format_fraction(value: Scalar) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<caret>\^)|(?P<star>\*))"
)


def parse(text: str, variables: Iterable[str] | None = None) -> Poly:
    """Parse the canonical text form back into a polynomial.

    When ``variables`` is omitted the context is the variables encountered,
    in order of first appearance.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial text at: {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("sign", "number", "name", "caret", "star"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break

    terms: list[tuple[Fraction, dict[str, int]]] = []
    seen_vars: list[str] = []
    i = 0

    def parse_term() -> None:
        nonlocal i
        sign = Fraction(1)
        while i < len(tokens) and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff = Fraction(1)
        exps: dict[str, int] = {}
        saw_body = False
        expect_factor = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "number" and expect_factor:
                coeff *= Fraction(val)
                saw_body = True
                i += 1
            elif kind == "name" and expect_factor:
                name = val
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "caret":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "number":
                        raise ValueError("expected exponent after '^'")
                    power = int(tokens[i][1])
                    i += 1
                exps[name] = exps.get(name, 0) + power
                if name not in seen_vars:
                    seen_vars.append(name)
                saw_body = True
            elif kind == "star":
                expect_factor = True
                i += 1
                continue
            else:
                break
            expect_factor = False
        if not saw_body:
            raise ValueError("empty term in polynomial text")
        terms.append((sign * coeff, exps))

    if text.strip():
        parse_term()
        while i < len(tokens):
            if tokens[i][0] != "sign":
                raise ValueError(f"expected '+' or '-' between terms, got {tokens[i][1]!r}")
            parse_term()

    ctx = tuple(variables) if variables is not None else tuple(seen_vars)
    result = Poly.zero(ctx)
    for coeff, exps in terms:
        for name in exps:
            if name not in ctx:
                raise ValueError(f"variable {name!r} not in context {ctx}")
        key = tuple(exps.get(v, 0) for v in ctx)
        result = result + Poly(ctx, {key: coeff})
    return result


def evaluate_in(poly: Poly, values: Mapping[str, Any], one: Any) -> Any:
    """Evaluate a polynomial in an arbitrary commutative ring.

    ``values`` must supply an element for every variable that occurs; the
    elements need + and * (with each other and with Fraction on the left).
    ``one`` is the ring identity; it seeds constant terms, and the zero
    polynomial evaluates to ``0 * one``.
    """
    powers: dict[tuple[str, int], Any] = {}

    def power(v: str, e: int) -> Any:
        # each power is the product of two memoized halves, so the powers of
        # one value share their squarings
        key = (v, e)
        if key not in powers:
            powers[key] = values[v] if e == 1 else power(v, e // 2) * power(v, e - e // 2)
        return powers[key]

    total: Any = None
    for exps, coeff in poly.terms.items():
        term: Any = None
        for v, e in zip(poly.variables, exps):
            if e == 0:
                continue
            if v not in values:
                raise KeyError(f"variable {v!r} unassigned")
            factor = power(v, e)
            term = factor if term is None else term * factor
        term = coeff * one if term is None else coeff * term
        total = term if total is None else total + term
    if total is None:
        return 0 * one
    return total
