"""Spans around nodepoly's public functions, installed from outside the program.

``Tracer.install()`` replaces, in every loaded ``nodepoly`` module, each
binding of the functions named in ``FUNCTIONS`` (``bell_value`` is bound in
``bell``, ``nodegen``, ``surface``, ``grassmann``, ``abelian`` and the
package) and the ``Poly`` methods in ``POLY_METHODS`` with wrappers that
record, per span name, the number of calls, the inclusive time and the self
time (inclusive minus the time covered by direct child spans).  Spans are
aggregated in memory; ``report()`` returns them once the work is done.

A name that the program no longer has is listed in ``absent`` and does not
fail the run.  ``functools.lru_cache`` wrappers are found by scanning the
modules for ``cache_info``; their hit and miss counts are summed.
"""

from __future__ import annotations

import sys
import time

perf = time.perf_counter

#: module -> public functions recorded as ``<module>.<function>`` spans.
FUNCTIONS = {
    "bell": ("bell_value",),
    "nodegen": ("node_polynomials", "q_transform"),
    "surface": ("surface_aq", "severi_degree"),
    "grassmann": ("grass_aq", "threefold_6nodal_symbolic", "line_restricted_multiplier"),
    "abelian": ("abelian_count", "bryan_leung_count"),
    "enriques": ("validate", "invariants", "inequality_report", "to_text", "from_text"),
}

#: Poly method -> span name; subtraction is counted with addition.
POLY_METHODS = {
    "__mul__": "exactpoly.mul",
    "__add__": "exactpoly.add",
    "__sub__": "exactpoly.add",
    "substitute": "exactpoly.substitute",
    "divrem": "exactpoly.divrem",
    "in_context": "exactpoly.in_context",
}

#: Span names reported as ``.calls``, ``.ms`` and ``.self_ms``.
SPANS = tuple(dict.fromkeys(POLY_METHODS.values())) + tuple(
    f"{module}.{name}" for module, names in FUNCTIONS.items() for name in names
)

#: Spans with their own metric names: the two phases of the enumeration
#: generator (up to its first yield, then the rest), the CLI command
#: handlers and the record writer.
NAMED_SPANS = {
    "enriques.catalog": "enriques.catalog_ms",
    "enriques.rebuild": "enriques.rebuild_ms",
    "cli.handler": "cli.handler_ms",
    "cli.emit": "cli.emit_ms",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s, open depth]
        self._stack: list[float] = []  # child seconds of each open span
        self.diagrams = 0
        self.terms_max = 0
        self.bits_max = 0
        self.coeffs = 0
        self.integral_coeffs = 0
        self.absent: list[str] = []
        self.caches: list = []

    # -- recording ------------------------------------------------------------

    def _timed(self, rec: list, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        rec[3] += 1
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            child = stack.pop()
            rec[3] -= 1
            rec[0] += 1
            if rec[3] == 0:  # a nested call of the same name is already covered
                rec[1] += dt
            rec[2] += dt - child
            if stack:
                stack[-1] += dt

    def _record(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn, observe=None):
        rec = self._record(name)
        timed, stack = self._timed, self._stack

        def wrapper(*args, **kwargs):
            result = timed(rec, fn, args, kwargs)
            if observe is not None:
                t0 = perf()
                observe(result)
                if stack:  # keep observation out of the caller's self time
                    stack[-1] += perf() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_enumeration(self, fn):
        first, rest = self._record("enriques.catalog"), self._record("enriques.rebuild")
        timed = self._timed

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            rec = first
            while True:
                try:
                    item = timed(rec, next, (it,), {})
                except StopIteration:
                    return
                self.diagrams += 1
                rec = rest
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_poly(self, result) -> None:
        for poly in result if isinstance(result, tuple) else (result,):
            terms = getattr(poly, "terms", None)
            if terms is None:
                continue
            self.terms_max = max(self.terms_max, len(terms))
            self.coeffs += len(terms)
            for c in terms.values():
                if c.denominator == 1:
                    self.integral_coeffs += 1
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.bits_max:
                    self.bits_max = bits

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nodepoly" or name.startswith("nodepoly."))
        ]
        caches = {}
        for module in modules:
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    caches[id(value)] = value
        self.caches = list(caches.values())

        def rebind(original, wrapper) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        exactpoly = sys.modules.get("nodepoly.exactpoly")
        poly = getattr(exactpoly, "Poly", None)
        for method, name in POLY_METHODS.items():
            original = getattr(poly, "__dict__", {}).get(method)
            if original is None:
                self.absent.append(f"exactpoly.Poly.{method}")
                continue
            setattr(poly, method, self.wrap(name, original, self._observe_poly))

        for module_name, names in FUNCTIONS.items():
            module = sys.modules.get(f"nodepoly.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"{module_name}.{name}")
                    continue
                rebind(original, self.wrap(f"{module_name}.{name}", original))

        enriques = sys.modules.get("nodepoly.enriques")
        original = getattr(enriques, "enumerate_diagrams", None)
        if original is None:
            self.absent.append("enriques.enumerate_diagrams")
        else:
            rebind(original, self.wrap_enumeration(original))

        cli = sys.modules.get("nodepoly.cli")
        if cli is not None:
            handlers = [v for k, v in vars(cli).items() if k.startswith("_cmd_") and callable(v)]
            for handler in handlers:
                rebind(handler, self.wrap("cli.handler", handler))
            if not handlers:
                self.absent.append("cli._cmd_*")
            if callable(getattr(cli, "emit", None)):
                rebind(cli.emit, self.wrap("cli.emit", cli.emit))
            else:
                self.absent.append("cli.emit")

    # -- results ----------------------------------------------------------------

    def report(self, import_ms: float) -> dict:
        """Raw totals; ``merge`` and ``metrics`` in run.py turn them into metrics."""
        hits = sum(c.cache_info().hits for c in self.caches)
        misses = sum(c.cache_info().misses for c in self.caches)
        return {
            "spans": {name: rec[:3] for name, rec in self.spans.items()},
            "diagrams": self.diagrams,
            "terms_max": self.terms_max,
            "bits_max": self.bits_max,
            "coeffs": self.coeffs,
            "integral_coeffs": self.integral_coeffs,
            "cache_hits": hits,
            "cache_misses": misses,
            "import_ms": import_ms,
            "absent": self.absent,
        }
