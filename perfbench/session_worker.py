"""One library session in a fresh interpreter: set up, then answer queries.

Run with ``src`` on ``PYTHONPATH``.  Reads one JSON object from standard
input and writes one JSON object to standard output.

Input: ``{"mode": "setup"}`` only imports nodepoly and builds the node
polynomials; ``{"mode": "run", "passes": [[query, ...], ...], "seconds": S,
"fixed_passes": K, "trace": bool}`` then answers the queries pass by pass.
With ``fixed_passes`` it runs exactly that many passes; otherwise it starts
a new pass only while the elapsed time plus the median pass time stays
within ``seconds``.

Output: ``setup_s`` (import plus ``node_polynomials()``) with the probe
times around it (see probe.py); for a run also the per-query latencies and
results (rendered as text after each timed call), a probe time before the
first pass and after each pass, ``ru_maxrss`` and, when traced, the span
report.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time

import probe


def analyse_diagram(enriques, diagram):
    inv = enriques.invariants(diagram)
    report = enriques.inequality_report(diagram) if inv.roots == 1 else None
    return inv, report


def render_diagram(inv, report) -> str:
    fields = [
        inv.roots, inv.free_vertices, inv.dim, inv.deg, inv.cod, inv.delta,
        inv.branches, inv.milnor, inv.jacobian_mult,
    ]
    text = " ".join(str(f) for f in fields)
    if report is not None:
        text += " | " + " ".join(
            f"{r.part}={'eq' if r.equality else ('holds' if r.holds else 'FAIL')}"
            for r in report
        )
    return text


def queries(nodepoly):
    """Query kind -> (call on the query arguments, serialise the result).

    Calls go through module attributes at call time, so spans installed by
    the tracer see them.
    """
    surface, abelian = nodepoly.surface, nodepoly.abelian
    grassmann, enriques = nodepoly.grassmann, nodepoly.enriques

    def severi_int(r, d, k, s, x):
        return surface.severi_degree(r, surface.ChernNumbers.of(d, k, s, x))

    def severi_sym(r, a, b, s, x):
        m = nodepoly.Poly.variable("m")
        return surface.severi_degree(r, surface.ChernNumbers.of(a * m * m, b * m, s, x))

    def abelian_pair(r, g):
        return abelian.abelian_count(r).evaluate({"g": g}), abelian.bryan_leung_count(g, r)

    def diagram_query(text):
        diagram = enriques.from_text(text)
        violation = enriques.validate(diagram)
        if violation is not None:
            return violation, None
        return None, analyse_diagram(enriques, diagram)

    def diagram_text(result):
        violation, analysed = result
        if violation is not None:
            return f"invalid: {violation}"
        return render_diagram(*analysed)

    return {
        "plane_count": (lambda r, m: surface.plane_count(r, m), str),
        "severi_int": (severi_int, str),
        "severi_sym": (severi_sym, str),
        "abelian": (abelian_pair, lambda pair: f"{pair[0]} {pair[1]}"),
        "fixed_class": (lambda r: abelian.fixed_class_count(r), str),
        "threefold": (lambda m: grassmann.threefold_6nodal(m), str),
        "enriques": (diagram_query, diagram_text),
    }


def main() -> None:
    request = json.load(sys.stdin)
    gc.freeze()  # keep the queries out of the program's garbage collections
    before = probe.probe()
    start = time.perf_counter()
    import nodepoly
    import_s = time.perf_counter() - start

    tracer = None
    install_s = 0.0
    if request.get("trace"):
        import tracer as tracing

        t0 = time.perf_counter()
        tracer = tracing.Tracer()
        tracer.install()
        install_s = time.perf_counter() - t0
    nodepoly.node_polynomials()
    setup_s = time.perf_counter() - start - install_s
    reply = {"setup_s": setup_s, "setup_probes": [before, probe.probe()]}
    if request["mode"] == "run":
        reply.update(_run(nodepoly, request))
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            reply["trace"] = tracer.report(import_ms=import_s * 1e3)
    json.dump(reply, sys.stdout)


def _run(nodepoly, request) -> dict:
    calls = queries(nodepoly)
    seconds, fixed = request.get("seconds"), request.get("fixed_passes")
    results: list[str] = []
    latencies: list[float] = []
    pass_walls: list[float] = []
    probes = [probe.probe()]
    begin = time.perf_counter()
    for batch in request["passes"]:
        if fixed is not None and len(pass_walls) >= fixed:
            break
        if fixed is None and pass_walls and (
            time.perf_counter() - begin + statistics.median(pass_walls) > seconds
        ):
            break
        wall = 0.0
        for kind, *args in batch:
            call, render = calls[kind]
            t0 = time.perf_counter()
            try:
                result = call(*args)
            except Exception as exc:  # a failed query is a wrong result; the session goes on
                result = exc
            dt = time.perf_counter() - t0
            wall += dt
            latencies.append(dt)
            failed = isinstance(result, Exception)
            results.append(f"error: {result!r}" if failed else render(result))
        pass_walls.append(wall)
        probes.append(probe.probe())
    return {"latencies": latencies, "results": results, "probes": probes}


if __name__ == "__main__":
    main()
