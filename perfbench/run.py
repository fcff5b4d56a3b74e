"""The nodepoly benchmark: cold CLI commands, a library session, Enriques enumeration.

Run from the repository root:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

It runs one workload as a closed loop with one client, checks every output
against ``oracles.References``, prints a report, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import inputs
import oracles
import probe
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench"
SETUP_REPEATS = 7
#: Seconds without output from a child after which the clock takes a probe.
IDLE_S = 2.0
#: Passes of a traced run, and of the untraced run it is compared with.
TRACE_PASSES = {"cli-cold": 3, "session": 10, "enriques-enumerate": 1}
#: Passes generated for a session; the worker stops when its time is up.
SESSION_PASSES_PER_SECOND = 50

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracer.SPANS:
        units.update({f"{span}.calls": "count", f"{span}.ms": "ms", f"{span}.self_ms": "ms"})
    units.update({metric: "ms" for metric in tracer.NAMED_SPANS.values()})
    units.update({
        "exactpoly.result_terms_max": "count",
        "exactpoly.coeff_bits_max": "bits",
        "exactpoly.integral_coeff_share": "ratio",
        "enriques.diagrams": "count",
        "cli.import_ms": "ms",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.hit_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


# -- child processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.pop("PYTHONOPTIMIZE", None)  # the exactness checks are asserts
    return env


class Child:
    """One finished child process: wall seconds, output, peak RSS, exit code.

    Output goes to ``on_chunk`` as it arrives, or is kept in ``out``;
    ``on_idle`` runs whenever the child has written nothing for ``IDLE_S``.
    """

    def __init__(self, cmd: list[str], stdin: bytes | None = None, on_chunk=None,
                 on_idle=None):
        chunks: list[bytes] = []
        with tempfile.TemporaryFile(dir=WORKDIR) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, env=child_env(), stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
            )
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            fd = proc.stdout.fileno()
            while True:
                if on_idle is not None and not select.select([fd], [], [], IDLE_S)[0]:
                    on_idle()
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                (on_chunk or chunks.append)(chunk)
            proc.stdout.close()
            self.out = b"".join(chunks)
            _, status, usage = os.wait4(proc.pid, 0)
            self.seconds = time.perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.maxrss_kb = usage.ru_maxrss
            err.seek(0)
            self.err = err.read().decode(errors="replace")


def nodecount(argv: list[str], spans_file: str | None = None, **kwargs) -> Child:
    if spans_file is None:
        cmd = [sys.executable, "-m", "nodepoly.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_file, "--", *argv]
    return Child(cmd, **kwargs)


class Clock:
    """Probes the host's speed around and during timed units (see probe.py)."""

    def __init__(self) -> None:
        self.probes = [probe.probe()]

    def sample(self) -> None:
        self.probes.append(probe.probe())

    def factor(self) -> float:
        """Reference-speed factor for the unit timed since the last call."""
        self.sample()
        factor = probe.scale(self.probes)
        self.probes = self.probes[-1:]
        return factor


def import_setup(out: Outcome) -> None:
    """Time fresh processes that only import ``nodepoly.cli``."""
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        child = Child([sys.executable, "-c", "import nodepoly.cli"])
        out.setup.add(child.seconds, clock.factor())


def spans_path(index: int) -> str:
    return os.path.join(WORKDIR, f"spans-{os.getpid()}-{index}.json")


def read_spans(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(path)
    return report


def keep_going(begin: float, out: Outcome, seconds: float, fixed: int | None) -> bool:
    """Start another pass?  Fixed count when traced, else while time remains."""
    walls = out.pass_walls("raw")
    if fixed is not None:
        return len(walls) < fixed
    return not walls or time.perf_counter() - begin + statistics.median(walls) <= seconds


# -- results -------------------------------------------------------------------------


class Samples:
    """Timings as measured and at the reference speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.ref: list[float] = []

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.ref.append(raw * factor)


class Outcome:
    """What one phase of a workload measured and checked."""

    def __init__(self) -> None:
        self.setup = Samples()
        self.latencies = Samples()
        self.pass_ends: list[int] = []  # number of latencies at the end of each pass
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.trace_reports: list[dict] = []
        self.properties: dict = {}

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(why)

    def end_pass(self) -> None:
        self.pass_ends.append(len(self.latencies.raw))

    def pass_walls(self, speed: str = "ref") -> list[float]:
        """Time of each pass: the sum of its operations' times."""
        values = getattr(self.latencies, speed)
        return [sum(values[a:b]) for a, b in zip([0] + self.pass_ends, self.pass_ends)]

    def end_to_end(self, speed: str = "ref") -> dict[str, float]:
        """The end-to-end metrics at the reference speed, or as measured."""
        lat = sorted(getattr(self.latencies, speed))
        walls = self.pass_walls(speed)
        _, tail = tail_percentile(lat)
        return {
            "setup_s": statistics.median(getattr(self.setup, speed)),
            "wall_s": statistics.median(walls),
            "ops_per_s": (self.attempted - self.failed) / sum(walls),
            "latency_ms_p50": statistics.median(lat) * 1e3,
            "latency_ms_tail": tail * 1e3,
            "peak_rss_mb": self.maxrss_kb / 1024,
        }

    def details(self) -> dict:
        tail_pct, _ = tail_percentile(sorted(self.latencies.raw))
        speed = statistics.median(r / s for r, s in zip(self.latencies.raw, self.latencies.ref))
        return {
            "latency_samples": len(self.latencies.raw),
            "latency_tail_percentile": tail_pct,
            "passes": len(self.pass_ends),
            "as_measured": self.end_to_end("raw"),
            "host_slowdown_median": speed,
            "error_rate": self.failed / self.attempted if self.attempted else None,
            "failures": self.failures,
            "input_properties": self.properties,
        }


def tail_percentile(sorted_samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer there is none; the maximum is reported as
    percentile 100.
    """
    n = len(sorted_samples)
    if n <= 10:
        return 100.0, sorted_samples[-1]
    return 100.0 * (n - 10) / n, sorted_samples[n - 11]


def input_properties(keys: list, integral: list[bool], max_q: list[int]) -> dict:
    """Shares of the input properties that planned optimisations depend on."""
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    hist: dict[int, int] = {}
    for q in max_q:
        hist[q] = hist.get(q, 0) + 1
    return {
        "operations": len(keys),
        "repeated_input_share": repeats / len(keys) if keys else None,
        "integral_result_share": sum(integral) / len(integral) if integral else None,
        "max_q_histogram": dict(sorted(hist.items())),
    }


def merge_traces(reports: list[dict], overhead: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics summed over the traced processes, and the absent names."""
    spans: dict[str, list] = {}
    absent: set[str] = set()
    total = {"diagrams": 0, "coeffs": 0, "integral_coeffs": 0, "cache_hits": 0,
             "cache_misses": 0, "import_ms": 0.0, "terms_max": 0, "bits_max": 0}
    for report in reports:
        for name, rec in report["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key in total:
            if key.endswith("_max"):
                total[key] = max(total[key], report[key])
            else:
                total[key] += report[key]
        absent.update(report["absent"])
    metrics: dict[str, float] = {}
    for name in tracer.SPANS:
        calls, inclusive, own = spans.get(name, (0, 0.0, 0.0))
        metrics.update({f"{name}.calls": calls, f"{name}.ms": inclusive * 1e3,
                        f"{name}.self_ms": own * 1e3})
    for span, metric in tracer.NAMED_SPANS.items():
        metrics[metric] = spans.get(span, (0, 0.0, 0.0))[1] * 1e3
    lookups = total["cache_hits"] + total["cache_misses"]
    metrics.update({
        "exactpoly.result_terms_max": total["terms_max"],
        "exactpoly.coeff_bits_max": total["bits_max"],
        "exactpoly.integral_coeff_share":
            total["integral_coeffs"] / total["coeffs"] if total["coeffs"] else 0.0,
        "enriques.diagrams": total["diagrams"],
        "cli.import_ms": total["import_ms"],
        "cache.hits": total["cache_hits"],
        "cache.misses": total["cache_misses"],
        "cache.hit_ratio": total["cache_hits"] / lookups if lookups else 0.0,
        "trace.overhead_ratio": overhead,
    })
    return metrics, sorted(absent)


# -- workloads -------------------------------------------------------------------------


def expected_cli(refs: oracles.References, argv: list[str]) -> list[dict]:
    opts = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}

    def record(command, inputs_, result, valid, ref):
        return {"command": command, "inputs": inputs_, "result": result, "valid": valid,
                "ref": ref}

    def count(value) -> int | str:
        return value.numerator if value.denominator == 1 else str(value)

    if argv[0] == "plane":
        r = int(opts["r"])
        if "--symbolic" in argv:
            return [record("plane", {"r": r}, refs.severi_text[r], None, "severi-polynomial")]
        m = int(opts["m"])
        return [record("plane", {"r": r, "m": m}, count(refs.plane_value(r, m)),
                       oracles.plane_annotation(r, m), "severi-count")]
    if argv[0] == "p4":
        if "--irreducible" in argv:
            return [record("p4", {"m": 5}, oracles.QUINTIC_IRREDUCIBLE, "in range (m >= 4)",
                           "p4-quintic-irreducible")]
        m = int(opts["m"])
        valid = f"{'in' if m >= 4 else 'outside'} range (m >= 4)"
        return [record("p4", {"m": m}, count(refs.threefold_value(m)), valid,
                       "p4-6nodal-count")]
    if argv[0] == "abelian":
        if "--table" in argv:
            return [record("abelian", {"r": r}, line, None, "abelian-table")
                    for r, line in enumerate(refs.abelian_table)]
        r, g = int(opts["r"]), int(opts["g"])
        return [record("abelian", {"r": r, "g": g}, oracles.bryan_leung(g, r), None,
                       "abelian-count")]
    q = int(opts["q"])
    return [record("bq", {"q": q}, refs.bq[q - 1], None, "node-polynomial")]


def cli_cold(refs, seed: int, seconds: float, traced: bool, fixed: int | None) -> Outcome:
    out = Outcome()
    if fixed is None:
        import_setup(out)
    keys, integral, max_q = [], [], []
    clock = Clock()
    begin = time.perf_counter()
    for batch in inputs.cli_passes(seed, count=1000):
        if not keep_going(begin, out, seconds, fixed):
            break
        for argv in batch:
            spans = spans_path(out.attempted) if traced else None
            child = nodecount(argv + ["--format", "json"], spans_file=spans)
            out.latencies.add(child.seconds, clock.factor())
            out.maxrss_kb = max(out.maxrss_kb, child.maxrss_kb)
            out.attempted += 1
            expected = expected_cli(refs, argv)
            got = child.out.decode()
            want = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in expected)
            if child.code != 0 or got != want:
                out.fail(1, f"{' '.join(argv)}: exit {child.code}, {child.err.strip()[-200:]}")
            if traced:
                out.trace_reports.append(read_spans(spans))
            keys.append(tuple(argv))
            integral.append(all(oracles.is_integral_text(str(rec["result"])) for rec in expected))
            max_q.append(inputs.cli_max_q(argv))
        out.end_pass()
    out.properties = input_properties(keys, integral, max_q)
    return out


def check_query(refs, query: tuple, text: str, cache: dict) -> bool:
    try:
        return _check_query(refs, query, text, cache)
    except ValueError:  # not a number or polynomial at all
        return False


def _check_query(refs, query: tuple, text: str, cache: dict) -> bool:
    kind, *args = query
    if kind == "plane_count":
        return Fraction(text) == refs.plane_value(*args)
    if kind in ("severi_int", "severi_sym"):
        key = tuple(query)
        if key not in cache:
            r, a, b, s, x = args
            sym = kind == "severi_sym"

            def const(value, degree=0):
                return {degree: Fraction(value)} if value else {}

            cache[key] = refs.surface_severi(
                r, const(a, 2 if sym else 0), const(b, 1 if sym else 0), const(s), const(x)
            )
        return oracles.parse_univariate(text, "m") == cache[key]
    if kind == "abelian":
        r, g = args
        expect = str(oracles.bryan_leung(g, r))
        return text == f"{expect} {expect}"
    if kind == "fixed_class":
        return text == refs.fixed_class[args[0]]
    if kind == "threefold":
        return Fraction(text) == refs.threefold_value(args[0])
    return text == refs.diagrams[args[0]]["result"]


def session_worker(request: dict) -> tuple[Child, dict]:
    child = Child([sys.executable, os.path.join(HERE, "session_worker.py")],
                  stdin=json.dumps(request).encode())
    reply = json.loads(child.out) if child.code == 0 else None
    return child, reply


def session(refs, seed: int, seconds: float, traced: bool, fixed: int | None) -> Outcome:
    out = Outcome()
    if fixed is None:
        for _ in range(SETUP_REPEATS):
            child, reply = session_worker({"mode": "setup"})
            if reply is None:
                raise RuntimeError(f"session setup failed: {child.err}")
            out.setup.add(reply["setup_s"], probe.scale(reply["setup_probes"]))
    count = fixed if fixed is not None else int(seconds * SESSION_PASSES_PER_SECOND) + 1
    passes = inputs.session_passes(seed, count, len(refs.diagrams))
    wire = [[(q[0], refs.diagrams[q[1]]["text"]) if q[0] == "enriques" else q for q in batch]
            for batch in passes]
    child, reply = session_worker({"mode": "run", "passes": wire, "seconds": seconds,
                                   "fixed_passes": fixed, "trace": traced})
    if reply is None:
        raise RuntimeError(f"session worker failed: {child.err}")
    latencies, probes = iter(reply["latencies"]), reply["probes"]
    for batch, before, after in zip(passes, probes, probes[1:]):
        factor = probe.scale([before, after])
        for _ in batch:
            out.latencies.add(next(latencies), factor)
        out.end_pass()
    out.maxrss_kb = reply["maxrss_kb"]
    if traced:
        out.trace_reports.append(reply["trace"])
    done = [q for batch in passes for q in batch][: len(reply["results"])]
    cache: dict = {}
    for query, text in zip(done, reply["results"]):
        out.attempted += 1
        if not check_query(refs, query, text, cache):
            out.fail(1, f"{query}: got {text[:200]}")
    out.properties = input_properties(
        [tuple(q) for q in done],
        [oracles.is_integral_text(t) for q, t in zip(done, reply["results"])
         if q[0] != "enriques"],
        [inputs.session_max_q(q) for q in done],
    )
    return out


def enriques_enumerate(refs, seed: int, seconds: float, traced: bool,
                       fixed: int | None) -> Outcome:
    """The capped enumeration; its input is fixed, so ``seed`` is unused."""
    out = Outcome()
    if fixed is None:
        import_setup(out)
    ref = refs.enumerate
    clock = Clock()
    begin = time.perf_counter()
    while keep_going(begin, out, seconds, fixed):
        digest = hashlib.sha256()
        lines = 0

        def on_chunk(chunk: bytes) -> None:
            nonlocal lines
            digest.update(chunk)
            lines += chunk.count(b"\n")

        spans = spans_path(len(out.pass_ends)) if traced else None
        child = nodecount(ref["args"], spans_file=spans, on_chunk=on_chunk,
                          on_idle=clock.sample)
        out.latencies.add(child.seconds, clock.factor())
        out.end_pass()
        out.maxrss_kb = max(out.maxrss_kb, child.maxrss_kb)
        out.attempted += ref["lines"]
        if child.code != 0 or lines != ref["lines"] or digest.hexdigest() != ref["sha256"]:
            out.fail(ref["lines"], f"enumerate: exit {child.code}, {lines} lines, "
                                   f"sha256 {digest.hexdigest()}")
        if traced:
            out.trace_reports.append(read_spans(spans))
    n = len(out.pass_ends)
    out.properties = {"operations": n * ref["lines"], "commands": n,
                      "repeated_input_share": (n - 1) / n, "integral_result_share": None,
                      "max_q_histogram": {0: n}}
    return out


WORKLOADS = {
    "cli-cold": cli_cold,
    "session": session,
    "enriques-enumerate": enriques_enumerate,
}


# -- environment and entry point ------------------------------------------------------


def environment() -> dict:
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = 0
    for root, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("run.py: run under plain python, not -O: the exactness checks are asserts",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join("src", "nodepoly")):
        print("run.py: run from the repository root (src/nodepoly not found)", file=sys.stderr)
        return 2
    try:
        refs = oracles.References.load()
    except (OSError, oracles.ReferenceError) as exc:
        print(f"run.py: reference data unusable: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    # The probes follow the speed of the CPU they run on, so this process
    # and every child it starts share one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    if args.trace:
        fixed = TRACE_PASSES[args.workload]
        plain = workload(refs, args.seed, args.seconds, False, fixed)
        traced = workload(refs, args.seed, args.seconds, True, fixed)
        overhead = statistics.median(traced.pass_walls()) / statistics.median(plain.pass_walls())
        metrics, report["absent"] = merge_traces(traced.trace_reports, overhead)
        report["pass_walls"] = {"plain": plain.pass_walls(), "traced": traced.pass_walls()}
        units = per_layer_units()
        outcomes = (plain, traced)
    else:
        outcome = workload(refs, args.seed, args.seconds, False, None)
        metrics = outcome.end_to_end()
        report.update(outcome.details())
        units = END_TO_END
        outcomes = (outcome,)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report["failures"] = [f for o in outcomes for f in o.failures]
    print(json.dumps(report, indent=1))
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
