"""Run the benchmark on several seeds per workload and summarise the spread.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 10             # every workload
    python3 perfbench/baseline.py --seeds 5 --workloads cli-cold
    python3 perfbench/baseline.py --seeds 10 --write     # also record baseline.json

For every end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json and the same spread of
the values as measured (before scaling to the reference speed); a spread of
a third of the bound or more is flagged.  ``setup_s`` is exempt from the spread
check but not from the bound between two sets of runs.  With ``--write``
it also makes one traced run per workload and writes everything, with the
environment, to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_FILE = os.path.join(HERE, "baseline.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    report, _ = json.JSONDecoder().raw_decode(proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    summary: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry: dict = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "error_rate": [rep["error_rate"] for rep, _ in runs],
            "latency_tail_percentile": [rep["latency_tail_percentile"] for rep, _ in runs],
            "latency_samples": [rep["latency_samples"] for rep, _ in runs],
            "input_properties": runs[0][0]["input_properties"],
            "end_to_end": {},
        }
        summary["environment"] = runs[0][0]["environment"]
        print(f"{workload}: correct={entry['correct']} failed={sum(entry['failed'])}")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for _, r in runs])
            stats["bound"] = bound
            measured = [rep["as_measured"][name] for rep, _ in runs]
            stats["as_measured_spread"] = spread(measured)["spread"]
            entry["end_to_end"][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] >= bound / 3:
                flag, steady = "  <-- spread >= bound/3", False
            print(f"  {name:18s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"bound {bound} (as measured {stats['as_measured_spread']:.4f}){flag}")
            print("    " + " ".join(f"{v:.6g}" for v in stats["values"]))
        if args.write:
            report, result = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_absent"] = report["absent"]
        summary["workloads"][workload] = entry
    print("steady" if steady else "NOT steady")
    if args.write:
        with open(BASELINE_FILE, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
