"""Record ``reference.json``: the expected values no golden file or oracle gives.

Run from the repository root, with ``src`` on ``PYTHONPATH``, at the commit
whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It records b_1..b_8, the plane node polynomials N_0..N_8, the coefficients
of each a_q as a linear form in the Chern numbers (d, k, s, x), the
fixed-class abelian polynomials, a fixed pool of diagram texts (valid ones
from the enumeration and named shapes, invalid ones by seeded mutation) with
their analysis, and the line count and SHA-256 of the capped enumeration's
JSON output.  ``oracles.References.load`` cross-checks the table against the
goldens and published values every time the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import nodepoly
from nodepoly import abelian, enriques, surface

from oracles import REFERENCE_FILE
from session_worker import queries

ENUMERATE_ARGS = ["enriques", "enumerate", "--max-v", "7", "--max-w", "6", "--format", "json"]
POOL_VALID = 160
POOL_INVALID = 60


def _mutate(diagram, rng: random.Random):
    verts = list(diagram.vertices)
    i = rng.randrange(len(verts))
    v = verts[i]
    choice = rng.randrange(3)
    if choice == 0:
        verts[i] = enriques.Vertex(v.weight - 1, v.parent, v.remote)
    elif choice == 1:
        verts[i] = enriques.Vertex(v.weight + 1, v.parent, v.remote)
    elif v.parent is not None:
        verts[i] = enriques.Vertex(v.weight, v.parent, v.parent)
    return enriques.EnriquesDiagram(tuple(verts))


def diagram_pool() -> list[str]:
    rng = random.Random("diagram-pool")
    valid = rng.sample(list(enriques.enumerate_diagrams(5, 4)), POOL_VALID)
    valid += [enriques.named_diagram("A", k) for k in range(1, 9)]
    valid += [enriques.named_diagram("D", k) for k in range(4, 9)]
    valid += [enriques.named_diagram(kind, k) for kind, k in (("E", 6), ("E", 7), ("E", 8))]
    invalid = []
    while len(invalid) < POOL_INVALID:
        mutated = _mutate(rng.choice(valid), rng)
        if enriques.validate(mutated) is not None:
            invalid.append(mutated)
    pool = [enriques.to_text(d) for d in valid + invalid]
    rng.shuffle(pool)
    return pool


def enumeration_digest() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "nodepoly.cli", *ENUMERATE_ARGS],
        stdout=subprocess.PIPE, env=env, check=True,
    )
    return {
        "args": ENUMERATE_ARGS,
        "lines": proc.stdout.count(b"\n"),
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def main() -> None:
    call, render = queries(nodepoly)["enriques"]
    aq_linear = []
    for q in range(1, 9):
        row = []
        for unit in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            row.append(str(surface.surface_aq(q, surface.ChernNumbers.of(*unit)).constant_value()))
        aq_linear.append(row)
    table = {
        "bq": [str(nodepoly.node_polynomials().b(q)) for q in range(1, 9)],
        "severi": [str(surface.severi_degree(r)) for r in range(9)],
        "aq_linear": aq_linear,
        "fixed_class": [str(abelian.fixed_class_count(r)) for r in range(9)],
        "diagrams": [{"text": t, "result": render(call(t))} for t in diagram_pool()],
        "enumerate": enumeration_digest(),
    }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
