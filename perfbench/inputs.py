"""Seeded inputs for the workloads.  The program sees only what these return.

Both generators work in passes with a fixed composition, so the mix of
operation kinds is the same for every seed; the seed picks the parameters
and the order within a pass.  The node count r (or q), which sets most of
an operation's cost, is dealt from a shuffled deck per kind, so every value
occurs equally often whatever the seed.
"""

from __future__ import annotations

import random


class _Deck:
    """Deals every integer of lo..hi once, in seeded order, then reshuffles."""

    def __init__(self, rng: random.Random, lo: int, hi: int):
        self.rng, self.values, self.left = rng, list(range(lo, hi + 1)), []

    def deal(self) -> int:
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()

#: One ``cli-cold`` pass: one command of each kind, all of which need b_q.
CLI_KINDS = (
    "plane-count", "plane-symbolic", "p4-count", "p4-irreducible",
    "abelian-count", "abelian-table", "bq",
)


def _cli_command(kind: str, rng: random.Random, r: int) -> list[str]:
    if kind == "plane-count":
        return ["plane", "--r", str(r), "--m", str(rng.randint(1, 20))]
    if kind == "plane-symbolic":
        return ["plane", "--symbolic", "--r", str(r)]
    if kind == "p4-count":
        return ["p4", "--m", str(rng.randint(1, 12))]
    if kind == "p4-irreducible":
        return ["p4", "--irreducible"]
    if kind == "abelian-count":
        return ["abelian", "--r", str(r), "--g", str(rng.randint(1, 25))]
    if kind == "abelian-table":
        return ["abelian", "--table"]
    return ["bq", "--q", str(r)]


def cli_passes(seed: int, count: int) -> list[list[list[str]]]:
    """``count`` passes of ``nodecount`` argument lists (without ``--format``)."""
    rng = random.Random(f"cli-cold/{seed}")
    decks = {kind: _Deck(rng, 1, 8) for kind in CLI_KINDS}
    passes = []
    for _ in range(count):
        batch = [_cli_command(kind, rng, decks[kind].deal()) for kind in CLI_KINDS]
        rng.shuffle(batch)
        passes.append(batch)
    return passes


def cli_max_q(argv: list[str]) -> int:
    """Highest q whose b_q the command's result depends on."""
    if argv[0] == "p4":
        return 6
    if "--table" in argv:
        return 8
    flag = "--q" if argv[0] == "bq" else "--r"
    return int(argv[argv.index(flag) + 1])


#: One ``session`` pass: (kind, queries per pass, of which repeat earlier
#: inputs, range of the node count r).
SESSION_MIX = (
    ("plane_count", 10, 2, (1, 8)),
    ("severi_int", 5, 1, (1, 8)),
    ("severi_sym", 5, 1, (1, 8)),
    ("abelian", 6, 2, (0, 8)),
    ("fixed_class", 3, 1, (0, 8)),
    ("threefold", 3, 1, (0, 0)),
    ("enriques", 8, 2, (0, 0)),
)


def _session_args(kind: str, rng: random.Random, r: int, diagrams: int) -> tuple:
    if kind == "plane_count":
        return (r, rng.randint(1, 20))
    if kind == "severi_int":
        return (r, rng.randint(1, 40), rng.randint(-15, 15), rng.randint(-10, 10),
                rng.randint(-10, 40))
    if kind == "severi_sym":
        return (r, rng.randint(1, 3), rng.randint(-6, 6), rng.randint(-10, 10),
                rng.randint(-5, 30))
    if kind == "abelian":
        return (r, rng.randint(1, 25))
    if kind == "fixed_class":
        return (r,)
    if kind == "threefold":
        return (rng.randint(1, 40),)
    return (rng.randrange(diagrams),)


def session_passes(seed: int, count: int, diagrams: int) -> list[list[tuple]]:
    """``count`` passes of ``(kind, *args)`` queries.

    Enriques queries carry an index into the reference diagram pool of size
    ``diagrams``; the caller replaces it with the diagram text.
    """
    rng = random.Random(f"session/{seed}")
    seen: dict[str, list[tuple]] = {kind: [] for kind, *_ in SESSION_MIX}
    decks = {kind: _Deck(rng, *span) for kind, _, _, span in SESSION_MIX}
    passes = []
    for _ in range(count):
        batch = []
        for kind, n, repeats, _ in SESSION_MIX:
            for i in range(n):
                if i < repeats and seen[kind]:
                    args = rng.choice(seen[kind])
                else:
                    args = _session_args(kind, rng, decks[kind].deal(), diagrams)
                    seen[kind].append(args)
                batch.append((kind, *args))
        rng.shuffle(batch)
        passes.append(batch)
    return passes


def session_max_q(query: tuple) -> int:
    kind = query[0]
    if kind == "threefold":
        return 6
    if kind == "enriques":
        return 0
    return query[1]
