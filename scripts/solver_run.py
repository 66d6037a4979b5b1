"""Time the shortest edge-covering walk on circular random genomes, in
process.

    python3 scripts/solver_run.py

Each case is ``random_genome(L, seed=11)`` closed with its first k-1
symbols, so every k-mer of the circle is an edge: k = 6, 7 and 8 for the
5, 10 and 20 kb genomes. The graph is built outside the timed region.
Prints one JSON line per case: the order, edges, imbalance units, solve
wall time, the number of ``linear_sum_assignment`` calls, the walk length
and the first 16 hex digits of the sha256 of the spelled walk.
Run it from the root of the checkout to be timed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))  # the checkout this is run from

from asmlab import graph as dbg  # noqa: E402
from asmlab.simulate import random_genome  # noqa: E402

SEED = 11
ORDERS = {5000: 6, 10000: 7, 20000: 8}


def solve(length: int, k: int) -> dict:
    text = str(random_genome(length, seed=SEED))
    circle = text + text[:k - 1]
    graph = dbg.DeBruijnGraph(k, {circle[i:i + k] for i in range(length)})
    units = int((graph.out_degrees - graph.in_degrees).clip(0).sum())
    calls = 0
    real = dbg.linear_sum_assignment

    def counted(cost):
        nonlocal calls
        calls += 1
        return real(cost)

    dbg.linear_sum_assignment = counted
    try:
        start = time.perf_counter()
        walk = dbg.shortest_edge_covering_walk(graph)
        wall = time.perf_counter() - start
    finally:
        dbg.linear_sum_assignment = real
    return {"length": length, "k": k, "edges": graph.num_edges, "units": units,
            "solve_s": round(wall, 3), "assignments": calls, "walk_edges": len(walk.edges),
            "sha256": hashlib.sha256(dbg.spell(walk).encode("ascii")).hexdigest()[:16]}


def main() -> int:
    for length, k in ORDERS.items():
        print(json.dumps(solve(length, k)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
