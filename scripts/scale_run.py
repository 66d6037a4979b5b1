"""Time one ``asmlab assemble --method unitig`` run at scale, through the
CLI, in a child process.

    python3 scripts/scale_run.py --work DIR

READS error-free reads of READ_LENGTH nt, uniformly placed on
``random_genome(GENOME, seed=SEED)``, are written to DIR/reads.fasta
unless that file already exists, so several checkouts can be timed on the
same input; the assembly runs at order K. Prints one JSON line: the wall
time of the child and its peak resident set size (``getrusage`` of the
waited-for children). Run it from the root of the checkout to be timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path("src").resolve()  # the checkout this is run from
READS = 1_000_000
GENOME = 2_500_000
READ_LENGTH = 100
K = 31
SEED = 1


def write_reads(path: Path) -> None:
    sys.path.insert(0, str(SRC))
    from asmlab import evaluate, simulate

    text = simulate.random_genome(GENOME, seed=SEED)
    profile = simulate.SimulationProfile(genome_length=GENOME, num_reads=READS,
                                         read_length=READ_LENGTH, seed=SEED + 1)
    evaluate.write_reads(simulate.uniform_reads(text, profile), path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    reads = args.work / "reads.fasta"
    if not reads.exists():
        write_reads(reads)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "asmlab.cli", "assemble", "--reads", str(reads),
               "-k", str(K), "--method", "unitig", "--out", str(args.work / "contigs.fasta")]
    start = time.perf_counter()
    code = subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"exit": code, "wall_s": round(wall, 2), "peak_rss_mb": round(peak_mb, 1),
                      "reads": READS, "genome": GENOME, "k": K}))
    return code


if __name__ == "__main__":
    sys.exit(main())
