"""Time ``asmlab assemble --method unitig`` runs at scale, through the CLI,
each in a child process.

    python3 scripts/scale_run.py --work DIR

Three inputs, each written to DIR unless its file already exists, so
several checkouts can be timed on the same input:

- ``reads.fasta``: 10^6 error-free 100 nt reads uniformly placed on
  ``random_genome(2_500_000, seed=1)`` (read seed 2), also written as
  ``reads.fastq`` with the same ids and every quality symbol ``I``;
- ``reads-noisy.fasta``: 10^5 100 nt reads with 1% substitution errors on
  ``random_genome(1_000_000, seed=5)`` (read seed 6), about 175,000 unitigs;
- ``reads-noisy-1m.fasta``: 10^6 100 nt reads with 1% substitution errors
  on the genome of ``reads.fasta`` (read seed 2), about 1.6 million unitigs.

Five runs, each assembling at order K into DIR/<run>-contigs.fasta:
``reads``, ``reads-noisy`` and ``reads-noisy-1m`` as they are,
``reads-fastq``, the error-free reads read from ``reads.fastq`` (its contigs
equal those of ``reads``), and ``reads-noisy-corrected``, the 10^5 noisy
reads corrected first (``--correct 3``). Prints one JSON line per run: the
wall time of its child, that child's peak resident set size (``ru_maxrss``
of the waited-for child) and the first 16 hex digits of the sha256 of its
contigs file. Inputs are written by a child process of their
own: Linux hands a process's peak RSS on to the children it starts, so this
process stays small. Run it from the root of the checkout to be timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path("src").resolve()  # the checkout this is run from
K = 31
READ_LENGTH = 100
# name: (reads, genome length, genome seed, read seed, error rate)
INPUTS = {
    "reads": (1_000_000, 2_500_000, 1, 2, 0.0),
    "reads-noisy": (100_000, 1_000_000, 5, 6, 0.01),
    "reads-noisy-1m": (1_000_000, 2_500_000, 1, 2, 0.01),
}
FASTQ_INPUTS = ("reads",)  # also written as <name>.fastq by the same child
# run name: (input file, extra assemble arguments)
RUNS = {
    "reads": ("reads.fasta", []),
    "reads-fastq": ("reads.fastq", []),
    "reads-noisy": ("reads-noisy.fasta", []),
    "reads-noisy-corrected": ("reads-noisy.fasta", ["--correct", "3"]),
    "reads-noisy-1m": ("reads-noisy-1m.fasta", []),
}


def write_reads(name: str, work: Path) -> None:
    sys.path.insert(0, str(SRC))
    from asmlab import evaluate, simulate

    reads, genome, genome_seed, read_seed, error_rate = INPUTS[name]
    text = simulate.random_genome(genome, seed=genome_seed)
    profile = simulate.SimulationProfile(genome_length=genome, num_reads=reads,
                                         read_length=READ_LENGTH, error_rate=error_rate,
                                         seed=read_seed)
    sampled = simulate.uniform_reads(text, profile)
    evaluate.write_reads(sampled, work / f"{name}.fasta")
    if name in FASTQ_INPUTS:  # the ids r0, r1, ... that write_reads gives
        with open(work / f"{name}.fastq", "w", encoding="ascii") as handle:
            handle.writelines(f"@r{i}\n{read}\n+\n{'I' * len(read)}\n"
                              for i, read in enumerate(sampled))


def run_child(command: list[str], env: dict) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS (MB) of one child process."""
    start = time.perf_counter()
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, wall, usage.ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--write", choices=INPUTS, help=argparse.SUPPRESS)  # in the child
    args = parser.parse_args()
    if args.write:
        write_reads(args.write, args.work)
        return 0
    args.work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    worst = 0
    for name, (file_name, extra) in RUNS.items():
        path = args.work / file_name
        source = path.stem
        reads, genome, _, _, error_rate = INPUTS[source]
        if not path.exists():
            subprocess.run([sys.executable, __file__, "--work", str(args.work), "--write", source],
                           check=True)
        out = args.work / f"{name}-contigs.fasta"
        out.unlink(missing_ok=True)
        command = [sys.executable, "-m", "asmlab.cli", "assemble", "--reads", str(path),
                   "-k", str(K), "--method", "unitig", "--out", str(out), *extra]
        code, wall, peak_mb = run_child(command, env)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16] if out.exists() else None
        print(json.dumps({"input": file_name, "run": name, "exit": code, "wall_s": round(wall, 2),
                          "peak_rss_mb": round(peak_mb, 1), "sha256": digest, "reads": reads,
                          "genome": genome, "error_rate": error_rate, "k": K}), flush=True)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
