"""The benchmark's workloads: inputs made from a seed, the CLI calls that
form one operation, and an independent check of the files they write.

Inputs are generated here, in the benchmark's set-up step, with the
program's own simulator; the program under test only receives files.
The checks do not call the program: they re-read its output files and
compare them with the inputs generated here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from asmlab import simulate
from asmlab.formats import FastaRecord, write_fasta
from asmlab.sequence import DnaString

# Random 2 kb genomes gave cpp-walk solves of 1.9 s to 9.6 s over 16 seeds,
# driven by how many equal-cost start/end options the solver realizes.
# So cppwalk-dense keeps one genome (881 edges, 256 vertices, 61 imbalance
# units, 9 optimal options) and the seed relabels its symbols and
# orientation: every k-mer changes, the graph's shape and the solver's work
# do not.
CPPWALK_BASE_SEED = 11
_RELABELINGS = [(perm, rev) for rev in (False, True)
                for perm in itertools.permutations("ACGT")]


@dataclass(frozen=True)
class Op:
    """One operation: CLI calls run back to back, the files and
    directories whose bytes form its digest, and a check of those files
    returning a problem description or None."""

    calls: tuple[tuple[str, ...], ...]
    artifacts: tuple[str, ...]
    check: Callable[[], Optional[str]]


def read_sequences(path: Path) -> list[str]:
    """Sequences of a FASTA file, in order."""
    sequences: list[str] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.startswith(">"):
            sequences.append("")
        elif sequences:
            sequences[-1] += line.strip()
    return sequences


def contig_score(contigs: list[str], genome: str) -> tuple[int, float]:
    """(misassemblies, genome fraction): contigs that are not substrings of
    the genome, and the share of genome positions inside some occurrence of
    a contig."""
    covered = bytearray(len(genome))
    misassemblies = 0
    for contig in contigs:
        start = genome.find(contig)
        if start < 0:
            misassemblies += 1
        while start >= 0:
            covered[start:start + len(contig)] = b"\x01" * len(contig)
            start = genome.find(contig, start + 1)
    return misassemblies, covered.count(1) / len(genome)


def stage2_paired(work: Path, seed: int, core_length: int = 6000, pad: int = 100,
                  read_length: int = 100, coverage: int = 40) -> Op:
    """The criterion-7 configuration: stage 2 without and with correction."""
    core = simulate.random_genome(core_length, seed=seed)
    genome = DnaString("A" * pad + core + "A" * pad)
    genome_path = work / "genome.fasta"
    write_fasta([FastaRecord("truth", genome)], genome_path)
    calls, outs = [], []
    for correct in ("false", "true"):
        config = work / f"correct-{correct}.cfg"
        config.write_text(
            f"genome_fasta = {genome_path}\n"
            f"num_reads = {coverage * len(genome) // read_length}\n"
            f"read_length = {read_length}\n"
            "error_rate = 0.01\nk = 21\nmethod = unitig\nmin_multiplicity = 3\n"
            f"seed = {seed + 1}\ncorrect = {correct}\n",
            encoding="ascii",
        )
        out = work / f"out-correct-{correct}"
        calls.append(("stage", "--stage", "2", "--config", str(config),
                      "--out-dir", str(out)))
        outs.append(out)

    def check() -> Optional[str]:
        plain, fixed = (contig_score(read_sequences(out / "contigs.fasta"), genome)
                        for out in outs)
        if fixed[0] > plain[0] or fixed[1] < plain[1]:
            return (f"corrected half is worse: misassemblies {fixed[0]} vs {plain[0]}, "
                    f"genome fraction {fixed[1]:.6f} vs {plain[1]:.6f}")
        return None

    return Op(tuple(calls), tuple(str(o) for o in outs), check)


def reads_100k(work: Path, seed: int, genome_length: int = 250_000,
               num_reads: int = 100_000, read_length: int = 100) -> Op:
    """The criterion-10 input assembled end to end at k=31."""
    genome = simulate.random_genome(genome_length, seed=seed)
    profile = simulate.SimulationProfile(genome_length=genome_length,
                                         num_reads=num_reads,
                                         read_length=read_length, seed=seed + 1)
    reads = simulate.uniform_reads(genome, profile)
    reads_path = work / "reads.fasta"
    write_fasta([FastaRecord(f"r{i}", r) for i, r in enumerate(reads)], reads_path)
    out = work / "contigs.fasta"
    call = ("assemble", "--reads", str(reads_path), "-k", "31",
            "--method", "unitig", "--out", str(out))

    def check() -> Optional[str]:
        contigs = read_sequences(out)
        misassemblies, _ = contig_score(contigs, genome)
        if not contigs or misassemblies:
            return f"{misassemblies} misassemblies among {len(contigs)} contigs"
        return None

    return Op((call,), (str(out),), check)


def cppwalk_dense(work: Path, seed: int, genome_length: int = 2000,
                  read_length: int = 100, k: int = 5) -> Op:
    """Idealized reads of a circularised genome, solved by cpp-walk."""
    perm, reverse = _RELABELINGS[seed % len(_RELABELINGS)]
    base = simulate.random_genome(genome_length, seed=CPPWALK_BASE_SEED)
    genome = base.translate(str.maketrans("ACGT", "".join(perm)))
    if reverse:
        genome = genome[::-1]
    circular = DnaString(genome + genome[:read_length - 1])
    reads = simulate.idealized_reads(circular, read_length)
    reads_path = work / "reads.fasta"
    write_fasta([FastaRecord(f"r{i}", r) for i, r in enumerate(reads)], reads_path)
    edges = _kmers(circular, k)
    out = work / "walk.fasta"
    call = ("assemble", "--reads", str(reads_path), "-k", str(k),
            "--method", "cpp-walk", "--out", str(out))

    def check() -> Optional[str]:
        spelled: set[str] = set()
        for walk in read_sequences(out):
            spelled |= _kmers(walk, k)
        if spelled != edges:
            return (f"walks miss {len(edges - spelled)} edge k-mers and spell "
                    f"{len(spelled - edges)} k-mers that are not edges")
        return None

    return Op((call,), (str(out),), check)


def _kmers(text: str, k: int) -> set[str]:
    return {text[i:i + k] for i in range(len(text) - k + 1)}


WORKLOADS: dict[str, Callable[..., Op]] = {
    "stage2-paired": stage2_paired,
    "reads-100k": reads_100k,
    "cppwalk-dense": cppwalk_dense,
}
