"""Three-stage evaluation harness: compare contigs against a reference
truth and report truth-anchored metrics.

Stage 1 simulates reads under the model's own assumptions (idealized,
error-free), stage 2 degrades them (substitution errors, coverage gaps,
optional correction), and stage 3 ingests externally supplied reads. The
metric suite is deliberately alignment-free: exact-substring correctness,
k-mer precision, genome fraction, N50, and misassembly count.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from asmlab import graph as dbg
from asmlab import simulate
from asmlab.errors import FastaParseError
from asmlab.formats import FastaRecord, StageConfig, read_fasta, read_reads, write_fasta
from asmlab.sequence import DnaString, ReadSet, packed_kmers, spectrum
from asmlab.superstring import exact_scs, greedy_scs
from asmlab.unitig import Contig, ContigSet, unitig_contigs

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContigMetrics:
    name: str
    length: int
    exact_substring: Optional[bool]
    kmer_precision: Optional[float]


@dataclass(frozen=True)
class EvalReport:
    k: int
    truth_available: bool
    per_contig: tuple[ContigMetrics, ...]
    contig_count: int
    total_length: int
    max_length: int
    mean_length: float
    n50: int
    genome_fraction_covered: Optional[float]
    misassembly_count: Optional[int]

    def to_dict(self) -> dict:
        data = {
            "k": self.k,
            "truth_available": self.truth_available,
            "contig_count": self.contig_count,
            "total_length": self.total_length,
            "max_length": self.max_length,
            "mean_length": self.mean_length,
            "n50": self.n50,
            "genome_fraction_covered": self.genome_fraction_covered,
            "misassembly_count": self.misassembly_count,
            "contigs": [
                {
                    "name": m.name,
                    "length": m.length,
                    "exact_substring": m.exact_substring,
                    "kmer_precision": m.kmer_precision,
                }
                for m in self.per_contig
            ],
        }
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"k = {self.k}",
            f"truth_available = {str(self.truth_available).lower()}",
            f"contig_count = {self.contig_count}",
            f"total_length = {self.total_length}",
            f"max_length = {self.max_length}",
            f"mean_length = {self.mean_length:.4f}",
            f"n50 = {self.n50}",
        ]
        if self.truth_available:
            lines.append(f"genome_fraction_covered = {self.genome_fraction_covered:.6f}")
            lines.append(f"misassembly_count = {self.misassembly_count}")
        else:
            lines.append("genome_fraction_covered = n/a (no ground truth)")
            lines.append("misassembly_count = n/a (no ground truth)")
        lines.append("")
        lines.append("contig\tlength\texact_substring\tkmer_precision")
        for m in self.per_contig:
            exact = "n/a" if m.exact_substring is None else str(m.exact_substring).lower()
            prec = "n/a" if m.kmer_precision is None else f"{m.kmer_precision:.6f}"
            lines.append(f"{m.name}\t{m.length}\t{exact}\t{prec}")
        return "\n".join(lines) + "\n"


def compute_n50(lengths) -> int:
    """Largest L such that contigs of length >= L hold at least half the
    total contig length."""
    ordered = sorted(lengths, reverse=True)
    total = sum(ordered)
    if total == 0:
        return 0
    running = 0
    for length in ordered:
        running += length
        if 2 * running >= total:
            return length
    return ordered[-1]


def _occurrences(needle: str, haystack: str) -> list[int]:
    """All (possibly overlapping) match positions."""
    out = []
    start = haystack.find(needle)
    while start != -1:
        out.append(start)
        start = haystack.find(needle, start + 1)
    return out


def _covered_fraction(intervals: list[tuple[int, int]], span: int) -> float:
    """Fraction of [0, span) covered by the union of half-open intervals."""
    if span <= 0:
        return 0.0
    merged_total = 0
    last_end = -1
    for start, end in sorted(intervals):
        start = max(start, last_end)
        if end > start:
            merged_total += end - start
            last_end = end
        else:
            last_end = max(last_end, end)
    return merged_total / span


def evaluate(contigs: ContigSet, truth: str, k: int) -> EvalReport:
    """Score a contig set against a known reference.

    Exact matching is by substring search; repeated occurrences all count
    toward genome coverage. k-mer precision is the fraction of a contig's
    k-mer occurrences present in the truth spectrum (vacuously 1 for
    contigs shorter than k).
    """
    if not truth:
        raise ValueError("truth genome must be nonempty")
    truth = str(truth)
    truth_kmers = spectrum(truth, k).distinct_packed()
    per = []
    intervals: list[tuple[int, int]] = []
    misassemblies = 0
    for contig in contigs:
        seq = str(contig.sequence)
        hits = _occurrences(seq, truth)
        exact = bool(hits)
        if exact:
            intervals.extend((h, h + len(seq)) for h in hits)
        else:
            misassemblies += 1
        packs = packed_kmers(seq, k)
        precision = (
            sum(1 for p in packs if p in truth_kmers) / len(packs) if packs else 1.0
        )
        per.append(ContigMetrics(contig.name, len(seq), exact, precision))
    return _report(k, per, _covered_fraction(intervals, len(truth)), misassemblies)


def evaluate_without_truth(contigs: ContigSet, k: int) -> EvalReport:
    """Length-only metrics for runs with no ground truth."""
    return _report(k, [ContigMetrics(c.name, len(c.sequence), None, None) for c in contigs],
                   None, None)


def _report(k: int, per: list[ContigMetrics], genome_fraction: Optional[float],
            misassemblies: Optional[int]) -> EvalReport:
    """The report over the per-contig rows, with the length summary; the
    truth metrics are ``None`` when there is no truth."""
    lengths = [m.length for m in per]
    return EvalReport(
        k=k,
        truth_available=misassemblies is not None,
        per_contig=tuple(per),
        contig_count=len(per),
        total_length=sum(lengths),
        max_length=max(lengths, default=0),
        mean_length=(sum(lengths) / len(lengths)) if lengths else 0.0,
        n50=compute_n50(lengths),
        genome_fraction_covered=genome_fraction,
        misassembly_count=misassemblies,
    )


# ---------------------------------------------------------------------------
# Stage orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageResult:
    report: EvalReport
    artifact_dir: Path
    artifacts: dict


def assemble_contigs(reads: ReadSet, k: int, method: str) -> tuple[ContigSet, Optional[dbg.DeBruijnGraph]]:
    """Run the chosen assembler; graph methods also return the graph."""
    if method == "unitig":
        graph = dbg.build(reads, k)
        return unitig_contigs(graph), graph
    if method == "cpp-walk":
        graph = dbg.build(reads, k)
        contigs = []
        for i, component in enumerate(graph.weakly_connected_components()):
            sub = graph.subgraph(component)
            walk = dbg.shortest_edge_covering_walk(sub)
            contigs.append(Contig(
                name=f"w{i}",
                sequence=DnaString(dbg.spell(walk)),
                source="cpp-walk",
            ))
        return ContigSet(k, tuple(contigs)), graph
    if method in ("scs-greedy", "scs-exact"):
        solver = greedy_scs if method == "scs-greedy" else exact_scs
        result = solver(reads)
        contig = Contig(name="s0", sequence=result.superstring, source=method)
        return ContigSet(k, (contig,)), None
    raise ValueError(f"unknown assembly method {method!r}")


def _load_genome(config: StageConfig) -> DnaString:
    if config.genome_fasta:
        records = read_fasta(config.genome_fasta)
        if not records:
            raise FastaParseError(f"no FASTA records in {config.genome_fasta}", line=1)
        return records[0].sequence  # first record is the truth genome
    if config.genome_length is None:
        raise ValueError("config needs genome_length or genome_fasta")
    planted = None
    if config.plant_repeat_length is not None:
        copies = 2 if config.plant_repeat_copies is None else config.plant_repeat_copies
        planted = (config.plant_repeat_length, copies)
    return simulate.random_genome(config.genome_length, planted, seed=config.seed)


def run_stage(stage: int, config: StageConfig, out_dir=None) -> StageResult:
    """Execute one evaluation stage end to end and persist its artifacts.

    Stage 1: idealized error-free reads from the (possibly synthesized)
    genome. Stage 2: uniform reads with the configured errors/gaps and
    optional correction. Stage 3: externally supplied reads, evaluated
    against a truth genome when one is configured; it does not correct
    them, and warns when the config asks it to.
    """
    if stage not in (1, 2, 3):
        raise ValueError(f"stage must be 1, 2, or 3, got {stage}")
    if config.k is None:
        raise ValueError("config needs k")
    directory = Path(out_dir or config.out_dir or f"asmlab-stage{stage}")
    directory.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}

    truth: Optional[DnaString] = None
    if stage in (1, 2):
        if config.read_length is None:
            raise ValueError("config needs read_length for simulated stages")
        truth = _load_genome(config)
        if stage == 1:
            reads = simulate.idealized_reads(truth, config.read_length)
        else:
            if config.num_reads is None:
                raise ValueError("stage 2 needs num_reads")
            profile = simulate.SimulationProfile(
                genome_length=len(truth),
                num_reads=config.num_reads,
                read_length=config.read_length,
                error_rate=config.error_rate,
                gap_intervals=config.gaps,
                seed=config.seed,
            )
            reads = simulate.uniform_reads(truth, profile)
            if config.correct:
                reads = simulate.correct_reads(reads, config.k, config.min_multiplicity)
        genome_path = directory / "genome.fasta"
        write_fasta([FastaRecord("truth", truth)], genome_path)
        artifacts["genome"] = genome_path
    else:
        if not config.reads_fasta:
            raise ValueError("stage 3 needs reads_fasta")
        reads = read_reads(config.reads_fasta)
        if config.correct:
            logger.warning("stage 3 does not correct its reads; ignoring correct = true")
        if config.truth_fasta:
            records = read_fasta(config.truth_fasta)
            if not records:
                raise FastaParseError(f"no FASTA records in {config.truth_fasta}", line=1)
            truth = records[0].sequence

    reads_path = directory / "reads.fasta"
    write_fasta(
        [FastaRecord(f"r{i}", r) for i, r in enumerate(reads)],
        reads_path,
    )
    artifacts["reads"] = reads_path

    contigs, graph = assemble_contigs(reads, config.k, config.method)

    contigs_path = directory / "contigs.fasta"
    write_fasta(
        [FastaRecord(c.name, c.sequence, description=c.source) for c in contigs],
        contigs_path,
    )
    artifacts["contigs"] = contigs_path

    if graph is not None:
        dot_path = directory / "graph.dot"
        with open(dot_path, "w", encoding="ascii", newline="\n") as handle:
            dbg.export_dot(graph, handle)
        artifacts["dot"] = dot_path

    if truth is not None:
        report = evaluate(contigs, truth, config.k)
    else:
        report = evaluate_without_truth(contigs, config.k)

    report_txt = directory / "report.txt"
    report_txt.write_text(report.to_text(), encoding="ascii")
    report_json = directory / "report.json"
    report_json.write_text(report.to_json(), encoding="ascii")
    artifacts["report_txt"] = report_txt
    artifacts["report_json"] = report_json
    return StageResult(report, directory, artifacts)
