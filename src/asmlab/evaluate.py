"""Three-stage evaluation harness: compare contigs against a reference
truth and report truth-anchored metrics.

Stage 1 simulates reads under the model's own assumptions (idealized,
error-free), stage 2 degrades them (substitution errors, coverage gaps,
optional correction), and stage 3 ingests externally supplied reads. The
metric suite is deliberately alignment-free: exact-substring correctness,
k-mer precision, genome fraction, N50, and misassembly count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from asmlab import graph as dbg
from asmlab import simulate
from asmlab.errors import AssemblyError, FastaParseError
from asmlab.formats import (GRAPH_METHODS, FastaRecord, StageConfig, read_named, read_reads,
                            write_fasta)
from asmlab.sequence import (
    DnaString,
    ReadSet,
    check_k,
    in_sorted,
    index_ranges,
    joined_codes,
    sorted_distinct,
    symbol_batches,
    window_packs,
)
from asmlab.superstring import exact_scs, greedy_scs
from asmlab.unitig import ContigSet, unitig_contigs

logger = logging.getLogger(__name__)


_JSON_WORDS = {None: "null", True: "true", False: "false"}
# the report and one contig row, keys sorted, as json.dumps(indent=2) lays them out
_JSON_REPORT = """{
  "contig_count": %d,
  "contigs": %s,
  "genome_fraction_covered": %s,
  "k": %d,
  "max_length": %d,
  "mean_length": %s,
  "misassembly_count": %s,
  "n50": %d,
  "total_length": %d,
  "truth_available": %s
}
"""
_JSON_ROW = """    {
      "exact_substring": %s,
      "kmer_precision": %s,
      "length": %s,
      "name": %s
    }"""


def _json_scalar(value) -> str:
    """``None``, a float or an int written as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """The metrics of a contig set. Per-contig results are columns, in
    contig order: ``names``, ``lengths`` (``int64``) and, with a truth,
    ``exact`` (``bool``: the contig occurs in the truth) and
    ``kmer_precision`` (``float64``); without one, these two and the truth
    metrics are ``None``. The length summary is read off the columns."""

    k: int
    names: tuple[str, ...]
    lengths: np.ndarray
    exact: Optional[np.ndarray] = None
    kmer_precision: Optional[np.ndarray] = None
    genome_fraction_covered: Optional[float] = None
    misassembly_count: Optional[int] = None

    @property
    def truth_available(self) -> bool:
        return self.misassembly_count is not None

    @property
    def contig_count(self) -> int:
        return len(self.names)

    @property
    def total_length(self) -> int:
        return int(self.lengths.sum())

    @property
    def max_length(self) -> int:
        return int(self.lengths.max(initial=0))

    @property
    def mean_length(self) -> float:
        return self.total_length / self.contig_count if self.contig_count else 0.0

    @property
    def n50(self) -> int:
        return compute_n50(self.lengths)

    def _cells(self, missing: str, fmt) -> tuple:
        """Every contig's exact and ``fmt``-ed k-mer precision cells, or ``missing``."""
        if self.exact is None:
            return [missing] * self.contig_count, [missing] * self.contig_count
        return (map(_JSON_WORDS.__getitem__, self.exact.tolist()),
                map(fmt, self.kmer_precision.tolist()))

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes
        it, byte for byte, with one template filled per contig row."""
        rows = zip(*self._cells("null", float.__repr__),
                   map(int.__repr__, self.lengths.tolist()),
                   map(encode_basestring_ascii, self.names))
        contigs = ("[\n" + ",\n".join(map(_JSON_ROW.__mod__, rows)) + "\n  ]"
                   if self.contig_count else "[]")
        return _JSON_REPORT % (
            self.contig_count, contigs, _json_scalar(self.genome_fraction_covered), self.k,
            self.max_length, _json_scalar(self.mean_length),
            _json_scalar(self.misassembly_count), self.n50, self.total_length,
            _JSON_WORDS[self.truth_available])

    def to_text(self) -> str:
        truth = ((f"{self.genome_fraction_covered:.6f}", self.misassembly_count)
                 if self.truth_available else ("n/a (no ground truth)",) * 2)
        lines = [
            f"k = {self.k}",
            f"truth_available = {_JSON_WORDS[self.truth_available]}",
            f"contig_count = {self.contig_count}",
            f"total_length = {self.total_length}",
            f"max_length = {self.max_length}",
            f"mean_length = {self.mean_length:.4f}",
            f"n50 = {self.n50}",
            f"genome_fraction_covered = {truth[0]}",
            f"misassembly_count = {truth[1]}",
            "",
            "contig\tlength\texact_substring\tkmer_precision",
        ]
        exact, precision = self._cells("n/a", "{:.6f}".format)
        lines += [f"{name}\t{length}\t{e}\t{p}" for name, length, e, p
                  in zip(self.names, self.lengths.tolist(), exact, precision)]
        return "\n".join(lines) + "\n"


def compute_n50(lengths) -> int:
    """Largest L such that contigs of length >= L hold at least half the
    total contig length."""
    ordered = np.sort(np.asarray(lengths, dtype=np.int64))[::-1]
    running = np.cumsum(ordered)
    if not len(running) or running[-1] == 0:
        return 0
    return int(ordered[np.searchsorted(2 * running, running[-1])])


class _SeedIndex(NamedTuple):
    """The truth's packed ``seed``-windows by start (``packs``), and the same
    windows sorted (``keys``) with their starts in that order (``starts``,
    ascending among equal windows)."""

    seed: int
    packs: np.ndarray
    keys: np.ndarray
    starts: np.ndarray


def _seed_index(truth_codes: np.ndarray, seed: int) -> _SeedIndex:
    packs = window_packs(truth_codes, seed)
    starts = np.argsort(packs, kind="stable")
    return _SeedIndex(seed, packs, packs[starts], starts)


def _exact_hits(codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                index: _SeedIndex) -> tuple[np.ndarray, np.ndarray]:
    """Every exact occurrence in the truth of every contig at least
    ``index.seed`` long, as (contig, truth start) arrays; contig i holds
    ``lengths[i]`` symbols of ``codes`` from ``starts[i]`` on.

    A contig can only occur where its first seed-window does. Each such
    candidate is checked on the contig's seed-windows at offsets seed,
    2*seed, ... and the one ending the contig: with the first, they tile it.
    """
    seed = index.seed
    windows = window_packs(codes, seed)
    live = np.flatnonzero(lengths >= seed)
    first = windows[starts[live]]
    low = np.searchsorted(index.keys, first, side="left")
    counts = np.searchsorted(index.keys, first, side="right") - low
    contig = np.repeat(live, counts)
    pos = index.starts[index_ranges(low, counts)]
    fits = pos + lengths[contig] - seed < len(index.packs)  # ends inside the truth
    contig, pos = contig[fits], pos[fits]
    length = lengths[contig]
    tiles = (length - 1) // seed  # after the first
    pair = np.repeat(np.arange(len(contig)), tiles)
    offset = np.minimum(index_ranges(np.ones_like(tiles), tiles) * seed, length[pair] - seed)
    wrong = windows[starts[contig[pair]] + offset] != index.packs[pos[pair] + offset]
    ok = np.ones(len(contig), dtype=bool)
    ok[pair[wrong]] = False
    return contig[ok], pos[ok]


def _kmer_hits(codes: np.ndarray, starts: np.ndarray, windows: np.ndarray, k: int,
               truth_kmers: np.ndarray) -> np.ndarray:
    """How many of its k-windows contig i, with ``windows[i]`` of them (at
    least one) from ``starts[i]`` of ``codes`` on, has in ``truth_kmers``
    (the truth's distinct packed k-mers, ascending)."""
    if not len(windows):
        return np.zeros(0, dtype=np.int64)
    found = in_sorted(truth_kmers, window_packs(codes, k)[index_ranges(starts, windows)])
    return np.add.reduceat(found, np.cumsum(windows) - windows, dtype=np.int64)


def evaluate(contigs: ContigSet, truth: str, k: int) -> EvalReport:
    """Score a contig set against a known reference.

    A contig is exact where it occurs in the truth, and its (possibly
    overlapping) occurrences all count toward genome coverage; they are
    found through one index of the truth's (k-1)-windows, each candidate
    checked symbol for symbol. k-mer precision is the fraction of a
    contig's k-mer occurrences present in the truth spectrum (1 for an
    exact contig, vacuously 1 for contigs shorter than k).
    """
    if not truth:
        raise ValueError("truth genome must be nonempty")
    check_k(k)
    truth_codes = joined_codes((truth,))
    # every contig is at least k-1 long; for k = 1 only the empty contig is
    # shorter than the seed, and it occurs everywhere and covers nothing
    index = _seed_index(truth_codes, max(k - 1, 1))
    truth_kmers = sorted_distinct(window_packs(truth_codes, k))
    store = contigs.sequences
    lengths, offsets = store.lengths, store.offsets
    exact = lengths == 0
    hits = np.zeros(len(lengths), dtype=np.int64)  # k-windows found in the truth
    hit_starts, hit_ends = [], []
    for at, stop in symbol_batches(lengths):
        length = lengths[at:stop]
        codes = store.codes[offsets[at]:offsets[stop]]
        starts = offsets[at:stop] - offsets[at]
        contig, pos = _exact_hits(codes, starts, length, index)
        exact[at + contig] = True
        hit_starts.append(pos)
        hit_ends.append(pos + length[contig])
        scored = np.flatnonzero(~exact[at:stop] & (length >= k))
        hits[at + scored] = _kmer_hits(codes, starts[scored], length[scored] - k + 1, k,
                                       truth_kmers)
    span = len(truth_codes)
    depth = np.zeros(span + 1, dtype=np.int64)  # coverage depth, differenced
    if hit_starts:
        depth += np.bincount(np.concatenate(hit_starts), minlength=span + 1)
        depth -= np.bincount(np.concatenate(hit_ends), minlength=span + 1)
    covered = int(np.count_nonzero(np.cumsum(depth[:span]) > 0))
    precision = np.where(exact | (lengths < k), 1.0, hits / np.maximum(lengths - k + 1, 1))
    return EvalReport(k, contigs.names, lengths, exact, precision, covered / span,
                      int(np.count_nonzero(~exact)))


def evaluate_without_truth(contigs: ContigSet, k: int) -> EvalReport:
    """Length-only metrics for runs with no ground truth."""
    return EvalReport(k, contigs.names, contigs.sequences.lengths)


# ---------------------------------------------------------------------------
# Pipeline steps, shared by the stages and the CLI subcommands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageResult:
    report: EvalReport
    report_text: str  # ``report.to_text()``, as written to report.txt
    artifact_dir: Path
    artifacts: dict


def assemble_contigs(reads: ReadSet, k: int, method: str) -> tuple[ContigSet, Optional[dbg.DeBruijnGraph]]:
    """Run the chosen assembler; graph methods also return the graph."""
    if method == "unitig":
        graph = dbg.build(reads, k)
        return unitig_contigs(graph), graph
    if method == "cpp-walk":
        graph = dbg.build(reads, k)
        walks = ReadSet(dbg.spell(dbg.shortest_edge_covering_walk(part))
                        for part in graph.components())
        return ContigSet(k, walks, tuple(map("w%d".__mod__, range(len(walks)))),
                         "cpp-walk"), graph
    if method in ("scs-greedy", "scs-exact"):
        solver = greedy_scs if method == "scs-greedy" else exact_scs
        return ContigSet(k, ReadSet.of(solver(reads).superstring), ("s0",), method), None
    raise ValueError(f"unknown assembly method {method!r}")


def sample_reads(genome: str, read_length: int, num_reads: Optional[int], error_rate: float,
                 gaps, seed: int) -> ReadSet:
    """Idealized reads of the genome, one per position, when ``num_reads``
    is None; else that many uniform reads with substitution errors, none
    touching a gap."""
    if num_reads is None:
        return simulate.idealized_reads(genome, read_length)
    return simulate.uniform_reads(genome, simulate.SimulationProfile(
        len(genome), num_reads, read_length, error_rate, gaps, seed))


def correct_to_assemble(reads: ReadSet, k: int, min_multiplicity: int, source) -> ReadSet:
    """The reads corrected by :func:`simulate.correct_reads`, for assembly:
    an :class:`AssemblyError` naming ``source`` (the reads file or the
    config) when correction drops every read, which would leave nothing to
    assemble."""
    corrected = simulate.correct_reads(reads, k, min_multiplicity)
    if not len(corrected):
        raise AssemblyError(f"{source}: read correction at min multiplicity {min_multiplicity} "
                            f"dropped all {len(reads)} reads")
    return corrected


def read_genome(path) -> DnaString:
    """The first record of a FASTA file: the genome or the truth."""
    sequences = read_named(path)[1]
    if not len(sequences):
        raise FastaParseError(f"no FASTA records in {path}", line=1)
    return sequences[0]


def write_reads(reads: ReadSet, path) -> None:
    """Write reads as FASTA records ``r0, r1, ...``, straight from their store
    (as a ContigSet of order 1, which puts no floor on a read's length)."""
    write_fasta(ContigSet(1, reads, tuple(map("r%d".__mod__, range(len(reads)))), ""), path)


# the config keys each stage cannot run without; a tuple is a choice of keys
_STAGE_KEYS = {
    1: ("k", "read_length", ("genome_length", "genome_fasta")),
    2: ("k", "read_length", ("genome_length", "genome_fasta"), "num_reads"),
    3: ("k", "reads_fasta"),
}


def _check_stage(stage: int, config: StageConfig) -> None:
    """Reject a stage its config cannot run: a missing key is a usage
    error; simulated reads too short for the graph (shorter than k-1) or
    for stage-2 correction (shorter than k) are a domain error."""
    if stage not in _STAGE_KEYS:
        raise ValueError(f"stage must be 1, 2, or 3, got {stage}")
    for need in _STAGE_KEYS[stage]:
        keys = need if isinstance(need, tuple) else (need,)
        if all(getattr(config, key) in (None, "") for key in keys):
            raise ValueError(f"stage {stage} config needs {' or '.join(keys)}")
    if stage == 2 and config.correct and config.read_length < config.k:
        raise AssemblyError(f"stage 2 correction needs read_length >= k, got read_length="
                            f"{config.read_length} and k={config.k}")
    if stage != 3 and config.method in GRAPH_METHODS and config.read_length < config.k - 1:
        raise AssemblyError(f"method {config.method} needs read_length >= k-1, got "
                            f"read_length={config.read_length} and k={config.k}")


def check_genome(source, genome: str, read_length: int, gaps=()) -> None:
    """Raise :class:`AssemblyError`, naming ``source``, unless the genome
    holds a read of ``read_length`` and every gap, with room for a read."""
    if len(genome) < read_length:
        raise AssemblyError(f"{source}: the genome has {len(genome)} nt, fewer than "
                            f"read_length {read_length}")
    for start, end in gaps:
        if end > len(genome):
            raise AssemblyError(f"{source}: gap {start}:{end} runs past the genome's "
                                f"{len(genome)} nt")
    if gaps and not simulate.allowed_starts(len(genome), read_length, gaps).size:
        raise AssemblyError(f"{source}: no read of read_length {read_length} "
                            f"fits between the gaps in the genome's {len(genome)} nt")


def run_stage(stage: int, config: StageConfig, out_dir=None,
              source="stage config") -> StageResult:
    """Execute one evaluation stage end to end and persist its artifacts.

    Stage 1: idealized error-free reads from the (possibly synthesized)
    genome. Stage 2: uniform reads with the configured errors/gaps and
    optional correction. Stage 3: externally supplied reads, evaluated
    against a truth genome when one is configured; it does not correct
    them, and warns when the config asks it to. The config is checked
    first; the directory (``out_dir``, else the config's, else
    ``./asmlab-stage<N>``) is made once the reads and truth are in hand.
    A data error found only by running (correction dropping every read)
    names ``source``, the config's file.
    """
    _check_stage(stage, config)
    if stage == 3:
        reads = read_reads(config.reads_fasta)
        if config.correct:
            logger.warning("stage 3 does not correct its reads; ignoring correct = true")
        truth = read_genome(config.truth_fasta) if config.truth_fasta else None
    else:
        truth = (read_genome(config.genome_fasta) if config.genome_fasta else
                 simulate.random_genome(config.genome_length, config.planted_repeat,
                                        seed=config.seed))
        gaps = config.gaps if stage == 2 else ()
        check_genome(config.genome_fasta or "genome_length", truth, config.read_length, gaps)
        reads = sample_reads(truth, config.read_length, config.num_reads if stage == 2 else None,
                             config.error_rate, gaps, config.seed)
        if stage == 2 and config.correct:
            reads = correct_to_assemble(reads, config.k, config.min_multiplicity, source)

    directory = Path(out_dir or config.out_dir or f"asmlab-stage{stage}")
    directory.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}
    if stage != 3:
        artifacts["genome"] = directory / "genome.fasta"
        write_fasta([FastaRecord("truth", truth)], artifacts["genome"])
    artifacts["reads"] = directory / "reads.fasta"
    write_reads(reads, artifacts["reads"])
    contigs, graph = assemble_contigs(reads, config.k, config.method)
    artifacts["contigs"] = directory / "contigs.fasta"
    write_fasta(contigs, artifacts["contigs"])
    if graph is not None:
        artifacts["dot"] = directory / "graph.dot"
        with open(artifacts["dot"], "w", encoding="ascii", newline="\n") as handle:
            dbg.export_dot(graph, handle)

    report = (evaluate(contigs, truth, config.k) if truth is not None
              else evaluate_without_truth(contigs, config.k))
    text = report.to_text()
    artifacts["report_txt"] = directory / "report.txt"
    artifacts["report_txt"].write_text(text, encoding="ascii")
    artifacts["report_json"] = directory / "report.json"
    artifacts["report_json"].write_text(report.to_json(), encoding="ascii")
    return StageResult(report, text, directory, artifacts)
