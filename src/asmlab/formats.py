"""File formats: FASTA/FASTQ ingestion, FASTA emission, graph edge-list
fixtures, and the flat key-value run configuration."""

from __future__ import annotations

import gzip
import io
import itertools
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union

import numpy as np

from asmlab import graph as dbg
from asmlab.errors import ConfigError, FastaParseError
from asmlab.graph import DeBruijnGraph
from asmlab.sequence import (
    ALPHABET,
    MAX_K,
    SYMBOL_BYTES,
    DnaString,
    ReadSet,
    first_invalid,
    folded_codes,
    index_ranges,
    read_lengths,
    symbol_batches,
    write_kmer_lines,
)
from asmlab.simulate import allowed_starts, check_gaps
from asmlab.unitig import ContigSet

FASTA_WRAP = 60
_GZIP_MAGIC = b"\x1f\x8b"

Source = Union[str, Path, TextIO]


@dataclass(frozen=True)
class FastaRecord:
    id: str
    sequence: DnaString
    description: str = ""

    def __post_init__(self):
        if self.id.split() != [self.id]:  # empty, or holds whitespace
            raise ValueError(f"record id must be nonempty without whitespace: {self.id!r}")


def _read_text(source: Source) -> str:
    """The whole text of a path or an open text handle; a gzip file (told by
    its magic bytes) is decompressed first. A file byte outside ASCII, or a
    truncated or corrupt gzip stream, is a :class:`FastaParseError` naming
    the file."""
    if not isinstance(source, (str, Path)):
        return source.read()
    data = Path(source).read_bytes()
    if data.startswith(_GZIP_MAGIC):
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise FastaParseError(f"{source} is not a readable gzip file: {exc}",
                                  line=1) from None
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FastaParseError(
            f"byte 0x{data[exc.start]:02X} in {source} is not ASCII text",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def _open_for_write(sink: Source):
    if isinstance(sink, (str, Path)):
        return open(sink, "w", encoding="ascii", newline="\n"), True
    return sink, False


def read_fasta(source: Source) -> list[FastaRecord]:
    """Parse FASTA (or FASTQ, whose quality lines are only checked to be as
    long as their sequence lines).

    Sequence lines are concatenated, with a/c/g/t read as A/C/G/T. Any
    other symbol outside A/C/G/T (explicitly including N) is a parse error
    naming the line and the byte.
    """
    headers, sequences = _parse(source)
    records = []
    for header, seq in zip(headers, sequences):
        fields = header[1:].split(None, 1)
        records.append(FastaRecord(fields[0], seq, fields[1] if len(fields) > 1 else ""))
    return records


def read_named(source: Source) -> tuple[tuple[str, ...], ReadSet]:
    """The record ids and the sequences of a FASTA or FASTQ file, parsed as
    :func:`read_fasta` parses it, with no record object per sequence."""
    headers, sequences = _parse(source)
    return tuple(header[1:].split(None, 1)[0] for header in headers), sequences


def _symbol_error(pieces: list[str], lines: Iterable[int], where: str) -> FastaParseError:
    """The error naming the line of the first symbol outside the alphabet in
    ``pieces``, the consecutive lines of one sequence. Called only once a
    symbol of theirs is known to be outside the alphabet."""
    for piece, line_no in zip(pieces, lines):
        pos = first_invalid(piece)
        if pos >= 0:
            break
    return FastaParseError(
        f"invalid symbol {piece[pos]!r} in {where} (alphabet is {ALPHABET})", line=line_no)


def _parse(source: Source) -> tuple[Iterable[str], ReadSet]:
    """The header lines (stripped, marker included) of a FASTA or FASTQ file,
    looked up only when iterated, and the records' sequences: the one shape
    every reader is built on.

    The lines are split and stripped once. A record is a header line and its
    sequence lines: in FASTA every line up to the next header, in FASTQ the
    one line after it. A FASTQ record is four lines, and its quality line may
    itself begin with '@' or '+', so records start at every fourth nonblank
    line; that is exact up to the first record that fails a check, since
    every record before it is four nonblank lines in a row. The sequence
    lines are joined and encoded once, lowercase read as uppercase, so no
    string is made per record. Each check is one boolean column over the
    records, in the order a record-by-record parser runs them, and the
    first record in file order that fails one is reported, after FASTA data
    before the first header.
    """
    raw = _read_text(source).splitlines()
    lines = list(map(str.strip, raw))
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    fastq = next(filter(None, lines), "").startswith("@")
    # the first symbol of every line ('' for an empty one): as written in
    # FASTQ, whose header and separator must open their lines, and after
    # stripping in FASTA
    first = np.array(raw if fastq else lines, dtype="U1")
    del raw
    if fastq:
        heads = np.flatnonzero(lengths)[::4]
        ends = np.minimum(heads + 2, len(lines))
    else:
        heads = np.flatnonzero(first == ">")
        preamble = lengths[:heads[0]] if len(heads) else lengths
        if preamble.any():
            raise FastaParseError("sequence data before any '>' header",
                                  line=int(np.flatnonzero(preamble)[0]) + 1)
        ends = np.append(heads[1:], len(lines))
    # record r holds the sequence lines [heads[r] + 1, ends[r])
    counts = ends - heads - 1
    is_body = np.zeros(len(lines), dtype=bool)
    is_body[index_ranges(heads + 1, counts)] = True
    codes = folded_codes("".join(itertools.compress(lines, is_body.tolist())))
    invalid = np.flatnonzero(codes == 255)
    # record r's symbols are codes[bounds[r]:bounds[r + 1]]
    line_ends = np.concatenate(([0], np.cumsum(lengths[is_body])))
    bounds = line_ends[np.concatenate(([0], np.cumsum(counts)))]
    starts, stops = bounds[:-1], bounds[1:]
    bad = np.zeros(len(heads), dtype=bool)
    bad[np.searchsorted(bounds, invalid, side="right") - 1] = True
    if fastq:
        last = len(lines) - 1
        checks = {"@": first[heads] != "@", "truncated": heads + 3 > last,
                  "+": first[np.minimum(heads + 2, last)] != "+",
                  "header": lengths[heads] == 1, "empty": starts == stops, "symbol": bad,
                  "quality": lengths[np.minimum(heads + 3, last)] != stops - starts}
    else:
        checks = {"header": lengths[heads] == 1, "symbol": bad, "empty": starts == stops}
    failing = np.logical_or.reduce(list(checks.values()))
    if failing.any():
        r = int(np.argmax(failing))
        check = next(name for name, fails in checks.items() if fails[r])
        raise _record_error(check, lines, int(heads[r]), int(ends[r]))
    return map(lines.__getitem__, heads), ReadSet.from_codes(codes, stops - starts)


def _record_error(check: str, lines: list[str], head: int, end: int) -> FastaParseError:
    """The error of the record with header line ``head`` and sequence lines
    up to ``end`` (0-based, exclusive) for ``check``, the first check it
    fails: the message and line a record-by-record parser gives."""
    if check == "@":
        return FastaParseError("expected '@' FASTQ header", line=head + 1)
    if check == "truncated":
        return FastaParseError("truncated FASTQ record", line=head + 1)
    if check == "+":
        return FastaParseError("expected '+' FASTQ separator", line=head + 3)
    fastq = lines[head].startswith("@")
    if check == "header":
        return FastaParseError(f"empty {'FASTQ' if fastq else 'FASTA'} header", line=head + 1)
    name = repr(lines[head][1:].split(None, 1)[0])
    body = [line.upper() for line in lines[head + 1:end]]
    if check == "empty":  # FASTQ names the sequence line, FASTA the header
        return FastaParseError(f"record {name} has an empty sequence", line=head + 1 + fastq)
    if check == "symbol":
        return _symbol_error(body, range(head + 2, end + 1), f"record {name}")
    return FastaParseError(f"record {name} has {len(lines[head + 3])} quality symbols "
                           f"for {len(body[0])} bases", line=head + 4)


def _layout(headers: list[str], codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The FASTA bytes of records laid end to end in ``codes``: each is its
    header line, then its symbols in lines of ``FASTA_WRAP``."""
    head_sizes = read_lengths(headers) + 2  # '>' and the newline
    line_counts = -(-lengths // FASTA_WRAP)
    sizes = head_sizes + lengths + line_counts
    starts = np.cumsum(sizes) - sizes
    out = np.full(int(sizes.sum()), ord("\n"), dtype=np.uint8)
    out[index_ranges(starts, head_sizes - 1)] = np.frombuffer(
        (">" + ">".join(headers)).encode("ascii"), dtype=np.uint8)
    # symbols fill every byte outside the header lines and line-ending newlines: a byte
    # mask, since an int64 position per symbol would take eight times the buffer
    is_symbol = np.ones(len(out), dtype=bool)
    is_symbol[index_ranges(starts, head_sizes)] = False
    record = np.repeat(np.arange(len(lengths)), line_counts)
    line = index_ranges(np.zeros_like(line_counts), line_counts)
    is_symbol[(starts + head_sizes)[record] + line
              + np.minimum((line + 1) * FASTA_WRAP, lengths[record])] = False
    out[is_symbol] = SYMBOL_BYTES[codes]
    return out


def write_fasta(records: Union[ContigSet, Iterable[FastaRecord]], sink: Source) -> None:
    """Emit records with 60-column wrapping and deterministic bytes. A
    :class:`ContigSet` gives its names as ids and its source as every
    description. A duplicate id raises before the sink is opened. Each batch
    of records is laid out in one byte buffer and written at once."""
    if isinstance(records, ContigSet):
        ids, store = records.names, records.sequences
        headers = ([f"{name} {records.source}" for name in ids] if records.source
                   else list(ids))
    else:
        records = list(records)
        ids, store = [r.id for r in records], ReadSet(r.sequence for r in records)
        headers = [f"{r.id} {r.description}" if r.description else r.id for r in records]
    seen: set[str] = set()
    for name in ids:
        if name in seen:
            raise ValueError(f"duplicate record id {name!r}")
        seen.add(name)
    lengths = store.lengths
    handle, owned = _open_for_write(sink)
    try:
        for start, stop in symbol_batches(lengths):
            codes = store.codes[store.offsets[start]:store.offsets[stop]]
            out = _layout(headers[start:stop], codes, lengths[start:stop])
            handle.write(out.tobytes().decode("ascii"))
    finally:
        if owned:
            handle.close()


def fasta_bytes(records: Iterable[FastaRecord]) -> str:
    buf = io.StringIO()
    write_fasta(records, buf)
    return buf.getvalue()


def read_reads(source: Source) -> ReadSet:
    """Load a FASTA/FASTQ file as a ReadSet (order preserved); a file that
    yields no reads is a :class:`FastaParseError`."""
    reads = _parse(source)[1]
    if not len(reads):
        name = source if isinstance(source, (str, Path)) else getattr(source, "name", "input")
        raise FastaParseError(f"no reads in {name}", line=1)
    return reads


# ---------------------------------------------------------------------------
# Edge-list graph fixtures
# ---------------------------------------------------------------------------


def write_edge_list(graph: DeBruijnGraph, sink: Source) -> None:
    """Reproducible fixture format: ``k=<int>`` then one sorted k-mer per
    line, then one ``v=<vertex>`` line per isolated vertex, laid out from
    the packed k-mers as DOT lines are."""
    k = graph.k
    lone = graph.packed_vertices[(graph.in_degrees == 0) & (graph.out_degrees == 0)]
    handle, owned = _open_for_write(sink)
    try:
        handle.write(f"k={k}\n")
        for packed, width, head in ((graph.packed_edges, k, b""), (lone, k - 1, b"v=")):
            write_kmer_lines(handle, packed, width, (head, (0, width)), (b"\n",),
                             np.zeros(len(packed), dtype=np.uint8), dbg._DOT_BATCH)
    finally:
        if owned:
            handle.close()


def read_edge_list(source: Source) -> DeBruijnGraph:
    """Inverse of :func:`write_edge_list`. A header whose order is not an
    integer in [2, MAX_K], a label outside A/C/G/T and a label of the wrong
    length are each a :class:`FastaParseError` naming its line, and so is a
    missing header (line 1 of an empty file)."""
    text = _read_text(source)
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("k="):
        raise FastaParseError("edge-list fixture must start with a 'k=<int>' header",
                              line=lines[0][0] if lines else 1)
    header_line, header = lines[0]
    try:
        k = int(header[2:])
    except ValueError:
        raise FastaParseError(f"graph order {header[2:]!r} is not an integer",
                              line=header_line) from None
    if not 2 <= k <= MAX_K:
        raise FastaParseError(f"graph order k={k} is outside [2, {MAX_K}]", line=header_line)
    kmers: list[str] = []
    isolated: list[str] = []
    for line_no, line in lines[1:]:
        if line.startswith("v="):
            label, labels, kind, width = line[2:], isolated, "vertex", k - 1
        else:
            label, labels, kind, width = line, kmers, "edge", k
        if first_invalid(label) >= 0:
            raise _symbol_error([label], [line_no], f"graph label {label!r}")
        if len(label) != width:
            raise FastaParseError(f"{kind} {label!r} has length {len(label)}, "
                                  f"expected {width} for k={k}", line=line_no)
        labels.append(label)
    return DeBruijnGraph(k, kmers, isolated)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass
class StageConfig:
    """Flat configuration driving one simulate -> assemble -> evaluate run."""

    genome_length: Optional[int] = None
    genome_fasta: Optional[str] = None
    plant_repeat_length: Optional[int] = None
    plant_repeat_copies: Optional[int] = None
    num_reads: Optional[int] = None
    read_length: Optional[int] = None
    error_rate: float = 0.0
    gaps: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    seed: int = 0
    reads_fasta: Optional[str] = None
    truth_fasta: Optional[str] = None
    k: Optional[int] = None
    method: str = "unitig"
    correct: bool = False
    min_multiplicity: int = 2
    out_dir: Optional[str] = None

    @property
    def planted_repeat(self) -> Optional[tuple[int, int]]:
        """(length, copies) of the repeat to plant in a random genome, two
        copies unless set, or None."""
        if self.plant_repeat_length is None:
            return None
        copies = 2 if self.plant_repeat_copies is None else self.plant_repeat_copies
        return self.plant_repeat_length, copies


_METHODS = ("unitig", "cpp-walk", "scs-greedy", "scs-exact")
GRAPH_METHODS = ("unitig", "cpp-walk")
# the integer keys and their (smallest, largest or None) values
_INT_RANGES = {
    "genome_length": (1, None),
    "plant_repeat_length": (1, None),
    "plant_repeat_copies": (1, None),
    "num_reads": (1, None),
    "read_length": (1, None),
    "min_multiplicity": (1, None),
    "seed": (0, None),
    "k": (1, MAX_K),
}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def parse_gaps(value: str) -> tuple[tuple[int, int], ...]:
    """Parse ``start:end`` interval lists separated by spaces or commas."""
    out = []
    for chunk in value.replace(",", " ").split():
        start, _, end = chunk.partition(":")
        if not _:
            raise ValueError(f"gap {chunk!r} must look like START:END")
        try:
            out.append((int(start), int(end)))
        except ValueError:
            raise ValueError(f"gap {chunk!r} must have integer bounds START:END") from None
    return tuple(out)


def read_config(source: Source) -> StageConfig:
    """Parse ``key = value`` lines ('#' starts a comment) into a
    :class:`StageConfig`; a malformed line, an unknown or repeated key, a
    bad value (gaps included: empty, negative or overlapping), a key that
    its companions would make meaningless, or a planted repeat, reads or
    gaps that ``genome_length`` cannot hold is a :class:`ConfigError`
    naming the file and line."""
    text = _read_text(source)
    in_file = f"{source}, " if isinstance(source, (str, Path)) else ""
    config = StageConfig()
    line_of: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{in_file}line {line_no}"
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        if key in line_of:
            raise ConfigError(f"{where}: key {key!r} is already set on line "
                              f"{line_of[key]}")
        _apply_key(config, key, value, where)
        line_of[key] = line_no
    if config.k is not None and config.k < 2 and config.method in GRAPH_METHODS:
        raise ConfigError(f"{in_file}line {line_of['k']}: key 'k': method "
                          f"{config.method!r} needs k >= 2, got {config.k}")
    if config.plant_repeat_copies is not None and config.plant_repeat_length is None:
        raise ConfigError(f"{in_file}line {line_of['plant_repeat_copies']}: key "
                          "'plant_repeat_copies' needs plant_repeat_length")
    if config.plant_repeat_length is not None and config.genome_fasta:
        raise ConfigError(f"{in_file}line {line_of['plant_repeat_length']}: key "
                          "'plant_repeat_length' only applies to a random genome, "
                          "not to genome_fasta")
    if config.genome_length is not None:
        length = f"genome_length {config.genome_length} (line {line_of['genome_length']})"
        if config.planted_repeat is not None:
            repeat, copies = config.planted_repeat
            if repeat * copies > config.genome_length:
                raise ConfigError(f"{in_file}line {line_of['plant_repeat_length']}: key "
                                  f"'plant_repeat_length': {copies} copies of {repeat} nt "
                                  f"do not fit in {length}")
        if config.read_length is not None and config.read_length > config.genome_length:
            raise ConfigError(f"{in_file}line {line_of['read_length']}: key 'read_length': "
                              f"{config.read_length} exceeds {length}")
        for start, end in config.gaps:
            if end > config.genome_length:
                raise ConfigError(f"{in_file}line {line_of['gaps']}: key 'gaps': gap "
                                  f"{start}:{end} runs past {length}")
        if (config.gaps and config.read_length is not None
                and not allowed_starts(config.genome_length, config.read_length,
                                       config.gaps).size):
            raise ConfigError(f"{in_file}line {line_of['gaps']}: key 'gaps': no read of "
                              f"read_length {config.read_length} (line "
                              f"{line_of['read_length']}) fits between them in {length}")
    return config


def _apply_key(config: StageConfig, key: str, value: str, where: str) -> None:
    try:
        if key in _INT_RANGES:
            number = int(value)
            low, high = _INT_RANGES[key]
            if number < low or (high is not None and number > high):
                span = f">= {low}" if high is None else f"in [{low}, {high}]"
                raise ValueError(f"must be {span}, got {number}")
            setattr(config, key, number)
        elif key == "error_rate":
            rate = float(value)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"error_rate must be in [0, 1), got {rate}")
            config.error_rate = rate
        elif key == "gaps":
            config.gaps = parse_gaps(value)
            check_gaps(config.gaps)
        elif key in ("genome_fasta", "reads_fasta", "truth_fasta", "out_dir"):
            setattr(config, key, value)
        elif key == "method":
            if value not in _METHODS:
                raise ValueError(f"method must be one of {_METHODS}, got {value!r}")
            config.method = value
        elif key == "correct":
            config.correct = _parse_bool(value)
        else:
            raise KeyError(key)
    except KeyError:
        raise ConfigError(f"{where}: unknown configuration key {key!r}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: key {key!r}: {exc}") from None
