"""File formats: FASTA/FASTQ ingestion, FASTA emission, graph edge-list
fixtures, and the flat key-value run configuration."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, TextIO, Union

from asmlab.errors import FastaParseError
from asmlab.graph import DeBruijnGraph
from asmlab.sequence import ALPHABET, DnaString, first_invalid

FASTA_WRAP = 60

Source = Union[str, Path, TextIO]


@dataclass(frozen=True)
class FastaRecord:
    id: str
    sequence: DnaString
    description: str = ""

    def __post_init__(self):
        if not self.id or any(ch.isspace() for ch in self.id):
            raise ValueError(f"record id must be nonempty without whitespace: {self.id!r}")


def _read_text(source: Source) -> str:
    """The whole text of a path or an open text handle. A file byte outside
    ASCII is a :class:`FastaParseError` naming the file and its line."""
    if not isinstance(source, (str, Path)):
        return source.read()
    data = Path(source).read_bytes()
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


def read_fasta(source: Source, drop_ambiguous: bool = False) -> list[FastaRecord]:
    """Parse FASTA (or FASTQ, whose quality lines are only checked to be as
    long as their sequence lines).

    Sequence lines are concatenated and uppercased. Any symbol outside
    A/C/G/T (explicitly including N) is a parse error naming the line
    and the byte, unless ``drop_ambiguous`` is set, in which case the
    whole offending record is dropped instead.
    """
    text = _read_text(source)
    stripped = text.lstrip()
    if stripped.startswith("@"):
        return _parse_fastq(text, drop_ambiguous)
    return _parse_fasta(text, drop_ambiguous)


def _validate_piece(piece: str, line_no: int, where: str) -> Optional[FastaParseError]:
    pos = first_invalid(piece)
    if pos < 0:
        return None
    return FastaParseError(
        f"invalid symbol {piece[pos]!r} in {where} (alphabet is {ALPHABET})", line=line_no)


def _parse_fasta(text: str, drop_ambiguous: bool) -> list[FastaRecord]:
    records: list[FastaRecord] = []
    current_id: Optional[str] = None
    current_desc = ""
    pieces: list[str] = []
    header_line = 0
    bad: Optional[FastaParseError] = None

    def flush(at_line: int):
        nonlocal bad
        if current_id is None:
            return
        if bad is not None:
            if not drop_ambiguous:
                raise bad
            bad = None
            return
        seq = "".join(pieces)
        if not seq:
            raise FastaParseError(f"record {current_id!r} has an empty sequence",
                                  line=header_line)
        records.append(FastaRecord(current_id, DnaString(seq), current_desc))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush(line_no)
            head = line[1:].strip()
            if not head:
                raise FastaParseError("empty FASTA header", line=line_no)
            parts = head.split(None, 1)
            current_id = parts[0]
            current_desc = parts[1] if len(parts) > 1 else ""
            pieces = []
            header_line = line_no
            bad = None
        else:
            if current_id is None:
                raise FastaParseError("sequence data before any '>' header", line=line_no)
            piece = line.upper()
            if bad is None:
                bad = _validate_piece(piece, line_no, f"record {current_id!r}")
            pieces.append(piece)
    flush(line_no if text else 0)
    return records


def _parse_fastq(text: str, drop_ambiguous: bool) -> list[FastaRecord]:
    lines = text.splitlines()
    records: list[FastaRecord] = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        if not lines[i].startswith("@"):
            raise FastaParseError("expected '@' FASTQ header", line=i + 1)
        if i + 3 >= len(lines):
            raise FastaParseError("truncated FASTQ record", line=i + 1)
        head = lines[i][1:].strip()
        parts = head.split(None, 1)
        seq = lines[i + 1].strip().upper()
        if not lines[i + 2].startswith("+"):
            raise FastaParseError("expected '+' FASTQ separator", line=i + 3)
        if not seq:
            raise FastaParseError(f"record {parts[0]!r} has an empty sequence", line=i + 2)
        problem = _validate_piece(seq, i + 2, f"record {parts[0]!r}")
        if problem is not None and not drop_ambiguous:
            raise problem
        quality = lines[i + 3].strip()
        if len(quality) != len(seq):
            raise FastaParseError(
                f"record {parts[0]!r} has {len(quality)} quality symbols "
                f"for {len(seq)} bases", line=i + 4)
        if problem is None:
            records.append(FastaRecord(parts[0], DnaString(seq),
                                       parts[1] if len(parts) > 1 else ""))
        i += 4
    return records


def write_fasta(records: Iterable[FastaRecord], sink: Source) -> None:
    """Emit records with 60-column wrapping and deterministic bytes."""
    records = list(records)
    seen: set[str] = set()
    for r in records:
        if r.id in seen:
            raise ValueError(f"duplicate record id {r.id!r}")
        seen.add(r.id)
    handle, owned = _open_for_write(sink)
    try:
        for r in records:
            header = f">{r.id}"
            if r.description:
                header += f" {r.description}"
            handle.write(header + "\n")
            seq = str(r.sequence)
            for i in range(0, len(seq), FASTA_WRAP):
                handle.write(seq[i:i + FASTA_WRAP] + "\n")
    finally:
        if owned:
            handle.close()


def fasta_bytes(records: Iterable[FastaRecord]) -> str:
    buf = io.StringIO()
    write_fasta(records, buf)
    return buf.getvalue()


def read_reads(source: Source, drop_ambiguous: bool = False):
    """Load a FASTA/FASTQ file as a ReadSet (order preserved)."""
    from asmlab.sequence import ReadSet

    records = read_fasta(source, drop_ambiguous=drop_ambiguous)
    return ReadSet(tuple(r.sequence for r in records))


# ---------------------------------------------------------------------------
# Edge-list graph fixtures
# ---------------------------------------------------------------------------


def write_edge_list(graph: DeBruijnGraph, sink: Source) -> None:
    """Reproducible fixture format: ``k=<int>`` then one sorted k-mer per
    line, then one ``v=<vertex>`` line per isolated vertex."""
    handle, owned = _open_for_write(sink)
    try:
        handle.write(f"k={graph.k}\n")
        for e in graph.edge_kmers:
            handle.write(e + "\n")
        for v in graph.isolated_vertices():
            handle.write(f"v={v}\n")
    finally:
        if owned:
            handle.close()


def read_edge_list(source: Source) -> DeBruijnGraph:
    """Inverse of :func:`write_edge_list`; a label outside A/C/G/T is a
    :class:`FastaParseError` naming its line."""
    text = _read_text(source)
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("k="):
        raise ValueError("edge-list fixture must start with a 'k=<int>' header")
    k = int(lines[0][1][2:])
    kmers: list[str] = []
    isolated: list[str] = []
    for line_no, line in lines[1:]:
        label, labels = (line[2:], isolated) if line.startswith("v=") else (line, kmers)
        problem = _validate_piece(label, line_no, f"graph label {label!r}")
        if problem is not None:
            raise problem
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


_METHODS = ("unitig", "cpp-walk", "scs-greedy", "scs-exact")


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
        out.append((int(start), int(end)))
    return tuple(out)


def read_config(source: Source) -> StageConfig:
    """Parse ``key = value`` lines ('#' starts a comment) into a
    :class:`StageConfig`; unknown keys and out-of-range values are errors."""
    text = _read_text(source)
    config = StageConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ValueError(f"line {line_no}: expected 'key = value', got {raw!r}")
        _apply_key(config, key, value, line_no)
    return config


def _apply_key(config: StageConfig, key: str, value: str, line_no: int) -> None:
    try:
        if key in ("genome_length", "plant_repeat_length", "plant_repeat_copies",
                   "num_reads", "read_length", "seed", "k", "min_multiplicity"):
            setattr(config, key, int(value))
        elif key == "error_rate":
            rate = float(value)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"error_rate must be in [0, 1), got {rate}")
            config.error_rate = rate
        elif key == "gaps":
            config.gaps = parse_gaps(value)
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
        raise ValueError(f"line {line_no}: unknown configuration key {key!r}") from None
    except ValueError as exc:
        raise ValueError(f"line {line_no}: key {key!r}: {exc}") from None
