"""DNA strings, k-mer spectra, and substring/superstring/repeat primitives.

Everything downstream (simulation, superstring search, graph construction)
speaks the vocabulary defined here. Sequences are single-stranded by design:
a k-mer and its reverse complement are distinct objects throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

import numpy as np

ALPHABET = "ACGT"
MAX_K = 31  # 2 bits per symbol keeps any k-mer in one 62-bit integer
# symbols counted per batch: bounds the temporary arrays whatever the input size
_COUNT_BATCH = 1 << 21
# windows packed per block: keeps the packing temporaries in cache
_PACK_CHUNK = 1 << 14

# byte value -> 2-bit code, 255 for anything outside the alphabet
_ENCODE = bytearray([255]) * 256
for _v, _c in enumerate(ALPHABET):
    _ENCODE[ord(_c)] = _v
# the same, with a/c/g/t read as A/C/G/T: no other symbol uppercases to one of
# A/C/G/T, so this reads a text as its uppercasing reads
_FOLDED = bytearray(_ENCODE)
for _v, _c in enumerate(ALPHABET.lower()):
    _FOLDED[ord(_c)] = _v
_DECODE = bytes.maketrans(bytes(range(len(ALPHABET))), ALPHABET.encode("ascii"))
SYMBOL_BYTES = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)  # byte of each code
# byte value -> the four 2-bit codes it packs, first symbol in the high bits,
# and their symbols: a packed byte unpacks in one lookup
_BYTE_CODES = np.arange(256, dtype=np.uint8)[:, None] >> np.array([6, 4, 2, 0], dtype=np.uint8) & 3
_BYTE_SYMBOLS = SYMBOL_BYTES[_BYTE_CODES]


def _raw_codes(text: str, table: bytes) -> bytes:
    # one byte per symbol: a non-ASCII symbol becomes b"?", which maps to 255
    return text.encode("ascii", "replace").translate(table)


def first_invalid(text: str) -> int:
    """Position of the first symbol of ``text`` outside A/C/G/T, or -1."""
    return _raw_codes(text, _ENCODE).find(255)


def symbol_codes(text: str) -> np.ndarray:
    """The code of every symbol of ``text`` as a ``uint8`` array, 255 for a
    symbol outside A/C/G/T."""
    return np.frombuffer(_raw_codes(text, _ENCODE), dtype=np.uint8)


def folded_codes(text: str) -> np.ndarray:
    """:func:`symbol_codes` of ``text`` uppercased, without uppercasing it:
    a/c/g/t read as A/C/G/T, and every other symbol outside A/C/G/T is 255."""
    return np.frombuffer(_raw_codes(text, _FOLDED), dtype=np.uint8)


def _invalid_symbol(text: str, pos: int) -> ValueError:
    return ValueError(
        f"invalid symbol {text[pos]!r} at position {pos}; "
        f"DNA strings may only contain {ALPHABET}"
    )


def to_codes(text: str) -> bytes:
    """The 2-bit codes (0-3, one byte per symbol) of an A/C/G/T string."""
    codes = _raw_codes(text, _ENCODE)
    pos = codes.find(255)
    if pos >= 0:
        raise _invalid_symbol(text, pos)
    return codes


def from_codes(codes) -> str:
    """Inverse of :func:`to_codes`; accepts any buffer of codes 0-3."""
    return bytes(codes).translate(_DECODE).decode("ascii")


class DnaString(str):
    """A string validated to contain only A, C, G, T.

    Behaves like a plain ``str`` (slicing, searching, comparison); slices
    return plain ``str`` and can be re-wrapped when validation matters.
    The empty string is valid.
    """

    __slots__ = ()

    def __new__(cls, value: str = "") -> "DnaString":
        if value.__class__ is cls:
            return value  # immutable and already validated
        value = str(value)
        pos = first_invalid(value)
        if pos >= 0:
            raise _invalid_symbol(value, pos)
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"DnaString({str.__repr__(self)})"


class ReadSet:
    """An ordered collection of reads, held once: ``codes`` lays the 2-bit
    codes (``uint8``) of every read end to end, and read i is
    ``codes[offsets[i]:offsets[i + 1]]`` (n + 1 ``int64`` offsets from 0).
    Both arrays are read-only. Reads are handed out as :class:`DnaString`."""

    def __init__(self, reads: Iterable[str]):
        reads = list(reads)
        self._hold(joined_codes(reads), read_lengths(reads))

    @classmethod
    def of(cls, *reads: str) -> "ReadSet":
        return cls(reads)

    @classmethod
    def from_codes(cls, codes: np.ndarray, lengths: np.ndarray) -> "ReadSet":
        """Reads of ``lengths`` symbols laid end to end in ``codes``, all 0-3."""
        reads = cls.__new__(cls)
        reads._hold(codes, lengths)
        return reads

    def _hold(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        self.codes = np.asarray(codes, dtype=np.uint8).view()
        self.offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        self.codes.flags.writeable = self.offsets.flags.writeable = False

    @property
    def lengths(self) -> np.ndarray:
        """The length of every read, as one ``int64`` array."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[DnaString]:
        text = from_codes(self.codes)
        bounds = self.offsets.tolist()
        # the codes were checked when the set was made
        return (str.__new__(DnaString, text[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __getitem__(self, i: int) -> DnaString:
        i = range(len(self))[i]  # IndexError out of range; negative counts from the end
        return str.__new__(DnaString, from_codes(self.codes[self.offsets[i]:self.offsets[i + 1]]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadSet):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.codes, other.codes))

    def __repr__(self) -> str:
        return f"ReadSet({tuple(self)!r})"

    def require_nonempty(self, operation: str) -> None:
        if not len(self):
            raise ValueError(f"{operation} requires a nonempty read set")


def read_lengths(reads: Sequence[str]) -> np.ndarray:
    """The length of every string, as one ``int64`` array."""
    return np.fromiter(map(len, reads), dtype=np.int64, count=len(reads))


def encode_kmer(text: str) -> int:
    """Pack an A/C/G/T string of length 1..31 into a 2-bit-per-symbol integer.

    For equal lengths the packed integers order exactly like the strings
    (A<C<G<T).
    """
    if not 1 <= len(text) <= MAX_K:
        raise ValueError(f"k-mer length must be in [1, {MAX_K}], got {len(text)}")
    value = 0
    for code in to_codes(text):
        value = (value << 2) | code
    return value


def decode_kmer(packed: int, k: int) -> str:
    """Inverse of :func:`encode_kmer` for a known length ``k``."""
    out = [""] * k
    for i in range(k - 1, -1, -1):
        out[i] = ALPHABET[packed & 3]
        packed >>= 2
    return "".join(out)


def check_k(k: int) -> None:
    """Raise ``ValueError`` unless ``k`` is a k-mer length a packed int holds."""
    if not isinstance(k, int) or k < 1 or k > MAX_K:
        raise ValueError(f"k must be an integer in [1, {MAX_K}], got {k!r}")


def joined_codes(texts: Sequence[str]) -> np.ndarray:
    """The codes of ``texts`` laid end to end; a symbol outside the alphabet
    is reported at its position in its own string."""
    joined = "".join(texts)
    codes = _raw_codes(joined, _ENCODE)
    pos = codes.find(255)
    if pos >= 0:
        for text in texts:
            if pos < len(text):
                raise _invalid_symbol(text, pos)
            pos -= len(text)
    return np.frombuffer(codes, dtype=np.uint8)


def encode_kmers(kmers: Sequence[str], k: int) -> np.ndarray:
    """Pack k-mers that all have length ``k`` into a ``uint64`` array, in
    input order; the vectorized form of :func:`encode_kmer`."""
    check_k(k)
    for kmer in kmers:
        if len(kmer) != k:
            raise ValueError(f"k-mer {kmer!r} does not have length {k}")
    return window_packs(joined_codes(kmers).reshape(len(kmers), k), k).ravel()


def _unpack(packed: np.ndarray, width: int, table: np.ndarray) -> np.ndarray:
    """The first ``width`` symbols of every packed k-mer of ``packed``, one
    row per k-mer, through a byte table of four columns.

    Each k-mer is shifted to the top of its ``uint64`` and read as 8
    big-endian bytes, whatever the host's byte order, so one ``take``
    through the table unpacks four symbols per byte.
    """
    if not width:  # a shift by 64 is undefined
        return np.empty((len(packed), 0), dtype=np.uint8)
    top = (packed << np.uint64(64 - 2 * width)).astype(">u8")
    return table.take(top.view(np.uint8), axis=0).reshape(len(packed), 32)[:, :width]


def kmer_codes(packed: np.ndarray, k: int) -> np.ndarray:
    """The 2-bit codes of every k-mer of ``packed``: a ``uint8`` matrix with
    one row of k codes per k-mer."""
    return _unpack(packed, k, _BYTE_CODES)


def kmer_symbols(packed: np.ndarray, k: int) -> np.ndarray:
    """The ASCII bytes of every k-mer of ``packed``: a ``uint8`` matrix with
    one row of k symbols per k-mer."""
    return _unpack(packed, k, _BYTE_SYMBOLS)


def decode_kmers(packed: np.ndarray, k: int) -> list[str]:
    """Inverse of :func:`encode_kmers`: every k-mer of ``packed`` decoded in
    one vectorized pass."""
    text = kmer_symbols(packed, k).tobytes().decode("ascii")
    return [text[i:i + k] for i in range(0, len(text), k)]


def write_kmer_lines(handle: TextIO, packed: np.ndarray, width: int, pieces: tuple,
                     tails: tuple[bytes, ...], kinds: np.ndarray, batch: int) -> None:
    """Write one line per ``width``-mer of ``packed``: a fixed-width head of
    ``pieces`` (literal bytes, or a (start, stop) slice of the k-mer's
    symbols) and the tail ``tails[kinds[i]]``. Each ``batch`` of lines is
    laid out in one byte buffer, from one symbol matrix and one gather of
    the tails padded to the longest, and written at once."""
    template, fields = b"", []
    for piece in pieces:
        if isinstance(piece, bytes):
            template += piece
        else:
            fields.append((len(template), *piece))
            template += bytes(piece[1] - piece[0])
    head = len(template)
    tail_widths = np.array([len(tail) for tail in tails])
    tail_table = np.zeros((len(tails), tail_widths.max()), dtype=np.uint8)
    for row, tail in zip(tail_table, tails):
        row[:len(tail)] = np.frombuffer(tail, dtype=np.uint8)
    for at in range(0, len(packed), batch):
        symbols = kmer_symbols(packed[at:at + batch], width)
        kind = kinds[at:at + batch]
        ends = head + tail_widths[kind]
        lines = np.empty((len(kind), ends.max()), dtype=np.uint8)
        lines[:, :head] = np.frombuffer(template, dtype=np.uint8)
        for column, start, stop in fields:
            lines[:, column:column + stop - start] = symbols[:, start:stop]
        lines[:, head:] = tail_table[:, :lines.shape[1] - head].take(kind, axis=0)
        if ends.min() < lines.shape[1]:  # lines of several lengths: drop the padding
            lines = lines[np.arange(lines.shape[1]) < ends[:, None]]
        handle.write(lines.tobytes().decode("ascii"))


def window_packs(codes: np.ndarray, k: int) -> np.ndarray:
    """Every k-window along the last axis of a code array, packed into
    ``uint64``; the last axis shrinks to n-k+1.

    The windows are packed by doubling (see :func:`_pack_block`) over
    blocks of about ``_PACK_CHUNK`` windows, rows of a matrix taken
    together, so that the temporaries stay in cache.
    """
    n = codes.shape[-1]
    windows = max(n - k + 1, 0)
    lead = codes.shape[:-1]
    rows = codes.reshape(math.prod(lead), n)
    packed = np.empty((len(rows), windows), dtype=np.uint64)
    if windows:
        span = min(windows, _PACK_CHUNK)
        group = max(1, _PACK_CHUNK // span)
        for r in range(0, len(rows), group):
            for at in range(0, windows, span):
                stop = min(at + span, windows)
                _pack_block(rows[r:r + group, at:stop + k - 1], k,
                            packed[r:r + group, at:stop])
    return packed.reshape(lead + (windows,))


def _pack_block(codes: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write the packed k-windows of a code block into ``out``.

    Windows of 2m symbols are one shift-and-or of two windows of m symbols,
    so the windows of every power of two up to k take log2(k) passes. A
    k-window is then the windows of the powers of two in k's binary
    expansion, laid side by side (smallest first): one more shift-and-or
    per set bit.
    """
    power = codes.astype(np.uint64)  # windows of m symbols, m = 1, 2, 4, ...
    m, done, head = 1, 0, None  # head: packed windows of the first done symbols
    while True:
        if k & m:
            last = done + m == k
            width = out.shape[-1] if last else power.shape[-1] - done
            if head is None:
                head = power[..., :width]
            else:
                head = np.left_shift(head[..., :width], np.uint64(2 * m),
                                     out=out if last else None)
                head |= power[..., done:done + width]
            done += m
            if last:
                if head is not out:  # k is a power of two
                    out[...] = head
                return
        width = power.shape[-1] - m
        doubled = power[..., :width] << np.uint64(2 * m)
        doubled |= power[..., m:m + width]
        power, m = doubled, 2 * m


def key_indices(keys: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """The index in ``keys``, an ascending array of distinct values, of each
    value of ``packed`` (any shape), -1 for a value that is not a key; one
    ``searchsorted`` pass, the one search of packed k-mers among keys.

    The queries are sorted first, so the search visits the keys in order:
    several times faster than random probes once the keys outgrow the cache.
    """
    flat = packed.ravel()
    found = np.full(len(flat), -1, dtype=np.intp)
    if len(keys):
        order = np.argsort(flat)
        wanted = flat[order]
        at = np.searchsorted(keys, wanted)
        np.minimum(at, len(keys) - 1, out=at)
        found[order] = np.where(keys[at] == wanted, at, -1)
    return found.reshape(packed.shape)


def in_sorted(keys: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Whether each value of ``packed`` (any shape) is one of ``keys``, an
    ascending array of distinct values (see :func:`key_indices`)."""
    return key_indices(keys, packed) >= 0


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    if not len(values):
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def sorted_distinct(packed: np.ndarray) -> np.ndarray:
    """The distinct values of ``packed``, ascending. Sorting and dropping
    repeats is many times faster than ``np.unique`` on ``uint64`` codes."""
    values = np.sort(packed)
    return values[_run_starts(values)]


def _count_batch(codes: np.ndarray, lengths: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed k-mers (sorted) and their counts of the reads laid
    end to end in ``codes``, whose lengths are ``lengths``.

    Every window is packed at once. A window that crosses from one read
    into the next is overwritten with a value above every k-mer, so after
    an in-place sort the real k-mers form a prefix.
    """
    windows = len(codes) - k + 1
    if windows <= 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    packed = window_packs(codes, k)
    # read i holds symbols [s, e): windows starting in [s, max(e-k+1, s))
    # lie inside it and those starting in [max(e-k+1, s), e) cross its end
    ends = np.cumsum(lengths)
    starts = ends - lengths
    crossing = np.maximum(ends - (k - 1), starts)
    runs = np.empty(2 * len(lengths), dtype=np.int64)
    runs[0::2] = crossing - starts
    runs[1::2] = ends - crossing
    inside = np.repeat(np.tile([True, False], len(lengths)), runs)[:windows]
    packed[~inside] = np.iinfo(np.uint64).max
    packed.sort()
    values = packed[:np.count_nonzero(inside)]
    first = _run_starts(values)
    return values[first], np.diff(first, append=len(values))


def index_ranges(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``firsts[i], firsts[i] + 1, ...`` (``counts[i]`` values) for every i,
    laid end to end."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(firsts - offsets, counts) + np.arange(counts.sum())


def symbol_batches(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` ranges of strings (reads or contigs), in order: each
    batch ends with the string that brings it to ``_COUNT_BATCH`` symbols or
    more (the last batch may hold fewer)."""
    ends = np.cumsum(lengths)
    start = 0
    while start < len(lengths):
        before = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, before + _COUNT_BATCH)) + 1
        stop = min(stop, len(lengths))
        yield start, stop
        start = stop


def _merge(runs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted runs of distinct keys and their counts into one, adding
    the counts of a key found in several runs. Empties ``runs``, so the
    runs' arrays are freed before the sort."""
    if len(runs) == 1:
        return runs.pop()
    keys = np.concatenate([run[0] for run in runs])
    counts = np.concatenate([run[1] for run in runs])
    runs.clear()
    # a stable sort is a timsort, which merges the sorted runs it finds
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    del order
    first = _run_starts(keys)
    if len(first) == len(keys):  # no key was in two runs
        return keys, counts
    return keys[first], np.add.reduceat(counts, first)


def _count(reads: ReadSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed k-mers (sorted ``uint64``) and their occurrence counts
    (``int64``).

    Each batch of reads is sorted and counted into a run. Runs wait until
    they hold at least as many keys as the spectrum of the batches before
    them, and are then merged into it in one sort. A merge passes over at
    most twice the keys of the runs that waited, so merging costs about two
    passes over each batch's keys whether or not the distinct k-mers stop
    growing with the input (on reads with errors they keep growing), and
    memory holds about twice the distinct k-mers plus one batch.
    """
    check_k(k)
    lengths, offsets = reads.lengths, reads.offsets
    runs = []  # the spectrum so far, then the runs waiting to be merged into it
    waiting = 0
    for start, stop in symbol_batches(lengths):
        codes = reads.codes[offsets[start]:offsets[stop]]
        runs.append(_count_batch(codes, lengths[start:stop], k))
        if len(runs) > 1:
            waiting += len(runs[-1][0])
            if waiting >= len(runs[0][0]):
                runs, waiting = [_merge(runs)], 0
    if not runs:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return _merge(runs)


@dataclass(frozen=True, eq=False)
class KmerSpectrum:
    """The set of distinct k-mers of a string or read collection.

    ``keys`` holds the distinct packed k-mers in ascending order (the
    lookups rely on it, so the constructor checks it) and ``multiplicities``
    their total (not distinct) occurrence counts. The spectrum keeps
    read-only views of both arrays. The set view used by the subset/equality
    checks ignores the multiplicities.
    """

    k: int
    keys: np.ndarray  # sorted distinct packed k-mers, uint64
    multiplicities: np.ndarray  # occurrence count of each key, int64

    def __post_init__(self):
        if len(self.keys) != len(self.multiplicities):
            raise ValueError(f"{len(self.keys)} keys but {len(self.multiplicities)} "
                             "multiplicities")
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError("spectrum keys must be sorted and distinct")
        for name in ("keys", "multiplicities"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KmerSpectrum):
            return NotImplemented
        return (self.k == other.k and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.multiplicities, other.multiplicities))

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, kmer: str) -> bool:
        return self.multiplicity(kmer) > 0

    def _pack(self, kmer: str) -> int:
        if not isinstance(kmer, str):
            raise TypeError(f"expected str, got {type(kmer).__name__}")
        if len(kmer) != self.k:
            return -1
        return encode_kmer(kmer)

    def multiplicity(self, kmer: str) -> int:
        packed = self._pack(kmer)
        if packed < 0:
            return 0
        return int(self.multiplicities_of(np.array([packed], dtype=np.uint64))[0])

    def multiplicities_of(self, packed: np.ndarray) -> np.ndarray:
        """The occurrence count of every packed k-mer of a ``uint64`` array
        (any shape), 0 for a non-member (see :func:`key_indices`)."""
        at = key_indices(self.keys, packed)
        if not len(self.keys):
            return np.zeros(at.shape, dtype=np.int64)
        return np.where(at >= 0, self.multiplicities[at], 0)

    def total_count(self) -> int:
        return int(self.multiplicities.sum())

    @cached_property
    def counts(self) -> dict[int, int]:
        """Packed k-mer -> occurrence count, as a dict built on first use."""
        return dict(zip(self.keys.tolist(), self.multiplicities.tolist()))

    def strings(self) -> list[str]:
        """Distinct members in lexicographic order."""
        return decode_kmers(self.keys, self.k)

    def distinct_packed(self) -> frozenset[int]:
        return frozenset(self.keys.tolist())

    def same_members(self, other: "KmerSpectrum") -> bool:
        """Set equality, ignoring multiplicities."""
        return self.k == other.k and np.array_equal(self.keys, other.keys)


def spectrum(s: str, k: int) -> KmerSpectrum:
    """The k-mer spectrum of a single string.

    Empty when ``len(s) < k``. Multiplicity of each member is its number of
    (possibly overlapping) occurrence positions in ``s``.
    """
    return KmerSpectrum(k, *_count(ReadSet((s,)), k))


def spectrum_of_set(reads: ReadSet | Iterable[str], k: int) -> KmerSpectrum:
    """Union of the per-read spectra; multiplicities sum across reads.
    Reads of any length are welcome; those shorter than k add nothing."""
    return KmerSpectrum(k, *_count(reads if isinstance(reads, ReadSet) else ReadSet(reads), k))


def is_common_superstring(g: str, reads: ReadSet | Iterable[str]) -> bool:
    """True iff every read occurs contiguously in ``g``."""
    return all(r in g for r in reads)


class SubsetCheck(NamedTuple):
    """Outcome of a spectrum-containment check, with a witness on failure."""

    ok: bool
    missing_kmer: Optional[str]
    position: Optional[int]


def spectrum_subset_check(g: str, reads: ReadSet | Iterable[str], k: int) -> SubsetCheck:
    """Check that every k-mer of ``g`` occurs in some read.

    On failure, reports the leftmost offending k-mer and its 0-based
    position in ``g``.
    """
    check_k(k)
    allowed = spectrum_of_set(reads, k).keys
    missing = np.flatnonzero(~in_sorted(allowed, window_packs(joined_codes((g,)), k)))
    if len(missing):
        pos = int(missing[0])
        return SubsetCheck(False, g[pos:pos + k], pos)
    return SubsetCheck(True, None, None)


class RepeatHit(NamedTuple):
    """A longest repeated substring: its length and two distinct start offsets."""

    length: int
    positions: tuple[int, int]


def _repeat_at_length(g: str, length: int) -> Optional[tuple[int, int]]:
    """First pair of positions sharing a substring of exactly ``length``, or None,
    for ``1 <= length < len(g)``.

    Rabin-Karp style rolling hash with an exact comparison on candidate hits,
    so hash collisions cannot produce a false positive.
    """
    n = len(g)
    mod = (1 << 61) - 1
    base = 1_000_003
    top = pow(base, length - 1, mod)
    h = 0
    for ch in g[:length]:
        h = (h * base + ord(ch)) % mod
    seen: dict[int, list[int]] = {h: [0]}
    for start in range(1, n - length + 1):
        h = ((h - ord(g[start - 1]) * top) * base + ord(g[start + length - 1])) % mod
        bucket = seen.get(h)
        if bucket is not None:
            piece = g[start:start + length]
            for prev in bucket:
                if g[prev:prev + length] == piece:
                    return (prev, start)
            bucket.append(start)
        else:
            seen[h] = [start]
    return None


def longest_repeat(g: str) -> Optional[RepeatHit]:
    """A longest substring occurring at two or more positions of ``g``.

    Occurrences may overlap each other (so ``AAAA`` has the repeat ``AAA``).
    Returns None when every symbol of ``g`` is distinct. Of all longest
    repeats, the reported pair is the one whose second occurrence is
    leftmost (ties broken by the scan order of the hash pass).
    """
    n = len(g)
    if n < 2:
        return None
    lo, hi = 1, n - 1  # repeat length bounds; length n impossible
    best: Optional[tuple[int, tuple[int, int]]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        hit = _repeat_at_length(g, mid)
        if hit is not None:
            best = (mid, hit)
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        return None
    return RepeatHit(best[0], best[1])


def max_overlap(a: str, b: str) -> int:
    """Length of the longest suffix of ``a`` equal to a prefix of ``b``.

    Capped at ``min(len(a), len(b))``; the full-overlap case means ``b``
    occurs at the end of ``a`` (or ``a`` at the start of ``b``).
    """
    limit = min(len(a), len(b))
    for length in range(limit, 0, -1):
        if a[-length:] == b[:length]:
            return length
    return 0
