"""Read simulation: idealized and uniform-random sampling, substitution
errors, coverage gaps, a coverage-probability estimator, and a minimal
k-mer-frequency read corrector.

All randomness flows through numpy's PCG64 generator seeded from the
profile, so identical inputs give bit-identical outputs on every run.
Cross-implementation equality is not promised, only self-consistency;
the generator name is recorded in ``RNG_ALGORITHM``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from asmlab.sequence import (
    DnaString,
    KmerSpectrum,
    ReadSet,
    check_k,
    from_codes,
    key_indices,
    spectrum_of_set,
    to_codes,
    window_packs,
)

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"
# read symbols per correction batch, padding included: bounds the window matrices
# whatever the input size
_CORRECT_BATCH = 1 << 21
_PADDING_COUNT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SimulationProfile:
    """Declarative description of one simulated sequencing experiment.

    ``gap_intervals`` are half-open [start, end) genome ranges that no read
    window may touch, modeling regions the machine cannot sample.
    """

    genome_length: int = 0
    num_reads: int = 0
    read_length: int = 1
    error_rate: float = 0.0
    gap_intervals: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        if self.read_length < 1:
            raise ValueError(f"read_length must be >= 1, got {self.read_length}")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {self.error_rate}")
        if self.num_reads < 0:
            raise ValueError(f"num_reads must be >= 0, got {self.num_reads}")
        gaps = tuple(tuple(g) for g in self.gap_intervals)
        object.__setattr__(self, "gap_intervals", gaps)
        check_gaps(gaps, self.genome_length)


def check_gaps(gaps: tuple[tuple[int, int], ...], genome_length: int = 0) -> None:
    """Raise ValueError unless every half-open gap [start, end) has
    0 <= start < end, the gaps are pairwise disjoint and, when a genome
    length is given, none runs past it."""
    last_end = None
    for start, end in sorted(gaps):
        if start < 0 or end <= start:
            raise ValueError(f"bad gap interval [{start}, {end})")
        if genome_length and end > genome_length:
            raise ValueError(f"gap [{start}, {end}) exceeds genome length")
        if last_end is not None and start < last_end:
            raise ValueError("gap intervals must be pairwise disjoint")
        last_end = end


def random_genome(
    length: int,
    planted_repeat: Optional[tuple[int, int]] = None,
    seed: int = 0,
) -> DnaString:
    """Uniform random genome, optionally with a planted exact repeat.

    When ``planted_repeat=(repeat_length, copies)`` is given, one random
    window is copied to ``copies - 1`` further non-overlapping positions:
    the genome is split into ``copies`` equal blocks and each block gets
    one occurrence at a random in-block offset, which keeps placement
    deterministic and overlap-free whenever the precondition
    ``repeat_length * copies <= length`` holds.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=length, dtype=np.uint8)
    if planted_repeat is not None:
        rep_len, copies = planted_repeat
        if rep_len < 1 or copies < 1:
            raise ValueError(f"bad planted repeat ({rep_len}, {copies})")
        if rep_len * copies > length:
            raise ValueError(
                f"cannot plant {copies} non-overlapping copies of length {rep_len} "
                f"in a genome of length {length}"
            )
        block = length // copies
        offsets = [
            i * block + int(rng.integers(0, block - rep_len + 1)) for i in range(copies)
        ]
        piece = codes[offsets[0]:offsets[0] + rep_len].copy()
        for off in offsets[1:]:
            codes[off:off + rep_len] = piece
    return DnaString(from_codes(codes))


def idealized_reads(genome: str, read_length: int) -> ReadSet:
    """One exact read per genome position: the fully idealized experiment."""
    if read_length < 1:
        raise ValueError(f"read length must be >= 1, got {read_length}")
    if len(genome) < read_length:
        raise ValueError(
            f"genome length {len(genome)} is shorter than read length {read_length}"
        )
    codes = np.frombuffer(to_codes(genome), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(codes, read_length)
    return ReadSet.from_codes(windows.ravel(), np.full(len(windows), read_length))


def allowed_starts(genome_length: int, read_length: int,
                   gaps: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The starts of the read windows that touch no gap."""
    ok = np.ones(genome_length - read_length + 1, dtype=bool)
    for start, end in gaps:
        # window [s, s+L) intersects [start, end) iff s > start-L and s < end
        lo = max(0, start - read_length + 1)
        hi = min(len(ok), end)
        ok[lo:hi] = False
    return np.flatnonzero(ok)


def uniform_reads(genome: str, profile: SimulationProfile) -> ReadSet:
    """Reads drawn uniformly from all gap-avoiding windows, then perturbed
    by independent per-base substitution errors.

    Each error replaces the base with one of the three other symbols,
    chosen uniformly.
    """
    L, ell = len(genome), profile.read_length
    if L < ell:
        raise ValueError(f"genome length {L} is shorter than read length {ell}")
    for start, end in profile.gap_intervals:
        if end > L:
            raise ValueError(f"gap [{start}, {end}) exceeds genome length {L}")
    starts_pool = allowed_starts(L, ell, profile.gap_intervals)
    if starts_pool.size == 0:
        raise ValueError("no read window avoids the configured gap intervals")
    rng = np.random.default_rng(profile.seed)
    starts = starts_pool[rng.integers(0, starts_pool.size, size=profile.num_reads)]
    windows = np.frombuffer(to_codes(genome), dtype=np.uint8)[starts[:, None] + np.arange(ell)]
    if profile.error_rate > 0.0 and profile.num_reads:
        hit = rng.random(windows.shape) < profile.error_rate
        shift = rng.integers(1, 4, size=windows.shape, dtype=np.uint8)
        windows = np.where(hit, (windows + shift) % 4, windows)
    return ReadSet.from_codes(windows.ravel(), np.full(len(windows), ell))


def unspanned_probability(
    genome_length: int,
    num_reads: int,
    read_length: int,
    k: int,
    mode: str = "analytic",
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Probability that some k-wide genome window is spanned by no read,
    under uniform sampling of ``num_reads`` exact reads.

    ``analytic`` returns the union-bound estimate
    ``(L-k+1) * (1 - (l-k+1)/(L-l+1))**m`` clamped to [0, 1]; windows
    overlap and are dependent, so this is an upper-bound approximation.
    ``monte_carlo`` simulates placements and counts failing trials; it is
    the reference the analytic mode is judged against.

    Both modes score *interior* windows, those far enough from the genome
    ends to admit the full complement of ``l-k+1`` spanning read starts.
    Edge windows can be spanned by at most a handful of start positions
    under linear uniform sampling (position 0 only by a read starting at
    0), which is a boundary artifact of the placement model rather than a
    coverage-gap signal, so they are excluded from both estimates.
    """
    L, ell, m = genome_length, read_length, num_reads
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > ell:
        raise ValueError(f"k={k} exceeds read length {ell}")
    if L < ell:
        raise ValueError(f"genome length {L} is shorter than read length {ell}")
    if mode == "analytic":
        per_read_hit = (ell - k + 1) / (L - ell + 1)
        estimate = (L - k + 1) * (1.0 - per_read_hit) ** m
        return min(1.0, max(0.0, estimate))
    if mode == "monte_carlo":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if m == 0:
            return 1.0 if L >= k else 0.0
        rng = np.random.default_rng(seed)
        starts = np.sort(rng.integers(0, L - ell + 1, size=(trials, m)), axis=1)
        # window i is spanned iff some read start lies in [i-(l-k), i]; the
        # interior windows are i in [l-k, L-l], so full interior coverage
        # needs a start <= l-k, no start gap wider than l-k+1, and a start
        # >= L-2l+k reaching the last interior window.
        reach = ell - k
        first_ok = starts[:, 0] <= reach
        last_ok = starts[:, -1] >= (L - 2 * ell + k)
        gaps_ok = (np.diff(starts, axis=1) <= reach + 1).all(axis=1)
        covered = first_ok & last_ok & gaps_ok
        return float(np.count_nonzero(~covered) / trials)
    raise ValueError(f"unknown mode {mode!r}; expected 'analytic' or 'monte_carlo'")


def correct_reads(reads: ReadSet, k: int, min_multiplicity: int) -> ReadSet:
    """One-pass k-mer-frequency read correction.

    A k-mer is *weak* when its multiplicity across all reads is below
    ``min_multiplicity``. Each read is scanned left to right; at every base
    covered by a weak k-mer, the base is replaced by the one maximizing the
    minimum multiplicity of all k-mers covering it. The current base is
    kept unless another strictly improves on it, with bases tried in code
    order (A, C, G, T). Reads still containing weak k-mers after the pass
    are discarded, so the output contains no weak k-mers at all.

    The scan runs over base positions with a batch of reads at once: a
    read's result depends only on the fixed spectrum and on its own earlier
    positions, so the order across reads does not matter. A batch holds
    reads of similar length (shortest first), padded to its longest.

    Most columns cannot change, and they are skipped without a lookup. A
    winning base must beat the current minimum on the window that ends at
    the column (or starts there, near a read's start), so it is bounded by
    the largest count among that window's siblings, the keys that differ in
    that one symbol. The bounds are computed once per spectrum key, clipped
    to ``min_multiplicity`` (:func:`_sibling_bounds`). Each batch looks up
    every window once; a column then costs one trial lookup of the other
    three bases, for only the reads whose bound beats their minimum. A
    tried read's minimum is at least 1, so a base that wins beats 1 on
    every window over its column: the trials search only the keys seen at
    least twice.
    """
    check_k(k)
    if min_multiplicity < 1:
        raise ValueError(f"min_multiplicity must be >= 1, got {min_multiplicity}")
    lengths = reads.lengths
    short = np.flatnonzero(lengths < k)
    if len(short):
        raise ValueError(f"read {short[0]} is shorter than k={k}")
    spectrum = spectrum_of_set(reads, k)
    bounds = _sibling_bounds(spectrum, min_multiplicity)
    keys, counts = spectrum.keys, spectrum.multiplicities
    repeated = counts >= 2
    trials = keys[repeated], counts[repeated], bounds[0][repeated]
    # a window's own count matters only below the threshold, so the keys are
    # kept with their counts capped there, in the bounds' type
    capped = keys, np.minimum(counts, min_multiplicity).astype(bounds[0].dtype)
    del spectrum, counts, repeated
    codes = reads.codes.copy()  # the corrected reads, written back batch by batch
    keep = np.ones(len(reads), dtype=bool)
    fixed = 0
    for batch in _length_batches(lengths):
        ends = lengths[batch]
        inside = np.arange(ends[-1]) < ends[:, None]
        at = (reads.offsets[batch][:, None] + np.arange(ends[-1]))[inside]  # store positions
        matrix = np.zeros(inside.shape, dtype=np.uint8)
        matrix[inside] = reads.codes[at]
        kept, changed = _correct_batch(matrix, ends, k, min_multiplicity, capped, bounds,
                                       trials)
        keep[batch] = kept
        fixed += np.count_nonzero(kept & changed)
        codes[at] = matrix[inside]
    out = ReadSet.from_codes(codes[np.repeat(keep, lengths)], lengths[keep])
    logger.info("read correction (k=%d, min multiplicity %d): %d read(s) in, "
                "%d changed, %d dropped", k, min_multiplicity, len(reads), fixed,
                len(reads) - len(out))
    return out


def _length_batches(lengths: np.ndarray):
    """Read indices in batches of at most ``_CORRECT_BATCH`` symbols once
    padded to the batch's longest read (one read at the least), taken in
    ascending order of length so that little padding is needed."""
    order = np.argsort(lengths, kind="stable")
    ascending = lengths[order].tolist()
    at = 0
    while at < len(order):
        end = at + 1
        while end < len(order) and (end + 1 - at) * ascending[end] <= _CORRECT_BATCH:
            end += 1
        yield order[at:end]
        at = end


def _sibling_bounds(spectrum: KmerSpectrum, threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """For each spectrum key, the largest count among the keys that differ
    from it in the last symbol alone and among those that differ in the
    first symbol alone (0 where there is none), clipped to ``threshold``
    and held in the smallest unsigned type that holds it.

    The clip loses nothing: a column is tried only while the current
    minimum count over its windows is below the threshold. Last-symbol
    siblings are neighbouring keys, sharing ``key >> 2``. The keys fall in
    four ascending runs by first symbol, so a stable sort of the other
    symbols merges the runs and puts first-symbol siblings side by side.
    """
    keys = spectrum.keys
    clipped = np.minimum(spectrum.multiplicities, threshold).astype(np.min_scalar_type(threshold))
    last = _largest_other(keys >> np.uint64(2), clipped)
    rest = keys & np.uint64((1 << 2 * (spectrum.k - 1)) - 1)
    order = np.argsort(rest, kind="stable")
    first = np.empty_like(clipped)
    first[order] = _largest_other(rest[order], clipped[order])
    return last, first


def _largest_other(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each element, the largest of the ``values`` of the other
    elements of its group (0 if none); the elements of a group, at most
    four, are adjacent."""
    out = np.zeros_like(values)
    for d in (1, 2, 3):
        same = groups[d:] == groups[:-d]
        np.maximum(out[:-d], np.where(same, values[d:], 0), out=out[:-d])
        np.maximum(out[d:], np.where(same, values[:-d], 0), out=out[d:])
    return out


def _correct_batch(codes: np.ndarray, ends: np.ndarray, k: int, threshold: int,
                   capped: tuple[np.ndarray, np.ndarray], bounds: tuple[np.ndarray, np.ndarray],
                   trials: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Correct the reads of a code matrix in place (one read per row, row r
    holding ``ends[r]`` bases and then padding), given the spectrum's keys
    and their counts capped at the threshold, its :func:`_sibling_bounds`,
    and its keys seen at least twice (``trials``) with their counts and
    last-symbol bounds; return which rows are kept and which changed.

    A base that wins column i beats the current minimum count on every
    window over i, the window that ends at i (i >= k-1) or starts at i
    among them, and that window's count with the base swapped in is at most
    the window's sibling bound. So a row whose bound at a column does not
    beat its current minimum skips the column without a lookup; the rows
    that pass look up all three other bases at once, among the ``trials``:
    a window seen once never beats a minimum of at least 1. A column is
    tried only while its minimum is below the threshold, which the cap
    leaves as it is; a tried base's counts are exact, since the bases are
    compared with each other.
    """
    rows, n = codes.shape
    packs = window_packs(codes, k)
    keys, capped_counts = capped
    at = key_indices(keys, packs)  # a read's every window is a key; padding may not be
    counts = capped_counts[at].astype(np.int64)
    # a window running into the padding counts as occurring without limit:
    # it is never weak and never lowers a score
    last_start = ends - k
    padded = np.arange(n - k + 1) > last_start[:, None]
    counts[padded] = _PADDING_COUNT
    # each column's bound, from the window ending there or else the one
    # starting there; the threshold (never skip) where the read has neither
    last_bound, first_bound = bounds
    bound = np.full((rows, n), threshold, dtype=last_bound.dtype)
    bound[:, k - 1:] = last_bound[at]
    head = min(k - 1, n - k + 1)
    bound[:, :head] = np.where(padded[:, :head], threshold, first_bound[at[:, :head]])
    del at
    changed = np.zeros(rows, dtype=bool)
    trial_keys, trial_counts, trial_bounds = trials
    if not len(trial_keys):  # no key is seen twice, so no base can win
        return (counts >= threshold).all(axis=1), changed
    # the other bases of each current base, ascending
    others = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], dtype=np.uint64)
    for i in range(n):
        lo, hi = max(0, i - k + 1), min(i, n - k)
        # every window is a key, so a score is at least 1 and a bound of 1
        # never beats it; a bound that beats the score puts a weak window
        # over i, because the bound is at most the threshold
        sel = np.flatnonzero(bound[:, i] > 1)
        best_score = counts[sel, lo:hi + 1].min(axis=1)
        can = bound[sel, i] > best_score
        sel, best_score = sel[can], best_score[can]
        if not len(sel):
            continue
        # a selected row has a weak window over i, so window lo is inside
        # it; its windows past last_start are padding
        span = np.arange(lo, hi + 1)
        padding = span > last_start[sel, None]
        shifts = (2 * (k - 1 - (i - span))).astype(np.uint64)
        cleared = packs[sel, lo:hi + 1] & ~(np.uint64(3) << shifts)
        bases = others[codes[sel, i]]  # one trial lookup: every other base of every row
        found_at = key_indices(trial_keys, cleared[:, None] | (bases[:, :, None] << shifts))
        found = np.where(found_at >= 0, trial_counts[found_at], 0)
        found[np.broadcast_to(padding[:, None], found.shape)] = _PADDING_COUNT
        # ascending bases, each taken only when strictly better: the current
        # base wins ties, and so does the lowest of equally good others
        choice = np.full(len(sel), -1)
        for j, score in enumerate(found.min(axis=2).T):
            better = score > best_score
            choice[better] = j
            best_score = np.where(better, score, best_score)
        moved = np.flatnonzero(choice >= 0)
        if not len(moved):
            continue
        hit, pick = sel[moved], choice[moved]
        base = bases[moved, pick]
        codes[hit, i] = base
        packs[hit, lo:hi + 1] = cleared[moved] | (base[:, None] << shifts)
        counts[hit, lo:hi + 1] = found[moved, pick]
        changed[hit] = True
        # a changed window hands its new key's bound to the column it ends
        # at (columns past a read's end are never tried)
        later = span + k - 1 > i
        bound[hit[:, None], span[later] + k - 1] = trial_bounds[found_at[moved, pick][:, later]]
    return (counts >= threshold).all(axis=1), changed
