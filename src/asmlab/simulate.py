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
    MAX_K,
    DnaString,
    ReadSet,
    from_codes,
    packed_kmers,
    spectrum_of_set,
    to_codes,
)

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"


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
        last_end = None
        for start, end in sorted(gaps):
            if start < 0 or end <= start:
                raise ValueError(f"bad gap interval [{start}, {end})")
            if self.genome_length and end > self.genome_length:
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
    reads = tuple(
        DnaString(genome[i:i + read_length])
        for i in range(len(genome) - read_length + 1)
    )
    return ReadSet(reads, declared_read_length=read_length)


def _allowed_starts(genome_length: int, read_length: int,
                    gaps: tuple[tuple[int, int], ...]) -> np.ndarray:
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
    starts_pool = _allowed_starts(L, ell, profile.gap_intervals)
    if starts_pool.size == 0:
        raise ValueError("no read window avoids the configured gap intervals")
    rng = np.random.default_rng(profile.seed)
    starts = starts_pool[rng.integers(0, starts_pool.size, size=profile.num_reads)]
    codes = np.frombuffer(to_codes(genome), dtype=np.uint8)
    windows = codes[starts[:, None] + np.arange(ell)[None, :]] if profile.num_reads else \
        np.empty((0, ell), dtype=np.uint8)
    if profile.error_rate > 0.0 and profile.num_reads:
        hit = rng.random(windows.shape) < profile.error_rate
        shift = rng.integers(1, 4, size=windows.shape, dtype=np.uint8)
        windows = np.where(hit, (windows + shift) % 4, windows)
    reads = tuple(DnaString(from_codes(row)) for row in windows)
    return ReadSet(reads, declared_read_length=ell)


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
    ``min_multiplicity``. For every base covered by a weak k-mer, the
    substitution maximizing the minimum multiplicity of all k-mers covering
    that base is applied (kept as-is when no substitution strictly
    improves). Reads still containing weak k-mers after the pass are
    discarded, so the output contains no weak k-mers at all.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
    if min_multiplicity < 1:
        raise ValueError(f"min_multiplicity must be >= 1, got {min_multiplicity}")
    for i, r in enumerate(reads):
        if len(r) < k:
            raise ValueError(f"read {i} is shorter than k={k}")
    counts = spectrum_of_set(reads, k).counts
    kept: list[DnaString] = []
    changed = 0
    for read in reads:
        text = str(read)
        corrected = _correct_one(text, k, min_multiplicity, counts)
        if corrected is not None:
            changed += corrected != text
            kept.append(DnaString(corrected))
    logger.info("read correction (k=%d, min multiplicity %d): %d read(s) in, "
                "%d changed, %d dropped", k, min_multiplicity, len(reads), changed,
                len(reads) - len(kept))
    # substitution preserves length, so a declared uniform length survives
    return ReadSet(tuple(kept), declared_read_length=reads.declared_read_length)


def _correct_one(read: str, k: int, threshold: int,
                 counts: dict[int, int]) -> Optional[str]:
    n = len(read)
    codes = bytearray(to_codes(read))
    packs = packed_kmers(read, k)

    def weak_span(i: int) -> bool:
        lo = max(0, i - k + 1)
        hi = min(i, n - k)
        return any(counts.get(packs[s], 0) < threshold for s in range(lo, hi + 1))

    changed = False
    for i in range(n):
        if not weak_span(i):
            continue
        lo = max(0, i - k + 1)
        hi = min(i, n - k)
        spans = range(lo, hi + 1)
        current = codes[i]

        def score(base: int) -> int:
            worst = None
            for s in spans:
                shift = 2 * (k - 1 - (i - s))
                p = (packs[s] & ~(3 << shift)) | (base << shift)
                c = counts.get(p, 0)
                if worst is None or c < worst:
                    worst = c
            return worst if worst is not None else 0

        best_base, best_score = current, score(current)
        for base in range(4):
            if base == current:
                continue
            sc = score(base)
            if sc > best_score:
                best_base, best_score = base, sc
        if best_base != current:
            changed = True
            codes[i] = best_base
            for s in spans:
                shift = 2 * (k - 1 - (i - s))
                packs[s] = (packs[s] & ~(3 << shift)) | (best_base << shift)

    if any(counts.get(p, 0) < threshold for p in packs):
        return None
    if not changed:
        return read
    return from_codes(codes)
