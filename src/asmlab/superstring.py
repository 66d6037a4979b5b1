"""Shortest-common-superstring solvers and the over-collapse diagnostic.

``greedy_scs`` grows a single string by repeatedly attaching the unused
read with the globally maximal overlap on either side. ``exact_scs`` is
the exponential oracle: it optimizes over all orderings of the
non-redundant reads (via a subset dynamic program equivalent to the full
permutation sweep) and merges consecutive reads by maximal pairwise
overlap, returning the lexicographically smallest optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from asmlab.errors import ResourceLimitError
from asmlab.sequence import DnaString, ReadSet, longest_repeat, max_overlap

EXACT_READ_LIMIT = 13  # non-redundant reads; 2^13 * 13^2 DP states stay desk-scale


@dataclass(frozen=True)
class MergeStep:
    """One provenance entry: which read was used, how, and with what overlap.

    ``side`` is ``seed`` for the starting read, ``end``/``start`` for a
    suffix/prefix extension, and ``absorbed`` for a read that was already a
    substring of the growing superstring.
    """

    read_index: int
    side: str
    overlap: int


@dataclass(frozen=True)
class ScsResult:
    superstring: DnaString
    method: str
    merge_order: tuple[MergeStep, ...]

    def replay(self, reads: ReadSet) -> DnaString:
        """Re-run the merge trace; must reproduce ``superstring`` exactly."""
        current = ""
        for step in self.merge_order:
            read = str(reads[step.read_index])
            if step.side == "seed":
                current = read
            elif step.side == "end":
                current = current + read[step.overlap:]
            elif step.side == "start":
                current = read[: len(read) - step.overlap] + current
            elif step.side == "absorbed":
                pass
            else:
                raise ValueError(f"unknown merge side {step.side!r}")
        return DnaString(current)


def _distinct_non_redundant(reads: ReadSet) -> list[int]:
    """Indices of the first occurrence of each read that is not a substring
    of some other read. These are the only reads that can shape a common
    superstring."""
    first: dict[str, int] = {}
    for i, r in enumerate(reads):
        first.setdefault(str(r), i)
    words = sorted(first, key=len, reverse=True)
    keep: list[str] = []
    for w in words:
        if not any(w in other for other in keep):
            keep.append(w)
    return sorted(first[w] for w in keep)


def greedy_scs(reads: ReadSet) -> ScsResult:
    """Maximal-overlap greedy heuristic growing one superstring.

    Deterministic tie-breaking: the seed is the lexicographically smallest
    read; among equal overlaps the lexicographically smaller read wins,
    and suffix extension beats prefix extension.
    """
    reads.require_nonempty("greedy_scs")
    remaining = {i: str(reads[i]) for i in range(len(reads))}
    seed_index = min(remaining, key=lambda i: (remaining[i], i))
    current = remaining.pop(seed_index)
    trace = [MergeStep(seed_index, "seed", 0)]

    while remaining:
        absorbed = sorted(
            (i for i, r in remaining.items() if r in current),
            key=lambda i: (remaining[i], i),
        )
        for i in absorbed:
            trace.append(MergeStep(i, "absorbed", len(remaining.pop(i))))
        if not remaining:
            break
        # (overlap, read, side) with side 0 = extend end, 1 = extend start
        best: Optional[tuple[int, str, int, int]] = None
        for i, r in sorted(remaining.items(), key=lambda kv: (kv[1], kv[0])):
            for side, ov in ((0, max_overlap(current, r)), (1, max_overlap(r, current))):
                if best is None or ov > best[0] or (
                    ov == best[0] and (r, side) < (best[1], best[2])
                ):
                    best = (ov, r, side, i)
        ov, r, side, i = best
        del remaining[i]
        if side == 0:
            current = current + r[ov:]
            trace.append(MergeStep(i, "end", ov))
        else:
            current = r[: len(r) - ov] + current
            trace.append(MergeStep(i, "start", ov))

    return ScsResult(DnaString(current), "greedy", tuple(trace))


def exact_scs(reads: ReadSet) -> ScsResult:
    """Exponential exact solver over read orderings.

    Substring-redundant reads are absorbed first. Over every ordering of
    the remainder, consecutive reads merge with maximal pairwise overlap;
    the result is a minimum-length superstring, lexicographically smallest
    among equal-length optima. Instances with more than
    ``EXACT_READ_LIMIT`` non-redundant reads are refused.
    """
    reads.require_nonempty("exact_scs")
    core = _distinct_non_redundant(reads)
    n = len(core)
    if n > EXACT_READ_LIMIT:
        raise ResourceLimitError(
            f"exact_scs handles at most {EXACT_READ_LIMIT} distinct non-redundant reads, "
            f"got {n}",
            limit=EXACT_READ_LIMIT,
        )
    words = [str(reads[i]) for i in core]
    order = sorted(range(n), key=lambda j: words[j])  # canonical input order
    words = [words[j] for j in order]
    core = [core[j] for j in order]

    ov = [[max_overlap(a, b) for b in words] for a in words]
    full = (1 << n) - 1
    # dp[mask][last] = (total_overlap, merged_string); strings of equal mask
    # and equal total overlap have equal length, so lexicographic comparison
    # between candidates is well-defined.
    dp: list[dict[int, tuple[int, str]]] = [dict() for _ in range(1 << n)]
    for j in range(n):
        dp[1 << j][j] = (0, words[j])
    parent: list[dict[int, tuple[int, int]]] = [dict() for _ in range(1 << n)]
    for mask in range(1, full + 1):  # every nonempty subset is reached: each read is seeded
        for last, (got, text) in dp[mask].items():
            for nxt in range(n):
                bit = 1 << nxt
                if mask & bit:
                    continue
                cand = (got + ov[last][nxt], text + words[nxt][ov[last][nxt]:])
                new_mask = mask | bit
                old = dp[new_mask].get(nxt)
                if old is None or cand[0] > old[0] or (cand[0] == old[0] and cand[1] < old[1]):
                    dp[new_mask][nxt] = cand
                    parent[new_mask][nxt] = (mask, last)

    best_last = min(
        dp[full],
        key=lambda last: (-dp[full][last][0], dp[full][last][1]),
    )
    best = dp[full][best_last]

    chain = [best_last]
    mask = full
    while parent[mask].get(chain[-1]) is not None:
        mask, prev = parent[mask][chain[-1]]
        chain.append(prev)
    chain.reverse()

    trace = [MergeStep(core[chain[0]], "seed", 0)]
    for a, b in zip(chain, chain[1:]):
        trace.append(MergeStep(core[b], "end", ov[a][b]))
    merged = set(core)
    trace += [MergeStep(i, "absorbed", len(r)) for i, r in enumerate(reads) if i not in merged]
    return ScsResult(DnaString(best[1]), "exact", tuple(trace))


@dataclass(frozen=True)
class OvercollapseReport:
    """Longest-repeat diagnostic against the 2*l - 2 over-collapse bound."""

    repeat_length: int
    positions: Optional[tuple[int, int]]
    bound: int
    exceeds_bound: bool
    implementation_bug: bool

    def describe(self) -> str:
        status = "EXCEEDS" if self.exceeds_bound else "within"
        note = " [BUG: exact solver violated the length bound]" if self.implementation_bug else ""
        return (
            f"longest repeat {self.repeat_length} {status} bound {self.bound}{note}"
        )


def diagnose_overcollapse(result: ScsResult, read_length: int) -> OvercollapseReport:
    """Compare a solver result's longest repeat against ``2*read_length - 2``.

    A true shortest common superstring of uniform-length reads can never
    contain a repeat longer than that bound, so an exact result exceeding
    it is flagged as an implementation bug; for greedy results the report
    is informational only.
    """
    if read_length < 1:
        raise ValueError(f"read length must be >= 1, got {read_length}")
    hit = longest_repeat(result.superstring)
    length = hit.length if hit else 0
    positions = hit.positions if hit else None
    bound = 2 * read_length - 2
    exceeds = length > bound
    return OvercollapseReport(
        repeat_length=length,
        positions=positions,
        bound=bound,
        exceeds_bound=exceeds,
        implementation_bug=exceeds and result.method == "exact",
    )
