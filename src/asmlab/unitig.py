"""Maximal unitigs, their spelled contigs, and a safety oracle.

A unitig is a vertex path in which every vertex except the first has
exactly one incoming edge and every vertex except the last has exactly one
outgoing edge; the maximal unitigs partition the vertex set uniquely. A
contig is *safe* when it is a substring of every string spelled by an
edge-covering walk. The oracle here decides safety exactly on small
graphs by searching the product of the graph with (covered-edge-subset,
match-progress) bookkeeping: a reachable fully-covered state that never
matched the whole candidate is precisely a witness walk avoiding it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

import numpy as np

from asmlab.errors import AssemblyError
from asmlab.graph import DeBruijnGraph, Walk, covering_walk_feasibility, walk_of
from asmlab.sequence import DnaString, ReadSet, encode_kmers, in_sorted, kmer_codes

_STATE_BUDGET = 4_000_000  # product states before the oracle answers `unknown`
_RULER_STRIDE = 32         # every this-many-th vertex is a ruler in chain ranking


@dataclass(frozen=True)
class UnitigPartition:
    """The unique partition of a graph's vertices into maximal unitigs, in
    spelled order: ``sequences[i]``, in one code store, is what unitig i
    spells. Built on first use: the ``spellings`` as strings, and
    ``unitigs``, each unitig's vertices (the (k-1)-windows of its spelling)."""

    graph: DeBruijnGraph
    sequences: ReadSet

    @cached_property
    def spellings(self) -> tuple[str, ...]:
        return tuple(self.sequences)

    @cached_property
    def unitigs(self) -> tuple[tuple[str, ...], ...]:
        w = self.graph.k - 1
        return tuple(tuple([s[i:i + w] for i in range(len(s) - w + 1)]) for s in self.spellings)


def _chain_ranks(link: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every vertex, the first vertex of its chain and its distance
    from it along ``link`` (the link leaving each vertex, -1 for none; no
    vertex is entered by two links). A chain begins at each vertex of
    ``starts``, the vertices no link enters; a pure cycle begins at its
    smallest vertex.

    List ranking by rulers: every start and every ``_RULER_STRIDE``-th
    vertex is a ruler. All rulers walk along ``link`` in lockstep to the
    next ruler, so each vertex learns its ruler and its distance from it;
    the rulers are then ranked by pointer jumping over their segment
    sizes (Wyllie 1979), in log2(rulers in the longest chain) rounds. A
    vertex's distance from its start is its ruler's plus its own. Rulers
    that no start reaches, and vertices that no ruler reaches, lie on pure
    cycles; each cycle is cut before its smallest vertex, found by
    doubling the minimum along the links, and ranked as a chain."""
    n = len(link)
    # index -1, where a link is missing, reads a last entry: a ruler owned by none
    ruler = np.append(starts, True)
    ruler[:n:_RULER_STRIDE] = True
    rulers = np.flatnonzero(ruler[:n])
    r = len(rulers)
    owner = np.full(n + 1, -1, dtype=np.intp)
    owner[rulers] = np.arange(r)
    dist = np.zeros(n, dtype=np.intp)
    nxt = np.empty(r, dtype=np.intp)   # the ruler each segment runs into, or -1
    size = np.empty(r, dtype=np.intp)  # the vertices of each ruler's segment
    at, who, step = rulers, np.arange(r), 0
    while at.size:
        step += 1
        at = link[at]
        hit = ruler[at]
        done = who[hit]
        nxt[done], size[done] = owner[at[hit]], step
        at, who = at[~hit], who[~hit]
        owner[at], dist[at] = who, step
    owner = owner[:n]

    # rank the rulers: top is the farthest ruler known upstream, off the
    # vertices from top's first vertex to this ruler's
    pred = np.full(r, -1, dtype=np.intp)
    joined = np.flatnonzero(nxt >= 0)
    pred[nxt[joined]] = joined
    top = np.where(pred >= 0, pred, np.arange(r))
    off = np.where(pred >= 0, size[pred], 0)
    active = np.flatnonzero(pred >= 0)
    for _ in range(r.bit_length()):
        if not active.size:
            break
        up = top[active]
        off[active] += off[up]
        top[active] = top[up]
        active = active[pred[top[active]] >= 0]
    # what is still active, and every vertex no ruler reached, is on a cycle
    cyclic = np.zeros(r + 1, dtype=bool)
    cyclic[active] = cyclic[-1] = True  # owner -1 reads the last entry
    head = rulers[top][owner]
    rank = off[owner] + dist
    on = np.flatnonzero(cyclic[owner])
    if on.size:
        local = np.full(n, -1, dtype=np.intp)
        local[on] = np.arange(len(on))
        into = local[link[on]]
        least, hop = np.arange(len(on)), into
        for _ in range(len(on).bit_length()):
            least, hop = np.minimum(least, least[hop]), hop[hop]
        first = least == np.arange(len(on))
        cycle_head, rank[on] = _chain_ranks(np.where(first[into], -1, into), first)
        head[on] = on[cycle_head]
    return head, rank


def _chains(graph: DeBruijnGraph) -> tuple[np.ndarray, np.ndarray]:
    """For every vertex index, the first vertex of its maximal unitig and
    its distance from it: an edge whose tail has one out-edge and whose
    head has one in-edge links the two, and the unitigs are the chains of
    links, ranked by :func:`_chain_ranks`. A vertex that no link enters
    starts a unitig, and a pure cycle starts at its smallest vertex."""
    n = len(graph.packed_vertices)
    tails, heads = graph.edge_endpoints()
    chained = (graph.out_degrees == 1)[tails] & (graph.in_degrees == 1)[heads]
    link = np.full(n, -1, dtype=np.intp)
    link[tails[chained]] = heads[chained]
    starts = np.ones(n, dtype=bool)
    starts[heads[chained]] = False
    return _chain_ranks(link, starts)


def unitig_numbers(graph: DeBruijnGraph) -> np.ndarray:
    """For every vertex index, the number of the maximal unitig that holds
    it, in the order of :func:`maximal_unitigs`: a unitig's number is its
    first vertex's rank among all first vertices."""
    head = _chains(graph)[0]
    return (np.cumsum(head == np.arange(len(head))) - 1)[head]


def maximal_unitigs(graph: DeBruijnGraph) -> UnitigPartition:
    """Extract every maximal unitig; works on any graph, including
    disconnected ones and isolated vertices (singleton unitigs).

    Works on vertex indices and the degree arrays, through :func:`_chains`.
    The unitigs, spelled straight into codes, are ordered by first vertex:
    these are distinct (k-1)-mers in string order, so their spellings sort
    alike.
    """
    n = len(graph.packed_vertices)
    head, rank = _chains(graph)
    sizes = np.bincount(head, minlength=n)
    firsts = np.flatnonzero(sizes)
    sizes = sizes[firsts]
    base = np.zeros(n, dtype=np.intp)
    base[firsts] = np.cumsum(sizes) - sizes

    # a unitig spells its first vertex's first k-2 codes, then each vertex's last code
    w = graph.k - 2
    runs = np.stack((np.full(len(sizes), w), sizes), axis=1).ravel()
    first = np.repeat(np.tile([True, False], len(sizes)), runs)
    codes = np.empty(len(first), dtype=np.uint8)
    codes[first] = kmer_codes(graph.packed_vertices[firsts] >> np.uint64(2), w).ravel()
    last = np.empty(n, dtype=np.uint8)
    last[base[head] + rank] = graph.packed_vertices & 3
    codes[~first] = last
    return UnitigPartition(graph, ReadSet.from_codes(codes, sizes + w))


@dataclass(frozen=True)
class ContigSet:
    """Contigs held once: ``sequences`` is their code store, contig i is
    named ``names[i]``, and ``source`` names what made them all. Every
    contig is at least k-1 long. Length, iteration and indexing hand out
    the sequences as :class:`DnaString`, as :class:`ReadSet` does."""

    k: int
    sequences: ReadSet
    names: tuple[str, ...]
    source: str

    def __post_init__(self):
        if len(self.names) != len(self.sequences):
            raise ValueError(f"{len(self.names)} names for {len(self.sequences)} contigs")
        lengths = self.sequences.lengths
        short = np.flatnonzero(lengths < self.k - 1)
        if len(short):
            first = int(short[0])
            raise AssemblyError(f"contig {self.names[first]} has {lengths[first]} nt, "
                                f"shorter than k-1={self.k - 1}")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[DnaString]:
        return iter(self.sequences)

    def __getitem__(self, i: int) -> DnaString:
        return self.sequences[i]


def unitig_contigs(graph: DeBruijnGraph) -> ContigSet:
    """One contig ``u0, u1, ...`` per maximal unitig, on the partition's store."""
    sequences = maximal_unitigs(graph).sequences
    return ContigSet(graph.k, sequences, tuple(map("u%d".__mod__, range(len(sequences)))),
                     "unitig")


@dataclass(frozen=True)
class PreconditionReport:
    """Graph facts gating the unitig-safety guarantee: the guarantee needs
    an edge-covering walk, a source, and a sink."""

    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    covering_walk_exists: bool
    detail: str

    @property
    def satisfied(self) -> bool:
        return bool(self.sources) and bool(self.sinks) and self.covering_walk_exists


def check_safety_preconditions(graph: DeBruijnGraph) -> PreconditionReport:
    exists, reason = covering_walk_feasibility(graph)
    return PreconditionReport(
        sources=tuple(graph.sources()),
        sinks=tuple(graph.sinks()),
        covering_walk_exists=exists,
        detail=reason,
    )


@dataclass(frozen=True)
class SafetyVerdict:
    status: str  # "safe" | "unsafe" | "unknown"
    witness: Optional[Walk] = None
    note: str = ""


def is_safe_bounded(graph: DeBruijnGraph, candidate: Union[Walk, str]) -> SafetyVerdict:
    """Decide whether the candidate is a subwalk of every edge-covering walk.

    The candidate is a :class:`Walk` (or a bare vertex label for the
    single-vertex case). For strings of length >= k-1, substring-of-spelling
    and subwalk-of-walk coincide, so this decides string safety.

    The search space is the product of (current vertex, set of covered
    edges, candidate match progress); a covering walk can always be
    shortened to stop at the edge completing coverage without gaining new
    subwalks, so reachability of a fully-covered never-matched state is an
    exact unsafety test. ``unknown`` is returned only when the product
    space exceeds the oracle's state budget; a verdict of ``safe`` or
    ``unsafe`` is never approximate.
    """
    n_edges = graph.num_edges
    if n_edges == 0:
        raise ValueError("safety is undefined on a graph with no edges")

    if isinstance(candidate, str):
        if graph.out_degree(candidate) > 0 or graph.in_degree(candidate) > 0:
            # every covering walk traverses some incident edge
            return SafetyVerdict("safe", note="vertex lies on an edge")
        if candidate not in graph.isolated_vertices():
            raise ValueError(f"vertex {candidate!r} is not in the graph")
        return SafetyVerdict(
            "unsafe",
            note="isolated vertex: no covering walk spells it",
        )

    if candidate.graph is not graph and candidate.graph != graph:
        raise ValueError("candidate walk belongs to a different graph")
    if len(candidate.edges) == 0:
        raise ValueError("empty candidate walk; pass the vertex label instead")
    if len(candidate.edges) == 1:
        return SafetyVerdict("safe", note="every covering walk visits every edge")

    edge_index = {e: i for i, e in enumerate(graph.edge_kmers)}
    pattern = [edge_index[e] for e in candidate.edges]
    L = len(pattern)
    verts = [v for v in graph.vertices
             if graph.out_degree(v) > 0 or graph.in_degree(v) > 0]
    v_index = {v: i for i, v in enumerate(verts)}
    adj: list[list[tuple[int, int]]] = [[] for _ in verts]
    for e in graph.edge_kmers:
        adj[v_index[e[:-1]]].append((edge_index[e], v_index[e[1:]]))

    if len(verts) * (1 << n_edges) * L > _STATE_BUDGET:
        return SafetyVerdict("unknown", note="state budget exceeded")

    # match-progress automaton over edge indices (failure-function form)
    fail = [0] * L
    for i in range(1, L):
        q = fail[i - 1]
        while q and pattern[i] != pattern[q]:
            q = fail[q - 1]
        fail[i] = q + 1 if pattern[i] == pattern[q] else 0

    def advance(q: int, e: int) -> int:
        while q and pattern[q] != e:
            q = fail[q - 1]
        return q + 1 if pattern[q] == e else 0

    full = (1 << n_edges) - 1
    span_mask = full + 1
    span_vert = len(verts)

    def pack(vi: int, mask: int, q: int) -> int:
        return (q * span_vert + vi) * span_mask + mask

    parent: dict[int, tuple[int, int]] = {}
    seen: set[int] = set()
    queue: deque[tuple[int, int, int]] = deque()
    for vi in range(span_vert):
        state = pack(vi, 0, 0)
        seen.add(state)
        queue.append((vi, 0, 0))

    goal: Optional[int] = None
    while queue and goal is None:
        vi, mask, q = queue.popleft()
        state = pack(vi, mask, q)
        for ei, wi in adj[vi]:
            nq = advance(q, ei)
            if nq == L:
                continue  # the walk now contains the candidate: never a witness
            nmask = mask | (1 << ei)
            nstate = pack(wi, nmask, nq)
            if nstate in seen:
                continue
            seen.add(nstate)
            parent[nstate] = (state, ei)
            if nmask == full:
                goal = nstate
                break
            queue.append((wi, nmask, nq))

    if goal is None:
        return SafetyVerdict("safe")
    rev: list[str] = []
    state = goal
    while state in parent:
        prev, ei = parent[state]
        rev.append(graph.edge_kmers[ei])
        state = prev
    witness = Walk(graph, tuple(reversed(rev)))
    return SafetyVerdict("unsafe", witness=witness)


@dataclass(frozen=True)
class SafetyRow:
    contig: str
    verdict: str
    witness_length: Optional[int]
    flagged_bug: bool


@dataclass(frozen=True)
class SafetyReport:
    applicable: bool
    detail: str
    rows: tuple[SafetyRow, ...]

    @property
    def bug_flags(self) -> list[SafetyRow]:
        return [r for r in self.rows if r.flagged_bug]

    @property
    def unknown_count(self) -> int:
        return sum(1 for r in self.rows if r.verdict == "unknown")

    def to_tsv(self) -> str:
        lines = ["contig\tverdict\twitness_length"]
        for r in self.rows:
            wl = "" if r.witness_length is None else str(r.witness_length)
            lines.append(f"{r.contig}\t{r.verdict}\t{wl}")
        return "\n".join(lines) + "\n"


def safety_suite(graph: DeBruijnGraph, contigs: ContigSet) -> SafetyReport:
    """Run the safety oracle on every contig.

    On graphs satisfying the preconditions, an ``unsafe`` verdict for a
    unitig contig contradicts the safety guarantee and is flagged as an
    implementation bug (isolated-vertex unitigs are outside the guarantee's
    read-length assumptions and are exempt). On graphs failing the
    preconditions the report is marked not applicable.
    """
    pre = check_safety_preconditions(graph)
    if not pre.satisfied:
        return SafetyReport(False, f"preconditions unmet: {pre.detail}", ())
    rows = []
    for name, text in zip(contigs.names, contigs):
        # a spelled string's (k-1)-mers are vertices and its k-mers edges
        candidate: Union[Walk, str, None]
        if len(text) == graph.k - 1:
            is_vertex = in_sorted(graph.packed_vertices, encode_kmers([text], graph.k - 1))[0]
            candidate = text if is_vertex else None
        else:
            candidate = walk_of(text, graph)
        if candidate is None:
            rows.append(SafetyRow(name, "unsafe", None, False))
            continue
        verdict = is_safe_bounded(graph, candidate)
        # a vertex is unsafe only when isolated, and those are exempt
        flagged = (
            verdict.status == "unsafe"
            and contigs.source == "unitig"
            and isinstance(candidate, Walk)
        )
        rows.append(SafetyRow(
            name,
            verdict.status,
            len(verdict.witness.edges) if verdict.witness else None,
            flagged,
        ))
    return SafetyReport(True, "preconditions satisfied", tuple(rows))
