"""Independent oracles used to cross-check the library's fast paths.

Everything here is deliberately naive (enumeration, quadratic scans,
permutation sweeps) so that agreement with the optimized implementations
is meaningful evidence.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import Counter, deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, depth_first_order

from asmlab.errors import DisconnectedGraphError, FastaParseError, NoCoveringWalkError
from asmlab.evaluate import (
    _JSON_REPORT,
    _JSON_ROW,
    _JSON_WORDS,
    EvalReport,
    _exact_hits,
    _json_scalar,
    _kmer_hits,
    _seed_index,
    compute_n50,
)
from asmlab.formats import FASTA_WRAP, FastaRecord, _open_for_write
from asmlab.graph import DeBruijnGraph, Walk
from asmlab.sequence import (
    ALPHABET,
    MAX_K,
    DnaString,
    ReadSet,
    check_k,
    decode_kmer,
    first_invalid,
    from_codes,
    index_ranges,
    joined_codes,
    read_lengths,
    sorted_distinct,
    spectrum,
    spectrum_of_set,
    symbol_batches,
    to_codes,
    window_packs,
)
from asmlab.simulate import _length_batches
from asmlab.unitig import ContigSet


def packed_kmers(text: str, k: int) -> list[int]:
    """All k-mers of ``text`` in order, as packed integers (rolling encode)."""
    if len(text) < k:
        return []
    mask = (1 << (2 * k)) - 1
    codes = to_codes(text)
    value = 0
    for code in codes[:k - 1]:
        value = (value << 2) | code
    return [value := ((value << 2) | code) & mask for code in codes[k - 1:]]


def naive_spectrum(s: str, k: int) -> Counter:
    return Counter(s[i:i + k] for i in range(len(s) - k + 1))


def brute_spectrum_subset_check(g: str, reads, k: int) -> tuple:
    """The leftmost k-window of ``g`` found in no read's set of k-windows,
    as ``(ok, kmer, position)``."""
    allowed = {r[i:i + k] for r in reads for i in range(len(r) - k + 1)}
    for pos in range(len(g) - k + 1):
        if g[pos:pos + k] not in allowed:
            return (False, g[pos:pos + k], pos)
    return (True, None, None)


def brute_longest_repeat(s: str):
    """Longest substring occurring at >= 2 positions, by trying all pairs."""
    best_len, best = 0, None
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            length = 0
            while j + length < n and s[i + length] == s[j + length]:
                length += 1
            if length > best_len:
                best_len, best = length, (i, j)
    return (best_len, best) if best_len > 0 else None


def brute_max_overlap(a: str, b: str) -> int:
    for length in range(min(len(a), len(b)), 0, -1):
        if a.endswith(b[:length]) and b.startswith(a[-length:]):
            return length
    return 0


def merge_by_order(words: list[str]) -> str:
    out = words[0]
    for prev, nxt in zip(words, words[1:]):
        ov = brute_max_overlap(prev, nxt)
        out += nxt[ov:]
    return out


def brute_scs(words: list[str]) -> str:
    """Minimum-length, lexicographically smallest pairwise-merge superstring
    over every permutation of the substring-free word set."""
    core = []
    for w in sorted(set(words), key=len, reverse=True):
        if not any(w in kept for kept in core):
            core.append(w)
    best = None
    for perm in itertools.permutations(core):
        cand = merge_by_order(list(perm))
        if best is None or (len(cand), cand) < (len(best), best):
            best = cand
    return best


def all_optimal_covering_spellings(graph, optimum_length: int) -> list[str]:
    """Every string spelled by a minimum-length covering walk, by exhaustive
    DFS capped at the optimum length."""
    full = frozenset(graph.edge_kmers)
    out_edges: dict[str, list[str]] = {}
    for e in graph.edge_kmers:
        out_edges.setdefault(e[:-1], []).append(e)
    found: set[str] = set()

    def dfs(v, covered, walk):
        if covered == full and len(walk) == optimum_length:
            found.add("".join([walk[0]] + [e[-1] for e in walk[1:]]))
            return
        if len(walk) >= optimum_length:
            return
        for e in out_edges.get(v, ()):
            walk.append(e)
            dfs(e[1:], covered | {e}, walk)
            walk.pop()

    for v in graph.vertices:
        dfs(v, frozenset(), [])
    return sorted(found)


def n50_oracle(lengths) -> int:
    """Try every distinct length as the N50 candidate."""
    lengths = list(lengths)
    total = sum(lengths)
    if total == 0:
        return 0
    best = 0
    for cand in set(lengths):
        if 2 * sum(x for x in lengths if x >= cand) >= total:
            best = max(best, cand)
    return best


def coverage_marking_oracle(contigs: list[str], truth: str) -> float:
    """Mark every truth position covered by any exact contig occurrence."""
    hit = [False] * len(truth)
    for c in contigs:
        start = truth.find(c)
        while start != -1:
            for i in range(start, start + len(c)):
                hit[i] = True
            start = truth.find(c, start + 1)
    return sum(hit) / len(truth) if truth else 0.0


# ---------------------------------------------------------------------------
# Reference covering-walk solver
# ---------------------------------------------------------------------------
# The shortest edge-covering walk solver as it stood before the single
# assignment / Hierholzer rewrite in ``asmlab.graph``, frozen here so the
# differential test keeps comparing against it whatever later edits do to
# the library. It sweeps every (start, end) assignment, tries every closed
# walk rotation and builds each Euler walk greedily with a connectivity
# search per branch.

_START_ENUM_CAP = 64       # candidate circuit starts tried for the lex tie-break
_REALIZE_CAP = 64          # optimal (start, end) options realized for the tie-break


def _bfs_distances(graph: DeBruijnGraph, source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _bfs_path(graph: DeBruijnGraph, source: str, target: str) -> list[str]:
    """A deterministic shortest vertex path (successors scanned in sorted
    order, so the first-discovered parent is the lexicographically earliest)."""
    parent: dict[str, Optional[str]] = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for w in graph.successors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    raise NoCoveringWalkError(f"no directed path from {source!r} to {target!r}")


def _balances(graph: DeBruijnGraph) -> dict[str, int]:
    return {v: graph.out_degree(v) - graph.in_degree(v) for v in graph.vertices
            if graph.out_degree(v) - graph.in_degree(v) != 0}


class _Multigraph:
    """Mutable edge-copy counts used by the Euler stage."""

    def __init__(self, graph: DeBruijnGraph):
        self.out: dict[str, dict[str, int]] = {}
        self.ins: dict[str, dict[str, int]] = {}
        self.balance: dict[str, int] = {}
        self.degree: dict[str, int] = {}
        self.total = 0
        for e in graph.edge_kmers:
            self.add(e[:-1], e[1:])

    def add(self, u: str, w: str) -> None:
        self.out.setdefault(u, {})
        self.ins.setdefault(w, {})
        self.out[u][w] = self.out[u].get(w, 0) + 1
        self.ins[w][u] = self.ins[w].get(u, 0) + 1
        self.balance[u] = self.balance.get(u, 0) + 1
        self.balance[w] = self.balance.get(w, 0) - 1
        self.degree[u] = self.degree.get(u, 0) + 1
        self.degree[w] = self.degree.get(w, 0) + 1
        self.total += 1

    def consume(self, u: str, w: str) -> None:
        self.out[u][w] -= 1
        self.ins[w][u] -= 1
        self.balance[u] -= 1
        self.balance[w] += 1
        self.degree[u] -= 1
        self.degree[w] -= 1
        self.total -= 1

    def restore(self, u: str, w: str) -> None:
        self.out[u][w] += 1
        self.ins[w][u] += 1
        self.balance[u] += 1
        self.balance[w] -= 1
        self.degree[u] += 1
        self.degree[w] += 1
        self.total += 1

    def successors(self, v: str) -> list[str]:
        return sorted(w for w, c in self.out.get(v, {}).items() if c > 0)

    def out_total(self, v: str) -> int:
        return sum(c for c in self.out.get(v, {}).values() if c > 0)

    def feasible_continuation(self, cur: str, end: str) -> bool:
        """Can an Eulerian walk of the remaining copies run from ``cur`` to
        ``end``? Balance plus weak connectivity of the active vertices."""
        if self.total == 0:
            return cur == end
        if self.out_total(cur) == 0:
            return False
        # a virtual end->cur edge must balance every vertex
        for v, b in self.balance.items():
            expected = (1 if v == cur else 0) - (1 if v == end else 0)
            if b != expected:
                return False
        active = sum(1 for v, d in self.degree.items() if d > 0)
        seen = {cur}
        queue = deque([cur])
        reached = 1 if self.degree.get(cur, 0) > 0 else 0
        while queue:
            v = queue.popleft()
            for w, c in self.out.get(v, {}).items():
                if c > 0 and w not in seen:
                    seen.add(w)
                    reached += 1
                    queue.append(w)
            for w, c in self.ins.get(v, {}).items():
                if c > 0 and w not in seen:
                    seen.add(w)
                    reached += 1
                    queue.append(w)
        return reached == active


def _lexmin_euler(multi: _Multigraph, start: str, end: str) -> list[str]:
    """Lexicographically smallest Eulerian walk of the multigraph.

    Successive spelled symbols are exactly the last characters of the
    chosen edges, so greedily taking the smallest feasible successor yields
    the lexicographically smallest spelled string from this start.
    """
    if not multi.feasible_continuation(start, end) and multi.total > 0:
        raise NoCoveringWalkError(
            f"no Eulerian walk from {start!r} to {end!r} in the augmented graph"
        )
    path = [start]
    cur = start
    while multi.total > 0:
        succs = multi.successors(cur)
        chosen = None
        if len(succs) == 1:
            chosen = succs[0]
            multi.consume(cur, chosen)
        else:
            for w in succs:
                multi.consume(cur, w)
                if multi.feasible_continuation(w, end):
                    chosen = w
                    break
                multi.restore(cur, w)
        if chosen is None:
            raise NoCoveringWalkError("Eulerian walk construction got stuck")
        path.append(chosen)
        cur = chosen
    return path


def _vertex_path_to_walk(graph: DeBruijnGraph, path: Sequence[str]) -> Walk:
    return Walk(graph, tuple(u + w[-1] for u, w in zip(path, path[1:])))


def _deficits_and_surpluses(balance: dict[str, int]) -> tuple[list[str], list[str]]:
    deficits, surpluses = [], []
    for v in sorted(balance):
        b = balance[v]
        if b < 0:
            deficits.extend([v] * (-b))
        elif b > 0:
            surpluses.extend([v] * b)
    return deficits, surpluses


def _assignment_cost(deficit_units: list[str], surplus_units: list[str],
                     dist: dict[str, dict[str, int]]
                     ) -> Optional[tuple[int, list[tuple[str, str]]]]:
    """Min-cost perfect matching of duplication paths deficit -> surplus.

    Returns (total cost, matched pairs) or None when no finite-cost perfect
    matching exists.
    """
    n = len(deficit_units)
    if n == 0:
        return 0, []
    big = 1 << 30
    cost = np.full((n, n), big, dtype=np.int64)
    for i, d in enumerate(deficit_units):
        row = dist[d]
        for j, s in enumerate(surplus_units):
            c = row.get(s)
            if c is not None:
                cost[i, j] = c
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    if total >= big:
        return None
    pairs = [(deficit_units[i], surplus_units[j]) for i, j in zip(rows, cols)]
    return total, pairs


def covering_walk_feasibility(graph: DeBruijnGraph) -> tuple[bool, str]:
    """Whether a single edge-covering walk exists, with a reason when not."""
    if graph.num_edges == 0:
        return False, "graph has no edges"
    components = graph.weakly_connected_components()
    if len(components) > 1:
        return False, f"{len(components)} weakly-connected components"
    balance = _balances(graph)
    deficits, surpluses = _deficits_and_surpluses(balance)
    if not deficits:
        return True, "balanced (closed walk exists)"
    dist = {d: _bfs_distances(graph, d) for d in set(deficits)}
    options = _enumerate_options(deficits, surpluses, dist)
    if options:
        return True, "imbalances repairable by edge duplication"
    return False, "imbalance pattern admits no covering walk"


def _enumerate_options(deficits: list[str], surpluses: list[str],
                       dist: dict[str, dict[str, int]]
                       ) -> list[tuple[int, Optional[str], Optional[str], list[tuple[str, str]]]]:
    """All feasible (cost, start, end, duplications) choices.

    ``start``/``end`` are None for the closed-walk option. For open walks
    one surplus unit serves as the start and one deficit unit as the end;
    the remaining units are matched by shortest duplication paths.
    """
    options = []
    closed = _assignment_cost(deficits, surpluses, dist)
    if closed is not None:
        options.append((closed[0], None, None, closed[1]))
    for sigma in sorted(set(surpluses)):
        rest_s = list(surpluses)
        rest_s.remove(sigma)
        for delta in sorted(set(deficits)):
            rest_d = list(deficits)
            rest_d.remove(delta)
            solved = _assignment_cost(rest_d, rest_s, dist)
            if solved is not None:
                options.append((solved[0], sigma, delta, solved[1]))
    options.sort(key=lambda o: (o[0], o[1] or "", o[2] or ""))
    return options


def reference_shortest_edge_covering_walk(graph: DeBruijnGraph) -> Walk:
    """A minimum-length walk visiting every edge at least once.

    Works on weakly-connected graphs; disconnected input raises
    :class:`DisconnectedGraphError` carrying the per-component subgraphs.
    Among equal-length optima the walk spelling the lexicographically
    smallest string is returned (for distinct equal-cost duplication
    choices, one deterministic representative per start/end option is
    realized and the smallest spelled string among them wins).
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges; nothing to cover")
    components = graph.weakly_connected_components()
    if len(components) > 1:
        raise DisconnectedGraphError([graph.subgraph(c) for c in components])

    balance = _balances(graph)
    deficits, surpluses = _deficits_and_surpluses(balance)

    candidates: list[tuple[Optional[str], Optional[str], list[tuple[str, str]]]] = []
    if not deficits:
        candidates.append((None, None, []))
    else:
        dist = {d: _bfs_distances(graph, d) for d in set(deficits)}
        options = _enumerate_options(deficits, surpluses, dist)
        if not options:
            raise NoCoveringWalkError(
                "the graph is connected but its imbalance pattern admits no "
                "edge-covering walk (a required duplication path is missing)"
            )
        best_cost = options[0][0]
        chosen = [o for o in options if o[0] == best_cost][:_REALIZE_CAP]
        candidates.extend((start, end, dups) for _, start, end, dups in chosen)

    best_text: Optional[str] = None
    best_path: Optional[list[str]] = None
    for start, end, dups in candidates:
        for path in _realize_candidate(graph, start, end, dups):
            text = path[0] + "".join(v[-1] for v in path[1:])
            if best_text is None or text < best_text:
                best_text, best_path = text, path
    assert best_path is not None
    return _vertex_path_to_walk(graph, best_path)


def _realize_candidate(graph: DeBruijnGraph, start: Optional[str],
                       end: Optional[str], dups: list[tuple[str, str]]):
    """Yield Euler vertex paths for one duplication choice.

    Open walks have a fixed start; closed walks try every start vertex (up
    to a cap) so the lexicographic tie-break can consider each rotation.
    """
    def fresh() -> _Multigraph:
        multi = _Multigraph(graph)
        for d, s in dups:
            path = _bfs_path(graph, d, s)
            for u, w in zip(path, path[1:]):
                multi.add(u, w)
        return multi

    if start is not None:
        yield _lexmin_euler(fresh(), start, end)
        return
    starts = [v for v in graph.vertices if graph.out_degree(v) > 0]
    if len(starts) > _START_ENUM_CAP:
        starts = starts[:1]
    for s in starts:
        yield _lexmin_euler(fresh(), s, s)


# ---------------------------------------------------------------------------
# Frozen string-keyed covering-walk solver
# ---------------------------------------------------------------------------
# The single-assignment / Hierholzer solver as it stood while it still kept
# (k-1)-mer strings: BFS trees as string-keyed dicts, and a deficit x
# surplus matrix rebuilt in a double loop for every optimal end. Kept
# verbatim (names prefixed) as the reference for the vertex-index solver.

_string_NO_PATH = 1 << 30

# BFS tree of one deficit vertex: depth and parent of each reachable vertex
_string_Tree = dict[str, tuple[int, Optional[str]]]


def _string_bfs_tree(graph: DeBruijnGraph, source: str) -> _string_Tree:
    """Depth and parent of every vertex reachable from ``source``. Successors
    are scanned in sorted order, so each parent is the lexicographically
    earliest on some shortest path."""
    tree: _string_Tree = {source: (0, None)}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in tree:
                tree[w] = (tree[v][0] + 1, v)
                queue.append(w)
    return tree


def _string_euler_path(graph: DeBruijnGraph, start: str, dups: list[tuple[str, str]],
                       trees: dict[str, _string_Tree]) -> list[str]:
    """Lexicographically smallest Euler walk, as a vertex path, from
    ``start`` over every edge plus, per duplication pair (d, s), the path to
    s in d's BFS tree: Hierholzer's algorithm leaving by the smallest unused
    successor copy, with the post-order reversed."""
    heaps = {v: list(graph.successors(v)) for v in graph.vertices}  # sorted, so heaps
    copies = graph.num_edges
    for d, w in dups:
        while w != d:
            u = trees[d][w][1]
            heapq.heappush(heaps[u], w)
            copies += 1
            w = u
    stack, post = [start], []
    while stack:
        heap = heaps[stack[-1]]
        if heap:
            stack.append(heapq.heappop(heap))
        else:
            post.append(stack.pop())
    if len(post) != copies + 1:
        raise NoCoveringWalkError(
            f"the Euler walk from {start!r} used {len(post) - 1} of {copies} edge copies"
        )
    return post[::-1]


def _string_vertex_path_to_walk(graph: DeBruijnGraph, path: Sequence[str]) -> Walk:
    return Walk(graph, tuple(u + w[-1] for u, w in zip(path, path[1:])))


def _string_deficits_and_surpluses(graph: DeBruijnGraph) -> tuple[list[str], list[str]]:
    """One unit per missing out-edge (deficit) or in-edge (surplus), sorted."""
    deficits, surpluses = [], []
    for v in graph.vertices:
        b = graph.out_degree(v) - graph.in_degree(v)
        deficits.extend([v] * -b)      # a non-positive repeat is empty
        surpluses.extend([v] * b)
    return deficits, surpluses


def _string_path_costs(deficit_units: list[str], surplus_units: list[str],
                       trees: dict[str, _string_Tree]) -> np.ndarray:
    """Duplication-path lengths deficit -> surplus, ``_string_NO_PATH`` where the
    surplus is unreachable."""
    cost = np.full((len(deficit_units), len(surplus_units)), _string_NO_PATH, dtype=np.int64)
    for i, d in enumerate(deficit_units):
        tree = trees[d]
        for j, s in enumerate(surplus_units):
            if s in tree:
                cost[i, j] = tree[s][0]
    return cost


def _string_assignment_cost(deficit_units: list[str], surplus_units: list[str],
                            trees: dict[str, _string_Tree]
                            ) -> Optional[tuple[int, list[tuple[str, str]]]]:
    """Min-cost perfect matching of duplication paths deficit -> surplus.

    Returns (total cost, matched pairs) or None when no finite-cost perfect
    matching exists.
    """
    if not deficit_units:
        return 0, []
    cost = _string_path_costs(deficit_units, surplus_units, trees)
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    if total >= _string_NO_PATH:
        return None
    pairs = [(deficit_units[i], surplus_units[j]) for i, j in zip(rows, cols)]
    return total, pairs


def _string_open_walk_cost(paths: np.ndarray, surplus_units: list[str],
                           start: Optional[str] = None) -> Optional[int]:
    """Least duplication cost of an open walk from ``start`` (default: any
    surplus vertex), or None. A dummy start row takes the surplus unit the
    walk leaves first and a dummy end column the deficit unit it ends at;
    dummy-to-dummy (a closed walk) is forbidden, since dropping any matched
    pair of a closed option gives a cheaper open one."""
    n = len(surplus_units)
    cost = np.full((n + 1, n + 1), _string_NO_PATH, dtype=np.int64)
    cost[:n, :n] = paths
    cost[n, :n] = [0 if start in (None, s) else _string_NO_PATH for s in surplus_units]
    cost[:n, n] = 0
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    return None if total >= _string_NO_PATH else total


def _string_duplication_plan(graph: DeBruijnGraph):
    """Imbalance units, their BFS trees, the path-cost matrix and the
    optimal open-walk duplication cost of a weakly connected graph.

    Raises :class:`NoCoveringWalkError` when no covering walk exists: in
    O(V) for two or more sources or sinks (a covering walk starts at every
    source and ends at every sink), otherwise when no finite-cost
    assignment exists. A balanced graph returns no units and cost 0.
    """
    for kind, ends in (("sources", graph.sources()), ("sinks", graph.sinks())):
        if len(ends) > 1:
            shown = ", ".join(ends[:5]) + ("..." if len(ends) > 5 else "")
            raise NoCoveringWalkError(
                f"graph has {len(ends)} {kind} ({shown}); a covering walk "
                "has one start and one end"
            )
    deficits, surpluses = _string_deficits_and_surpluses(graph)
    if not deficits:
        return deficits, surpluses, {}, None, 0
    trees = {d: _string_bfs_tree(graph, d) for d in set(deficits)}
    paths = _string_path_costs(deficits, surpluses, trees)
    best = _string_open_walk_cost(paths, surpluses)
    if best is None:
        raise NoCoveringWalkError(
            "the graph is connected but its imbalance pattern admits no "
            "edge-covering walk (a required duplication path is missing)"
        )
    return deficits, surpluses, trees, paths, best


def string_shortest_edge_covering_walk(graph: DeBruijnGraph) -> Walk:
    """A minimum-length walk visiting every edge at least once.

    Works on weakly-connected graphs; disconnected input raises
    :class:`DisconnectedGraphError` carrying the per-component subgraphs.
    Among equal-length optima the walk spelling the lexicographically
    smallest string is returned (for distinct equal-cost duplication
    choices, one deterministic representative per optimal end is realized
    from the smallest optimal start and the smallest spelled string wins).
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges; nothing to cover")
    components = graph.weakly_connected_components()
    if len(components) > 1:
        raise DisconnectedGraphError([graph.subgraph(c) for c in components])

    deficits, surpluses, trees, paths, best = _string_duplication_plan(graph)
    if not deficits:
        # a closed walk spells its start first: the smallest vertex wins
        start = next(v for v in graph.vertices if graph.out_degree(v) > 0)
        return _string_vertex_path_to_walk(graph, _string_euler_path(graph, start, [], {}))

    # every optimum spells its start vertex first and all have one length
    start = next(s for s in sorted(set(surpluses))
                 if _string_open_walk_cost(paths, surpluses, s) == best)
    rest_s = list(surpluses)
    rest_s.remove(start)
    candidates = []
    for end in sorted(set(deficits)):
        rest_d = list(deficits)
        rest_d.remove(end)
        solved = _string_assignment_cost(rest_d, rest_s, trees)
        if solved is not None and solved[0] == best:
            candidates.append(_string_euler_path(graph, start, solved[1], trees))
    # equal-length vertex paths from one start order as their spellings do
    return _string_vertex_path_to_walk(graph, min(candidates))


# ---------------------------------------------------------------------------
# Frozen start sweep and per-end solves
# ---------------------------------------------------------------------------
# How the index solver priced starts and ends before one assignment's
# residual graph priced them all: one forced assignment per start vertex,
# then one assignment per end vertex on the matrix less the start's first
# column and the end's first row. Kept verbatim; costs are None where no
# matching avoids every _SWEEP_NO_PATH pair.

_SWEEP_NO_PATH = 1 << 30


def _sweep_assign(cost: np.ndarray) -> Optional[tuple[int, np.ndarray, np.ndarray]]:
    if not cost.size:  # a per-end solve with one unit a side: nothing to pair
        none = np.empty(0, dtype=np.intp)
        return 0, none, none
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    return None if total >= _SWEEP_NO_PATH else (total, rows, cols)


def _sweep_open_walk_cost(paths: np.ndarray, surpluses: np.ndarray,
                          start: Optional[int] = None) -> Optional[int]:
    n = len(surpluses)
    cost = np.full((n + 1, n + 1), _SWEEP_NO_PATH, dtype=np.int64)
    cost[:n, :n] = paths
    cost[n, :n] = 0 if start is None else np.where(surpluses == start, 0, _SWEEP_NO_PATH)
    cost[:n, n] = 0
    solved = _sweep_assign(cost)
    return None if solved is None else solved[0]


def sweep_start_costs(paths: np.ndarray, surpluses: np.ndarray) -> dict[int, Optional[int]]:
    """Surplus vertex -> least duplication cost of an open walk leaving it
    first, one forced assignment per vertex."""
    return {s: _sweep_open_walk_cost(paths, surpluses, s)
            for s in np.unique(surpluses).tolist()}


def sweep_end_costs(paths: np.ndarray, deficits: np.ndarray, surpluses: np.ndarray,
                    start: int) -> dict[int, Optional[int]]:
    """Deficit vertex -> least duplication cost of an open walk from
    ``start`` that ends there, one assignment per vertex."""
    col = int(np.searchsorted(surpluses, start))
    rest_paths = np.delete(paths, col, axis=1)
    costs = {}
    for end in np.unique(deficits).tolist():
        row = int(np.searchsorted(deficits, end))
        solved = _sweep_assign(np.delete(rest_paths, row, axis=0))
        costs[end] = None if solved is None else solved[0]
    return costs


# ---------------------------------------------------------------------------
# Frozen string-keyed k-mer layer
# ---------------------------------------------------------------------------
# The dict-loop k-mer counter, the string-dict de Bruijn graph and the
# string-lookup unitig walk as they were before the library moved to packed
# uint64 arrays, kept verbatim as references for the differential tests.


def reference_spectrum_counts(reads, k: int) -> dict[int, int]:
    """Packed k-mer -> occurrence count, one read and one k-mer at a time."""
    counts: dict[int, int] = {}
    for r in reads:
        for p in packed_kmers(r, k):
            counts[p] = counts.get(p, 0) + 1
    return counts


class ReferenceDeBruijnGraph:
    """Immutable order-k de Bruijn graph over string-labeled vertices, held
    as dicts of sorted string tuples."""

    def __init__(self, k: int, edge_kmers, isolated_vertices=()):
        if k < 2:
            raise ValueError(f"de Bruijn graph order must be >= 2, got {k}")
        self.k = k
        edges = sorted(set(edge_kmers))
        for e in edges:
            if len(e) != k:
                raise ValueError(f"edge {e!r} does not have length k={k}")
        vertices: set[str] = set()
        out: dict[str, list[str]] = {}
        inn: dict[str, list[str]] = {}
        for e in edges:
            tail, head = e[:-1], e[1:]
            vertices.add(tail)
            vertices.add(head)
            out.setdefault(tail, []).append(head)
            inn.setdefault(head, []).append(tail)
        for v in isolated_vertices:
            if len(v) != k - 1:
                raise ValueError(f"vertex {v!r} does not have length k-1={k - 1}")
            vertices.add(v)
        self.edge_kmers: tuple[str, ...] = tuple(edges)
        self.vertices: tuple[str, ...] = tuple(sorted(vertices))
        self._out = {v: tuple(sorted(ws)) for v, ws in out.items()}
        self._in = {v: tuple(sorted(ws)) for v, ws in inn.items()}

    def successors(self, v: str) -> tuple[str, ...]:
        return self._out.get(v, ())

    def predecessors(self, v: str) -> tuple[str, ...]:
        return self._in.get(v, ())

    def out_degree(self, v: str) -> int:
        return len(self._out.get(v, ()))

    def in_degree(self, v: str) -> int:
        return len(self._in.get(v, ()))

    def sources(self) -> list[str]:
        return [v for v in self.vertices
                if self.in_degree(v) == 0 and self.out_degree(v) > 0]

    def sinks(self) -> list[str]:
        return [v for v in self.vertices
                if self.out_degree(v) == 0 and self.in_degree(v) > 0]

    def isolated_vertices(self) -> list[str]:
        return [v for v in self.vertices
                if self.in_degree(v) == 0 and self.out_degree(v) == 0]

    def weakly_connected_components(self) -> list[tuple[str, ...]]:
        active = [v for v in self.vertices
                  if self.out_degree(v) > 0 or self.in_degree(v) > 0]
        seen: set[str] = set()
        components: list[tuple[str, ...]] = []
        for root in active:
            if root in seen:
                continue
            comp = []
            queue = deque([root])
            seen.add(root)
            while queue:
                v = queue.popleft()
                comp.append(v)
                for w in self.successors(v) + self.predecessors(v):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            components.append(tuple(sorted(comp)))
        return components

    def subgraph(self, vertex_subset) -> "ReferenceDeBruijnGraph":
        keep = set(vertex_subset)
        edges = [e for e in self.edge_kmers if e[:-1] in keep and e[1:] in keep]
        isolated = [v for v in self.isolated_vertices() if v in keep]
        return ReferenceDeBruijnGraph(self.k, edges, isolated)


def reference_build(reads, k: int) -> ReferenceDeBruijnGraph:
    """The string-path graph of a read set: count, decode every k-mer, then
    build the string-dict graph; (k-1)-length reads become isolated vertices."""
    isolated = {str(r) for r in reads if len(r) == k - 1}
    usable = [str(r) for r in reads if len(r) >= k]
    counts = reference_spectrum_counts(usable, k)
    kmers = [decode_kmer(p, k) for p in sorted(counts)]
    return ReferenceDeBruijnGraph(k, kmers, isolated)


def _reference_spell_path(path: tuple[str, ...]) -> str:
    return path[0] + "".join(v[-1] for v in path[1:])


def reference_maximal_unitigs(graph) -> tuple[tuple[str, ...], ...]:
    """Maximal unitigs as vertex paths sorted by spelled string, by string
    lookups on any graph with the string adjacency views."""
    claimed: set[str] = set()
    paths: list[tuple[str, ...]] = []

    def extends_back(v: str) -> bool:
        if graph.in_degree(v) != 1:
            return False
        pred = graph.predecessors(v)[0]
        return graph.out_degree(pred) == 1

    def forward_path(start: str) -> tuple[str, ...]:
        path = [start]
        cur = start
        while graph.out_degree(cur) == 1:
            nxt = graph.successors(cur)[0]
            if graph.in_degree(nxt) != 1 or nxt == start or nxt in claimed:
                break
            path.append(nxt)
            cur = nxt
        return tuple(path)

    for v in graph.vertices:
        if v in claimed or extends_back(v):
            continue
        path = forward_path(v)
        claimed.update(path)
        paths.append(path)
    # leftovers are pure cycles where every vertex chains backward forever
    for v in graph.vertices:
        if v in claimed:
            continue
        path = forward_path(v)
        claimed.update(path)
        paths.append(path)

    assert len(claimed) == len(graph.vertices)
    paths.sort(key=_reference_spell_path)
    return tuple(paths)


# ---------------------------------------------------------------------------
# Frozen read-by-read corrector
# ---------------------------------------------------------------------------
# k-mer-frequency read correction as it was before it ran across reads at
# once over the spectrum arrays: one read at a time, one dict lookup per
# candidate k-mer. Kept verbatim, except that the counts come from the
# one-k-mer-at-a-time reference counter and the INFO log line is left out.


def reference_correct_reads(reads: ReadSet, k: int, min_multiplicity: int) -> ReadSet:
    """One-pass k-mer-frequency read correction, read by read."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
    if min_multiplicity < 1:
        raise ValueError(f"min_multiplicity must be >= 1, got {min_multiplicity}")
    for i, r in enumerate(reads):
        if len(r) < k:
            raise ValueError(f"read {i} is shorter than k={k}")
    counts = reference_spectrum_counts(reads, k)
    kept: list[DnaString] = []
    for read in reads:
        text = str(read)
        corrected = _reference_correct_one(text, k, min_multiplicity, counts)
        if corrected is not None:
            kept.append(DnaString(corrected))
    return ReadSet(tuple(kept))


def _reference_correct_one(read: str, k: int, threshold: int,
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


# ---------------------------------------------------------------------------
# Frozen across-reads corrector
# ---------------------------------------------------------------------------
# k-mer-frequency read correction as it was before columns were skipped by
# the sibling bounds: every selected read tries every other base at every
# column, looking up each trial's first window alone and the rest only for
# the trials that window passes. Kept verbatim, except that the INFO log line
# and the changed-read tally are left out.

_BATCH_PADDING_COUNT = np.iinfo(np.int64).max


def batch_correct_reads(reads: ReadSet, k: int, min_multiplicity: int) -> ReadSet:
    """One-pass k-mer-frequency read correction, a length batch at a time."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
    if min_multiplicity < 1:
        raise ValueError(f"min_multiplicity must be >= 1, got {min_multiplicity}")
    lengths = reads.lengths
    short = np.flatnonzero(lengths < k)
    if len(short):
        raise ValueError(f"read {short[0]} is shorter than k={k}")
    spectrum = spectrum_of_set(reads, k)
    codes = reads.codes.copy()
    keep = np.ones(len(reads), dtype=bool)
    for batch in _length_batches(lengths):
        ends = lengths[batch]
        inside = np.arange(ends[-1]) < ends[:, None]
        at = (reads.offsets[batch][:, None] + np.arange(ends[-1]))[inside]
        matrix = np.zeros(inside.shape, dtype=np.uint8)
        matrix[inside] = reads.codes[at]
        keep[batch] = _batch_correct(matrix, ends, k, min_multiplicity, spectrum)
        codes[at] = matrix[inside]
    return ReadSet.from_codes(codes[np.repeat(keep, lengths)], lengths[keep])


def _batch_correct(codes: np.ndarray, ends: np.ndarray, k: int, threshold: int,
                   spectrum) -> np.ndarray:
    rows, n = codes.shape
    packs = window_packs(codes, k)
    counts = spectrum.multiplicities_of(packs)
    last_start = ends - k
    counts[np.arange(n - k + 1) > last_start[:, None]] = _BATCH_PADDING_COUNT
    weak = counts < threshold
    last_weak = _batch_last_weak(weak)
    work = np.flatnonzero(last_weak >= 0)
    for i in range(n):
        lo, hi = max(0, i - k + 1), min(i, n - k)
        work = work[last_weak[work] >= lo]
        if not len(work):
            break
        sel = work[weak[work, lo:hi + 1].any(axis=1)]
        if not len(sel):
            continue
        padding = np.arange(lo, hi + 1) > last_start[sel, None]
        shifts = (2 * (k - 1 - (i - np.arange(lo, hi + 1)))).astype(np.uint64)
        cleared = packs[sel, lo:hi + 1] & ~(np.uint64(3) << shifts)
        current = codes[sel, i]
        best_base = current.copy()
        best_counts = counts[sel, lo:hi + 1]
        best_score = best_counts.min(axis=1)
        for base in range(4):
            trial = np.flatnonzero(current != base)
            better, found = _batch_all_above(spectrum,
                                             cleared[trial] | (np.uint64(base) << shifts),
                                             best_score[trial], padding[trial])
            take = trial[better]
            best_base[take] = base
            best_score[take] = found.min(axis=1)
            best_counts[take] = found
        moved = best_base != current
        if not moved.any():
            continue
        hit = sel[moved]
        codes[hit, i] = best_base[moved]
        packs[hit, lo:hi + 1] = cleared[moved] | (best_base[moved, None].astype(np.uint64)
                                                  << shifts)
        counts[hit, lo:hi + 1] = best_counts[moved]
        weak[hit, lo:hi + 1] = best_counts[moved] < threshold
        last_weak[hit] = _batch_last_weak(weak[hit])
    return ~weak.any(axis=1)


def _batch_all_above(spectrum, packs: np.ndarray, floor: np.ndarray,
                     padding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.flatnonzero(spectrum.multiplicities_of(packs[:, 0]) > floor)
    found = spectrum.multiplicities_of(packs[rows])
    found[padding[rows]] = _BATCH_PADDING_COUNT
    above = (found > floor[rows, None]).all(axis=1)
    return rows[above], found[above]


def _batch_last_weak(weak: np.ndarray) -> np.ndarray:
    last = weak.shape[1] - 1 - np.argmax(weak[:, ::-1], axis=1)
    return np.where(weak.any(axis=1), last, -1)


# ---------------------------------------------------------------------------
# Frozen line-by-line FASTA parser
# ---------------------------------------------------------------------------
# FASTA parsing as it was before it ran over all records at once: one
# DnaString, one header split and one FastaRecord per record. Kept verbatim.


def _reference_symbol_error(pieces: list[str], lines: Iterable[int],
                            where: str) -> FastaParseError:
    """The error naming the line of the first symbol outside the alphabet in
    ``pieces``, the consecutive lines of one sequence. Called only after
    :class:`DnaString` has rejected their concatenation."""
    for piece, line_no in zip(pieces, lines):
        pos = first_invalid(piece)
        if pos >= 0:
            break
    return FastaParseError(
        f"invalid symbol {piece[pos]!r} in {where} (alphabet is {ALPHABET})", line=line_no)


def reference_parse_fasta(text: str, drop_ambiguous: bool) -> list[FastaRecord]:
    lines = list(map(str.strip, text.splitlines()))
    heads = [i for i, line in enumerate(lines) if line.startswith(">")]
    for i, line in enumerate(lines[:heads[0]] if heads else lines):
        if line:
            raise FastaParseError("sequence data before any '>' header", line=i + 1)
    records: list[FastaRecord] = []
    for head, end in zip(heads, heads[1:] + [len(lines)]):
        fields = lines[head][1:].split(None, 1)
        if not fields:
            raise FastaParseError("empty FASTA header", line=head + 1)
        body = lines[head + 1:end]  # blank lines join as nothing
        try:
            seq = DnaString("".join(body).upper())  # the one scan of the record's symbols
        except ValueError:
            if drop_ambiguous:
                continue
            raise _reference_symbol_error([line.upper() for line in body],
                                          range(head + 2, end + 1),
                                          f"record {fields[0]!r}") from None
        if not seq:
            raise FastaParseError(f"record {fields[0]!r} has an empty sequence", line=head + 1)
        records.append(FastaRecord(fields[0], seq, fields[1] if len(fields) > 1 else ""))
    return records


# ---------------------------------------------------------------------------
# Frozen FASTQ parser and line-by-line FASTA writer
# ---------------------------------------------------------------------------
# The FASTQ parser as it was before it collected sequences into one store
# (one DnaString and one FastaRecord per record), and write_fasta as it was
# before it laid records out in one byte buffer (one write per line). Kept
# verbatim, except for their names and the symbol error's.


def reference_parse_fastq(text: str) -> list[FastaRecord]:
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
        parts = lines[i][1:].strip().split(None, 1)
        seq = lines[i + 1].strip().upper()
        if not lines[i + 2].startswith("+"):
            raise FastaParseError("expected '+' FASTQ separator", line=i + 3)
        if not parts:
            raise FastaParseError("empty FASTQ header", line=i + 1)
        if not seq:
            raise FastaParseError(f"record {parts[0]!r} has an empty sequence", line=i + 2)
        try:
            dna = DnaString(seq)
        except ValueError:
            raise _reference_symbol_error([seq], [i + 2], f"record {parts[0]!r}") from None
        quality = lines[i + 3].strip()
        if len(quality) != len(seq):
            raise FastaParseError(
                f"record {parts[0]!r} has {len(quality)} quality symbols "
                f"for {len(seq)} bases", line=i + 4)
        records.append(FastaRecord(parts[0], dna, parts[1] if len(parts) > 1 else ""))
        i += 4
    return records


def reference_write_fasta(records: Iterable[FastaRecord], sink) -> None:
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


# ---------------------------------------------------------------------------
# Frozen line-by-line edge-list writer
# ---------------------------------------------------------------------------
# write_edge_list as it was before it laid its lines out from the packed
# k-mers (one decoded string and one write per line). Kept verbatim, except
# for its name.


def reference_write_edge_list(graph: DeBruijnGraph, sink) -> None:
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


# ---------------------------------------------------------------------------
# Frozen chain-walk unitigs
# ---------------------------------------------------------------------------
# maximal_unitigs as it was before one depth-first search replaced the
# Python walk along the link array. Kept verbatim, except that it returns
# (unitigs, spellings) instead of a UnitigPartition.


def chain_walk_maximal_unitigs(graph: DeBruijnGraph) -> tuple[tuple[tuple[str, ...], ...],
                                                               tuple[str, ...]]:
    """Extract every maximal unitig; works on any graph, including
    disconnected ones and isolated vertices (singleton unitigs).

    Works on vertex indices and the degree arrays: an edge whose tail has
    one out-edge and whose head has one in-edge links the two, and the
    unitigs are the chains of links. A vertex that no link enters starts a
    unitig; what is left after those are followed are pure cycles, each
    started at its smallest vertex. A unitig is spelled from its first
    vertex and the last-symbol codes of the rest.
    """
    n = len(graph.vertices)
    tails, heads = graph.edge_endpoints()
    chained = (graph.out_degrees == 1)[tails] & (graph.in_degrees == 1)[heads]
    link = np.full(n, -1, dtype=np.intp)
    link[tails[chained]] = heads[chained]
    entered = np.zeros(n, dtype=bool)
    entered[heads[chained]] = True

    link_of = link.tolist()
    claimed = [False] * len(link_of)
    paths: list[list[int]] = []
    for start in np.flatnonzero(~entered).tolist() + list(range(len(link_of))):
        if claimed[start]:
            continue
        path = [start]
        claimed[start] = True
        nxt = link_of[start]
        while nxt >= 0 and not claimed[nxt]:
            path.append(nxt)
            claimed[nxt] = True
            nxt = link_of[nxt]
        paths.append(path)

    names = graph.vertices
    last_codes = (graph.packed_vertices & 3).astype(np.uint8)
    spelled = [names[p[0]] + from_codes(last_codes[p[1:]]) for p in paths]
    order = sorted(range(len(paths)), key=spelled.__getitem__)
    return (tuple(tuple(map(names.__getitem__, paths[i])) for i in order),
            tuple(spelled[i] for i in order))


# ---------------------------------------------------------------------------
# Frozen depth-first chain layout
# ---------------------------------------------------------------------------
# How maximal_unitigs laid out the chains of its link array before list
# ranking replaced it: one depth-first search over a binary tree of virtual
# vertices whose leaves are the starts, then the cycles labelled as weak
# components and searched from their smallest vertices. ``_preorder`` is
# kept verbatim; ``reference_chain_layout`` is the layout half of that
# maximal_unitigs, returning the laid-out vertices and the chain sizes.


def _preorder(link: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The vertices reached from ``roots`` along ``link`` (the link leaving
    each vertex, -1 for none), root by root, each followed by its chain.

    One depth-first search runs from the top of a binary tree of virtual
    vertices whose leaves are the roots. On every return to a vertex the
    search rescans that vertex's row from its start, so no row may be long:
    a single virtual vertex over all the roots would make the search
    quadratic in their number. Here every row holds at most two entries."""
    n, r = len(link), len(roots)
    if r == 0:
        return np.empty(0, dtype=np.intp)
    # heap layout: tree node h < r - 1 is virtual vertex n + h, with
    # children 2h + 1 and 2h + 2; tree node r - 1 + i is roots[i]
    node = np.concatenate((n + np.arange(r - 1), roots))
    tails = np.flatnonzero(link >= 0)
    counts = np.zeros(n + r - 1, dtype=np.intp)
    counts[tails] = 1
    counts[n:] = 2
    offsets = np.concatenate(([0], np.cumsum(counts)))
    heads = np.concatenate((link[tails], node[1:]))
    graph = csr_array((np.ones(len(heads)), heads, offsets), shape=(n + r - 1, n + r - 1))
    order = depth_first_order(graph, node[0], directed=True, return_predecessors=False)
    return order[order < n]


def reference_chain_layout(link: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of every chain of ``link`` in order, chains ordered by
    first vertex, and the chain sizes. A chain begins at each vertex of
    the boolean mask ``starts`` (the vertices no link enters; the mask is
    not changed) and a pure cycle at its smallest vertex."""
    n = len(link)
    starts = starts.copy()
    paths = _preorder(link, np.flatnonzero(starts))
    if len(paths) < n:
        cyclic = np.ones(n, dtype=bool)
        cyclic[paths] = False
        cyclic = np.flatnonzero(cyclic)
        links = csr_array((np.ones(len(cyclic)), (cyclic, link[cyclic])), shape=(n, n))
        labels = connected_components(links, connection="weak")[1][cyclic]
        smallest = np.full(n, n, dtype=np.intp)
        np.minimum.at(smallest, labels, cyclic)
        cycle_starts = np.unique(smallest[labels])
        starts[cycle_starts] = True
        paths = np.concatenate((paths, _preorder(link, cycle_starts)))
    cuts = np.flatnonzero(starts[paths])
    order = np.argsort(paths[cuts])
    sizes = np.diff(cuts, append=n)[order]
    return paths[index_ranges(cuts[order], sizes)], sizes


def reference_chain_spellings(graph: DeBruijnGraph) -> tuple[str, ...]:
    """The maximal unitigs' spellings from the frozen layout, spelled from
    the vertex names: the first vertex, then each later vertex's last symbol."""
    n = len(graph.packed_vertices)
    tails, heads = graph.edge_endpoints()
    chained = (graph.out_degrees == 1)[tails] & (graph.in_degrees == 1)[heads]
    link = np.full(n, -1, dtype=np.intp)
    link[tails[chained]] = heads[chained]
    starts = np.ones(n, dtype=bool)
    starts[heads[chained]] = False
    paths, sizes = reference_chain_layout(link, starts)
    names = graph.vertices
    chains = np.split(paths, np.cumsum(sizes)[:-1]) if len(sizes) else []
    return tuple(names[c[0]] + "".join(names[v][-1] for v in c[1:]) for c in chains)


# ---------------------------------------------------------------------------
# Frozen k-pass window packer
# ---------------------------------------------------------------------------
# ``sequence.window_packs`` as it stood before packing by doubling: k-1
# shift-and-or passes over the whole array. Kept verbatim as the reference
# for the differential tests.


def reference_window_packs(codes: np.ndarray, k: int) -> np.ndarray:
    """Every k-window along the last axis of a code array, packed into
    ``uint64`` (k shift-and-or passes); the last axis shrinks to n-k+1."""
    windows = codes.shape[-1] - k + 1
    packed = codes[..., :windows].astype(np.uint64)
    for j in range(1, k):
        packed <<= 2
        packed |= codes[..., j:j + windows]
    return packed


# ---------------------------------------------------------------------------
# Frozen row-based evaluation
# ---------------------------------------------------------------------------
# ``asmlab.evaluate`` as it stood before the report kept its per-contig
# results as columns: one ``ContigMetrics`` row per contig, the length
# summary stored beside them, and the text and JSON reports written row by
# row. Kept verbatim, except that ``EvalReport`` and ``_report`` are named
# ``RowReport`` and ``row_report``, and that ``row_evaluate`` and
# ``row_evaluate_without_truth`` read the names and sequences of the contig
# store.


@dataclass(frozen=True)
class ContigMetrics:
    name: str
    length: int
    exact_substring: Optional[bool]
    kmer_precision: Optional[float]


@dataclass(frozen=True)
class RowReport:
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

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes
        it, byte for byte, with one template filled per contig row."""
        per = self.per_contig
        rows = zip(map(_JSON_WORDS.__getitem__, [m.exact_substring for m in per]),
                   [_json_scalar(m.kmer_precision) for m in per],
                   map(int.__repr__, [m.length for m in per]),
                   map(encode_basestring_ascii, [m.name for m in per]))
        contigs = "[\n" + ",\n".join(map(_JSON_ROW.__mod__, rows)) + "\n  ]" if per else "[]"
        return _JSON_REPORT % (
            self.contig_count, contigs, _json_scalar(self.genome_fraction_covered), self.k,
            self.max_length, _json_scalar(self.mean_length),
            _json_scalar(self.misassembly_count), self.n50, self.total_length,
            _JSON_WORDS[self.truth_available])

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


def row_evaluate(contigs: ContigSet, truth: str, k: int) -> RowReport:
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
    sequences = list(contigs)
    lengths = read_lengths(sequences)
    exact = lengths == 0
    hits = np.zeros(len(sequences), dtype=np.int64)  # k-windows found in the truth
    hit_starts, hit_ends = [], []
    for at, stop in symbol_batches(lengths):
        length = lengths[at:stop]
        codes = joined_codes(sequences[at:stop])
        starts = np.cumsum(length) - length
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
    per = [
        ContigMetrics(name, length, found,
                      hit / (length - k + 1) if length >= k and not found else 1.0)
        for name, length, found, hit in zip(contigs.names, lengths.tolist(), exact.tolist(),
                                            hits.tolist())
    ]
    return row_report(k, per, covered / span, len(per) - int(exact.sum()))


def row_evaluate_without_truth(contigs: ContigSet, k: int) -> RowReport:
    """Length-only metrics for runs with no ground truth."""
    return row_report(k, [ContigMetrics(name, len(sequence), None, None)
                          for name, sequence in zip(contigs.names, contigs)], None, None)


def row_report(k: int, per: list[ContigMetrics], genome_fraction: Optional[float],
               misassemblies: Optional[int]) -> RowReport:
    """The report over the per-contig rows, with the length summary; the
    truth metrics are ``None`` when there is no truth."""
    lengths = [m.length for m in per]
    return RowReport(
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


def report_rows(report: EvalReport) -> RowReport:
    """A column report laid out as one row per contig."""
    cells = ([None] * report.contig_count, [None] * report.contig_count)
    if report.exact is not None:
        cells = (report.exact.tolist(), report.kmer_precision.tolist())
    per = [ContigMetrics(name, length, exact, precision) for name, length, exact, precision
           in zip(report.names, report.lengths.tolist(), *cells)]
    return RowReport(report.k, report.truth_available, tuple(per), report.contig_count,
                     report.total_length, report.max_length, report.mean_length, report.n50,
                     report.genome_fraction_covered, report.misassembly_count)


# ---------------------------------------------------------------------------
# Reference truth evaluation
# ---------------------------------------------------------------------------
# ``asmlab.evaluate.evaluate`` as it stood before the seed index over the
# truth: a substring scan of the whole truth per contig, and k-mer precision
# one packed int at a time against a frozenset. Kept verbatim for the
# differential test, except that it returns the frozen row report.


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


def reference_evaluate(contigs: ContigSet, truth: str, k: int) -> RowReport:
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
    for name, seq in zip(contigs.names, contigs):
        seq = str(seq)
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
        per.append(ContigMetrics(name, len(seq), exact, precision))
    return row_report(k, per, _covered_fraction(intervals, len(truth)), misassemblies)


# ---------------------------------------------------------------------------
# Reference DOT and report JSON writers
# ---------------------------------------------------------------------------
# ``asmlab.graph.export_dot`` as it stood before lines were laid out from the
# packed arrays: every vertex and edge name decoded, one attribute list and
# one write per line. ``EvalReport.to_json`` as it stood before the row
# template: ``json.dumps`` over a dict of the report. Kept verbatim for the
# differential tests; the JSON writer reads a row report (see ``report_rows``).

_REFERENCE_PALETTE = (
    "lightblue", "lightsalmon", "palegreen", "plum", "khaki",
    "lightpink", "aquamarine", "wheat", "lightgray", "orange",
)


def reference_export_dot(graph: DeBruijnGraph, handle, highlight=None) -> None:
    """Write deterministic DOT text for the graph to an open text handle,
    one line at a time.

    ``highlight`` may be a :class:`Walk` (its edges are drawn bold red) or
    an iterable of vertex groups (the ``unitigs`` of a unitig partition,
    say), in which case each group is filled with its own color.
    """
    node_color: dict[str, str] = {}
    walk_edges: set[str] = set()
    if isinstance(highlight, Walk):
        walk_edges = set(highlight.edges)
    elif highlight is not None:
        for i, group in enumerate(highlight):
            color = _REFERENCE_PALETTE[i % len(_REFERENCE_PALETTE)]
            for v in group:
                node_color[str(v)] = color
    handle.write("digraph debruijn {\n")
    for v in graph.vertices:
        attrs = [f'label="{v}"']
        if v in node_color:
            attrs += ["style=filled", f'fillcolor="{node_color[v]}"']
        handle.write(f'    "{v}" [{" ".join(attrs)}];\n')
    for e in graph.edge_kmers:
        attrs = [f'label="{e}"']
        if e in walk_edges:
            attrs += ['color="red"', "penwidth=2.0"]
        handle.write(f'    "{e[:-1]}" -> "{e[1:]}" [{" ".join(attrs)}];\n')
    handle.write("}\n")


def reference_report_json(report: RowReport) -> str:
    """The report as one ``json.dumps(indent=2, sort_keys=True)`` call."""
    data = {
        "k": report.k,
        "truth_available": report.truth_available,
        "contig_count": report.contig_count,
        "total_length": report.total_length,
        "max_length": report.max_length,
        "mean_length": report.mean_length,
        "n50": report.n50,
        "genome_fraction_covered": report.genome_fraction_covered,
        "misassembly_count": report.misassembly_count,
        "contigs": [
            {
                "name": m.name,
                "length": m.length,
                "exact_substring": m.exact_substring,
                "kmer_precision": m.kmer_precision,
            }
            for m in report.per_contig
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
