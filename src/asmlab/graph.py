"""De Bruijn graphs, walks, and shortest edge-covering walks.

The graph of order k has the distinct (k-1)-mers of the reads as vertices
and the distinct k-mers as edges, each edge directed from its (k-1)-prefix
to its (k-1)-suffix. A walk spells a string; the central solver finds a
minimum-length walk using every edge at least once (an open-walk variant
of the directed Chinese Postman Problem):

- two or more sources, or two or more sinks, rule a covering walk out in
  O(V), before any search;
- the solver runs on vertex indices: each deficit vertex's
  ``breadth_first_order`` tree gives its duplication paths, and the depths
  climbed in those trees fill one path-cost matrix between out-of-balance
  units; one min-cost assignment on it, with a dummy start row and a dummy
  end column, prices the shortest paths to duplicate;
- every optimum spells its start vertex first, so only the smallest
  optimal start is kept: the residual graph of that assignment prices
  every forced start, and a second assignment with the start forced
  prices every forced end (sensitivity analysis, Ahuja, Magnanti & Orlin
  1993); each optimal end is solved on the matrix less one row and one
  column and realized once, by a smallest-successor-first Hierholzer
  walk; the smallest string wins.

A subset-state breadth-first oracle double-checks small instances and can
count all optimal walks.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from dataclasses import dataclass
from itertools import compress
from functools import cached_property
from typing import Iterable, Optional, TextIO

import numpy as np

from asmlab.errors import (
    AssemblyError,
    DisconnectedGraphError,
    NoCoveringWalkError,
    ResourceLimitError,
)
from asmlab.sequence import (
    ALPHABET,
    MAX_K,
    ReadSet,
    decode_kmer,
    decode_kmers,
    encode_kmers,
    first_invalid,
    in_sorted,
    joined_codes,
    key_indices,
    read_lengths,
    sorted_distinct,
    spectrum_of_set,
    symbol_codes,
    window_packs,
    write_kmer_lines,
)

logger = logging.getLogger(__name__)

ORACLE_EDGE_LIMIT = 16
_EMBED_MAX_K = 12          # largest order tried when labelling a bubble graph
_NO_PATH = 1 << 30         # depth of an unreachable vertex: no duplication path


def check_order(k: int) -> None:
    """Raise ``ValueError`` unless ``k`` is an order a graph can have."""
    if k < 2:
        raise ValueError(f"de Bruijn graph order must be >= 2, got {k}")
    if k > MAX_K:
        raise ValueError(f"de Bruijn graph order must be at most {MAX_K}, got {k}")


class DeBruijnGraph:
    """Immutable order-k de Bruijn graph (2 <= k <= 31) held as packed arrays.

    ``packed_edges`` is the sorted ``uint64`` array of distinct k-mer codes.
    ``packed_vertices`` is the sorted array of their (k-1)-prefix and suffix
    codes plus any isolated vertices; vertex ``i`` is ``vertices[i]``. Edges
    are sorted by tail, so the out-edges of ``i`` are a run of edge indices,
    and :meth:`edge_endpoints` gives every edge's tail and head index;
    ``out_degrees``/``in_degrees`` are numpy arrays. Packed order is string
    order, so every run's heads and every string view (``vertices``,
    ``edge_kmers``, ``successors``, ...) are sorted. ``vertices`` and
    ``edge_kmers`` are decoded once, when first used, and so is
    ``adjacency``, the scipy CSR matrix over vertex indices (row ``i`` holds
    the heads of the out-edges of ``i``) that the covering-walk solver and
    :meth:`components` search. Neighbours follow the de Bruijn rule: the
    successors of ``v`` are ``v[1:] + c`` for each ``c`` with ``v + c`` an
    edge, its predecessors ``c + v[:-1]`` with ``c + v`` one, and
    ``out_degree``/``in_degree`` count them.
    """

    def __init__(self, k: int, edge_kmers: Iterable[str],
                 isolated_vertices: Iterable[str] = ()):
        check_order(k)
        self._setup(k, sorted_distinct(encode_kmers(list(edge_kmers), k)),
                    encode_kmers(list(isolated_vertices), k - 1))

    @classmethod
    def _from_packed(cls, k: int, edges: np.ndarray,
                     isolated_vertices: np.ndarray) -> "DeBruijnGraph":
        """The graph of packed k-mers ``edges``, ascending and distinct, and
        packed (k-1)-mers ``isolated_vertices`` (any order, repeats
        allowed), both ``uint64``."""
        graph = cls.__new__(cls)
        graph._setup(k, edges, isolated_vertices)
        return graph

    def _setup(self, k: int, edges: np.ndarray, isolated: np.ndarray) -> None:
        tails, heads = edges >> 2, edges & ((1 << (2 * (k - 1))) - 1)
        vertices = sorted_distinct(np.concatenate((tails, heads, isolated)))
        n = len(vertices)
        self.k = k
        self.packed_edges = edges
        self.packed_vertices = vertices
        self.out_degrees = np.bincount(np.searchsorted(vertices, tails), minlength=n)
        self._heads = np.searchsorted(vertices, heads)
        self.in_degrees = np.bincount(self._heads, minlength=n)
        # edges are sorted by tail, and within one tail by head
        self._offsets = np.concatenate(([0], np.cumsum(self.out_degrees)))

    # -- string views ------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return tuple(decode_kmers(self.packed_vertices, self.k - 1))

    @cached_property
    def edge_kmers(self) -> tuple[str, ...]:
        return tuple(decode_kmers(self.packed_edges, self.k))

    @cached_property
    def _edge_set(self) -> frozenset[str]:
        return frozenset(self.edge_kmers)

    @cached_property
    def adjacency(self):
        from scipy.sparse import csr_array

        n = len(self.packed_vertices)
        return csr_array((np.ones(self.num_edges), self._heads, self._offsets), shape=(n, n))

    # -- structure queries -------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.packed_edges)

    def has_edge(self, kmer: str) -> bool:
        return kmer in self._edge_set

    # a string of any length but k-1 extends to no k-mer, so it has no neighbour
    def successors(self, v: str) -> tuple[str, ...]:
        return tuple([v[1:] + c for c in ALPHABET if v + c in self._edge_set])

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple([c + v[:-1] for c in ALPHABET if c + v in self._edge_set])

    def out_degree(self, v: str) -> int:
        return len(self.successors(v))

    def in_degree(self, v: str) -> int:
        return len(self.predecessors(v))

    def _named(self, mask: np.ndarray) -> list[str]:
        return decode_kmers(self.packed_vertices[mask], self.k - 1)

    def sources(self) -> list[str]:
        """Vertices with no incoming edge (isolated vertices excluded)."""
        return self._named((self.in_degrees == 0) & (self.out_degrees > 0))

    def sinks(self) -> list[str]:
        return self._named((self.out_degrees == 0) & (self.in_degrees > 0))

    def isolated_vertices(self) -> list[str]:
        return self._named((self.in_degrees == 0) & (self.out_degrees == 0))

    def components(self) -> list["DeBruijnGraph"]:
        """One subgraph per weakly connected component carrying an edge, by
        smallest vertex: the packed edges split by their tails' labels. A
        graph that is one component, with no isolated vertex, is its own."""
        if not self.num_edges:
            return []
        from scipy.sparse.csgraph import connected_components

        count, labels = connected_components(self.adjacency, connection="weak")
        if count == 1:
            return [self]
        smallest = np.unique(labels, return_index=True)[1]  # labels run 0, 1, ...
        key = smallest[labels[self.edge_endpoints()[0]]]
        order = np.argsort(key, kind="stable")  # keeps each component's edges ascending
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        return [DeBruijnGraph._from_packed(self.k, edges, edges[:0])  # no isolated vertex
                for edges in np.split(self.packed_edges[order], cuts)]

    def weakly_connected_components(self) -> list[tuple[str, ...]]:
        """The vertices of each of :meth:`components`, sorted."""
        return [part.vertices for part in self.components()]

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail and head vertex index of every edge, in edge order."""
        return np.repeat(np.arange(len(self.packed_vertices)), self.out_degrees), self._heads

    def subgraph(self, vertex_subset: Iterable[str]) -> "DeBruijnGraph":
        # a name of another length, or holding a symbol outside ACGT, is no vertex
        named = [v for v in vertex_subset if len(v) == self.k - 1 and first_invalid(v) < 0]
        keep = in_sorted(sorted_distinct(encode_kmers(named, self.k - 1)), self.packed_vertices)
        tails, heads = self.edge_endpoints()
        isolated = keep & (self.out_degrees == 0) & (self.in_degrees == 0)
        return DeBruijnGraph._from_packed(self.k, self.packed_edges[keep[tails] & keep[heads]],
                                          self.packed_vertices[isolated])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeBruijnGraph):
            return NotImplemented
        return (self.k == other.k
                and np.array_equal(self.packed_edges, other.packed_edges)
                and np.array_equal(self.packed_vertices, other.packed_vertices))

    def __hash__(self):
        return hash((self.k, self.packed_edges.tobytes(), self.packed_vertices.tobytes()))

    def __repr__(self) -> str:
        return (f"DeBruijnGraph(k={self.k}, vertices={len(self.packed_vertices)}, "
                f"edges={self.num_edges})")


def build(reads: ReadSet, k: int) -> DeBruijnGraph:
    """Construct the order-k graph of a read set.

    Reads shorter than k-1 cannot contribute and are skipped with a
    warning; reads of length exactly k-1 contribute an isolated vertex.
    A read set in which every read is too short is an
    :class:`AssemblyError`.
    """
    check_order(k)
    reads.require_nonempty("de Bruijn graph construction")
    lengths = reads.lengths
    if lengths.max() < k - 1:
        raise AssemblyError(
            f"nothing to assemble: every read is shorter than k-1={k - 1} "
            f"(the longest has {lengths.max()} nt)"
        )
    too_short = np.flatnonzero(lengths < k - 1).tolist()
    if too_short:
        shown = ", ".join(reads[i] for i in too_short[:5]) + ("..." if len(too_short) > 5 else "")
        logger.warning("skipping %d read(s) shorter than k-1=%d: %s",
                       len(too_short), k - 1, shown)
    # a read of k-1 symbols is a vertex; reads shorter than k add no k-mer
    starts = reads.offsets[:-1][lengths == k - 1]
    isolated = window_packs(reads.codes[starts[:, None] + np.arange(k - 1)], k - 1)
    graph = DeBruijnGraph._from_packed(k, spectrum_of_set(reads, k).keys, isolated.ravel())
    lone = np.count_nonzero((graph.in_degrees == 0) & (graph.out_degrees == 0))
    if lone:
        logger.info("graph has %d isolated vertex/vertices from (k-1)-length reads", lone)
    return graph


@dataclass(frozen=True)
class Walk:
    """A sequence of edges in which each edge leaves the vertex the
    previous one enters."""

    graph: DeBruijnGraph
    edges: tuple[str, ...]

    def __post_init__(self):
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        k = self.graph.k
        # an edge of another length, or holding a symbol outside ACGT, is not in the graph
        lengths = read_lengths(edges)
        present = lengths == k
        bad = np.flatnonzero(symbol_codes("".join(edges)) == 255)
        present[np.searchsorted(np.cumsum(lengths), bad, side="right")] = False
        codes = np.zeros(len(edges), dtype=np.uint64)
        codes[present] = encode_kmers(list(compress(edges, present)), k)
        present[present] = in_sorted(self.graph.packed_edges, codes[present])
        if not present.all():
            raise ValueError(f"edge {edges[np.argmin(present)]!r} is not in the graph")
        chained = (codes[:-1] & ((1 << (2 * (k - 1))) - 1)) == (codes[1:] >> 2)
        if not chained.all():
            i = int(np.argmin(chained))
            raise ValueError(f"edges {edges[i]!r} and {edges[i + 1]!r} do not chain")

    def __len__(self) -> int:
        return len(self.edges)


def spell(walk: Walk) -> str:
    """The string a walk spells: the first k-mer, then one symbol per edge."""
    if not walk.edges:
        raise ValueError("cannot spell an empty walk")
    return walk.edges[0] + "".join(e[-1] for e in walk.edges[1:])


def _first_missing(text: str, graph: DeBruijnGraph) -> int:
    """Start of the leftmost k-window of ``text`` that is not an edge, or
    -1. A window holding a symbol outside ACGT never is one, so only the
    windows before the first such symbol are looked up."""
    k = graph.k
    if len(text) < k:
        raise ValueError(f"text of length {len(text)} is shorter than k={k}")
    stop = first_invalid(text)
    windows = window_packs(joined_codes([text[:stop] if stop >= 0 else text]), k)
    # past the last window looked up, the next holds the symbol outside ACGT
    missing = np.flatnonzero(np.append(~in_sorted(graph.packed_edges, windows), stop >= 0))
    return int(missing[0]) if missing.size else -1


def walk_of(text: str, graph: DeBruijnGraph) -> Optional[Walk]:
    """The unique walk spelling ``text``, or None if some k-mer of ``text``
    is not an edge (see :func:`first_missing_kmer` for the witness)."""
    if _first_missing(text, graph) >= 0:
        return None
    return Walk(graph, tuple([text[i:i + graph.k] for i in range(len(text) - graph.k + 1)]))


def first_missing_kmer(text: str, graph: DeBruijnGraph) -> Optional[tuple[str, int]]:
    """Leftmost k-mer of ``text`` absent from the graph, with its position."""
    at = _first_missing(text, graph)
    return None if at < 0 else (text[at:at + graph.k], at)


def is_edge_covering(walk: Walk) -> bool:
    """True iff the walk's distinct edges are exactly the graph's edge set."""
    return set(walk.edges) == set(walk.graph.edge_kmers)


# ---------------------------------------------------------------------------
# Shortest edge-covering walk (open Chinese-Postman variant)
# ---------------------------------------------------------------------------


def _euler_path(graph: DeBruijnGraph, start: int, dups: Iterable[tuple[int, int]],
                parents: dict[int, np.ndarray]) -> list[int]:
    """Lexicographically smallest Euler walk, as a vertex-index path, from
    ``start`` over every edge plus, per duplication pair (d, s), the path to
    s in d's BFS tree (``parents[d]``): Hierholzer's algorithm leaving by
    the smallest unused successor copy, with the post-order reversed."""
    offsets, targets = graph._offsets.tolist(), graph._heads.tolist()
    heaps = [targets[a:b] for a, b in zip(offsets, offsets[1:])]  # sorted, so heaps
    copies = graph.num_edges
    for d, w in dups:
        while w != d:
            u = int(parents[d][w])
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
        name = decode_kmer(int(graph.packed_vertices[start]), graph.k - 1)
        raise NoCoveringWalkError(
            f"the Euler walk from {name!r} used {len(post) - 1} of {copies} edge copies"
        )
    return post[::-1]


def _vertex_path_to_walk(graph: DeBruijnGraph, path: list[int]) -> Walk:
    vertices = graph.packed_vertices[path]
    edges = (vertices[:-1] << 2) | (vertices[1:] & 3)
    return Walk(graph, tuple(decode_kmers(edges, graph.k)))


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # imported on the first call: scipy.optimize is most of the cost of importing the CLI
    from scipy.optimize import linear_sum_assignment as solve
    return solve(cost)


def _assign(cost: np.ndarray) -> Optional[tuple[int, np.ndarray, np.ndarray]]:
    """Min-cost perfect matching on ``cost`` as (total, rows, cols), or None
    when no matching avoids every ``_NO_PATH`` pair."""
    if not cost.size:  # a per-end solve with one unit a side: nothing to pair
        none = np.empty(0, dtype=np.intp)
        return 0, none, none
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    return None if total >= _NO_PATH else (total, rows, cols)


def _open_walk_matrix(paths: np.ndarray, surpluses: np.ndarray,
                      start: Optional[int] = None) -> np.ndarray:
    """The open-walk duplication problem as one square assignment: a dummy
    start row (the last) takes the surplus unit the walk leaves first, one
    of ``start``'s when given, and a dummy end column (the last) the
    deficit unit it ends at. Dummy-to-dummy (a closed walk) is forbidden,
    since dropping any matched pair of a closed option gives a cheaper
    open one."""
    n = len(surpluses)
    cost = np.full((n + 1, n + 1), _NO_PATH, dtype=np.int64)
    cost[:n, :n] = paths
    cost[n, :n] = 0 if start is None else np.where(surpluses == start, 0, _NO_PATH)
    cost[:n, n] = 0
    return cost


def _dummy_row_costs(cost: np.ndarray, match: np.ndarray, total: int) -> np.ndarray:
    """For every column j, the least total of a perfect matching on the
    square ``cost`` that pairs its last (dummy) row with j, priced from one
    optimal matching M (row i to column ``match[i]``, of cost ``total``).

    Forcing (n, j) changes M along one alternating cycle n -> j -> M^-1(j)
    -> ... -> M(n) -> n of the residual graph, whose row -> column arcs
    cost ``cost[i, j]`` and whose column -> row arcs, back along M, cost
    ``-cost[M^-1(j), j]``. M is optimal, so that graph has no negative cycle
    and Bellman-Ford rounds over dense rows find the shortest path from
    every row to M(n) within n rounds. ``_NO_PATH`` entries are plain large
    costs here, as in the assignment itself, so a forced total of at least
    ``_NO_PATH`` means no matching avoids them."""
    n = len(cost)
    owner = np.empty(n, dtype=np.intp)
    owner[match] = np.arange(n)
    held = cost[owner, np.arange(n)]  # the cost of each column's pair in M
    target = match[-1]
    to = cost[:, target]  # from each row to M(n): the direct arc first
    for _ in range(n):
        via = to[owner] - held  # from each column, back along M, then on
        via[target] = 0
        shorter = (cost + via).min(axis=1)
        if np.array_equal(shorter, to):
            break
        to = shorter
    return total - cost[-1, target] - held + cost[-1] + to[owner]


def _forced_costs(cost: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
    """The least total of a perfect matching on the square ``cost`` and, for
    each column but the last, the least total of one that pairs the last
    (dummy) row with it, all from one assignment; None when no matching
    avoids every ``_NO_PATH`` pair.

    On an open-walk matrix the columns are the surplus units, so these are
    the costs of every forced start. On its transpose they are the deficit
    units, whose pairing with the dummy end column forces the walk's end.
    Forced costs are optimal values, so any optimal matching prices them."""
    solved = _assign(cost)
    if solved is None:
        return None
    best, _, match = solved
    return best, _dummy_row_costs(cost, match, best)[:-1]


def _tree_depths(trees: np.ndarray, roots: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The depth of every target in every root's BFS tree (``trees[t]`` is
    the predecessor array of ``roots[t]``'s tree, negative where unreached),
    or ``_NO_PATH``. All pairs climb toward their roots together, one parent
    step per round; a pair drops out on reaching its root or leaving the
    tree, so the rounds are the greatest depth."""
    flat = trees.ravel()
    row, at = (a.ravel() for a in np.indices((len(roots), len(targets))))
    goal, base, at = roots[row], row * trees.shape[1], targets[at]
    depths = np.full(at.size, _NO_PATH, dtype=np.int64)
    pending = np.arange(at.size)
    step = 0
    while pending.size:
        home = at == goal
        depths[pending[home]] = step
        climb = np.flatnonzero(~home & (at >= 0))
        pending, goal, base = pending[climb], goal[climb], base[climb]
        at = flat[base + at[climb]]
        step += 1
    return depths.reshape(len(roots), len(targets))


def _duplication_plan(graph: DeBruijnGraph):
    """Imbalance units, the BFS parents of each deficit vertex, the
    path-cost matrix and the smallest optimal start of a weakly connected
    graph.

    Units are vertex indices, one per missing out-edge (deficit) or in-edge
    (surplus), in ascending order. Entry (i, j) of the matrix is the length
    of the duplication path from deficit unit i to surplus unit j, or
    ``_NO_PATH``: the depth of j's vertex in the ``breadth_first_order``
    tree of i's, climbed from the surplus vertices all at once. One
    assignment on the matrix, with a dummy start row and a dummy end
    column, gives the optimal cost, and its residual graph prices every
    forced start; every optimum spells its start vertex first, so the
    smallest optimal one is kept. Raises :class:`NoCoveringWalkError` when
    no covering walk exists: in O(V) for two or more sources or sinks (a
    covering walk starts at every source and ends at every sink), otherwise
    when no finite-cost assignment exists. A balanced graph returns no
    units and no start.
    """
    for kind, ends in (("sources", graph.sources()), ("sinks", graph.sinks())):
        if len(ends) > 1:
            shown = ", ".join(ends[:5]) + ("..." if len(ends) > 5 else "")
            raise NoCoveringWalkError(
                f"graph has {len(ends)} {kind} ({shown}); a covering walk "
                "has one start and one end"
            )
    balance = graph.out_degrees - graph.in_degrees
    index = np.arange(len(balance))
    deficits = np.repeat(index, np.maximum(-balance, 0))
    surpluses = np.repeat(index, np.maximum(balance, 0))
    if not deficits.size:
        return deficits, surpluses, {}, None, None
    from scipy.sparse.csgraph import breadth_first_order

    tails, rows = np.unique(deficits, return_inverse=True)
    heads, firsts, cols = np.unique(surpluses, return_index=True, return_inverse=True)
    # breadth_first_order scans each row's successors in ascending order, so
    # every parent is the smallest first-discovered one; other shortest-path
    # parents would change walks
    trees = np.stack([breadth_first_order(graph.adjacency, d, return_predecessors=True)[1]
                      for d in tails.tolist()])
    paths = _tree_depths(trees, tails, heads)[rows[:, None], cols]
    priced = _forced_costs(_open_walk_matrix(paths, surpluses))
    if priced is None:
        raise NoCoveringWalkError(
            "the graph is connected but its imbalance pattern admits no "
            "edge-covering walk (a required duplication path is missing)"
        )
    best, costs = priced
    # the columns of one vertex are equal, so its first one prices it
    start = int(heads[np.flatnonzero(costs[firsts] == best)[0]])
    return deficits, surpluses, dict(zip(tails.tolist(), trees)), paths, start


def covering_walk_feasibility(graph: DeBruijnGraph) -> tuple[bool, str]:
    """Whether a single edge-covering walk exists, with a reason when not."""
    if graph.num_edges == 0:
        return False, "graph has no edges"
    components = len(graph.components())
    if components > 1:
        return False, f"{components} weakly-connected components"
    try:
        deficits = _duplication_plan(graph)[0]
    except NoCoveringWalkError as err:
        return False, str(err)
    if not deficits.size:
        return True, "balanced (closed walk exists)"
    return True, "imbalances repairable by edge duplication"


def shortest_edge_covering_walk(graph: DeBruijnGraph) -> Walk:
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
    components = graph.components()
    if len(components) > 1:
        raise DisconnectedGraphError(components)

    deficits, surpluses, parents, paths, start = _duplication_plan(graph)
    if not deficits.size:
        # a closed walk spells its start first: the smallest vertex wins
        start = int(np.flatnonzero(graph.out_degrees)[0])
        return _vertex_path_to_walk(graph, _euler_path(graph, start, [], {}))

    best, costs = _forced_costs(_open_walk_matrix(paths, surpluses, start).T)
    # an end's solve pairs the units left once one unit of start and one
    # of end are taken: the matrix without that column and that row
    col = int(np.searchsorted(surpluses, start))
    rest_s, rest_paths = np.delete(surpluses, col), np.delete(paths, col, axis=1)
    firsts = np.unique(deficits, return_index=True)[1]
    candidates = []
    for row in firsts[costs[firsts] == best].tolist():
        _, rows, cols = _assign(np.delete(rest_paths, row, axis=0))
        pairs = zip(np.delete(deficits, row)[rows].tolist(), rest_s[cols].tolist())
        candidates.append(_euler_path(graph, start, pairs, parents))
    # equal-length vertex paths from one start order as their spellings do
    return _vertex_path_to_walk(graph, min(candidates))


# ---------------------------------------------------------------------------
# Independent subset-state oracle
# ---------------------------------------------------------------------------


def oracle_shortest_edge_covering_walk(graph: DeBruijnGraph, mode: str = "one"):
    """Exhaustive breadth-first search over (vertex, covered-edge-subset)
    states, started from every vertex.

    ``mode='one'`` returns a minimum-length covering :class:`Walk`;
    ``mode='count_all'`` returns ``(optimal_length, number_of_optima)``
    where optima are counted as distinct edge sequences.
    """
    if mode not in ("one", "count_all"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    n_edges = graph.num_edges
    if n_edges == 0:
        raise ValueError("graph has no edges; nothing to cover")
    if n_edges > ORACLE_EDGE_LIMIT:
        raise ResourceLimitError(
            f"oracle handles at most {ORACLE_EDGE_LIMIT} edges, got {n_edges}",
            limit=ORACLE_EDGE_LIMIT,
        )
    edge_index = {e: i for i, e in enumerate(graph.edge_kmers)}
    verts = [v for v in graph.vertices
             if graph.out_degree(v) > 0 or graph.in_degree(v) > 0]
    v_index = {v: i for i, v in enumerate(verts)}
    adj: list[list[tuple[int, int]]] = [[] for _ in verts]
    for e in graph.edge_kmers:
        adj[v_index[e[:-1]]].append((edge_index[e], v_index[e[1:]]))
    full = (1 << n_edges) - 1
    span = full + 1

    dist: dict[int, int] = {}
    ways: dict[int, int] = {}
    parent: dict[int, tuple[int, int]] = {}
    queue: deque[int] = deque()
    for vi in range(len(verts)):
        state = vi * span
        dist[state] = 0
        ways[state] = 1
        queue.append(state)

    found: Optional[int] = None
    finals: list[int] = []
    while queue:
        state = queue.popleft()
        d = dist[state]
        if found is not None and d >= found:
            break
        vi, mask = divmod(state, span)
        for ei, wi in adj[vi]:
            nmask = mask | (1 << ei)
            nstate = wi * span + nmask
            nd = d + 1
            known = dist.get(nstate)
            if known is None:
                dist[nstate] = nd
                ways[nstate] = ways[state]
                parent[nstate] = (state, ei)
                if nmask == full:
                    if found is None:
                        found = nd
                        if mode == "one":
                            queue.clear()
                            finals.append(nstate)
                            break
                    finals.append(nstate)
                else:
                    queue.append(nstate)
            elif known == nd:
                ways[nstate] += ways[state]
        if mode == "one" and found is not None:
            break

    if found is None:
        raise NoCoveringWalkError("no edge-covering walk exists in this graph")
    if mode == "count_all":
        return found, sum(ways[s] for s in finals)
    state = finals[0]
    rev: list[str] = []
    while state in parent:
        prev, ei = parent[state]
        rev.append(graph.edge_kmers[ei])
        state = prev
    return Walk(graph, tuple(reversed(rev)))


# ---------------------------------------------------------------------------
# Bubble-graph generator
# ---------------------------------------------------------------------------


def make_bubble_graph(n: int, connector_len: int = 1,
                      labeled_paths: bool = False) -> DeBruijnGraph:
    """A synthetic graph with ``n`` two-branch bubbles in a row, a source
    path in, a sink path out, and a back connector that forces every bubble
    to be traversed twice, so a shortest covering walk has exactly ``2**n``
    optimal variants (one top/bottom order choice per bubble).

    ``connector_len`` sets the edge length of the inter-bubble connectors.
    ``labeled_paths=True`` gives both bubble branches interior vertices, so
    every branch owns a maximal unitig (the roomier textbook drawing);
    the default compact shape keeps small instances within the oracle's
    edge budget.
    """
    graph, _ = make_bubble_graph_with_names(n, connector_len, labeled_paths)
    return graph


def make_bubble_graph_with_names(
    n: int, connector_len: int = 1, labeled_paths: bool = False,
) -> tuple[DeBruijnGraph, dict[str, str]]:
    """Like :func:`make_bubble_graph` but also returns the mapping from
    structural vertex names to their (k-1)-mer labels.

    Names: ``a0`` source, ``j<i>``/``jx<i>`` bubble entries/exits, ``x<i>``
    (or ``top<i>``/``bot<i>a``/``bot<i>b``) branch interiors, ``c<i>_<j>``
    connector interiors, ``h0`` sink.
    """
    if n < 1:
        raise ValueError(f"need at least one bubble, got {n}")
    if connector_len < 1:
        raise ValueError(f"connector_len must be >= 1, got {connector_len}")
    vertices: list[str] = ["a0"]
    edges: list[tuple[str, str]] = []

    def add(u: str, w: str) -> None:
        if w not in vertices:
            vertices.append(w)
        edges.append((u, w))

    prev = "a0"
    for i in range(n):
        entry, exit_ = f"j{i}", f"jx{i}"
        add(prev, entry)
        if labeled_paths:
            add(entry, f"top{i}")
            add(f"top{i}", exit_)
            add(entry, f"bot{i}a")
            add(f"bot{i}a", f"bot{i}b")
            add(f"bot{i}b", exit_)
        else:
            add(entry, exit_)                       # top branch, one edge
            add(entry, f"x{i}")                     # bottom branch, two edges
            add(f"x{i}", exit_)
        if i < n - 1:
            node = exit_
            for j in range(1, connector_len):
                add(node, f"c{i}_{j}")
                node = f"c{i}_{j}"
            prev = node
        else:
            add(exit_, "j0")                        # back connector
            add(exit_, "h0")                        # sink path

    labels = _embed_de_bruijn_labels(vertices, edges)
    kmers = [labels[u] + labels[w][-1] for u, w in edges]
    graph = DeBruijnGraph(len(labels[vertices[0]]) + 1, kmers)
    assert graph.num_edges == len(edges), "bubble construction collided k-mers"
    assert len(graph.packed_vertices) == len(vertices), "bubble construction merged vertices"
    assert len(graph.components()) == 1
    return graph, labels


def _embed_de_bruijn_labels(vertices: list[str], edges: list[tuple[str, str]]) -> dict[str, str]:
    """Assign (k-1)-mer labels so that every designed edge satisfies the
    de Bruijn overlap rule, by backtracking over the alphabet.

    Labels must be injective; an edge u->w forces label(w) to extend
    label(u) by one symbol. The smallest workable k is used.
    """
    out: dict[str, list[str]] = {}
    inn: dict[str, list[str]] = {}
    for u, w in edges:
        out.setdefault(u, []).append(w)
        inn.setdefault(w, []).append(u)

    # assignment order: breadth-first over the undirected shape
    order: list[str] = []
    seen = {vertices[0]}
    queue = deque([vertices[0]])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in out.get(v, []) + inn.get(v, []):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(order) != len(vertices):
        raise ValueError("bubble topology must be connected")

    for k in range(3, _EMBED_MAX_K + 1):
        result = _try_embed(order, out, inn, k - 1)
        if result is not None:
            return result
    raise ValueError(f"could not embed bubble topology with k <= {_EMBED_MAX_K}")


def _try_embed(order: list[str], out: dict[str, list[str]],
               inn: dict[str, list[str]], width: int) -> Optional[dict[str, str]]:
    labels: dict[str, str] = {}
    used: set[str] = set()

    def candidates(v: str) -> list[str]:
        opts: Optional[set[str]] = None
        for u in inn.get(v, []):
            if u in labels:
                cur = {labels[u][1:] + c for c in ALPHABET}
                opts = cur if opts is None else opts & cur
        for w in out.get(v, []):
            if w in labels:
                cur = {c + labels[w][:-1] for c in ALPHABET}
                opts = cur if opts is None else opts & cur
        if opts is None:
            # unconstrained root: a deterministic sweep of all labels
            return [decode_kmer(i, width) for i in range(4 ** width)]
        return sorted(opts)

    def assign(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        for label in candidates(v):
            if label in used:
                continue
            labels[v] = label
            used.add(label)
            if assign(pos + 1):
                return True
            del labels[v]
            used.remove(label)
        return False

    return labels if assign(0) else None


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_PALETTE = (
    "lightblue", "lightsalmon", "palegreen", "plum", "khaki",
    "lightpink", "aquamarine", "wheat", "lightgray", "orange",
)


_DOT_BATCH = 1 << 14  # DOT and edge-list lines laid out per write: bounds the buffer
_PLAIN_TAIL = b"];\n"
_FILL_TAILS = (_PLAIN_TAIL,
               *(b' style=filled fillcolor="%s"];\n' % c.encode("ascii") for c in _PALETTE))
_WALK_TAILS = (_PLAIN_TAIL, b' color="red" penwidth=2.0];\n')


def export_dot(graph: DeBruijnGraph, handle: TextIO, highlight=None) -> None:
    """Write deterministic DOT text for the graph to an open text handle.

    ``highlight`` may be a :class:`Walk` (its edges are drawn bold red) or
    spelled sequences, a :class:`ReadSet` store or any iterable of strings
    (made into one), each of whose (k-1)-windows that is a vertex is filled
    with the sequence's own color; a vertex named by several sequences
    takes the last one's. Unitig contigs thus color exactly as the vertex
    groups of the partition they were spelled from.
    Lines are spelled from the packed vertices and edges, ``_DOT_BATCH`` at
    a time; no vertex name is decoded.
    """
    k = graph.k
    fill = np.zeros(len(graph.packed_vertices), dtype=np.intp)  # index into _FILL_TAILS
    bold = np.zeros(graph.num_edges, dtype=np.intp)  # index into _WALK_TAILS
    if isinstance(highlight, Walk):
        if highlight.graph.k == k:  # a walk of another order has none of these edges
            at = key_indices(graph.packed_edges, encode_kmers(highlight.edges, k))
            bold[at[at >= 0]] = 1
    elif highlight is not None:
        store = highlight if isinstance(highlight, ReadSet) else ReadSet(highlight)
        windows = window_packs(store.codes, k - 1)
        # the sequence of every symbol: a window lies in one sequence when
        # its first and last symbols do
        owner = np.repeat(np.arange(len(store)), store.lengths)
        group = owner[:len(windows)]
        at = key_indices(graph.packed_vertices, windows)
        named = (group == owner[k - 2:]) & (at >= 0)
        # groups rise along the windows: the largest naming a vertex is the last
        last = np.full(len(fill), -1)
        np.maximum.at(last, at[named], group[named])
        fill[last >= 0] = 1 + last[last >= 0] % len(_PALETTE)
    handle.write("digraph debruijn {\n")
    write_kmer_lines(handle, graph.packed_vertices, k - 1,
                     (b'    "', (0, k - 1), b'" [label="', (0, k - 1), b'"'), _FILL_TAILS,
                     fill, _DOT_BATCH)
    write_kmer_lines(handle, graph.packed_edges, k,
                     (b'    "', (0, k - 1), b'" -> "', (1, k), b'" [label="', (0, k), b'"'),
                     _WALK_TAILS, bold, _DOT_BATCH)
    handle.write("}\n")
