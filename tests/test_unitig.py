import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmlab import graph as dbg
from asmlab import unitig
from asmlab.errors import AssemblyError
from asmlab.sequence import DnaString, ReadSet
from asmlab.simulate import idealized_reads, random_genome
from asmlab.unitig import (
    ContigSet,
    check_safety_preconditions,
    is_safe_bounded,
    maximal_unitigs,
    safety_suite,
    unitig_contigs,
)
from helpers import chain_walk_maximal_unitigs, reference_chain_layout, reference_chain_spellings


def graph_of(text: str, k: int = 3) -> dbg.DeBruijnGraph:
    return dbg.build(ReadSet(tuple(idealized_reads(text, k))), k)


class TestMaximalUnitigs:
    def test_running_example_partition(self, fig_graph):
        partition = maximal_unitigs(fig_graph)
        assert set(partition.unitigs) == {
            ("AT", "TT", "TC", "CC", "CA", "AG"),
            ("AA",),
            ("GT",),
            ("GC", "CT", "TG", "GA"),
        }

    def test_partition_covers_every_vertex_once(self):
        rng = random.Random(11)
        for _ in range(50):
            g = graph_of(str(random_genome(rng.randint(5, 30), seed=rng.randrange(2**63))))
            partition = maximal_unitigs(g)
            flattened = [v for path in partition.unitigs for v in path]
            assert sorted(flattened) == list(g.vertices)
            assert maximal_unitigs(g).unitigs == partition.unitigs  # unique

    def test_single_isolated_vertex(self):
        g = dbg.build(ReadSet.of("AC"), 3)
        assert maximal_unitigs(g).unitigs == (("AC",),)

    def test_pure_cycle_is_one_unitig(self):
        g = dbg.DeBruijnGraph(3, ["ACG", "CGT", "GTA", "TAC"])
        partition = maximal_unitigs(g)
        assert len(partition.unitigs) == 1
        assert len(partition.unitigs[0]) == 4

    def test_labeled_bubble_graph_paths(self):
        g = dbg.make_bubble_graph(3, labeled_paths=True)
        # source, entry junction, per bubble: top + bottom interior paths,
        # the two inter-bubble connectors, last exit, sink
        assert len(maximal_unitigs(g).unitigs) == 3 * 3 + 3


def random_links(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A link array of n vertices cut into random chains and pure cycles
    (self-loops among them), and its starts: the vertices no link enters."""
    order = rng.permutation(n)
    link = np.full(n, -1, dtype=np.intp)
    at = 0
    while at < n:
        size = int(rng.choice([1, 1, 2, 3, int(rng.integers(1, n + 1))]))
        piece = order[at:at + size]
        link[piece[:-1]] = piece[1:]
        if rng.random() < 0.3:
            link[piece[-1]] = piece[0]
        at += size
    starts = np.ones(n, dtype=bool)
    starts[link[link >= 0]] = False
    return link, starts


def chains_of(link: np.ndarray, starts: np.ndarray) -> list[list[int]]:
    """The chains that ``_chain_ranks`` lays out, as vertex lists by first vertex."""
    head, rank = unitig._chain_ranks(link, starts)
    chains: dict[int, list[tuple[int, int]]] = {}
    for v, (h, r) in enumerate(zip(head.tolist(), rank.tolist())):
        chains.setdefault(h, []).append((r, v))
    return [[v for _, v in sorted(chains[h])] for h in sorted(chains)]


class TestChainRanksMatchDepthFirstLayout:
    """List ranking against the frozen depth-first layout (tests/helpers.py)."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 32])
    def test_random_links(self, monkeypatch, stride):
        monkeypatch.setattr(unitig, "_RULER_STRIDE", stride)
        rng = np.random.default_rng(stride)
        for _ in range(400):
            link, starts = random_links(rng, int(rng.integers(0, 120)))
            paths, sizes = reference_chain_layout(link, starts)
            expected = [c.tolist() for c in np.split(paths, np.cumsum(sizes)[:-1])] if len(sizes) else []
            assert chains_of(link, starts) == expected

    @pytest.mark.parametrize("link, chains", [
        ([], []),
        ([-1], [[0]]),
        ([0], [[0]]),                                       # a self-loop
        ([1, 2, 0], [[0, 1, 2]]),
        ([2, 0, 1], [[0, 2, 1]]),
        ([-1] * 5, [[0], [1], [2], [3], [4]]),              # every vertex a root
        ([3, 4, -1, 0, 2], [[0, 3], [1, 4, 2]]),            # a 2-cycle beside a chain
    ])
    def test_small_cases(self, link, chains):
        link = np.array(link, dtype=np.intp)
        starts = np.ones(len(link), dtype=bool)
        starts[link[link >= 0]] = False
        assert chains_of(link, starts) == chains

    @pytest.mark.parametrize("stride", [1, 3, 32])
    def test_one_long_chain_and_one_long_cycle(self, monkeypatch, stride):
        monkeypatch.setattr(unitig, "_RULER_STRIDE", stride)
        order = np.random.default_rng(7).permutation(5000)
        link = np.full(5000, -1, dtype=np.intp)
        link[order[:2999]] = order[1:3000]                 # a chain of 3000
        link[order[3000:]] = np.roll(order[3000:], -1)     # a cycle of 2000
        starts = np.ones(5000, dtype=bool)
        starts[link[link >= 0]] = False
        cycle = np.roll(order[3000:], -int(np.argmin(order[3000:])))
        assert sorted(chains_of(link, starts)) == sorted([order[:3000].tolist(), cycle.tolist()])

    def test_spellings_match_on_random_graphs(self):
        rng = random.Random(5)
        alphabet = "ACGT"
        for _ in range(150):
            k = rng.randint(2, 5)
            edges = {"".join(rng.choice(alphabet) for _ in range(k))
                     for _ in range(rng.randint(0, 4 ** k // 2))}
            g = dbg.DeBruijnGraph(k, sorted(edges))
            assert tuple(maximal_unitigs(g).sequences) == reference_chain_spellings(g)

    def test_spellings_match_on_circular_and_linear_genomes(self):
        for length, k, seed in ((200, 6, 1), (400, 9, 2), (1000, 15, 3), (3000, 5, 4)):
            genome = str(random_genome(length, seed=seed))
            for text in (genome, genome + genome[:k - 1]):
                g = graph_of(text, k)
                assert tuple(maximal_unitigs(g).sequences) == reference_chain_spellings(g)


class TestUnitigContigs:
    def test_running_example_spellings(self, fig_graph):
        contigs = unitig_contigs(fig_graph)
        assert list(contigs) == ["AA", "ATTCCAG", "GCTGA", "GT"]
        assert contigs.source == "unitig"

    def test_single_edge_graph(self):
        g = dbg.build(ReadSet.of("ACGT"), 4)
        assert list(unitig_contigs(g)) == ["ACGT"]

    def test_simple_path_spells_whole_string(self):
        g = graph_of("ACGTCA")
        contigs = unitig_contigs(g)
        assert list(contigs) == ["ACGTCA"]

    def test_contig_set_is_one_store(self):
        contigs = ContigSet(3, ReadSet.of("ACGT", "AC", "GGA"), ("a", "b", "c"), "file")
        assert len(contigs) == 3 and contigs.names == ("a", "b", "c")
        assert list(contigs) == ["ACGT", "AC", "GGA"] and contigs[-1] == "GGA"
        assert all(type(s) is DnaString for s in (*contigs, contigs[1]))
        assert contigs.sequences.lengths.tolist() == [4, 2, 3]
        with pytest.raises(ValueError, match="2 names for 3 contigs"):
            ContigSet(3, contigs.sequences, ("a", "b"), "file")

    def test_contig_shorter_than_k_minus_one_is_data_error(self):
        with pytest.raises(AssemblyError, match=r"contig b has 1 nt, shorter than k-1=2"):
            ContigSet(3, ReadSet.of("ACGT", "A", "G"), ("a", "b", "c"), "file")

    def test_labeled_bubble_count(self):
        g = dbg.make_bubble_graph(3, labeled_paths=True)
        assert len(unitig_contigs(g)) == 12


class TestPreconditions:
    def test_running_example_satisfies(self, fig_graph):
        report = check_safety_preconditions(fig_graph)
        assert report.sources == ("AA",)
        assert report.sinks == ("GT",)
        assert report.covering_walk_exists
        assert report.satisfied

    def test_cycle_has_no_source_or_sink(self):
        g = dbg.DeBruijnGraph(3, ["ACG", "CGT", "GTA", "TAC"])
        report = check_safety_preconditions(g)
        assert not report.sources and not report.sinks
        assert report.covering_walk_exists
        assert not report.satisfied

    def test_graph_without_edges_fails(self):
        report = check_safety_preconditions(dbg.DeBruijnGraph(3, [], ["AC"]))
        assert report.detail == "graph has no edges"
        assert not report.sources and not report.sinks and not report.satisfied

    def test_disjoint_edges_fail(self):
        g = dbg.DeBruijnGraph(3, ["ACG", "TTG"])
        report = check_safety_preconditions(g)
        assert not report.covering_walk_exists
        assert not report.satisfied


class TestIsSafeBounded:
    def test_single_edge_always_safe(self, fig_graph):
        verdict = is_safe_bounded(fig_graph, dbg.Walk(fig_graph, ("AAT",)))
        assert verdict.status == "safe"

    def test_nonisolated_vertex_safe(self, fig_graph):
        assert is_safe_bounded(fig_graph, "AA").status == "safe"

    def test_isolated_vertex_unsafe(self):
        g = dbg.build(ReadSet.of("ACGT", "TT"), 3)
        assert is_safe_bounded(g, "TT").status == "unsafe"

    def test_string_that_is_no_vertex_rejected(self, fig_graph):
        for text in ("GG", "AAT", "aa"):
            with pytest.raises(ValueError, match=f"vertex '{text}' is not in the graph"):
                is_safe_bounded(fig_graph, text)

    def test_connector_then_top_branch_is_safe_nonunitig(self):
        # every covering walk re-enters the second bubble straight after the
        # connector at least once, so connector+branch is safe yet not a unitig
        g, names = dbg.make_bubble_graph_with_names(2)
        edge = lambda u, w: names[u] + names[w][-1]
        candidate = dbg.Walk(g, (edge("jx0", "j1"), edge("j1", "jx1")))
        assert is_safe_bounded(g, candidate).status == "safe"

    def test_branch_connector_branch_is_unsafe(self):
        # a covering walk can pair the top of bubble 2 with the bottom of
        # bubble 3 on each pass, avoiding the top-top combination entirely
        g, names = dbg.make_bubble_graph_with_names(3)
        edge = lambda u, w: names[u] + names[w][-1]
        candidate = dbg.Walk(g, (edge("j1", "jx1"), edge("jx1", "j2"), edge("j2", "jx2")))
        verdict = is_safe_bounded(g, candidate)
        assert verdict.status == "unsafe"
        witness = verdict.witness
        assert dbg.is_edge_covering(witness)
        assert all(witness.edges[i:i + 3] != candidate.edges
                   for i in range(len(witness.edges) - 2))

    def test_textbook_alternating_walk_is_a_witness(self):
        # the alternating traversal (bottom/top/bottom then top/bottom/top)
        # covers everything without ever pairing top-connector-top
        g, names = dbg.make_bubble_graph_with_names(3)
        edge = lambda u, w: names[u] + names[w][-1]
        hops = [("a0", "j0"), ("j0", "x0"), ("x0", "jx0"), ("jx0", "j1"),
                ("j1", "jx1"), ("jx1", "j2"), ("j2", "x2"), ("x2", "jx2"),
                ("jx2", "j0"), ("j0", "jx0"), ("jx0", "j1"), ("j1", "x1"),
                ("x1", "jx1"), ("jx1", "j2"), ("j2", "jx2"), ("jx2", "h0")]
        walk = dbg.Walk(g, tuple(edge(u, w) for u, w in hops))
        assert dbg.is_edge_covering(walk)
        optimum, _ = dbg.oracle_shortest_edge_covering_walk(g, mode="count_all")
        assert len(walk.edges) == optimum
        candidate = (edge("j1", "jx1"), edge("jx1", "j2"), edge("j2", "jx2"))
        assert all(walk.edges[i:i + 3] != candidate
                   for i in range(len(walk.edges) - 2))

    def test_candidate_with_a_border_is_unsafe(self):
        # AC, CA, AC, CG repeats its first edge, so the matcher falls back
        # along its failure chain; CA, AC, CG covers every edge without it
        g = dbg.DeBruijnGraph(2, ["AC", "CA", "CG"])
        verdict = is_safe_bounded(g, dbg.Walk(g, ("AC", "CA", "AC", "CG")))
        assert verdict.status == "unsafe"
        assert verdict.witness.edges == ("CA", "AC", "CG")
        assert dbg.is_edge_covering(verdict.witness)

    def test_past_the_state_budget_is_unknown(self, fig_graph, monkeypatch):
        monkeypatch.setattr(unitig, "_STATE_BUDGET", 1)
        verdict = is_safe_bounded(fig_graph, dbg.Walk(fig_graph, ("AAT", "ATT")))
        assert verdict.status == "unknown" and verdict.witness is None
        # the two vertex unitigs are still decided; the two walks are not
        report = safety_suite(fig_graph, unitig_contigs(fig_graph))
        assert [r.verdict for r in report.rows] == ["safe", "unknown", "unknown", "safe"]
        assert report.unknown_count == 2 and not report.bug_flags

    def test_long_nonunitig_contig_on_running_example(self, fig_graph):
        # trunk, repeat loop, trunk again: safe but spans several unitigs
        verts = ["AA", "AT", "TT", "TC", "CC", "CA", "AG", "GC", "CT", "TG",
                 "GA", "AT", "TT", "TC", "CC", "CA", "AG"]
        walk = dbg.Walk(fig_graph,
                        tuple(u + w[-1] for u, w in zip(verts, verts[1:])))
        verdict = is_safe_bounded(fig_graph, walk)
        assert verdict.status == "safe"
        assert dbg.spell(walk) == "AATTCCAGCTGATTCCAG"


class TestSafetySuite:
    def test_running_example_all_safe(self, fig_graph):
        report = safety_suite(fig_graph, unitig_contigs(fig_graph))
        assert report.applicable
        assert [r.verdict for r in report.rows] == ["safe"] * 4
        assert not report.bug_flags
        assert report.unknown_count == 0

    def test_bubble_graph_unitigs_safe(self):
        g = dbg.make_bubble_graph(2)
        report = safety_suite(g, unitig_contigs(g))
        assert report.applicable
        assert all(r.verdict == "safe" for r in report.rows)

    def test_precondition_failure_marks_not_applicable(self):
        g = dbg.DeBruijnGraph(3, ["ACG", "CGT", "GTA", "TAC"])
        report = safety_suite(g, unitig_contigs(g))
        assert not report.applicable
        assert report.rows == ()

    def test_candidates_come_from_the_sequence(self):
        # a (k-1)-length contig is judged as a vertex, or unsafe when it is
        # none; a longer one as the walk it spells, or unsafe when it has none
        g = dbg.DeBruijnGraph(3, ["ACG", "CGT"])
        texts = ["AC", "TT", "ACGT", "ACGA"]
        contigs = ContigSet(3, ReadSet(texts), tuple(f"c{i}" for i in range(len(texts))),
                            "file")
        report = safety_suite(g, contigs)
        assert report.applicable
        assert [r.verdict for r in report.rows] == ["safe", "unsafe", "safe", "unsafe"]
        assert not report.bug_flags

    def test_tsv_rendering(self, fig_graph):
        report = safety_suite(fig_graph, unitig_contigs(fig_graph))
        lines = report.to_tsv().strip().splitlines()
        assert lines[0] == "contig\tverdict\twitness_length"
        assert len(lines) == 5

    def test_generated_graphs_certify_unitig_safety(self):
        rng = random.Random(606)
        evaluated = 0
        attempts = 0
        while evaluated < 15 and attempts < 200:
            attempts += 1
            g = graph_of(str(random_genome(rng.randint(6, 12), seed=rng.randrange(2**63))))
            if g.num_edges == 0 or g.num_edges > 12:
                continue
            if not check_safety_preconditions(g).satisfied:
                continue
            evaluated += 1
            report = safety_suite(g, unitig_contigs(g))
            assert not report.bug_flags
            assert report.unknown_count == 0
        assert evaluated >= 15


def _cycle_kmers(text: str, k: int) -> list[str]:
    circular = (text * k)[:len(text) + k - 1]
    return [circular[i:i + k] for i in range(len(text))]


@st.composite
def unitig_graphs(draw):
    """Graphs with several pure cycles, self-loops, isolated vertices,
    random extra edges, or no edges at all."""
    k = draw(st.integers(min_value=3, max_value=6))
    edges: list[str] = []
    for text in draw(st.lists(st.text(alphabet="ACGT", min_size=1, max_size=9), max_size=4)):
        edges += _cycle_kmers(text, k)  # a pure cycle unless it meets other edges
    edges += draw(st.lists(st.text(alphabet="ACGT", min_size=k, max_size=k), max_size=12))
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from("ACGT")) * k)  # a self-loop
    isolated = draw(st.lists(st.text(alphabet="ACGT", min_size=k - 1, max_size=k - 1),
                             max_size=3))
    return dbg.DeBruijnGraph(k, edges, isolated)


class TestUnitigsMatchChainWalk:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(unitig_graphs())
    def test_same_unitigs_and_spellings(self, g):
        unitigs, spellings = chain_walk_maximal_unitigs(g)
        partition = maximal_unitigs(g)
        assert partition.spellings == spellings
        assert partition.unitigs == unitigs
        assert partition == maximal_unitigs(g)

    @pytest.mark.parametrize("g", [
        dbg.DeBruijnGraph(3, []),
        dbg.DeBruijnGraph(3, [], ["GT", "AC"]),
        dbg.DeBruijnGraph(3, ["AAA"]),
        dbg.DeBruijnGraph(3, ["AAA", "CCC", "ACG", "CGT", "GTA", "TAC"], ["GG"]),
    ], ids=["empty", "edgeless", "self-loop", "cycles"])
    def test_corner_graphs(self, g):
        unitigs, spellings = chain_walk_maximal_unitigs(g)
        partition = maximal_unitigs(g)
        assert (partition.unitigs, partition.spellings) == (unitigs, spellings)

    def test_many_unitigs_take_linear_time(self):
        # random 21-mers share almost no 20-mer, so nearly every edge is a
        # unitig of its own; a search that rescans one row per unitig would
        # make about 2 * 10^10 steps here
        rng = random.Random(5)
        g = dbg.DeBruijnGraph(21, {"".join(rng.choices("ACGT", k=21)) for _ in range(200_000)})
        start = time.perf_counter()
        partition = maximal_unitigs(g)
        elapsed = time.perf_counter() - start
        assert len(partition.spellings) > 198_000
        assert partition.spellings == chain_walk_maximal_unitigs(g)[1]
        assert elapsed < 5.0
