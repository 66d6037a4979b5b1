import io
import logging
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from asmlab import graph as dbg
from asmlab.errors import (
    AssemblyError,
    DisconnectedGraphError,
    NoCoveringWalkError,
    ResourceLimitError,
)
from asmlab.sequence import ReadSet
from asmlab.simulate import (
    SimulationProfile,
    idealized_reads,
    random_genome,
    uniform_reads,
)
from asmlab.unitig import maximal_unitigs, unitig_contigs
from helpers import (
    _string_bfs_tree,
    all_optimal_covering_spellings,
    reference_export_dot,
    reference_shortest_edge_covering_walk,
    string_shortest_edge_covering_walk,
    sweep_end_costs,
    sweep_start_costs,
)

PROPERTY = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

genomes = st.text(alphabet="ACGT", min_size=4, max_size=24)


def graph_of(text: str, k: int = 3) -> dbg.DeBruijnGraph:
    return dbg.build(ReadSet(tuple(idealized_reads(text, k))), k)


class TestBuild:
    def test_running_example_shape(self, fig_graph):
        assert fig_graph.num_edges == 12
        assert fig_graph.vertices == (
            "AA", "AG", "AT", "CA", "CC", "CT", "GA", "GC", "GT", "TC", "TG", "TT",
        )

    def test_single_kmer(self):
        g = dbg.build(ReadSet.of("ACGT"), 4)
        assert g.edge_kmers == ("ACGT",)
        assert g.vertices == ("ACG", "CGT")

    def test_two_read_path(self):
        g = dbg.build(ReadSet.of("ACG", "CGT"), 3)
        assert g.edge_kmers == ("ACG", "CGT")
        assert g.vertices == ("AC", "CG", "GT")

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            dbg.build(ReadSet.of("ACGT"), 1)

    def test_empty_read_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            dbg.build(ReadSet(()), 3)

    def test_build_is_deterministic(self, fig_reads):
        assert dbg.build(fig_reads, 3) == dbg.build(fig_reads, 3)

    def test_short_reads_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="asmlab.graph"):
            g = dbg.build(ReadSet.of("ACGT", "A"), 3)
        assert g.num_edges == 2
        assert any("shorter than k-1" in rec.message for rec in caplog.records)

    def test_only_reads_shorter_than_k_minus_one_is_assembly_error(self):
        with pytest.raises(AssemblyError, match=r"k-1=4 \(the longest has 3 nt\)"):
            dbg.build(ReadSet.of("AC", "ACG", ""), 5)

    def test_short_read_warning_names_the_first_five(self, caplog):
        reads = ReadSet.of("A", "ACGT", "C", "GT", "", "G", "T", "AA", "CCC")
        with caplog.at_level(logging.WARNING, logger="asmlab.graph"):
            g = dbg.build(reads, 4)
        assert [rec.getMessage() for rec in caplog.records] == [
            "skipping 7 read(s) shorter than k-1=3: A, C, GT, , G..."]
        assert g.edge_kmers == ("ACGT",) and g.isolated_vertices() == ["CCC"]

    def test_k_minus_one_reads_become_isolated_vertices(self):
        g = dbg.build(ReadSet.of("ACGT", "TT"), 3)
        assert g.isolated_vertices() == ["TT"]

    def test_a_connected_graph_is_its_own_component(self, fig_graph):
        assert fig_graph.components()[0] is fig_graph
        with_isolated = dbg.DeBruijnGraph(3, fig_graph.edge_kmers, ["CG"])
        (part,) = with_isolated.components()
        assert part is not with_isolated and part == fig_graph


class TestSpellAndWalkOf:
    def test_single_edge(self):
        g = dbg.build(ReadSet.of("ACGT"), 4)
        assert dbg.spell(dbg.Walk(g, ("ACGT",))) == "ACGT"

    def test_pair(self):
        g = dbg.build(ReadSet.of("ACG", "CGT"), 3)
        assert dbg.spell(dbg.Walk(g, ("ACG", "CGT"))) == "ACGT"

    def test_running_example_walk(self, g_true, fig_graph):
        walk = dbg.walk_of(g_true, fig_graph)
        assert len(walk.edges) == 17
        assert dbg.spell(walk) == g_true
        assert dbg.is_edge_covering(walk)

    @pytest.mark.parametrize("text,witness", [
        ("AATTCCAGCTGATAGT", "ATA"),   # unsupported junction over TA
        ("AATTCCAGCTGATGAGT", "ATG"),
    ])
    def test_unsupported_strings_have_no_walk(self, fig_graph, text, witness):
        assert dbg.walk_of(text, fig_graph) is None
        kmer, pos = dbg.first_missing_kmer(text, fig_graph)
        assert kmer == witness
        assert text[pos:pos + 3] == witness

    def test_text_shorter_than_k_rejected(self, fig_graph):
        with pytest.raises(ValueError):
            dbg.walk_of("AT", fig_graph)

    def test_broken_chain_rejected(self, fig_graph):
        with pytest.raises(ValueError, match="chain"):
            dbg.Walk(fig_graph, ("AAT", "TTC"))

    @pytest.mark.parametrize("edge", ["AAA", "AT", "AATT", "ANT", "ATN", ""])
    def test_edge_outside_the_graph_rejected(self, fig_graph, edge):
        with pytest.raises(ValueError, match=f"^edge '{edge}' is not in the graph$"):
            dbg.Walk(fig_graph, ("AAT", edge, "ATT"))

    def test_missing_edge_reported_before_a_broken_chain(self, fig_graph):
        # every edge is looked up before any pair is chained
        with pytest.raises(ValueError, match="^edge 'AAA' is not in the graph$"):
            dbg.Walk(fig_graph, ("AAT", "TTC", "AAA", "GGG"))
        with pytest.raises(ValueError, match="^edges 'ATT' and 'CCA' do not chain$"):
            dbg.Walk(fig_graph, ("AAT", "ATT", "CCA", "TTC"))

    def test_empty_walk_accepted(self, fig_graph):
        assert len(dbg.Walk(fig_graph, ())) == 0

    @pytest.mark.parametrize("text,witness", [
        ("AATNCC", ("ATN", 1)),
        ("NATTCC", ("NAT", 0)),
        ("AATTCN", ("TCN", 3)),
        ("AATAAN", ("ATA", 1)),  # a missing k-mer before the N comes first
    ])
    def test_text_holding_n_has_no_walk(self, fig_graph, text, witness):
        assert dbg.walk_of(text, fig_graph) is None
        assert dbg.first_missing_kmer(text, fig_graph) == witness

    def test_packed_checks_match_has_edge_lookups(self):
        """``Walk`` and the window test against one ``has_edge`` lookup per
        edge and per window, the checks they replaced."""
        rng = random.Random(7)
        for _ in range(400):
            k = rng.randint(2, 6)
            genome = "".join(rng.choice("ACGT") for _ in range(rng.randint(k, 40)))
            g = dbg.build(ReadSet.of(genome), k)
            noise = [rng.choice(g.edge_kmers) for _ in range(4)] + [
                "".join(rng.choice("ACGT") for _ in range(k)), "A" * (k - 1),
                "A" * (k + 1), "N" + genome[1:k], genome[:k - 1] + "é"]
            edges = tuple(rng.choice(noise) for _ in range(rng.randint(0, 5)))
            missing = [e for e in edges if not g.has_edge(e)]
            broken = [(a, b) for a, b in zip(edges, edges[1:]) if a[1:] != b[:-1]]
            if missing:
                expected = f"edge {missing[0]!r} is not in the graph"
            elif broken:
                expected = "edges {!r} and {!r} do not chain".format(*broken[0])
            else:
                expected = None
            try:
                dbg.Walk(g, edges)
                message = None
            except ValueError as err:
                message = str(err)
            assert message == expected
            text = list(genome)
            text[rng.randrange(len(text))] = rng.choice("ACGTN")
            text = "".join(text)
            windows = [(text[i:i + k], i) for i in range(len(text) - k + 1)]
            first = next((w for w in windows if not g.has_edge(w[0])), None)
            assert dbg.first_missing_kmer(text, g) == first
            assert (dbg.walk_of(text, g) is None) == (first is not None)

    @PROPERTY
    @given(genomes)
    def test_walk_of_inverts_spell(self, text):
        g = graph_of(text)
        walk = dbg.walk_of(text, g)
        assert dbg.spell(walk) == text
        assert dbg.walk_of(dbg.spell(walk), g).edges == walk.edges

    @PROPERTY
    @given(genomes)
    def test_spelled_length_law(self, text):
        g = graph_of(text)
        walk = dbg.walk_of(text, g)
        assert len(dbg.spell(walk)) == g.k + len(walk.edges) - 1

    @PROPERTY
    @given(genomes)
    def test_walk_spectrum_is_its_edge_set(self, text):
        g = graph_of(text)
        walk = dbg.walk_of(text, g)
        from asmlab.sequence import spectrum

        assert set(spectrum(dbg.spell(walk), g.k).strings()) == set(walk.edges)

    def test_equal_walks_on_equal_graphs_are_one_set_member(self):
        walks = {dbg.Walk(dbg.DeBruijnGraph(3, edges), ("ACG", "CGT"))
                 for edges in (["ACG", "CGT"], ["CGT", "ACG", "CGT"])}
        assert len(walks) == 1


class TestIsEdgeCovering:
    def test_full_walk_covers(self, g_true, fig_graph):
        assert dbg.is_edge_covering(dbg.walk_of(g_true, fig_graph))

    def test_single_edge_does_not_cover_larger_graph(self, fig_graph):
        assert not dbg.is_edge_covering(dbg.Walk(fig_graph, ("AAT",)))

    def test_single_edge_graph(self):
        g = dbg.build(ReadSet.of("ACGT"), 4)
        assert dbg.is_edge_covering(dbg.Walk(g, ("ACGT",)))


class TestShortestCoveringWalk:
    def test_running_example_recovers_genome(self, g_true, fig_graph):
        walk = dbg.shortest_edge_covering_walk(fig_graph)
        assert len(walk.edges) == 17
        assert dbg.spell(walk) == g_true
        assert dbg.is_edge_covering(walk)

    def test_path_graph(self):
        g = dbg.build(ReadSet.of("ACG", "CGT"), 3)
        assert dbg.spell(dbg.shortest_edge_covering_walk(g)) == "ACGT"

    def test_balanced_cycle_lexicographic_rotation(self):
        g = dbg.DeBruijnGraph(3, ["ACG", "CGT", "GTA", "TAC"])
        assert dbg.spell(dbg.shortest_edge_covering_walk(g)) == "ACGTAC"

    def test_disconnected_raises_with_components(self):
        g = dbg.DeBruijnGraph(3, ["ACG", "TTG"])
        with pytest.raises(DisconnectedGraphError) as err:
            dbg.shortest_edge_covering_walk(g)
        spelled = sorted(
            dbg.spell(dbg.shortest_edge_covering_walk(c)) for c in err.value.components
        )
        assert spelled == ["ACG", "TTG"]

    def test_connected_but_uncoverable(self):
        g = dbg.DeBruijnGraph(3, ["AAT", "AAC"])
        with pytest.raises(NoCoveringWalkError):
            dbg.shortest_edge_covering_walk(g)

    def test_empty_graph_rejected(self):
        g = dbg.DeBruijnGraph(3, [], isolated_vertices=["AC"])
        with pytest.raises(ValueError, match="no edges"):
            dbg.shortest_edge_covering_walk(g)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(4242)
        done = 0
        while done < 25:
            g = random_genome(rng.randint(6, 14), seed=rng.randrange(2**63))
            graph = graph_of(str(g))
            if graph.num_edges > 14:
                continue
            done += 1
            walk = dbg.shortest_edge_covering_walk(graph)
            assert dbg.is_edge_covering(walk)
            length, _ = dbg.oracle_shortest_edge_covering_walk(graph, mode="count_all")
            assert len(walk.edges) == length

    def test_lexicographically_smallest_among_optima(self):
        rng = random.Random(777)
        done = 0
        while done < 15:
            g = random_genome(rng.randint(6, 11), seed=rng.randrange(2**63))
            graph = graph_of(str(g))
            if graph.num_edges > 10:
                continue
            done += 1
            opt_len, _ = dbg.oracle_shortest_edge_covering_walk(graph, mode="count_all")
            spellings = all_optimal_covering_spellings(graph, opt_len)
            assert dbg.spell(dbg.shortest_edge_covering_walk(graph)) == spellings[0]


def _kmer_set(text: str, k: int) -> set[str]:
    return {text[i:i + k] for i in range(len(text) - k + 1)}


def _differential_graphs(rng: random.Random):
    """Connected graphs in three shapes: circular genomes (balanced unless a
    k-mer repeats), two-letter low-complexity repeats, and random subsets of
    a genome's k-mers (many imbalances, often no covering walk)."""
    while True:
        k = rng.randint(3, 6)
        shape = rng.randrange(3)
        if shape == 0:
            text = str(random_genome(rng.randint(k, 40), seed=rng.randrange(2**63)))
            edges = _kmer_set(text + text[:k - 1], k)
        elif shape == 1:
            pair = rng.sample("ACGT", 2)
            edges = _kmer_set("".join(rng.choice(pair) for _ in range(rng.randint(k, 40))), k)
        else:
            text = str(random_genome(rng.randint(2 * k, 60), seed=rng.randrange(2**63)))
            edges = {e for e in _kmer_set(text, k) if rng.random() < 0.7}
        graph = dbg.DeBruijnGraph(k, edges)
        if graph.num_edges and len(graph.weakly_connected_components()) == 1:
            yield graph


def _outcome(solver, graph) -> str:
    try:
        return dbg.spell(solver(graph))
    except AssemblyError as err:
        return type(err).__name__


class TestSolverMatchesReference:
    def test_same_walk_or_error_on_3000_graphs(self):
        graphs = _differential_graphs(random.Random(2024))
        closed = failed = 0
        mismatches = []
        for _ in range(3000):
            graph = next(graphs)
            want = _outcome(reference_shortest_edge_covering_walk, graph)
            got = _outcome(dbg.shortest_edge_covering_walk, graph)
            if got != want:
                mismatches.append((graph.k, graph.edge_kmers, want, got))
            closed += not any(graph.out_degree(v) != graph.in_degree(v)
                              for v in graph.vertices)
            failed += want == "NoCoveringWalkError"
            assert dbg.covering_walk_feasibility(graph)[0] == (want != "NoCoveringWalkError")
        assert mismatches == []
        assert closed >= 300 and failed >= 100    # the mix reaches every branch

    def test_same_walk_as_string_solver_on_kilobase_genomes(self):
        # circular genomes far beyond the reference solver's reach, and the
        # benchmark's dense genome under symbol relabelings and reversal
        rng = random.Random(505)
        texts = [(k, str(random_genome(rng.randint(1000, 2000), seed=rng.randrange(2**32))))
                 for k in (5, 6) for _ in range(5)]
        base = str(random_genome(2000, seed=11))
        for perm, reverse in (("ACGT", False), ("TGCA", False), ("GATC", True), ("CTAG", True)):
            text = base.translate(str.maketrans("ACGT", perm))
            texts.append((5, text[::-1] if reverse else text))
        for k, text in texts:
            graph = dbg.DeBruijnGraph(k, _kmer_set(text + text[:k - 1], k))
            units = sum(max(o - i, 0) for o, i in zip(graph.out_degrees, graph.in_degrees))
            assert units >= 24, (k, len(text))
            assert (_outcome(dbg.shortest_edge_covering_walk, graph)
                    == _outcome(string_shortest_edge_covering_walk, graph)), (k, len(text))


def _kilobase_circles() -> list[dbg.DeBruijnGraph]:
    """The kilobase genomes of TestSolverMatchesReference and a 5 kb one, as
    circular graphs."""
    rng = random.Random(505)
    texts = [(k, str(random_genome(rng.randint(1000, 2000), seed=rng.randrange(2**32))))
             for k in (5, 6) for _ in range(5)]
    base = str(random_genome(2000, seed=11))
    for perm, reverse in (("ACGT", False), ("TGCA", False), ("GATC", True), ("CTAG", True)):
        text = base.translate(str.maketrans("ACGT", perm))
        texts.append((5, text[::-1] if reverse else text))
    texts.append((6, str(random_genome(5000, seed=11))))
    return [dbg.DeBruijnGraph(k, _kmer_set(text + text[:k - 1], k)) for k, text in texts]


class TestCsgraphBfsMatchesStringTree:
    def test_parents_and_depths_match_string_bfs_on_kilobase_genomes(self):
        for graph in _kilobase_circles():
            names = graph.vertices
            deficits, surpluses, parents, paths, _ = dbg._duplication_plan(graph)
            assert sorted(parents) == np.unique(deficits).tolist()
            depths = shortest_path(graph.adjacency, unweighted=True, indices=list(parents))
            trees = {}
            for (d, parent), depth in zip(parents.items(), depths):
                trees[d] = _string_bfs_tree(graph, names[d])
                reached = np.flatnonzero(np.isfinite(depth))
                assert np.array_equal(np.flatnonzero(parent >= 0), reached[reached != d])
                got = {names[v]: (int(depth[v]), None if v == d else names[parent[v]])
                       for v in reached.tolist()}
                assert got == trees[d], (graph.k, graph.num_edges, names[d])
            want = [[trees[d].get(names[s], (dbg._NO_PATH,))[0] for s in surpluses.tolist()]
                    for d in deficits.tolist()]
            assert np.array_equal(paths, want), (graph.k, graph.num_edges)


def _per_vertex(units: np.ndarray, costs: np.ndarray) -> dict:
    """Vertex -> forced cost, None when no matching avoids ``_NO_PATH``;
    every unit of one vertex must have the same cost."""
    pairs = set(zip(units.tolist(),
                    (None if c >= dbg._NO_PATH else c for c in costs.tolist())))
    per = dict(pairs)
    assert len(per) == len(pairs)
    return per


class TestForcedCostsMatchSweep:
    """The residual-graph prices of every start and every end equal one
    assignment per start and one per end, the solves they replaced."""

    def assert_priced(self, paths, deficits, surpluses, every_start=True):
        starts = sweep_start_costs(paths, surpluses)
        priced = dbg._forced_costs(dbg._open_walk_matrix(paths, surpluses))
        if priced is None:
            assert set(starts.values()) == {None}
            return None
        best, costs = priced
        assert _per_vertex(surpluses, costs) == starts
        assert best == min(c for c in starts.values() if c is not None)
        optimal = min(s for s, c in starts.items() if c == best)
        for start, cost in starts.items():
            if not every_start and start != optimal:
                continue
            ends = sweep_end_costs(paths, deficits, surpluses, start)
            if cost is None:  # no walk leaves an infeasible start
                assert set(ends.values()) == {None}
                continue
            total, end_costs = dbg._forced_costs(
                dbg._open_walk_matrix(paths, surpluses, start).T)
            assert total == cost
            assert _per_vertex(deficits, end_costs) == ends
        return optimal

    def test_every_start_and_end_on_3000_graphs(self):
        graphs = _differential_graphs(random.Random(2024))
        priced = 0
        for _ in range(3000):
            graph = next(graphs)
            try:
                deficits, surpluses, _, paths, start = dbg._duplication_plan(graph)
            except NoCoveringWalkError:
                continue
            if deficits.size:
                assert self.assert_priced(paths, deficits, surpluses) == start
                priced += 1
        assert priced >= 1000

    def test_random_matrices_with_holes(self):
        rng = np.random.default_rng(77)
        infeasible = 0
        for n in [1, 1, 2, 2, 2, 2] * 20 + list(rng.integers(3, 9, size=400)):
            paths = rng.integers(0, rng.choice([2, 4, 9]), size=(n, n))
            paths[rng.random((n, n)) < rng.choice([0.0, 0.3, 0.6, 0.9])] = dbg._NO_PATH
            units = np.arange(n)
            infeasible += self.assert_priced(paths, units, units) is None
        # a 1 x 1 matrix always has a walk: its one surplus starts, its one deficit ends
        assert self.assert_priced(np.array([[dbg._NO_PATH]]), np.arange(1), np.arange(1)) == 0
        assert infeasible >= 20

    def test_kilobase_genomes(self):
        for graph in _kilobase_circles():
            deficits, surpluses, _, paths, start = dbg._duplication_plan(graph)
            assert self.assert_priced(paths, deficits, surpluses, every_start=False) == start


class TestFailFastAndAssignments:
    @pytest.fixture
    def assignments(self, monkeypatch):
        calls = []
        real = dbg.linear_sum_assignment

        def counted(cost):
            calls.append(cost.shape)
            return real(cost)

        monkeypatch.setattr(dbg, "linear_sum_assignment", counted)
        return calls

    def test_two_sources_fail_before_any_assignment(self, assignments):
        g = dbg.DeBruijnGraph(3, ["AAC", "GAC"])
        with pytest.raises(NoCoveringWalkError, match="2 sources.*AA, GA"):
            dbg.shortest_edge_covering_walk(g)
        assert dbg.covering_walk_feasibility(g)[0] is False
        assert assignments == []

    def test_two_sinks_fail_before_any_assignment(self, assignments):
        with pytest.raises(NoCoveringWalkError, match="2 sinks.*AC, AT"):
            dbg.shortest_edge_covering_walk(dbg.DeBruijnGraph(3, ["AAT", "AAC"]))
        assert assignments == []

    def test_cycles_feeding_a_cycle_have_no_walk(self):
        # ACA/CAC and GTG/TGT both drain into the CCC loop: no source, no
        # sink, and nothing leads back out of CC
        g = dbg.DeBruijnGraph(3, ["ACA", "CAC", "GTG", "TGT",
                                  "ACC", "GTC", "TCC", "CCC"])
        assert not g.sources() and not g.sinks()
        with pytest.raises(NoCoveringWalkError):
            dbg.shortest_edge_covering_walk(g)
        assert dbg.covering_walk_feasibility(g)[0] is False

    # 2 + the number of optimal ends: one assignment prices every start, one
    # every end from the smallest optimal start, and each optimal end is
    # solved once more to realize its walk
    @pytest.mark.parametrize("length, k, shape, optimum, solves", [
        (2000, 5, (881, 56, 59), 1005, 7),        # the reference solver's optimum
        (5000, 6, (2872, 247, 244), 3450, 3),     # the string solver's optimum
        (10000, 7, (7511, 691, 677), 9227, 3),
    ], ids=["2kb-k5", "5kb-k6", "10kb-k7"])
    def test_dense_circular_genome_needs_few_assignments(self, assignments, length, k,
                                                         shape, optimum, solves):
        genome = str(random_genome(length, seed=11))
        g = dbg.DeBruijnGraph(k, _kmer_set(genome + genome[:k - 1], k))
        surplus = [v for v in g.vertices if g.out_degree(v) > g.in_degree(v)]
        deficit = [v for v in g.vertices if g.out_degree(v) < g.in_degree(v)]
        assert (g.num_edges, len(surplus), len(deficit)) == shape
        walk = dbg.shortest_edge_covering_walk(g)
        assert dbg.is_edge_covering(walk)
        assert len(walk.edges) == optimum
        assert len(assignments) == solves


class TestOracle:
    def test_running_example_unique_optimum(self, g_true, fig_graph):
        assert dbg.oracle_shortest_edge_covering_walk(fig_graph, mode="count_all") == (17, 1)
        walk = dbg.oracle_shortest_edge_covering_walk(fig_graph, mode="one")
        assert dbg.spell(walk) == g_true

    def test_single_edge(self):
        g = dbg.build(ReadSet.of("ACGT"), 4)
        walk = dbg.oracle_shortest_edge_covering_walk(g, mode="one")
        assert len(walk.edges) == 1

    def test_edge_limit(self):
        g = graph_of(str(random_genome(40, seed=5)))
        assert g.num_edges > 16
        with pytest.raises(ResourceLimitError):
            dbg.oracle_shortest_edge_covering_walk(g)

    def test_bad_mode(self, fig_graph):
        with pytest.raises(ValueError):
            dbg.oracle_shortest_edge_covering_walk(fig_graph, mode="all")


class TestBubbleGraph:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 8)])
    def test_optimum_count_is_two_to_the_n(self, n, expected):
        g = dbg.make_bubble_graph(n)
        _, count = dbg.oracle_shortest_edge_covering_walk(g, mode="count_all")
        assert count == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dbg.make_bubble_graph(0)

    def test_connector_length_configurable(self):
        short = dbg.make_bubble_graph(2, connector_len=1)
        long_ = dbg.make_bubble_graph(2, connector_len=3)
        assert long_.num_edges == short.num_edges + 2

    def test_compact_shape_fits_oracle_budget(self):
        assert dbg.make_bubble_graph(3).num_edges <= 16

    def test_deterministic(self):
        assert dbg.make_bubble_graph(2) == dbg.make_bubble_graph(2)

    def test_solver_agrees_with_oracle(self):
        for n, connector_len in ((1, 1), (2, 1), (3, 1), (2, 2), (2, 3)):
            g = dbg.make_bubble_graph(n, connector_len=connector_len)
            walk = dbg.shortest_edge_covering_walk(g)
            length, _ = dbg.oracle_shortest_edge_covering_walk(g, mode="count_all")
            assert len(walk.edges) == length
            assert dbg.is_edge_covering(walk)

    def test_longer_connectors_keep_the_count_law(self):
        g = dbg.make_bubble_graph(2, connector_len=3)
        _, count = dbg.oracle_shortest_edge_covering_walk(g, mode="count_all")
        assert count == 4


def dot_text(graph, highlight=None) -> str:
    handle = io.StringIO()
    dbg.export_dot(graph, handle, highlight)
    return handle.getvalue()


class TestExportDot:
    def test_node_and_edge_counts(self, fig_graph):
        text = dot_text(fig_graph)
        assert text.count("->") == 12
        assert sum(1 for ln in text.splitlines() if "label" in ln and "->" not in ln) == 12

    def test_empty_graph(self):
        g = dbg.DeBruijnGraph(3, [])
        text = dot_text(g)
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_walk_highlight(self, g_true, fig_graph):
        walk = dbg.walk_of(g_true, fig_graph)
        text = dot_text(fig_graph, highlight=walk)
        assert 'color="red"' in text

    def test_partition_highlight(self, fig_graph):
        from asmlab.unitig import maximal_unitigs

        partition = maximal_unitigs(fig_graph)
        text = dot_text(fig_graph, highlight=partition.spellings)
        assert "fillcolor" in text
        # vertices of one unitig share a color
        trunk_lines = [ln for ln in text.splitlines()
                       if any(f'"{v}"' in ln for v in ("AT", "TT", "TC"))
                       and "->" not in ln]
        colors = {ln.split('fillcolor=')[1] for ln in trunk_lines}
        assert len(colors) == 1

    def test_deterministic(self, fig_graph):
        assert dot_text(fig_graph) == dot_text(fig_graph)


def reference_dot_text(graph, highlight=None) -> str:
    handle = io.StringIO()
    reference_export_dot(graph, handle, highlight)
    return handle.getvalue()


def error_graph(genome_length: int, k: int, seed: int) -> dbg.DeBruijnGraph:
    """A graph of reads with substitution errors: many short unitigs."""
    genome = random_genome(genome_length, seed=seed)
    profile = SimulationProfile(genome_length=genome_length, num_reads=genome_length // 5,
                                read_length=30, error_rate=0.02, seed=seed + 1)
    return dbg.build(uniform_reads(genome, profile), k)


class TestExportDotMatchesReference:
    """The DOT laid out from the packed arrays is byte for byte the DOT of
    the frozen line-by-line writer."""

    def assert_same(self, graph, highlight=None):
        assert dot_text(graph, highlight) == reference_dot_text(graph, highlight)

    def assert_sequences_same(self, graph, texts):
        # a sequence colors as the group of its (k-1)-windows
        k = graph.k
        groups = [[t[j:j + k - 1] for j in range(len(t) - k + 2)] for t in texts]
        assert dot_text(graph, texts) == reference_dot_text(graph, groups)

    def assert_unitig_contigs_same(self, graph):
        # unitig contigs color as the named unitigs of their partition
        assert (dot_text(graph, unitig_contigs(graph).sequences)
                == reference_dot_text(graph, maximal_unitigs(graph).unitigs))

    def test_running_example_in_every_mode(self, g_true, fig_graph):
        self.assert_same(fig_graph)
        self.assert_same(fig_graph, dbg.walk_of(g_true, fig_graph))
        self.assert_unitig_contigs_same(fig_graph)

    def test_empty_graph(self):
        self.assert_same(dbg.DeBruijnGraph(3, []))
        self.assert_sequences_same(dbg.DeBruijnGraph(3, []), ["AC", "ACG"])

    def test_isolated_vertices(self):
        graph = dbg.DeBruijnGraph(4, ["ACGT", "CGTA"], isolated_vertices=["TTT", "AAA"])
        assert graph.isolated_vertices() == ["AAA", "TTT"]
        self.assert_same(graph)
        self.assert_unitig_contigs_same(graph)

    @pytest.mark.parametrize("k", [2, 31])
    def test_smallest_and_largest_order(self, k):
        genome = random_genome(300, seed=k)
        graph = dbg.build(idealized_reads(genome, 40), k)
        self.assert_same(graph)
        self.assert_unitig_contigs_same(graph)
        walk = dbg.walk_of(genome[:60], graph)
        self.assert_same(graph, walk)

    def test_walk_of_another_graph(self, g_true, fig_graph):
        # edges the exported graph lacks, or of another order, are not drawn
        other = dbg.build(ReadSet.of("AATTCCAGCTGATTCCAGTA"), 3)
        self.assert_same(fig_graph, dbg.walk_of("AGTA", other))
        self.assert_same(fig_graph, dbg.walk_of("AATTCC", dbg.build(ReadSet.of(g_true), 4)))

    def test_palette_wraps_and_the_last_group_wins(self):
        graph = error_graph(600, 9, seed=3)
        partition = maximal_unitigs(graph)
        unitigs = partition.unitigs
        assert len(unitigs) > 2 * len(dbg._PALETTE)
        # vertices named again by later sequences, and sequences too short
        # to name a vertex or naming none
        texts = [*partition.spellings, unitigs[0][0], unitigs[5][-1] + "A",
                 "ACGT", "", "ACGTACGTACGTACGT"]
        self.assert_sequences_same(graph, texts)
        assert dot_text(graph, texts).count("fillcolor") == len(graph.packed_vertices)
        self.assert_unitig_contigs_same(graph)

    @PROPERTY
    @given(genomes, st.integers(min_value=2, max_value=5), st.data())
    def test_contigs_color_as_groups_of_their_windows(self, genome, k, data):
        # slices of the genome share vertices (a later contig's color wins);
        # free text mostly names no vertex
        graph = dbg.build(ReadSet.of(genome), k)
        slices = st.integers(0, len(genome) - k + 1).flatmap(
            lambda s: st.integers(s + k - 1, len(genome)).map(lambda e: genome[s:e]))
        free = st.text(alphabet="ACGT", min_size=k - 1, max_size=10)
        texts = data.draw(st.lists(st.one_of(slices, free), max_size=12))
        self.assert_sequences_same(graph, texts)

    def test_more_lines_than_one_batch(self):
        genome = random_genome(dbg._DOT_BATCH + 2000, seed=8)
        graph = dbg.build(idealized_reads(genome, 40), 15)
        assert len(graph.packed_vertices) > dbg._DOT_BATCH
        self.assert_same(graph)
        self.assert_sequences_same(graph, maximal_unitigs(graph).spellings[::3])

    def test_batch_boundaries_inside_highlights(self, monkeypatch):
        graph = error_graph(300, 7, seed=4)
        monkeypatch.setattr(dbg, "_DOT_BATCH", 7)
        self.assert_unitig_contigs_same(graph)
        walk = dbg.walk_of(maximal_unitigs(graph).spellings[-1], graph)
        self.assert_same(graph, walk)

    @pytest.mark.parametrize("k", range(2, 32))
    def test_every_order(self, k):
        # vertex and edge widths under one byte, at a byte boundary and past it
        genome = random_genome(120, seed=100 + k)
        graph = dbg.build(idealized_reads(genome, 40), k)
        self.assert_same(graph)
        self.assert_unitig_contigs_same(graph)
        self.assert_same(graph, dbg.walk_of(genome[10:50], graph))

    def test_one_fill_for_every_vertex(self, monkeypatch):
        # one sequence names every vertex: each batch has one tail, not the plain one
        genome = random_genome(200, seed=21)
        graph = dbg.build(ReadSet.of(genome), 9)
        monkeypatch.setattr(dbg, "_DOT_BATCH", 64)
        self.assert_sequences_same(graph, [genome])
        assert dot_text(graph, [genome]).count("fillcolor") == len(graph.packed_vertices)

    @pytest.mark.parametrize("filled", [0, 1], ids=["plain-then-filled", "filled-then-plain"])
    def test_kinds_change_at_a_batch_boundary(self, monkeypatch, filled):
        batch = 8
        graph = error_graph(300, 7, seed=4)
        names = graph.vertices
        assert len(names) > 3 * batch
        # each name is its own sequence; nine empty ones after it keep every
        # named vertex on the palette's first colour
        texts = [text for name in names[filled * batch:(filled + 1) * batch]
                 for text in (name, *[""] * (len(dbg._PALETTE) - 1))]
        monkeypatch.setattr(dbg, "_DOT_BATCH", batch)
        self.assert_sequences_same(graph, texts)
        lines = dot_text(graph, texts).splitlines()[1:len(names) + 1]
        assert ["fillcolor" in line for line in lines] == [
            filled * batch <= i < (filled + 1) * batch for i in range(len(names))]

    @PROPERTY
    @given(genomes, st.integers(min_value=2, max_value=5), st.data())
    def test_random_graphs_and_groups(self, genome, k, data):
        graph = dbg.build(ReadSet.of(genome), k)
        # vertex names laid end to end: each names itself and the windows
        # across its joins
        names = st.lists(st.sampled_from(list(graph.vertices)), max_size=4).map("".join)
        texts = data.draw(st.lists(names, max_size=14))
        self.assert_same(graph)
        self.assert_sequences_same(graph, texts)
