"""Differential tests: the packed k-mer layer (counting, graph, unitigs)
against the frozen string-keyed implementations in ``helpers``."""

import random

import pytest

from asmlab import graph as dbg
from asmlab import sequence
from asmlab.errors import AssemblyError
from asmlab.sequence import DnaString, ReadSet, spectrum_of_set
from asmlab.simulate import SimulationProfile, idealized_reads, random_genome, uniform_reads
from asmlab.unitig import maximal_unitigs
from helpers import (
    ReferenceDeBruijnGraph,
    reference_build,
    reference_maximal_unitigs,
    reference_spectrum_counts,
)

SYMBOLS = "ACGT"


def _genome(rng: random.Random) -> str:
    length = rng.randint(1, 90)
    kind = rng.random()
    if kind < 0.3:  # two letters: many repeated k-mers and branching vertices
        letters = rng.sample(SYMBOLS, 2)
        return "".join(rng.choice(letters) for _ in range(length))
    if kind < 0.5:  # a short unit repeated with a few substitutions
        unit = "".join(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 7)))
        text = list((unit * length)[:length])
        for _ in range(rng.randint(0, 3)):
            text[rng.randrange(length)] = rng.choice(SYMBOLS)
        return "".join(text)
    return "".join(rng.choice(SYMBOLS) for _ in range(length))


def _read_set(seed: int) -> tuple[ReadSet, int]:
    """Seeded reads of lengths 0-60 from a small genome, at k in 2..31, with
    reads shorter than k, (k-1)-length reads, and every sixth set the
    windows of a circular genome (a graph made of cycles only)."""
    rng = random.Random(seed)
    k = rng.randint(2, 31)
    genome = _genome(rng)
    if seed % 6 == 0:
        circular = genome + genome[:k - 1]
        reads = [circular[i:i + k] for i in range(len(genome))]
    else:
        reads = []
        for _ in range(rng.randint(1, 25)):
            length = rng.choice([rng.randint(0, 60), k - 1, k, rng.randint(0, k)])
            start = rng.randint(0, max(0, len(genome) - length))
            piece = genome[start:start + length]
            reads.append(piece or "".join(rng.choice(SYMBOLS) for _ in range(length)))
    rng.shuffle(reads)
    return ReadSet(tuple(DnaString(r) for r in reads)), k


def assert_same_graph(graph: dbg.DeBruijnGraph, ref: ReferenceDeBruijnGraph) -> None:
    assert graph.k == ref.k
    assert graph.edge_kmers == ref.edge_kmers
    assert graph.vertices == ref.vertices
    assert [graph.successors(v) for v in ref.vertices] == \
        [ref.successors(v) for v in ref.vertices]
    assert [graph.predecessors(v) for v in ref.vertices] == \
        [ref.predecessors(v) for v in ref.vertices]
    assert graph.isolated_vertices() == ref.isolated_vertices()
    assert (graph.sources(), graph.sinks()) == (ref.sources(), ref.sinks())
    assert all(graph.has_edge(e) for e in ref.edge_kmers)


def assert_same_unitigs(graph: dbg.DeBruijnGraph, ref: ReferenceDeBruijnGraph) -> None:
    partition = maximal_unitigs(graph)
    expected = reference_maximal_unitigs(ref)
    assert partition.unitigs == expected
    assert partition.spelled() == [p[0] + "".join(v[-1] for v in p[1:]) for p in expected]


def assert_layer_matches(reads: ReadSet, k: int) -> None:
    assert spectrum_of_set(reads, k).counts == reference_spectrum_counts(reads, k)
    graph, ref = dbg.build(reads, k), reference_build(reads, k)
    assert_same_graph(graph, ref)
    assert_same_unitigs(graph, ref)


def test_packed_layer_matches_string_layer_on_seeded_read_sets():
    cycles_only = rejected = 0
    for seed in range(600):
        reads, k = _read_set(seed)
        assert spectrum_of_set(reads, k).counts == reference_spectrum_counts(reads, k)
        if all(len(r) < k - 1 for r in reads):
            with pytest.raises(AssemblyError, match=f"k-1={k - 1}"):
                dbg.build(reads, k)
            rejected += 1
            continue
        graph, ref = dbg.build(reads, k), reference_build(reads, k)
        assert_same_graph(graph, ref)
        assert_same_unitigs(graph, ref)
        # the string constructor goes through the same packed path
        assert dbg.DeBruijnGraph(k, ref.edge_kmers, ref.isolated_vertices()) == graph
        components = graph.weakly_connected_components()
        assert components == ref.weakly_connected_components()
        for comp in components:
            sub, ref_sub = graph.subgraph(comp), ref.subgraph(comp)
            assert (sub.edge_kmers, sub.vertices) == (ref_sub.edge_kmers, ref_sub.vertices)
        cycles_only += bool(ref.vertices) and not (ref.sources() or ref.sinks()
                                                   or ref.isolated_vertices())
    assert cycles_only >= 100 and rejected >= 1


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batched_counts_merge_exactly(monkeypatch, batch):
    monkeypatch.setattr(sequence, "_COUNT_BATCH", batch)
    for seed in range(60):
        reads, k = _read_set(seed)
        assert spectrum_of_set(reads, k).counts == reference_spectrum_counts(reads, k)


def test_criterion_6_input():
    genome = random_genome(10_000, (300, 2), seed=77)
    assert_layer_matches(idealized_reads(genome, 100), 31)


def test_criterion_7_input():
    genome = DnaString("A" * 100 + random_genome(6000, seed=101) + "A" * 100)
    profile = SimulationProfile(genome_length=len(genome), num_reads=2480, read_length=100,
                                error_rate=0.01, seed=1)
    assert_layer_matches(uniform_reads(genome, profile), 21)


def test_criterion_10_slice():
    """20k of the criterion-10 reads' kind (error-free, 100 nt, k=31, 40x)
    from the first 50 kb of its genome, to keep the string reference quick."""
    genome = random_genome(250_000, seed=4242)[:50_000]
    profile = SimulationProfile(genome_length=50_000, num_reads=20_000,
                                read_length=100, seed=7)
    assert_layer_matches(uniform_reads(genome, profile), 31)
