"""Differential tests: the packed k-mer layer (counting, graph, unitigs)
against the frozen string-keyed implementations in ``helpers``."""

import gzip
import itertools
import random
import tracemalloc
from typing import Optional

import numpy as np
import pytest

from asmlab import graph as dbg
from asmlab import sequence
from asmlab.errors import AssemblyError
from asmlab.evaluate import assemble_contigs
from asmlab.formats import FastaRecord, read_reads, write_fasta
from asmlab.sequence import DnaString, ReadSet, spectrum_of_set
from asmlab.simulate import (
    SimulationProfile,
    correct_reads,
    idealized_reads,
    random_genome,
    uniform_reads,
)
from asmlab.unitig import maximal_unitigs, unitig_contigs, unitig_numbers
from helpers import (
    ReferenceDeBruijnGraph,
    reference_build,
    reference_maximal_unitigs,
    reference_spectrum_counts,
    reference_window_packs,
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
    assert [(graph.out_degree(v), graph.in_degree(v)) for v in ref.vertices] == \
        [(ref.out_degree(v), ref.in_degree(v)) for v in ref.vertices]
    assert graph.isolated_vertices() == ref.isolated_vertices()
    assert (graph.sources(), graph.sinks()) == (ref.sources(), ref.sinks())
    assert all(graph.has_edge(e) for e in ref.edge_kmers)
    assert_nothing_off_the_graph(graph)


def _first_absent(length: int, present: set[str]) -> Optional[str]:
    words = ("".join(w) for w in itertools.product(SYMBOLS, repeat=length))
    return next((w for w in words if w not in present), None)


def assert_nothing_off_the_graph(graph: dbg.DeBruijnGraph) -> None:
    """A string that is not a vertex has no neighbours and degree 0: an
    absent (k-1)-mer, strings of other lengths, one holding a symbol outside
    ACGT, and the empty string. Only the graph's k-mers are edges."""
    k, vertices, edges = graph.k, set(graph.vertices), set(graph.edge_kmers)
    strangers = ["", "A" * (k - 2), "A" * k, "N" * (k - 1), "C" * (k - 2) + "n"]
    strangers += [v[:-1] + "N" for v in graph.vertices[:2]]
    strangers += [w for w in [_first_absent(k - 1, vertices)] if w is not None]
    for w in strangers:
        assert (graph.successors(w), graph.predecessors(w)) == ((), ()), w
        assert (graph.out_degree(w), graph.in_degree(w)) == (0, 0), w
    not_edges = [*graph.vertices, *(w for w in strangers if len(w) != k), "A" * (k + 1),
                 *(e + e[0] for e in edges)]
    not_edges += [w for w in [_first_absent(k, edges)] if w is not None]
    assert not any(graph.has_edge(w) for w in not_edges)


def assert_same_unitigs(graph: dbg.DeBruijnGraph, ref: ReferenceDeBruijnGraph) -> None:
    partition = maximal_unitigs(graph)
    expected = reference_maximal_unitigs(ref)
    assert partition.unitigs == expected
    assert list(partition.spellings) == [p[0] + "".join(v[-1] for v in p[1:]) for p in expected]


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
        assert graph.components() == [graph.subgraph(c) for c in components]
        for part, comp in zip(graph.components(), components):
            assert_same_graph(part, ref.subgraph(comp))
            assert_same_graph(graph.subgraph(comp), ref.subgraph(comp))
        half = random.Random(seed).sample(ref.vertices, len(ref.vertices) // 2)
        assert_same_graph(graph.subgraph(half), ref.subgraph(half))
        cycles_only += bool(ref.vertices) and not (ref.sources() or ref.sinks()
                                                   or ref.isolated_vertices())
    assert cycles_only >= 100 and rejected >= 1


def test_unitig_numbers_index_the_reference_unitigs():
    """Vertex i's number is the index of the reference unitig that holds
    it, on the seeded read sets: k from 2 to 31, isolated vertices and
    graphs of pure cycles."""
    lone = cycles_only = 0
    for seed in range(600):
        reads, k = _read_set(seed)
        if all(len(r) < k - 1 for r in reads):
            continue
        graph, ref = dbg.build(reads, k), reference_build(reads, k)
        holder = {v: i for i, path in enumerate(reference_maximal_unitigs(ref)) for v in path}
        assert unitig_numbers(graph).tolist() == [holder[v] for v in ref.vertices]
        lone += bool(ref.isolated_vertices())
        cycles_only += bool(ref.vertices) and not (ref.sources() or ref.sinks() or
                                                   ref.isolated_vertices())
    assert lone >= 50 and cycles_only >= 100


def test_setup_is_handed_ascending_distinct_edges(monkeypatch):
    """``_setup`` sorts nothing: ``build`` (with reads of k-1 and k symbols),
    ``components()`` and ``subgraph()`` hand it strictly ascending edges,
    and the string constructor sorts once, whatever order and repeats its
    edges come in."""
    real, handed = dbg.DeBruijnGraph._setup, []

    def checked(self, k, edges, isolated):
        assert (edges[1:] > edges[:-1]).all()
        handed.append(len(edges))
        real(self, k, edges, isolated)

    monkeypatch.setattr(dbg.DeBruijnGraph, "_setup", checked)
    graph = dbg.build(ReadSet.of("TGGCA", "ACGTT", "CCC", "AA", "ACGTT", "GGCAT"), 3)
    assert graph.isolated_vertices() == ["AA"] and graph.has_edge("CCC")
    parts = graph.components()
    assert len(parts) == 3 and len(handed) == 4
    graph.subgraph(graph.vertices[1::2])
    assert len(handed) == 5
    rng = random.Random(7)
    for seed in range(0, 300, 3):
        reads, k = _read_set(seed)
        edges = list(reference_build(reads, k).edge_kmers) if reads.lengths.max() >= k else []
        shuffled = edges * rng.randint(1, 3)
        rng.shuffle(shuffled)
        graph = dbg.DeBruijnGraph(k, shuffled, ["A" * (k - 1)])
        assert graph == dbg.DeBruijnGraph(k, sorted(set(shuffled)), ["A" * (k - 1)])
        assert_same_graph(graph, ReferenceDeBruijnGraph(k, shuffled, ["A" * (k - 1)]))
        if edges:
            graph.components()
            graph.subgraph(graph.vertices[::2])


@pytest.mark.parametrize("method,contigs", [
    ("unitig", ["AA", "ACGTT", "TGGCA"]),
    ("cpp-walk", ["ACGTT", "TGGCA"]),
])
def test_assembly_never_decodes_vertex_names(monkeypatch, method, contigs):
    def decoded(graph):
        raise AssertionError("vertex names decoded")

    monkeypatch.setattr(dbg.DeBruijnGraph, "vertices", property(decoded))
    # two components and a (k-1)-length read, an isolated vertex
    reads = ReadSet.of("ACGTT", "TGGCA", "AA")
    assembled, graph = assemble_contigs(reads, 3, method)
    assert list(assembled) == contigs
    assert len(graph.components()) == 2


def test_cpp_walk_with_no_edges_names_k():
    # reads of k-1 symbols: isolated vertices, no edge to cover
    with pytest.raises(AssemblyError, match="k=5: the graph has no edges"):
        assemble_contigs(ReadSet.of("ACGT", "TTGA"), 5, "cpp-walk")


def test_read_path_makes_no_string_per_read(monkeypatch, tmp_path):
    genome = random_genome(3000, seed=4)
    profile = SimulationProfile(len(genome), 400, 60, error_rate=0.01, seed=5)
    fasta, packed = tmp_path / "reads.fasta", tmp_path / "reads.fasta.gz"
    write_fasta([FastaRecord(f"r{i}", r) for i, r in enumerate(uniform_reads(genome, profile))],
                fasta)
    packed.write_bytes(gzip.compress(fasta.read_bytes()))

    def assemble(path):
        reads = read_reads(path)
        corrected = correct_reads(reads, 15, 2)
        graph = dbg.build(corrected, 15)
        return reads, corrected, graph, unitig_contigs(graph).sequences

    expected = assemble(fasta)
    assert len(expected[1]) < len(expected[0])  # some reads were dropped

    def per_read(*args):
        raise AssertionError("a string was made per read")

    monkeypatch.setattr(ReadSet, "__iter__", per_read)
    monkeypatch.setattr(ReadSet, "__getitem__", per_read)
    for path in (fasta, packed):
        assert assemble(path) == expected


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batched_counts_merge_exactly(monkeypatch, batch):
    monkeypatch.setattr(sequence, "_COUNT_BATCH", batch)
    for seed in range(60):
        reads, k = _read_set(seed)
        assert spectrum_of_set(reads, k).counts == reference_spectrum_counts(reads, k)
    # each read set repeated, shuffled: most k-mers recur in many batches, so
    # the running spectrum is folded with batches that share its keys
    rng = random.Random(batch)
    for seed in range(60, 80):
        reads, k = _read_set(seed)
        repeated = list(reads) * 6
        rng.shuffle(repeated)
        assert spectrum_of_set(repeated, k).counts == reference_spectrum_counts(repeated, k)


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_window_packs_match_k_pass_packing(monkeypatch, chunk):
    """Packing by doubling, over blocks of ``chunk`` windows (None: the
    default block size), gives the frozen k-pass packer's windows for every
    k, on 1-D, 2-D and 3-D code arrays whose window and row counts straddle
    the block size."""
    if chunk is None:
        chunk = sequence._PACK_CHUNK
    else:
        monkeypatch.setattr(sequence, "_PACK_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    widths = sorted({1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1} - {0})
    for k in range(1, 32):
        for windows in widths:
            n = windows + k - 1
            group = max(1, chunk // min(windows, chunk))  # rows packed together
            for shape in [(n,), (1, n), (3, n), (group + 1, n), (2, 2, n)]:
                codes = rng.integers(0, 4, shape, dtype=np.uint8)
                packed = sequence.window_packs(codes, k)
                assert packed.dtype == np.uint64
                assert np.array_equal(packed, reference_window_packs(codes, k))


def test_counting_memory_is_bounded_by_distinct_kmers_and_one_batch(monkeypatch):
    """Counting in many small batches keeps about twice the distinct k-mers
    and one batch, not every batch's k-mers at once: the traced peak stays
    within 96 bytes per distinct k-mer and per batch symbol, plus 16 bytes
    per read for the length arrays. (Keeping each batch's distinct k-mers
    until the end peaks at about 26 MB here.)"""
    batch = 4000
    monkeypatch.setattr(sequence, "_COUNT_BATCH", batch)
    genome = random_genome(5_000, seed=3)
    profile = SimulationProfile(genome_length=5_000, num_reads=10_000, read_length=100, seed=4)
    reads = uniform_reads(genome, profile)
    tracemalloc.start()
    try:
        distinct = len(spectrum_of_set(reads, 31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert distinct > 4_900  # about one k-mer per genome position
    assert peak < 96 * (distinct + batch) + 16 * len(reads)


def test_counting_merges_each_kmer_a_few_times(monkeypatch):
    """When nearly every batch brings new k-mers, as on reads with errors,
    the merges pass over each distinct k-mer a few times, not once per
    batch: folding each of the 256 batches into one running spectrum
    passes over each about 128 times here."""
    monkeypatch.setattr(sequence, "_COUNT_BATCH", 1000)
    rng = random.Random(5)
    reads = ["".join(rng.choice(SYMBOLS) for _ in range(100)) for _ in range(2560)]
    merged = []
    merge = sequence._merge

    def counting_merge(runs):
        if len(runs) > 1:
            merged.append(sum(len(keys) for keys, _ in runs))
        return merge(runs)

    monkeypatch.setattr(sequence, "_merge", counting_merge)
    spectrum = spectrum_of_set(reads, 31)
    assert spectrum.counts == reference_spectrum_counts(reads, 31)
    assert len(merged) > 1
    assert sum(merged) <= 3 * len(spectrum)


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
