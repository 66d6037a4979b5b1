"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import math
import random
import time

import pytest

from asmlab import graph as dbg
from asmlab.cli import main
from asmlab.evaluate import run_stage
from asmlab.formats import (
    FastaRecord,
    StageConfig,
    fasta_bytes,
    read_fasta,
    write_fasta,
)
from asmlab.sequence import DnaString, ReadSet, longest_repeat, spectrum_subset_check
from asmlab.simulate import idealized_reads, random_genome, unspanned_probability
from asmlab.superstring import exact_scs
from asmlab.unitig import check_safety_preconditions, safety_suite, unitig_contigs
from conftest import G_SCS, G_SOL, G_TRUE


def _report(criterion: str, t0: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_running_example_pipeline(tmp_path, capsys):
    """Reads = 17 idealized 3-mers of the repeat-rich example genome; the
    whole pipeline must reproduce the known artifacts in under a second."""
    t0 = time.perf_counter()
    genome_path = tmp_path / "g.fasta"
    write_fasta([FastaRecord("g", DnaString(G_TRUE))], genome_path)
    reads_path = tmp_path / "reads.fasta"
    assert main(["simulate", "--genome", str(genome_path), "--idealized",
                 "--len", "3", "--reads", str(reads_path)]) == 0
    reads = read_fasta(reads_path)
    assert len(reads) == 17

    # (a) unitig assembly gives exactly the four known unitigs
    unitigs_path = tmp_path / "unitigs.fasta"
    assert main(["assemble", "--reads", str(reads_path), "-k", "3",
                 "--method", "unitig", "--out", str(unitigs_path)]) == 0
    assert sorted(str(r.sequence) for r in read_fasta(unitigs_path)) == \
        ["AA", "ATTCCAG", "GCTGA", "GT"]

    # (b) the covering-walk assembler recovers the genome; the independent
    # oracle confirms the optimum has length 17 and is unique
    walk_path = tmp_path / "walk.fasta"
    assert main(["assemble", "--reads", str(reads_path), "-k", "3",
                 "--method", "cpp-walk", "--out", str(walk_path)]) == 0
    assert [str(r.sequence) for r in read_fasta(walk_path)] == [G_TRUE]
    graph = dbg.build(ReadSet(tuple(r.sequence for r in reads)), 3)
    assert dbg.oracle_shortest_edge_covering_walk(graph, mode="count_all") == (17, 1)

    # (c) the exact superstring is 16 long and never over-collapses past 2l-2
    scs_path = tmp_path / "scs.fasta"
    assert main(["scs", "--reads", str(reads_path), "--exact",
                 "--out", str(scs_path), "--read-len", "3"]) == 0
    superstring = read_fasta(scs_path)[0].sequence
    assert len(superstring) == 16
    hit = longest_repeat(superstring)
    assert (hit.length if hit else 0) <= 4

    # (d) the containment checker reproduces the known verdicts
    read_set = ReadSet(tuple(r.sequence for r in reads))
    verdict = spectrum_subset_check(G_SCS, read_set, 2)
    assert (verdict.ok, verdict.missing_kmer) == (False, "TA")
    assert spectrum_subset_check(G_SOL, read_set, 2).ok
    assert not spectrum_subset_check(G_SOL, read_set, 3).ok

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    capsys.readouterr()  # swallow the CLI's own stdout reporting
    _report("1 (running-example pipeline)", t0)


def test_criterion_2_bubble_count_law():
    """n chained bubbles admit exactly 2**n optimal covering walks."""
    t0 = time.perf_counter()
    for n, expected in ((1, 2), (2, 4), (3, 8)):
        graph = dbg.make_bubble_graph(n)
        _, count = dbg.oracle_shortest_edge_covering_walk(graph, mode="count_all")
        assert count == expected, f"n={n}: expected {expected} optima, got {count}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("2 (2^n bubble optima)", t0)


def test_criterion_3_repeat_bound_property_suite():
    """exact_scs output never contains a repeat longer than 2*3-2 = 4, over
    200 random repeat-planted genomes of length <= 15. Zero tolerance."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    for i in range(200):
        length = rng.randint(8, 15)
        rep = min(rng.randint(3, 6), length // 2)
        genome = random_genome(length, (rep, 2), seed=rng.randrange(2**63))
        result = exact_scs(ReadSet(tuple(idealized_reads(genome, 3))))
        hit = longest_repeat(result.superstring)
        assert (hit.length if hit else 0) <= 4, \
            f"genome {genome}: superstring {result.superstring} over-collapses"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("3 (repeat bound, 200 genomes)", t0)


def test_criterion_4_solver_oracle_equivalence():
    """On 100 random connected graphs with <= 14 edges the polynomial solver
    matches the exhaustive oracle's optimum exactly and always covers."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    done = 0
    while done < 100:
        length = rng.randint(6, 16)
        plant = None
        if length >= 10 and rng.random() < 0.5:
            plant = (min(rng.randint(3, 6), length // 2), 2)
        genome = random_genome(length, plant, seed=rng.randrange(2**63))
        graph = dbg.build(ReadSet(tuple(idealized_reads(genome, 3))), 3)
        if not 1 <= graph.num_edges <= 14:
            continue
        done += 1
        walk = dbg.shortest_edge_covering_walk(graph)
        assert dbg.is_edge_covering(walk)
        optimum, _ = dbg.oracle_shortest_edge_covering_walk(graph, mode="count_all")
        assert len(walk.edges) == optimum, f"genome {genome}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("4 (solver = oracle, 100 graphs)", t0)


def test_criterion_5_unitig_safety_property_suite():
    """Every unitig contig of every generated precondition-satisfying graph
    (<= 12 edges) is certified safe; no unknowns allowed on the fixture set."""
    t0 = time.perf_counter()
    rng = random.Random(505)
    evaluated = 0
    contigs_checked = 0
    attempts = 0
    while evaluated < 40 and attempts < 500:
        attempts += 1
        length = rng.randint(6, 14)
        plant = None
        if length >= 10 and rng.random() < 0.4:
            plant = (min(rng.randint(3, 5), length // 2), 2)
        genome = random_genome(length, plant, seed=rng.randrange(2**63))
        graph = dbg.build(ReadSet(tuple(idealized_reads(genome, 3))), 3)
        if not 1 <= graph.num_edges <= 12:
            continue
        if not check_safety_preconditions(graph).satisfied:
            continue
        evaluated += 1
        report = safety_suite(graph, unitig_contigs(graph))
        assert report.applicable
        assert not report.bug_flags, f"unsafe unitig on genome {genome}"
        assert report.unknown_count == 0, f"unknown verdict on genome {genome}"
        contigs_checked += len(report.rows)
    assert evaluated == 40, "fixture generation starved"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(f"5 (unitig safety, {evaluated} graphs / {contigs_checked} contigs)", t0)


def test_criterion_6_stage1_desk_scale(tmp_path):
    """Idealized 100nt reads of a 10 knt genome with a planted 300nt repeat,
    k = 31, unitig assembly: zero misassemblies, full genome coverage."""
    t0 = time.perf_counter()
    config = StageConfig(genome_length=10_000, plant_repeat_length=300,
                         plant_repeat_copies=2, read_length=100, k=31,
                         method="unitig", seed=77)
    result = run_stage(1, config, out_dir=tmp_path / "stage1")
    assert result.report.misassembly_count == 0
    assert result.report.genome_fraction_covered == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("6 (stage-1 desk-scale assembly)", t0)


def test_criterion_7_correction_monotonicity(tmp_path):
    """Paired stage-2 runs at 1% errors and 40x coverage: the corrected run
    never does worse on misassemblies or coverage, for 5 of 5 seeds.

    Genomes carry homopolymer end-pads so that coverage comparisons measure
    the error-correction effect rather than the linear-sampling ramp at hard
    genome boundaries (pad k-mers pool into one heavily covered word).
    """
    t0 = time.perf_counter()
    read_length = 100
    for seed in (1, 2, 3, 4, 5):
        core = random_genome(6000, seed=100 + seed)
        genome = DnaString("A" * read_length + str(core) + "A" * read_length)
        genome_path = tmp_path / f"g{seed}.fasta"
        write_fasta([FastaRecord("truth", genome)], genome_path)
        base = dict(genome_fasta=str(genome_path),
                    num_reads=40 * len(genome) // read_length,
                    read_length=read_length, error_rate=0.01, k=21,
                    method="unitig", seed=seed, min_multiplicity=3)
        plain = run_stage(2, StageConfig(**base, correct=False),
                          out_dir=tmp_path / f"plain{seed}").report
        fixed = run_stage(2, StageConfig(**base, correct=True),
                          out_dir=tmp_path / f"fixed{seed}").report
        assert fixed.misassembly_count <= plain.misassembly_count, f"seed {seed}"
        assert fixed.genome_fraction_covered >= plain.genome_fraction_covered, \
            f"seed {seed}"
    _report("7 (correction monotonicity, 5/5 seeds)", t0)


def test_criterion_8_coverage_probability_cross_check():
    """The analytic unspanned-window estimate agrees with a 10^4-trial
    simulation to within three Monte-Carlo standard errors."""
    t0 = time.perf_counter()
    L, m, ell, k = 5000, 1000, 200, 31
    analytic = unspanned_probability(L, m, ell, k, "analytic")
    simulated = unspanned_probability(L, m, ell, k, "monte_carlo",
                                      trials=10_000, seed=9)
    se = max(math.sqrt(analytic * (1 - analytic) / 10_000),
             math.sqrt(simulated * (1 - simulated) / 10_000))
    assert abs(analytic - simulated) <= 3 * se
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _report("8 (coverage probability cross-check)", t0)


def test_criterion_9_round_trip_and_determinism(tmp_path, capsys):
    """FASTA write-then-read identity on 100 random record sets, and
    bit-identical CLI artifacts across repeated equal-seed invocations."""
    t0 = time.perf_counter()
    rng = random.Random(909)
    for _ in range(100):
        records = [
            FastaRecord(f"r{i}", DnaString("".join(
                rng.choice("ACGT") for _ in range(rng.randint(1, 180))
            )))
            for i in range(rng.randint(0, 8))
        ]
        text = fasta_bytes(records)
        assert read_fasta(io.StringIO(text)) == records
        assert fasta_bytes(read_fasta(io.StringIO(text))) == text

    sim_args = ["simulate", "--random-length", "800", "--num", "300",
                "--len", "60", "--error-rate", "0.01", "--seed", "11"]
    for name in ("a", "b"):
        assert main(sim_args + ["--reads", str(tmp_path / f"{name}.fasta")]) == 0
    assert (tmp_path / "a.fasta").read_bytes() == (tmp_path / "b.fasta").read_bytes()

    cfg = tmp_path / "stage.cfg"
    cfg.write_text("genome_length = 700\nnum_reads = 400\nread_length = 40\n"
                   "k = 15\nmethod = unitig\nseed = 23\nerror_rate = 0.005\n")
    for name in ("s2a", "s2b"):
        assert main(["stage", "--stage", "2", "--config", str(cfg),
                     "--out-dir", str(tmp_path / name)]) == 0
    for artifact in ("genome.fasta", "reads.fasta", "contigs.fasta",
                     "graph.dot", "report.txt", "report.json"):
        assert (tmp_path / "s2a" / artifact).read_bytes() == \
            (tmp_path / "s2b" / artifact).read_bytes()
    capsys.readouterr()  # swallow the CLI's own stdout reporting
    _report("9 (round-trip and determinism)", t0)


def test_criterion_10_stretch_benchmark_recorded():
    """Non-gating: time the k=31 graph build over 100k x 100nt reads.
    The duration is recorded, not asserted."""
    from asmlab.simulate import SimulationProfile, uniform_reads

    genome = random_genome(250_000, seed=4242)
    profile = SimulationProfile(genome_length=250_000, num_reads=100_000,
                                read_length=100, seed=7)
    reads = uniform_reads(genome, profile)
    t0 = time.perf_counter()
    graph = dbg.build(reads, 31)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 10 (stretch, non-gating): built k=31 graph of "
          f"{graph.num_edges} edges from 100000 reads in {elapsed:.1f}s")
