import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmlab import graph as dbg
from asmlab.evaluate import (
    EvalReport,
    compute_n50,
    evaluate,
    evaluate_without_truth,
    run_stage,
)
from asmlab.formats import FastaRecord, StageConfig, write_fasta
from asmlab.sequence import ReadSet
from asmlab.simulate import SimulationProfile, random_genome, uniform_reads
from asmlab.unitig import ContigSet, UnitigPartition, maximal_unitigs, unitig_contigs
from helpers import (
    ContigMetrics,
    coverage_marking_oracle,
    n50_oracle,
    reference_evaluate,
    reference_export_dot,
    reference_report_json,
    report_rows,
    row_evaluate,
    row_evaluate_without_truth,
    row_report,
)

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def contig_set(k, *seqs):
    return ContigSet(k, ReadSet(seqs), tuple(f"c{i}" for i in range(len(seqs))), "test")


class TestN50:
    def test_known_values(self):
        assert compute_n50([7, 5, 2, 2]) == 5
        assert compute_n50([19]) == 19
        assert compute_n50([]) == 0

    @PROPERTY
    @given(st.lists(st.integers(min_value=1, max_value=500), max_size=30))
    def test_matches_candidate_sweep_oracle(self, lengths):
        assert compute_n50(lengths) == n50_oracle(lengths)


class TestEvaluate:
    def test_running_example_unitigs(self, g_true, fig_graph):
        report = evaluate(unitig_contigs(fig_graph), g_true, 3)
        assert report.misassembly_count == 0
        assert report.exact.all()
        assert report.genome_fraction_covered == 1.0

    def test_identity_contig(self, g_true):
        report = evaluate(contig_set(3, str(g_true)), g_true, 3)
        assert report.genome_fraction_covered == 1.0
        assert report.n50 == 19
        assert report.misassembly_count == 0

    def test_foreign_contig(self, g_true):
        report = evaluate(contig_set(3, "TTTTT"), g_true, 3)
        assert report.misassembly_count == 1
        assert report.exact.tolist() == [False]
        assert report.kmer_precision.tolist() == [0.0]

    def test_empty_truth_rejected(self, g_true):
        with pytest.raises(ValueError):
            evaluate(contig_set(3, "ACG"), "", 3)

    def test_order_invariance(self, g_true):
        seqs = ["ATTCCAG", "AA", "GT", "GCTGA"]
        a = evaluate(contig_set(3, *seqs), g_true, 3)
        b = evaluate(contig_set(3, *reversed(seqs)), g_true, 3)
        assert a.genome_fraction_covered == b.genome_fraction_covered
        assert a.n50 == b.n50
        assert a.misassembly_count == b.misassembly_count

    def test_repeated_occurrences_all_count(self):
        report = evaluate(contig_set(2, "AC"), "ACGACG", 2)
        assert report.genome_fraction_covered == pytest.approx(4 / 6)

    @PROPERTY
    @given(st.text(alphabet="ACGT", min_size=6, max_size=40), st.data())
    def test_coverage_matches_marking_oracle(self, truth, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        pieces = []
        for _ in range(n):
            start = data.draw(st.integers(min_value=0, max_value=len(truth) - 2))
            end = data.draw(st.integers(min_value=start + 2, max_value=len(truth)))
            pieces.append(truth[start:end])
        report = evaluate(contig_set(3, *pieces), truth, 3)
        assert report.genome_fraction_covered == pytest.approx(
            coverage_marking_oracle(pieces, truth)
        )

    def test_truth_free_report(self):
        report = evaluate_without_truth(contig_set(3, "ACGT", "GG"), 3)
        assert not report.truth_available
        assert report.misassembly_count is None
        assert "no ground truth" in report.to_text()

    def test_json_round_trip(self, g_true, fig_graph):
        report = evaluate(unitig_contigs(fig_graph), g_true, 3)
        data = json.loads(report.to_json())
        assert data["misassembly_count"] == 0
        assert data["contig_count"] == 4


def assert_matches_reference(contigs, truth, k):
    fast = evaluate(contigs, truth, k)
    for slow in (reference_evaluate(contigs, truth, k), row_evaluate(contigs, truth, k)):
        assert fast.to_json() == slow.to_json()
        assert fast.to_text() == slow.to_text()


def planted_truth(seed):
    """A random genome with a 3-copy planted repeat, a tandem repeat (whose
    pieces occur overlapping) and the genome's own start repeated at its end."""
    core = str(random_genome(700, (60, 3), seed=seed))
    return core[:300] + "ACG" * 30 + core[300:] + core[:40]


def padded_truth(seed):
    """A random core between 100 nt poly-A pads."""
    return "A" * 100 + str(random_genome(600, seed=seed)) + "A" * 100


def mixed_contigs(truth, k, seed):
    """Pieces of the truth (at its ends, k-1 long, random), the same with one
    substitution, random absent strings, poly-A and tandem pieces, and
    contigs longer than the truth."""
    rng = random.Random(seed)
    n, low = len(truth), max(k - 1, 1)
    seqs = [truth[:low], truth[n - low:], truth[:3 * k], truth[-3 * k:], truth,
            truth + "C", "G" + truth, "A" * (low + 5), "ACG" * k, "CGA" * (k + 2)]
    for _ in range(40):
        length = rng.randint(low, min(n, 4 * k))
        start = rng.randint(0, n - length)
        piece = truth[start:start + length]
        seqs.append(piece)
        at = rng.randrange(length)
        seqs.append(piece[:at] + rng.choice(sorted(set("ACGT") - {piece[at]}))
                    + piece[at + 1:])
        seqs.append("".join(rng.choice("ACGT") for _ in range(length)))
    return contig_set(k, *seqs)


class TestMatchesReference:
    """``evaluate`` against the frozen substring-scan evaluation and the
    frozen row-based one, string for string in both report formats."""

    @pytest.mark.parametrize("k", [2, 3, 21, 31])
    @pytest.mark.parametrize("make_truth", [planted_truth, padded_truth])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_contigs(self, make_truth, k, seed):
        truth = make_truth(seed)
        assert_matches_reference(mixed_contigs(truth, k, seed), truth, k)

    def test_planted_repeat_occurrences(self):
        truth = planted_truth(4)
        repeat = truth[:40]  # also the truth's last 40 symbols
        contigs = contig_set(21, repeat, repeat[5:30], "ACG" * 7)
        assert_matches_reference(contigs, truth, 21)

    def test_truth_shorter_than_k(self):
        assert_matches_reference(contig_set(3, "AC", "CA", "ACG", "GT"), "AC", 3)
        assert_matches_reference(contig_set(21, "A" * 20, "ACGT" * 6), "ACGTA", 21)

    def test_k1_with_empty_contig(self):
        assert_matches_reference(contig_set(1, "", "A", "CG", "T", "GAC", ""), "ACGA", 1)

    def test_no_contigs(self):
        assert_matches_reference(contig_set(5), "ACGTACGT", 5)

    @PROPERTY
    @given(st.text(alphabet="AC", min_size=1, max_size=30),
           st.integers(min_value=1, max_value=5), st.data())
    def test_two_letter_truths(self, truth, k, data):
        seqs = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            if data.draw(st.booleans()):
                start = data.draw(st.integers(min_value=0, max_value=len(truth)))
                end = data.draw(st.integers(min_value=start, max_value=len(truth)))
                piece = truth[start:end]
            else:
                piece = data.draw(st.text(alphabet="ACG", max_size=12))
            if len(piece) >= k - 1:
                seqs.append(piece)
        assert_matches_reference(contig_set(k, *seqs), truth, k)


class TestContigStore:
    def test_unitigs_are_spelled_scored_and_drawn_from_their_codes(self, monkeypatch):
        genome = random_genome(3000, seed=6)
        profile = SimulationProfile(len(genome), 300, 50, error_rate=0.01, seed=7)
        graph = dbg.build(uniform_reads(genome, profile), 15)

        def per_contig(*args):
            raise AssertionError("a string was made per contig")

        with monkeypatch.context() as patched:
            patched.setattr(ContigSet, "__iter__", per_contig)
            patched.setattr(ContigSet, "__getitem__", per_contig)
            patched.setattr(UnitigPartition, "spellings", property(per_contig))
            contigs = unitig_contigs(graph)
            reports = [evaluate(contigs, genome, 15), evaluate_without_truth(contigs, 15)]
            texts = [(r.to_json(), r.to_text()) for r in reports]
            dot = io.StringIO()
            dbg.export_dot(graph, dot, contigs.sequences)
        assert len(contigs) > 100
        expected = [row_evaluate(contigs, genome, 15), row_evaluate_without_truth(contigs, 15)]
        assert texts == [(r.to_json(), r.to_text()) for r in expected]
        reference = io.StringIO()
        reference_export_dot(graph, reference, maximal_unitigs(graph).unitigs)
        assert dot.getvalue() == reference.getvalue()


class TestRunStage:
    def test_stage1_idealized_guarantees(self, tmp_path):
        config = StageConfig(genome_length=800, read_length=40, k=15,
                             method="unitig", seed=3)
        result = run_stage(1, config, out_dir=tmp_path / "s1")
        assert result.report.misassembly_count == 0
        assert result.report.genome_fraction_covered == 1.0
        for name in ("genome", "reads", "contigs", "dot", "report_txt", "report_json"):
            assert result.artifacts[name].exists()

    def test_stage1_cpp_walk(self, tmp_path):
        config = StageConfig(genome_length=200, read_length=30, k=15,
                             method="cpp-walk", seed=3)
        result = run_stage(1, config, out_dir=tmp_path / "s1")
        assert result.report.misassembly_count == 0
        assert result.report.genome_fraction_covered == 1.0

    def test_stage2_produces_report_with_errors(self, tmp_path):
        config = StageConfig(genome_length=1500, num_reads=600, read_length=50,
                             error_rate=0.01, k=15, method="unitig", seed=5)
        result = run_stage(2, config, out_dir=tmp_path / "s2")
        assert result.report.contig_count > 0
        assert (tmp_path / "s2" / "report.json").exists()

    def test_stage2_gaps_respected(self, tmp_path):
        config = StageConfig(genome_length=900, num_reads=400, read_length=30,
                             gaps=((300, 330),), k=11, method="unitig", seed=5)
        result = run_stage(2, config, out_dir=tmp_path / "s2")
        assert result.report.genome_fraction_covered < 1.0

    def test_stage3_with_truth(self, tmp_path, g_true, fig_reads):
        reads_path = tmp_path / "reads.fasta"
        truth_path = tmp_path / "truth.fasta"
        write_fasta([FastaRecord(f"r{i}", r) for i, r in enumerate(fig_reads)], reads_path)
        write_fasta([FastaRecord("t", g_true)], truth_path)
        config = StageConfig(reads_fasta=str(reads_path), truth_fasta=str(truth_path),
                             k=3, method="unitig")
        result = run_stage(3, config, out_dir=tmp_path / "s3")
        assert result.report.truth_available
        assert result.report.misassembly_count == 0

    def test_stage3_without_truth_marks_report(self, tmp_path, fig_reads):
        reads_path = tmp_path / "reads.fasta"
        write_fasta([FastaRecord(f"r{i}", r) for i, r in enumerate(fig_reads)], reads_path)
        config = StageConfig(reads_fasta=str(reads_path), k=3, method="unitig")
        result = run_stage(3, config, out_dir=tmp_path / "s3")
        assert not result.report.truth_available
        assert "no ground truth" in (tmp_path / "s3" / "report.txt").read_text()

    def test_bad_stage_number(self):
        with pytest.raises(ValueError):
            run_stage(4, StageConfig(k=3))


class TestReportJson:
    """``EvalReport.to_json`` against the frozen ``json.dumps`` writer, byte
    for byte, and both reports against the frozen row-based ones."""

    def test_with_and_without_truth(self, g_true, fig_graph):
        contigs = unitig_contigs(fig_graph)
        for report in (evaluate(contigs, g_true, 3), evaluate_without_truth(contigs, 3),
                       evaluate(mixed_contigs(padded_truth(2), 21, 2), padded_truth(2), 21)):
            assert report.to_json() == reference_report_json(report_rows(report))
        rows = row_evaluate_without_truth(contigs, 3)
        assert evaluate_without_truth(contigs, 3).to_text() == rows.to_text()

    def test_zero_contigs(self):
        for report in (evaluate(contig_set(5), "ACGTACGT", 5),
                       evaluate_without_truth(contig_set(5), 5)):
            assert report.to_json() == reference_report_json(report_rows(report))
            assert json.loads(report.to_json())["contigs"] == []

    def test_names_that_need_escaping(self):
        names = ['c"1', "c\\2", "tab\there", "caf\u00e9", "\u2603"]
        contigs = ContigSet(3, ReadSet(["ACGT"] * len(names)), tuple(names), "file")
        report = evaluate(contigs, "TTACGTT", 3)
        assert report.to_json() == reference_report_json(report_rows(report))
        assert [row["name"] for row in json.loads(report.to_json())["contigs"]] == names

    @PROPERTY
    @given(st.lists(st.tuples(st.text(max_size=8), st.integers(min_value=0, max_value=10**9),
                              st.booleans(), st.floats(min_value=0.0, max_value=1.0)),
                    max_size=12),
           st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
           st.integers(min_value=1, max_value=31))
    def test_any_rows_and_fractions(self, rows, fraction, k):
        # without a truth fraction the rows' truth cells are absent
        names, lengths, exact, precision = map(list, zip(*rows)) if rows else ([],) * 4
        if fraction is None:
            exact = precision = [None] * len(rows)
        per = [ContigMetrics(*row) for row in zip(names, lengths, exact, precision)]
        misassemblies = None if fraction is None else len(per) // 2
        expected = row_report(k, per, fraction, misassemblies)
        columns = (None, None) if fraction is None else (np.array(exact, dtype=bool),
                                                         np.array(precision, dtype=np.float64))
        report = EvalReport(k, tuple(names), np.array(lengths, dtype=np.int64), *columns,
                            fraction, misassemblies)
        assert report.to_json() == reference_report_json(expected) == expected.to_json()
        assert report.to_text() == expected.to_text()
