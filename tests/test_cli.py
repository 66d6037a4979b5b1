import gzip
import io
import itertools
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

import asmlab
from asmlab import unitig
from asmlab.cli import main
from asmlab.evaluate import evaluate
from asmlab.formats import FastaRecord, read_fasta, write_fasta
from asmlab.sequence import DnaString, ReadSet
from asmlab.unitig import ContigSet
from conftest import G_TRUE
from helpers import reference_export_dot, reference_report_json, report_rows


@pytest.fixture
def gtrue_fasta(tmp_path) -> Path:
    path = tmp_path / "gtrue.fasta"
    write_fasta([FastaRecord("g", DnaString(G_TRUE))], path)
    return path


@pytest.fixture
def gtrue_reads(tmp_path, gtrue_fasta) -> Path:
    path = tmp_path / "reads.fasta"
    assert main(["simulate", "--genome", str(gtrue_fasta), "--idealized",
                 "--len", "3", "--reads", str(path)]) == 0
    return path


class TestSimulate:
    def test_idealized_read_count(self, gtrue_reads):
        assert len(read_fasta(gtrue_reads)) == 17

    def test_random_simulation_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.fasta", tmp_path / "b.fasta"
        args = ["simulate", "--random-length", "500", "--num", "100",
                "--len", "50", "--seed", "42"]
        assert main(args + ["--reads", str(out1)]) == 0
        assert main(args + ["--reads", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_length_is_usage_error(self, tmp_path, gtrue_fasta):
        code = main(["simulate", "--genome", str(gtrue_fasta), "--idealized",
                     "--len", "0", "--reads", str(tmp_path / "x.fasta")])
        assert code == 2

    def test_zero_random_length_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.fasta"
        assert main(["simulate", "--random-length", "0", "--len", "3", "--reads", str(out)]) == 2
        assert "--random-length must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_num_is_usage_error(self, tmp_path, gtrue_fasta):
        code = main(["simulate", "--genome", str(gtrue_fasta), "--len", "3",
                     "--reads", str(tmp_path / "x.fasta")])
        assert code == 2

    @pytest.mark.parametrize("num", ["0", "-1"])
    def test_nonpositive_num_is_usage_error(self, tmp_path, capsys, gtrue_fasta, num):
        reads = tmp_path / "x.fasta"
        assert main(["simulate", "--genome", str(gtrue_fasta), "--num", num, "--len", "3",
                     "--reads", str(reads)]) == 2
        assert f"--num must be a positive integer, got {num}" in capsys.readouterr().err
        assert not reads.exists()

    def test_planted_repeat_flag(self, tmp_path):
        out = tmp_path / "r.fasta"
        genome_out = tmp_path / "g.fasta"
        assert main(["simulate", "--random-length", "400", "--plant-repeat", "60,2",
                     "--idealized", "--len", "40", "--reads", str(out),
                     "--genome-out", str(genome_out)]) == 0
        from asmlab.sequence import longest_repeat

        genome = read_fasta(genome_out)[0].sequence
        assert longest_repeat(genome).length >= 60

    @pytest.mark.parametrize("extra,message", [
        (["--len", "50"], "the genome has 19 nt, fewer than read_length 50"),
        (["--len", "5", "--gap", "10:40"], "gap 10:40 runs past the genome's 19 nt"),
    ], ids=["read-length", "gap-end"])
    def test_genome_file_too_short_is_data_error(self, tmp_path, capsys, gtrue_fasta, extra,
                                                 message):
        reads = tmp_path / "x.fasta"
        assert main(["simulate", "--genome", str(gtrue_fasta), "--num", "3",
                     "--reads", str(reads), *extra]) == 1
        assert f"error: {gtrue_fasta}: {message}" in capsys.readouterr().err
        assert not reads.exists()

    @pytest.mark.parametrize("extra", [["--len", "50"], ["--len", "5", "--gap", "10:40"]],
                             ids=["read-length", "gap-end"])
    def test_random_genome_too_short_is_usage_error(self, tmp_path, extra):
        assert main(["simulate", "--random-length", "19", "--num", "3",
                     "--reads", str(tmp_path / "x.fasta"), *extra]) == 2

    def test_plant_repeat_conflicts_with_genome_file(self, tmp_path, gtrue_fasta):
        code = main(["simulate", "--genome", str(gtrue_fasta), "--plant-repeat",
                     "4,2", "--idealized", "--len", "3",
                     "--reads", str(tmp_path / "x.fasta")])
        assert code == 2


class TestScs:
    def test_exact_two_reads(self, tmp_path):
        reads = tmp_path / "reads.fasta"
        write_fasta([FastaRecord("a", DnaString("ACG")),
                     FastaRecord("b", DnaString("CGT"))], reads)
        out = tmp_path / "scs.fasta"
        assert main(["scs", "--reads", str(reads), "--exact", "--out", str(out)]) == 0
        assert str(read_fasta(out)[0].sequence) == "ACGT"
        assert (tmp_path / "scs.fasta.trace").exists()

    def test_exact_on_running_example(self, tmp_path, gtrue_reads, capsys):
        out = tmp_path / "scs.fasta"
        assert main(["scs", "--reads", str(gtrue_reads), "--exact",
                     "--out", str(out), "--read-len", "3"]) == 0
        assert len(read_fasta(out)[0].sequence) == 16
        assert "within bound 4" in capsys.readouterr().out

    @pytest.mark.parametrize("read_len", ["0", "-1"])
    def test_nonpositive_read_len_is_usage_error(self, tmp_path, capsys, gtrue_reads,
                                                 read_len):
        out = tmp_path / "scs.fasta"
        assert main(["scs", "--reads", str(gtrue_reads), "--exact", "--out", str(out),
                     "--read-len", read_len]) == 2
        assert f"--read-len must be a positive integer, got {read_len}" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "scs.fasta.trace").exists()

    def test_greedy_flag(self, tmp_path, gtrue_reads):
        out = tmp_path / "scs.fasta"
        assert main(["scs", "--reads", str(gtrue_reads), "--greedy", "--out", str(out)]) == 0
        from asmlab.sequence import is_common_superstring

        superstring = read_fasta(out)[0].sequence
        reads = [r.sequence for r in read_fasta(gtrue_reads)]
        assert is_common_superstring(superstring, reads)

    def test_too_many_reads_is_domain_error(self, tmp_path):
        words = ["".join(p) for p in itertools.product("ACGT", repeat=3)][:16]
        reads = tmp_path / "many.fasta"
        write_fasta([FastaRecord(f"r{i}", DnaString(w)) for i, w in enumerate(words)],
                    reads)
        code = main(["scs", "--reads", str(reads), "--exact",
                     "--out", str(tmp_path / "x.fasta")])
        assert code == 1


class TestAssemble:
    def test_unitig_method(self, tmp_path, gtrue_reads):
        out = tmp_path / "contigs.fasta"
        assert main(["assemble", "--reads", str(gtrue_reads), "-k", "3",
                     "--method", "unitig", "--out", str(out),
                     "--dot", str(tmp_path / "g.dot")]) == 0
        contigs = sorted(str(r.sequence) for r in read_fasta(out))
        assert contigs == ["AA", "ATTCCAG", "GCTGA", "GT"]
        assert "->" in (tmp_path / "g.dot").read_text()

    def test_cpp_walk_method(self, tmp_path, gtrue_reads):
        out = tmp_path / "walk.fasta"
        assert main(["assemble", "--reads", str(gtrue_reads), "-k", "3",
                     "--method", "cpp-walk", "--out", str(out)]) == 0
        assert [str(r.sequence) for r in read_fasta(out)] == [G_TRUE]

    @pytest.mark.parametrize("method", ["unitig", "cpp-walk"])
    def test_headers_carry_the_source_only(self, tmp_path, gtrue_reads, method):
        out = tmp_path / "contigs.fasta"
        assert main(["assemble", "--reads", str(gtrue_reads), "-k", "3",
                     "--method", method, "--out", str(out)]) == 0
        headers = [line for line in out.read_text().splitlines() if line.startswith(">")]
        assert headers and all(h.split(" ", 1)[1] == method for h in headers)

    def test_k_one_is_usage_error(self, tmp_path, gtrue_reads):
        code = main(["assemble", "--reads", str(gtrue_reads), "-k", "1",
                     "--method", "unitig", "--out", str(tmp_path / "x.fasta")])
        assert code == 2

    @pytest.mark.parametrize("command", [["assemble", "--method", "cpp-walk"], ["dbg", "build"]],
                             ids=["assemble", "dbg-build"])
    @pytest.mark.parametrize("k,message", [
        ("1", "order must be >= 2, got 1"),
        ("32", "order must be at most 31, got 32"),
    ], ids=["k-one", "k-above-31"])
    def test_k_is_checked_before_the_reads_are_read(self, tmp_path, capsys, command, k,
                                                    message):
        missing = tmp_path / "missing.fasta"
        assert main([*command, "--reads", str(missing), "-k", k,
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_cpp_walk_per_component(self, tmp_path):
        reads = tmp_path / "reads.fasta"
        write_fasta([FastaRecord("a", DnaString("ACGA")),
                     FastaRecord("b", DnaString("TTGT"))], reads)
        out = tmp_path / "walk.fasta"
        assert main(["assemble", "--reads", str(reads), "-k", "3",
                     "--method", "cpp-walk", "--out", str(out)]) == 0
        assert sorted(str(r.sequence) for r in read_fasta(out)) == ["ACGA", "TTGT"]

    def test_uncoverable_component_is_domain_error(self, tmp_path):
        reads = tmp_path / "reads.fasta"
        write_fasta([FastaRecord("a", DnaString("AAT")),
                     FastaRecord("b", DnaString("AAC"))], reads)
        code = main(["assemble", "--reads", str(reads), "-k", "3",
                     "--method", "cpp-walk", "--out", str(tmp_path / "x.fasta")])
        assert code == 1

    def test_correct_flag(self, tmp_path):
        from asmlab.simulate import idealized_reads, random_genome

        genome = DnaString("A" * 30 + str(random_genome(300, seed=5)) + "A" * 30)
        reads = tmp_path / "reads.fasta"
        write_fasta([FastaRecord(f"r{i}", r)
                     for i, r in enumerate(idealized_reads(genome, 30))], reads)
        out = tmp_path / "contigs.fasta"
        assert main(["assemble", "--reads", str(reads), "-k", "15",
                     "--method", "unitig", "--out", str(out), "--correct", "2"]) == 0
        assert read_fasta(out)

    def test_verbose_correct_reports_dropped_reads(self, tmp_path, caplog):
        from asmlab.simulate import idealized_reads, random_genome

        genome = DnaString("A" * 30 + str(random_genome(300, seed=5)) + "A" * 30)
        records = [FastaRecord(f"r{i}", r) for i, r in enumerate(idealized_reads(genome, 30))]
        records.append(FastaRecord("junk", random_genome(30, seed=999)))
        reads = tmp_path / "reads.fasta"
        write_fasta(records, reads)
        with caplog.at_level(logging.INFO):
            assert main(["--verbose", "assemble", "--reads", str(reads), "-k", "15",
                         "--method", "unitig", "--out", str(tmp_path / "c.fasta"),
                         "--correct", "2"]) == 0
        assert f"{len(records)} read(s) in, 0 changed, 1 dropped" in caplog.text

    def test_gzip_reads_give_the_same_contigs(self, tmp_path, gtrue_reads):
        packed = tmp_path / "reads.fasta.gz"
        packed.write_bytes(gzip.compress(gtrue_reads.read_bytes()))
        plain, unpacked = tmp_path / "plain.fasta", tmp_path / "unpacked.fasta"
        for reads, out in ((gtrue_reads, plain), (packed, unpacked)):
            assert main(["assemble", "--reads", str(reads), "-k", "3",
                         "--method", "unitig", "--out", str(out)]) == 0
        assert unpacked.read_bytes() == plain.read_bytes()


class TestDbg:
    @pytest.fixture
    def edge_list(self, tmp_path, gtrue_reads) -> Path:
        out = tmp_path / "graph.edges"
        assert main(["dbg", "build", "--reads", str(gtrue_reads), "-k", "3",
                     "--out", str(out)]) == 0
        return out

    def test_build_writes_fixture(self, edge_list):
        lines = edge_list.read_text().splitlines()
        assert lines[0] == "k=3"
        assert len(lines) == 13  # header + 12 edges

    def test_walk_finds_spelling_walk(self, edge_list, capsys):
        assert main(["dbg", "walk", "--graph", str(edge_list),
                     "--text", G_TRUE]) == 0
        assert "17 edges" in capsys.readouterr().out

    def test_walk_reports_missing_kmer(self, edge_list, capsys):
        assert main(["dbg", "walk", "--graph", str(edge_list),
                     "--text", "AATTCCAGCTGATAGT"]) == 1
        assert "ATA" in capsys.readouterr().out

    def test_walk_reports_a_window_holding_n_as_missing(self, tmp_path, capsys):
        reads, edges = tmp_path / "reads.fasta", tmp_path / "graph.edges"
        write_fasta([FastaRecord("a", DnaString("ACGT"))], reads)
        assert main(["dbg", "build", "--reads", str(reads), "-k", "3",
                     "--out", str(edges)]) == 0
        assert main(["dbg", "walk", "--graph", str(edges), "--text", "ACGNA"]) == 1
        assert "k-mer CGN at position 1 is not an edge" in capsys.readouterr().out

    def test_walk_shortest_solves_covering_walk(self, edge_list, tmp_path, capsys):
        out = tmp_path / "walk.fasta"
        assert main(["dbg", "walk", "--graph", str(edge_list), "--shortest",
                     "--out", str(out)]) == 0
        assert str(read_fasta(out)[0].sequence) == G_TRUE

    def test_dot_with_unitig_coloring(self, edge_list, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["dbg", "dot", "--graph", str(edge_list), "--out", str(out),
                     "--unitigs"]) == 0
        assert "fillcolor" in out.read_text()

    def test_assemble_dot_equals_build_then_dot(self, tmp_path):
        reads = tmp_path / "reads.fasta"
        assert main(["simulate", "--random-length", "800", "--num", "200", "--len", "40",
                     "--error-rate", "0.02", "--seed", "6", "--reads", str(reads)]) == 0
        direct = tmp_path / "direct.dot"
        assert main(["assemble", "--reads", str(reads), "-k", "11", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta"), "--dot", str(direct)]) == 0
        edges, staged = tmp_path / "graph.edges", tmp_path / "staged.dot"
        assert main(["dbg", "build", "--reads", str(reads), "-k", "11",
                     "--out", str(edges)]) == 0
        assert main(["dbg", "dot", "--graph", str(edges), "--out", str(staged),
                     "--unitigs"]) == 0
        assert direct.read_bytes() == staged.read_bytes()
        assert direct.read_text().count("fillcolor") > 10

    def test_assemble_dot_runs_maximal_unitigs_once(self, tmp_path, monkeypatch):
        reads = tmp_path / "reads.fasta"
        assert main(["simulate", "--random-length", "800", "--num", "200", "--len", "40",
                     "--error-rate", "0.02", "--seed", "6", "--reads", str(reads)]) == 0
        graphs = []
        real = unitig.maximal_unitigs

        def counted(graph):
            graphs.append(graph)
            return real(graph)

        monkeypatch.setattr(unitig, "maximal_unitigs", counted)
        dot = tmp_path / "g.dot"
        assert main(["assemble", "--reads", str(reads), "-k", "11", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta"), "--dot", str(dot)]) == 0
        assert len(graphs) == 1
        handle = io.StringIO()
        reference_export_dot(graphs[0], handle, real(graphs[0]).unitigs)
        assert dot.read_text() == handle.getvalue()


class TestBadInput:
    def test_edge_list_outside_alphabet_is_data_error(self, tmp_path, capsys):
        graph = tmp_path / "bad.edges"
        graph.write_text("k=3\nACG\nCGX\n")
        assert main(["dbg", "walk", "--graph", str(graph), "--shortest"]) == 1
        captured = capsys.readouterr()
        assert "line 3" in captured.err and "spells" not in captured.out

    def test_non_ascii_fasta_is_data_error(self, tmp_path, capsys):
        reads = tmp_path / "reads.fasta"
        reads.write_bytes(b">r1\nAC\xc3GT\n")
        assert main(["assemble", "--reads", str(reads), "-k", "3", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta")]) == 1
        err = capsys.readouterr().err
        assert "line 2: byte 0xC3 in " + str(reads) in err and "codec" not in err


    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_broken_gzip_is_data_error(self, tmp_path, capsys, gtrue_reads, damage):
        packed = gzip.compress(gtrue_reads.read_bytes())
        reads = tmp_path / "reads.fasta.gz"
        reads.write_bytes(packed[:-8] if damage == "truncated" else packed[:10] + b"\xff" * 20)
        assert main(["assemble", "--reads", str(reads), "-k", "3", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta")]) == 1
        assert f"line 1: {reads} is not a readable gzip file" in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", [
        ("k=3\nACG\nACGT\n", "line 3: edge 'ACGT' has length 4"),
        ("k=x\nACG\n", "line 1: graph order 'x' is not an integer"),
        ("k=32\n" + "A" * 32 + "\n", "line 1: graph order k=32 is outside [2, 31]"),
        ("ACG\n", "line 1: edge-list fixture must start with a 'k=<int>' header"),
        ("", "line 1: edge-list fixture must start with a 'k=<int>' header"),
        ("\n  \nACG\nk=3\n", "line 3: edge-list fixture must start with a 'k=<int>' header"),
    ])
    def test_bad_edge_list_shape_is_data_error(self, tmp_path, capsys, text, line):
        graph = tmp_path / "bad.edges"
        graph.write_text(text)
        assert main(["dbg", "walk", "--graph", str(graph), "--shortest"]) == 1
        assert line in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("k=3\nv=AC\n", "bad.edges: graph has no edges; nothing to cover"),
        ("k=3\nACG\nACT\n", "graph has 2 sinks (CG, CT)"),
        ("k=3\nACG\nTTA\n", "weakly-connected components"),
    ], ids=["no-edges", "two-sinks", "two-components"])
    def test_uncoverable_edge_list_is_data_error(self, tmp_path, capsys, text, message):
        """A fixture whose graph has no covering walk is data: exit 1."""
        graph = tmp_path / "bad.edges"
        graph.write_text(text)
        assert main(["dbg", "walk", "--graph", str(graph), "--shortest"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "spells" not in captured.out

    def test_missing_reads_file_is_data_error(self, tmp_path, capsys):
        reads = tmp_path / "absent.fasta"
        assert main(["assemble", "--reads", str(reads), "-k", "3", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta")]) == 1
        assert f"No such file or directory: '{reads}'" in capsys.readouterr().err

    def test_empty_fastq_header_is_data_error(self, tmp_path, capsys):
        reads = tmp_path / "reads.fq"
        reads.write_text("@\nACGT\n+\nIIII\n")
        assert main(["assemble", "--reads", str(reads), "-k", "3", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta")]) == 1
        err = capsys.readouterr().err
        assert "line 1: empty FASTQ header" in err and "Traceback" not in err

    def test_reads_shorter_than_k_minus_one_are_data_error(self, tmp_path, capsys):
        reads = tmp_path / "reads.fasta"
        reads.write_text(">r1\nAC\n>r2\nACG\n")
        out = tmp_path / "c.fasta"
        assert main(["assemble", "--reads", str(reads), "-k", "5", "--method", "unitig",
                     "--out", str(out)]) == 1
        assert "k-1=4 (the longest has 3 nt)" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = abc\n")
        assert main(["stage", "--stage", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s")]) == 1
        assert f"{cfg}, line 1: key 'k'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,line,key,message", [
        ("plant_repeat_copies = 0", 5, "plant_repeat_copies", "must be >= 1, got 0"),
        ("plant_repeat_copies = 3", 5, "plant_repeat_copies", "needs plant_repeat_length"),
        ("genome_fasta = {genome}\nplant_repeat_length = 5", 6, "plant_repeat_length",
         "only applies to a random genome"),
        ("k = 40", 5, "k", "must be in [1, 31], got 40"),
        ("k = 1\nmethod = cpp-walk", 5, "k", "method 'cpp-walk' needs k >= 2, got 1"),
        ("k = 1", 5, "k", "method 'unitig' needs k >= 2, got 1"),
        ("seed = -3", 5, "seed", "must be >= 0, got -3"),
        ("read_length = 0", 5, "read_length", "must be >= 1, got 0"),
        ("genome_length = 0", 5, "genome_length", "must be >= 1, got 0"),
        ("num_reads = 0", 5, "num_reads", "must be >= 1, got 0"),
        ("plant_repeat_length = 0", 5, "plant_repeat_length", "must be >= 1, got 0"),
        ("min_multiplicity = 0", 5, "min_multiplicity", "must be >= 1, got 0"),
        ("genome_length = 100\nplant_repeat_length = 60", 6, "plant_repeat_length",
         "2 copies of 60 nt do not fit in genome_length 100 (line 5)"),
        ("gaps = 30:20", 5, "gaps", "bad gap interval [30, 20)"),
        ("gaps = 10:30 20:40", 5, "gaps", "gap intervals must be pairwise disjoint"),
        ("genome_length = 400\ngaps = 0:395", 6, "gaps", "no read of read_length 20 "
         "(line 2) fits between them in genome_length 400 (line 5)"),
    ], ids=["copies-zero", "copies-alone", "plant-with-genome-fasta", "k-above-31",
            "k-one-cpp-walk", "k-one-unitig", "seed-negative", "read-length-zero",
            "genome-length-zero", "num-reads-zero", "plant-length-zero",
            "min-multiplicity-zero", "plant-too-long", "gap-reversed", "gaps-overlap",
            "gaps-leave-no-read"])
    def test_config_value_out_of_range_is_data_error(self, tmp_path, capsys, gtrue_fasta,
                                                     extra, line, key, message):
        cfg = tmp_path / "bad.cfg"
        extra = extra.format(genome=gtrue_fasta)
        # a key may be set once: a base line whose key the extra sets is
        # commented out, which keeps the extra on line 5
        later = {line.partition("=")[0].strip() for line in extra.splitlines()}
        base = [line if line.partition("=")[0].strip() not in later else f"# {line}"
                for line in ("genome_length = 200", "read_length = 20", "num_reads = 50",
                             "k = 11")]
        cfg.write_text("\n".join(base + [extra]) + "\n")
        out_dir = tmp_path / "s"
        assert main(["stage", "--stage", "2", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}, line {line}: key '{key}'" in err and message in err
        assert not out_dir.exists()

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["stage", "--stage", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("args,message", [
        (["assemble", "--reads", "{missing}", "-k", "5", "--method", "unitig",
          "--correct", "0", "--out", "{out}"], "--correct MINMULT must be >= 1"),
        (["simulate", "--genome", "{missing}", "--num", "5", "--len", "3",
          "--error-rate", "1.5", "--reads", "{out}"], "--error-rate must be in [0, 1), got 1.5"),
        (["simulate", "--genome", "{missing}", "--num", "5", "--len", "3",
          "--gap", "5:3", "--reads", "{out}"], "bad gap interval [5, 3)"),
        (["simulate", "--genome", "{missing}", "--num", "5", "--len", "3",
          "--seed", "-1", "--reads", "{out}"], "--seed must be a non-negative integer, got -1"),
        (["simulate", "--genome", "{missing}", "--idealized", "--len", "3",
          "--seed", "-1", "--reads", "{out}"], "--seed must be a non-negative integer, got -1"),
        (["simulate", "--random-length", "100", "--num", "5", "--len", "3",
          "--seed", "-1", "--reads", "{out}"], "--seed must be a non-negative integer, got -1"),
        (["simulate", "--random-length", "100", "--plant-repeat", "3,x", "--num", "5",
          "--len", "3", "--reads", "{out}"],
         "--plant-repeat expects LEN,COPIES as two integers, got '3,x'"),
        (["simulate", "--genome", "{missing}", "--num", "5", "--len", "3",
          "--gap", "2:x", "--reads", "{out}"], "gap '2:x' must have integer bounds START:END"),
    ], ids=["assemble-correct-0", "simulate-error-rate", "simulate-gap", "simulate-seed",
            "simulate-seed-idealized", "simulate-seed-random", "simulate-plant-repeat",
            "simulate-gap-bound"])
    def test_usage_error_is_decided_before_the_input_is_read(self, tmp_path, capsys, args,
                                                            message):
        # the input does not exist: a usage error must not wait for it
        paths = {"missing": tmp_path / "missing.fasta", "out": tmp_path / "out.fasta"}
        assert main([arg.format(**paths) for arg in args]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_idealized_reads_ignore_error_rate_and_gaps(self, tmp_path, gtrue_fasta):
        out = tmp_path / "x.fasta"
        assert main(["simulate", "--genome", str(gtrue_fasta), "--idealized", "--len", "3",
                     "--error-rate", "1.5", "--gap", "5:3", "--reads", str(out)]) == 0
        assert len(read_fasta(out)) == 17

    def test_read_too_short_to_correct_is_data_error(self, tmp_path, capsys):
        # the first read shorter than k is named, wherever it is
        for fasta, record in [(">r1\nACGTACGT\n>r2\nACG\n", "record 2 has 3 nt"),
                              (">r1\nACGTACGT\n>r2\nACGTA\n>r3\nAC\n>r4\nACG\n",
                               "record 3 has 2 nt")]:
            reads = tmp_path / "r.fasta"
            reads.write_text(fasta)
            out = tmp_path / "c.fasta"
            args = ["assemble", "--reads", str(reads), "-k", "5", "--method", "unitig",
                    "--out", str(out), "--correct", "1"]
            assert main(args) == 1
            assert f"{reads}: {record}, shorter than k=5" in capsys.readouterr().err
            assert not out.exists()

    def test_correction_dropping_every_read_is_data_error(self, tmp_path, capsys):
        reads = tmp_path / "r.fasta"
        reads.write_text(">r1\nACGTTGCAAGGCTTAC\n>r2\nACGTTGCAAGGCTTAC\n")
        out = tmp_path / "c.fasta"
        assert main(["assemble", "--reads", str(reads), "-k", "5", "--method", "unitig",
                     "--out", str(out), "--correct", "3"]) == 1
        assert (f"{reads}: read correction at min multiplicity 3 dropped all 2 reads"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_stage2_correction_dropping_every_read_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text("genome_length = 400\nnum_reads = 2\nread_length = 30\nk = 15\n"
                       "correct = true\nmin_multiplicity = 3\n")
        out_dir = tmp_path / "s"
        assert main(["stage", "--stage", "2", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 1
        assert (f"{cfg}: read correction at min multiplicity 3 dropped all 2 reads"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_empty_reads_file_is_data_error(self, tmp_path, capsys):
        reads = tmp_path / "reads.fasta"
        reads.write_text("\n")
        assert main(["assemble", "--reads", str(reads), "-k", "3", "--method", "unitig",
                     "--out", str(tmp_path / "c.fasta")]) == 1
        assert f"no reads in {reads}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["simulate", "eval", "stage-genome", "stage-truth"])
    def test_empty_genome_or_truth_fasta_is_data_error(self, tmp_path, capsys, gtrue_fasta,
                                                       entry):
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        cfg = tmp_path / "stage.cfg"
        if entry == "simulate":
            args = ["simulate", "--genome", str(empty), "--idealized", "--len", "3",
                    "--reads", str(tmp_path / "r.fasta")]
        elif entry == "eval":
            args = ["eval", "--contigs", str(gtrue_fasta), "--truth", str(empty), "-k", "3",
                    "--report", str(tmp_path / "r.txt")]
        elif entry == "stage-genome":
            cfg.write_text(f"genome_fasta = {empty}\nread_length = 3\nk = 3\n")
            args = ["stage", "--stage", "1", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]
        else:
            cfg.write_text(f"reads_fasta = {gtrue_fasta}\ntruth_fasta = {empty}\nk = 3\n")
            args = ["stage", "--stage", "3", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]
        assert main(args) == 1
        assert f"line 1: no FASTA records in {empty}" in capsys.readouterr().err

    def test_stage2_correcting_reads_shorter_than_k_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text("genome_length = 400\nnum_reads = 300\nread_length = 8\nk = 11\n"
                       "correct = true\n")
        out_dir = tmp_path / "s"
        assert main(["stage", "--stage", "2", "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 1
        assert "needs read_length >= k, got read_length=8 and k=11" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra,line,key,message", [
        ("read_length = 60", 2, "read_length", "60 exceeds genome_length 40 (line 1)"),
        ("gaps = 10:20 30:41", 2, "gaps", "gap 30:41 runs past genome_length 40 (line 1)"),
    ], ids=["read-length", "gap-end"])
    def test_config_longer_than_its_genome_is_data_error(self, tmp_path, capsys, extra,
                                                         line, key, message):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text(f"genome_length = 40\n{extra}\nnum_reads = 20\nk = 5\n"
                       + ("" if key == "read_length" else "read_length = 8\n"))
        out_dir = tmp_path / "s"
        for stage in ("1", "2"):
            assert main(["stage", "--stage", stage, "--config", str(cfg),
                         "--out-dir", str(out_dir)]) == 1
            err = capsys.readouterr().err
            assert f"{cfg}, line {line}: key '{key}': {message}" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize("stage,extra,message", [
        ("1", "read_length = 60", "the genome has 19 nt, fewer than read_length 60"),
        ("2", "read_length = 60", "the genome has 19 nt, fewer than read_length 60"),
        ("2", "read_length = 4\ngaps = 2:5 10:20", "gap 10:20 runs past the genome's 19 nt"),
        ("2", "read_length = 4\ngaps = 0:17", "no read of read_length 4 fits between the "
         "gaps in the genome's 19 nt"),
    ], ids=["stage1-read-length", "stage2-read-length", "stage2-gap-end", "stage2-no-read"])
    def test_genome_fasta_shorter_than_its_reads_is_data_error(self, tmp_path, capsys,
                                                              gtrue_fasta, stage, extra,
                                                              message):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text(f"genome_fasta = {gtrue_fasta}\n{extra}\nnum_reads = 20\nk = 3\n")
        out_dir = tmp_path / "s"
        assert main(["stage", "--stage", stage, "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 1
        assert f"error: {gtrue_fasta}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("stage,method", [(1, "cpp-walk"), (1, "unitig"), (2, "unitig")])
    def test_reads_too_short_for_the_graph_are_data_error(self, tmp_path, capsys, stage,
                                                          method):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text(f"genome_length = 25\nread_length = 10\nnum_reads = 20\nk = 31\n"
                       f"method = {method}\nseed = 1\n")
        out_dir = tmp_path / "s"
        assert main(["stage", "--stage", str(stage), "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 1
        assert (f"error: method {method} needs read_length >= k-1, got read_length=10 "
                "and k=31") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_superstring_shorter_than_k_minus_one_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text("genome_length = 25\nread_length = 10\nk = 31\n"
                       "method = scs-greedy\nseed = 1\n")
        assert main(["stage", "--stage", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s")]) == 1
        assert "error: contig s0 has 25 nt, shorter than k-1=30" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,text,key", [
        (2, "genome_length = 400\nread_length = 30\nk = 11\n", "num_reads"),
        (3, "k = 11\n", "reads_fasta"),
    ], ids=["stage2-num-reads", "stage3-reads-fasta"])
    def test_stage_config_missing_a_key_is_usage_error(self, tmp_path, capsys, stage, text,
                                                        key):
        cfg = tmp_path / "stage.cfg"
        cfg.write_text(text)
        out_dir = tmp_path / "s"
        assert main(["stage", "--stage", str(stage), "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 2
        assert f"stage {stage} config needs {key}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_eval_contig_shorter_than_k_minus_one_is_data_error(self, tmp_path, capsys,
                                                                gtrue_fasta):
        contigs = tmp_path / "c.fa"
        contigs.write_text(">u0 unitig\nAATTCCAGCTGA\n>u1 unitig\nACGT\n")
        report = tmp_path / "r.txt"
        assert main(["eval", "--contigs", str(contigs), "--truth", str(gtrue_fasta),
                     "-k", "12", "--report", str(report)]) == 1
        assert (f"{contigs}: record 2 (u1) has 4 nt, shorter than k-1=11"
                in capsys.readouterr().err)
        assert not report.exists()


class TestEval:
    def test_json_report_escapes_contig_ids(self, tmp_path, gtrue_fasta):
        contigs = tmp_path / "contigs.fasta"
        contigs.write_text('>c"1 quoted\nATTCCAG\n>c\\2\nGGGG\n>plain\nGCTGA\n')
        report = tmp_path / "report.txt"
        assert main(["eval", "--contigs", str(contigs), "--truth", str(gtrue_fasta),
                     "-k", "3", "--report", str(report)]) == 0
        written = (tmp_path / "report.txt.json").read_text()
        records = read_fasta(contigs)
        expected = evaluate(ContigSet(3, ReadSet(r.sequence for r in records),
                                      tuple(r.id for r in records), "file"),
                            read_fasta(gtrue_fasta)[0].sequence, 3)
        assert written == reference_report_json(report_rows(expected))
        rows = json.loads(written)["contigs"]
        assert [row["name"] for row in rows] == ['c"1', "c\\2", "plain"]

    def test_running_example_report(self, tmp_path, gtrue_fasta, gtrue_reads):
        contigs = tmp_path / "contigs.fasta"
        main(["assemble", "--reads", str(gtrue_reads), "-k", "3",
              "--method", "unitig", "--out", str(contigs)])
        report = tmp_path / "report.txt"
        assert main(["eval", "--contigs", str(contigs), "--truth", str(gtrue_fasta),
                     "-k", "3", "--report", str(report)]) == 0
        text = report.read_text()
        assert "misassembly_count = 0" in text
        assert "genome_fraction_covered = 1.000000" in text
        assert (tmp_path / "report.txt.json").exists()

    def test_k_above_31_is_usage_error(self, tmp_path, capsys):
        # contigs long enough for the contig set, so only the k range is wrong
        genome = "ACGTTGCAAGGCTTACCGATCGATTGCAGGTCCATGAC"
        truth = tmp_path / "truth.fasta"
        truth.write_text(f">t\n{genome}\n")
        contigs = tmp_path / "contigs.fasta"
        contigs.write_text(f">c0\n{genome[:31]}\n>c1\n{genome[3:]}\n")
        report = tmp_path / "r.txt"
        assert main(["eval", "--contigs", str(contigs), "--truth", str(truth),
                     "-k", "32", "--report", str(report)]) == 2
        assert "k must be an integer in [1, 31], got 32" in capsys.readouterr().err
        assert not report.exists()

    def test_truth_flag_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--contigs", "x.fasta", "-k", "3",
                  "--report", str(tmp_path / "r.txt")])
        assert err.value.code == 2


class TestStage:
    def test_stage1_coverage_one(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("genome_length = 600\nread_length = 40\nk = 15\n"
                       "method = unitig\nseed = 7\n")
        assert main(["stage", "--stage", "1", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s1")]) == 0
        out = capsys.readouterr().out
        assert "genome_fraction_covered = 1.000000" in out
        assert (tmp_path / "s1" / "report.json").exists()

    def test_stage_runs_are_bit_identical(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("genome_length = 400\nnum_reads = 300\nread_length = 30\n"
                       "k = 11\nmethod = unitig\nseed = 3\nerror_rate = 0.005\n")
        for d in ("a", "b"):
            assert main(["stage", "--stage", "2", "--config", str(cfg),
                         "--out-dir", str(tmp_path / d)]) == 0
        for name in ("genome.fasta", "reads.fasta", "contigs.fasta",
                     "graph.dot", "report.txt", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stage3_leaves_reads_uncorrected_and_warns(self, tmp_path, caplog):
        from asmlab.simulate import idealized_reads, random_genome

        genome = DnaString("A" * 30 + str(random_genome(300, seed=5)) + "A" * 30)
        given = [FastaRecord(f"r{i}", r) for i, r in enumerate(idealized_reads(genome, 30))]
        given.append(FastaRecord("junk", random_genome(30, seed=999)))
        reads = tmp_path / "reads.fasta"
        write_fasta(given, reads)
        cfg = tmp_path / "stage.cfg"
        cfg.write_text(f"reads_fasta = {reads}\nk = 15\ncorrect = true\n"
                       "min_multiplicity = 2\n")
        assert main(["stage", "--stage", "3", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "s3")]) == 0
        kept = [r.sequence for r in read_fasta(tmp_path / "s3" / "reads.fasta")]
        assert kept == [r.sequence for r in given]
        assert "stage 3 does not correct its reads" in caplog.text

    @pytest.mark.parametrize("stage,correct", [(1, None), (2, None), (2, 2)],
                             ids=["stage1", "stage2", "stage2-corrected"])
    def test_stage_matches_subcommands(self, tmp_path, stage, correct):
        """A stage writes what simulate -> assemble -> dbg -> eval write."""
        from asmlab.simulate import random_genome

        genome = tmp_path / "genome.fasta"
        write_fasta([FastaRecord("g", random_genome(1500, seed=21))], genome)
        k, sample = "15", ["--len", "50", "--seed", "4"]
        config = f"genome_fasta = {genome}\nread_length = 50\nk = {k}\nseed = 4\n"
        if stage == 1:
            sample.append("--idealized")
        else:
            sample += ["--num", "600", "--error-rate", "0.01", "--gap", "200:300"]
            config += "num_reads = 600\nerror_rate = 0.01\ngaps = 200:300\n"
        if correct:
            config += f"correct = true\nmin_multiplicity = {correct}\n"
        cfg, out, sub = tmp_path / "stage.cfg", tmp_path / "out", tmp_path / "sub"
        cfg.write_text(config)
        assert main(["stage", "--stage", str(stage), "--config", str(cfg),
                     "--out-dir", str(out)]) == 0

        sub.mkdir()
        assert main(["simulate", "--genome", str(genome), "--reads", str(sub / "reads.fasta"),
                     "--genome-out", str(sub / "genome.fasta"), *sample]) == 0
        assert main(["assemble", "--reads", str(sub / "reads.fasta"), "-k", k,
                     "--method", "unitig", "--out", str(sub / "contigs.fasta"),
                     *(["--correct", str(correct)] if correct else [])]) == 0
        assert main(["dbg", "build", "--reads", str(out / "reads.fasta"), "-k", k,
                     "--out", str(sub / "graph.edges")]) == 0
        assert main(["dbg", "dot", "--graph", str(sub / "graph.edges"),
                     "--out", str(sub / "graph.dot")]) == 0
        assert main(["eval", "--contigs", str(sub / "contigs.fasta"), "--truth", str(genome),
                     "-k", k, "--report", str(sub / "report.txt")]) == 0
        (sub / "report.txt.json").rename(sub / "report.json")

        names = ["genome.fasta", "contigs.fasta", "graph.dot", "report.txt", "report.json"]
        if not correct:  # the corrected stage writes its corrected reads
            names.append("reads.fasta")
        for name in names:
            assert (out / name).read_bytes() == (sub / name).read_bytes(), name

    def test_artifact_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ASMLAB_ARTIFACTS", str(tmp_path / "artifacts"))
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("genome_length = 200\nread_length = 20\nk = 11\nseed = 1\n")
        assert main(["stage", "--stage", "1", "--config", str(cfg)]) == 0
        assert (tmp_path / "artifacts" / "stage1" / "report.json").exists()


class TestTopLevel:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "scs", "assemble", "eval", "stage"):
            assert name in out

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


def _program_run(directory: Path) -> dict:
    """simulate, assemble (unitig and cpp-walk), eval and stage 2 into
    ``directory``; the bytes of every file they write."""
    directory.mkdir()
    reads, genome = directory / "reads.fasta", directory / "genome.fasta"
    small, walk_reads = directory / "small.fasta", directory / "walk-reads.fasta"
    config = directory.with_suffix(".cfg")  # outside: it names the directory
    config.write_text(f"genome_fasta = {genome}\nnum_reads = 300\nread_length = 60\n"
                      "error_rate = 0.01\nk = 15\nmethod = unitig\ncorrect = true\n"
                      "min_multiplicity = 2\nseed = 8\n")
    for command in (
        ["simulate", "--random-length", "3000", "--num", "400", "--len", "60",
         "--error-rate", "0.01", "--seed", "5", "--reads", str(reads), "--genome-out", str(genome)],
        ["simulate", "--random-length", "600", "--idealized", "--len", "40", "--seed", "9",
         "--reads", str(walk_reads), "--genome-out", str(small)],
        ["assemble", "--reads", str(reads), "-k", "15", "--method", "unitig",
         "--out", str(directory / "contigs.fasta"), "--dot", str(directory / "graph.dot")],
        ["assemble", "--reads", str(walk_reads), "-k", "15", "--method", "cpp-walk",
         "--out", str(directory / "walk.fasta")],
        ["eval", "--contigs", str(directory / "contigs.fasta"), "--truth", str(genome),
         "-k", "15", "--report", str(directory / "report.txt")],
        ["stage", "--stage", "2", "--config", str(config), "--out-dir", str(directory / "s2")],
    ):
        assert main(command) == 0, command
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_file_boundary_makes_no_string_or_record_per_read_or_contig(tmp_path, monkeypatch):
    expected = _program_run(tmp_path / "plain")
    records = []
    validate = FastaRecord.__post_init__

    def counted(record):
        records.append(record.id)
        validate(record)

    def per_read(*args):
        raise AssertionError("a string was made per read or contig")

    monkeypatch.setattr(FastaRecord, "__post_init__", counted)
    monkeypatch.setattr(ReadSet, "__iter__", per_read)
    outputs = _program_run(tmp_path / "guarded")
    assert outputs == expected
    assert expected["contigs.fasta"].count(b">") > 100
    # one record for each single-record file: both simulated genomes and stage 2's
    assert records == ["truth", "truth", "truth"]


# Run in a fresh interpreter: which scipy modules the commands load.
_SCIPY_PROBE = """
import json, sys
from asmlab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
open("stage2.cfg", "w").write("genome_length = 2000\\nnum_reads = 300\\nread_length = 60\\n"
                              "error_rate = 0.01\\nk = 15\\nmethod = unitig\\n"
                              "correct = true\\nmin_multiplicity = 2\\nseed = 4\\n")
for name, command in (
    ("simulate", ["simulate", "--random-length", "3000", "--num", "400", "--len", "60",
                  "--error-rate", "0.01", "--seed", "5", "--reads", "reads.fasta",
                  "--genome-out", "genome.fasta"]),
    ("unitig", ["assemble", "--reads", "reads.fasta", "-k", "15", "--method", "unitig",
                "--out", "contigs.fasta", "--dot", "graph.dot"]),
    ("eval", ["eval", "--contigs", "contigs.fasta", "--truth", "genome.fasta", "-k", "15",
              "--report", "report.txt"]),
    ("stage", ["stage", "--stage", "2", "--config", "stage2.cfg", "--out-dir", "s2"]),
    ("cpp-walk", ["assemble", "--reads", "walk.fasta", "-k", "3", "--method", "cpp-walk",
                  "--out", "walk-contigs.fasta"]),
):
    if name == "cpp-walk":
        open("walk.fasta", "w").write(">r0\\nAATTCCAGCTGATTCCAGT\\n")
    assert main(command) == 0, command
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_scipy_is_loaded_only_to_solve_a_covering_walk(tmp_path):
    src = str(Path(asmlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path, capture_output=True,
                          text=True, env={"PYTHONPATH": src, "PATH": ""}, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])  # the commands print before it
    for name in ("import", "simulate", "unitig", "eval", "stage"):
        assert loaded[name] == [], name
    assert "scipy.optimize" in loaded["cpp-walk"]
    assert "scipy.sparse.csgraph" in loaded["cpp-walk"]
    walk = (tmp_path / "walk-contigs.fasta").read_text().split("\n")
    assert "".join(walk[1:]) == "AATTCCAGCTGATTCCAGT"
