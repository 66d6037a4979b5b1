import io
import itertools
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asmlab import graph as dbg
from asmlab import sequence
from asmlab.errors import AssemblyError, ConfigError, FastaParseError
from asmlab.formats import (
    FastaRecord,
    StageConfig,
    fasta_bytes,
    parse_gaps,
    read_config,
    read_edge_list,
    read_fasta,
    read_named,
    read_reads,
    write_edge_list,
    write_fasta,
)
from asmlab.sequence import DnaString, ReadSet
from asmlab.unitig import ContigSet
from asmlab.simulate import random_genome
from helpers import (
    reference_parse_fasta,
    reference_parse_fastq,
    reference_write_edge_list,
    reference_write_fasta,
)

PROPERTY = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

record_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.text(alphabet="ACGT", min_size=1, max_size=150),
    ),
    min_size=0,
    max_size=8,
    unique_by=lambda t: t[0],
).map(lambda items: [FastaRecord(f"r{i}", DnaString(s)) for i, s in items])


class TestReadFasta:
    def test_line_folding_and_uppercase(self):
        records = read_fasta(io.StringIO(">r1\nAC\ngt\n"))
        assert records == [FastaRecord("r1", DnaString("ACGT"))]

    def test_description_preserved(self):
        records = read_fasta(io.StringIO(">r1 sample desc\nACGT\n"))
        assert records[0].description == "sample desc"

    def test_ambiguous_symbol_is_an_error_with_line_number(self):
        with pytest.raises(FastaParseError, match="line 2") as err:
            read_fasta(io.StringIO(">r1\nACGN\n"))
        assert "'N'" in str(err.value)

    def test_empty_sequence_rejected(self):
        with pytest.raises(FastaParseError, match="empty sequence"):
            read_fasta(io.StringIO(">r1\n>r2\nACGT\n"))

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaParseError, match="before any"):
            read_fasta(io.StringIO("ACGT\n"))

    def test_fastq_quality_lines_ignored(self):
        text = "@r1\nACGT\n+\n!!!!\n@r2\nGGCC\n+\n####\n"
        records = read_fasta(io.StringIO(text))
        assert [(r.id, str(r.sequence)) for r in records] == [("r1", "ACGT"), ("r2", "GGCC")]

    def test_fastq_quality_length_must_match_sequence(self):
        with pytest.raises(FastaParseError, match="line 4: record 'r1' has 2 quality"):
            read_fasta(io.StringIO("@r1\nACGT\n+\nII\n"))

    @pytest.mark.parametrize("text", [
        "@\nACGT\n+\nIIII\n",
        "@r1\nAC\n+\nII\n@  \t\nGT\n+\nII\n",
    ])
    def test_fastq_empty_header_names_line(self, text):
        line = text.count("\n", 0, text.rindex("@")) + 1
        with pytest.raises(FastaParseError, match=f"^line {line}: empty FASTQ header$"):
            read_fasta(io.StringIO(text))

    def test_read_reads_without_records_names_file(self, tmp_path):
        path = tmp_path / "empty.fasta"
        path.write_text("")
        with pytest.raises(FastaParseError, match=f"no reads in {re.escape(str(path))}"):
            read_reads(path)

    @pytest.mark.parametrize("text,line", [
        (">r1\nACGT\n\nAC\nGTN\n>r2\nA\n", 5),
        ("@r1\nACNT\n+\n!!!!\n", 2),
    ])
    def test_symbol_error_line_after_single_scan(self, text, line):
        with pytest.raises(FastaParseError, match=f"line {line}: invalid symbol 'N' in record 'r1'"):
            read_fasta(io.StringIO(text))

    def test_read_reads_wraps_into_readset(self):
        reads = read_reads(io.StringIO(">a\nACG\n>b\nCGT\n"))
        assert isinstance(reads, ReadSet)
        assert list(reads) == ["ACG", "CGT"]


class TestWriteFasta:
    def test_simple_record(self):
        assert fasta_bytes([FastaRecord("r1", DnaString("ACGT"))]) == ">r1\nACGT\n"

    def test_sixty_column_wrap(self):
        seq = DnaString("A" * 61)
        text = fasta_bytes([FastaRecord("r1", seq)])
        assert text == ">r1\n" + "A" * 60 + "\nA\n"

    def test_empty_collection(self):
        assert fasta_bytes([]) == ""

    def test_duplicate_ids_rejected(self, tmp_path):
        records = [FastaRecord("x", DnaString("AC")), FastaRecord("x", DnaString("GT"))]
        with pytest.raises(ValueError, match="duplicate"):
            fasta_bytes(records)
        path = tmp_path / "out.fasta"
        contigs = ContigSet(1, ReadSet.of("AC", "GT", "AC"), ("x", "y", "x"), "")
        for given in (records, contigs):
            with pytest.raises(ValueError, match="^duplicate record id 'x'$"):
                write_fasta(given, path)
            assert not path.exists()  # raised before the file was made

    def test_whitespace_id_rejected(self):
        with pytest.raises(ValueError):
            FastaRecord("bad id", DnaString("AC"))

    @PROPERTY
    @given(record_lists)
    def test_round_trip(self, records):
        text = fasta_bytes(records)
        parsed = read_fasta(io.StringIO(text))
        assert parsed == records
        assert fasta_bytes(parsed) == text


class TestEdgeList:
    def test_round_trip(self, fig_graph):
        buf = io.StringIO()
        write_edge_list(fig_graph, buf)
        again = read_edge_list(io.StringIO(buf.getvalue()))
        assert again == fig_graph

    def test_isolated_vertices_survive(self):
        g = dbg.build(ReadSet.of("ACGT", "TT"), 3)
        buf = io.StringIO()
        write_edge_list(g, buf)
        again = read_edge_list(io.StringIO(buf.getvalue()))
        assert again.isolated_vertices() == ["TT"]

    def test_symbol_outside_alphabet_names_line(self):
        with pytest.raises(FastaParseError, match="line 3: invalid symbol 'X'"):
            read_edge_list(io.StringIO("k=3\nACG\nCGX\n"))
        with pytest.raises(FastaParseError, match="line 2: invalid symbol 'N'"):
            read_edge_list(io.StringIO("k=3\nv=NN\n"))

    @pytest.mark.parametrize("text,line", [
        ("k=3\nACG\nACGT\n", "line 3: edge 'ACGT' has length 4, expected 3"),
        ("k=3\nv=A\n", "line 2: vertex 'A' has length 1, expected 2"),
        ("k=x\nACG\n", "line 1: graph order 'x' is not an integer"),
        ("\nk=40\nACG\n", "line 2: graph order k=40 is outside"),
        ("k=1\nA\n", "line 1: graph order k=1 is outside"),
    ])
    def test_bad_header_or_length_names_line(self, text, line):
        with pytest.raises(FastaParseError, match=re.escape(line)):
            read_edge_list(io.StringIO(text))

    def test_header_required(self):
        with pytest.raises(FastaParseError, match="^line 1: .* 'k=<int>' header$"):
            read_edge_list(io.StringIO("ACG\n"))


def _edge_list_texts(graph) -> tuple[str, str]:
    written, frozen = io.StringIO(), io.StringIO()
    write_edge_list(graph, written)
    reference_write_edge_list(graph, frozen)
    return written.getvalue(), frozen.getvalue()


class TestEdgeListMatchesLineByLine:
    """``write_edge_list`` against the frozen one-line-per-write writer."""

    @pytest.mark.parametrize("reads,k,text", [
        (("ACGTA",), 6, "k=6\nv=ACGTA\n"),
        (("ACG", "TTA", "ACG"), 4, "k=4\nv=ACG\nv=TTA\n"),
    ], ids=["one-vertex", "vertices"])
    def test_no_edges(self, reads, k, text):
        # reads of k-1 symbols alone: every line is an isolated vertex
        graph = dbg.build(ReadSet.of(*reads), k)
        assert graph.num_edges == 0
        written, frozen = _edge_list_texts(graph)
        assert written == frozen == text

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 16, 17, 31])
    def test_edges_and_isolated_vertices(self, k):
        genome = random_genome(300, seed=k)
        reads = ReadSet.of(genome, genome[5:5 + k - 1], "A" * (k - 1), genome[:k - 2])
        graph = dbg.build(reads, k)
        written, frozen = _edge_list_texts(graph)
        assert written == frozen
        assert written.count("\nv=") == len(graph.isolated_vertices())

    def test_isolated_vertices_come_last_in_sorted_order(self):
        graph = dbg.build(ReadSet.of("ACGTT", "TTTT", "GGGG", "AAAA"), 5)
        written, frozen = _edge_list_texts(graph)
        assert written == frozen
        assert written.splitlines()[-3:] == ["v=AAAA", "v=GGGG", "v=TTTT"]

    @pytest.mark.parametrize("extra", [0, 3, 8], ids=["batch-edge", "mid-batch", "batch"])
    def test_batch_boundaries(self, monkeypatch, extra):
        monkeypatch.setattr(dbg, "_DOT_BATCH", 8)
        # 24 edges, three full batches, then `extra` isolated vertices
        genome = random_genome(30, seed=3)
        lone = [v for v in ("A" * 6, "C" * 6, "G" * 6, "T" * 6, "ACACAC", "CACACA",
                            "GTGTGT", "TGTGTG") if v not in genome][:extra]
        graph = dbg.build(ReadSet.of(genome, *lone), 7)
        assert graph.num_edges == 24 and len(graph.isolated_vertices()) == extra
        written, frozen = _edge_list_texts(graph)
        assert written == frozen

    def test_file_sink(self, tmp_path):
        graph = dbg.build(ReadSet.of(random_genome(200, seed=9), "CCCC"), 5)
        written, frozen = tmp_path / "a.edges", tmp_path / "b.edges"
        write_edge_list(graph, written)
        reference_write_edge_list(graph, frozen)
        assert written.read_bytes() == frozen.read_bytes()


class TestConfig:
    def test_basic_keys(self):
        cfg = read_config(io.StringIO(
            "read_length = 100\nk = 21\nmethod = cpp-walk\nseed = 9\n"
            "# a comment\nerror_rate = 0.01\ncorrect = true\n"
        ))
        assert cfg.read_length == 100
        assert cfg.k == 21
        assert cfg.method == "cpp-walk"
        assert cfg.error_rate == 0.01
        assert cfg.correct is True

    def test_gap_parsing(self):
        cfg = read_config(io.StringIO("gaps = 100:200 300:400\n"))
        assert cfg.gaps == ((100, 200), (300, 400))
        assert parse_gaps("5:9") == ((5, 9),)
        with pytest.raises(ValueError, match="START:END"):
            parse_gaps("59")

    def test_gap_bound_that_is_not_an_integer_names_the_gap(self):
        with pytest.raises(ValueError, match=re.escape("gap '2:x' must have integer bounds")):
            parse_gaps("1:2, 2:x")
        with pytest.raises(ConfigError, match=re.escape(
                "line 2: key 'gaps': gap 'y:4' must have integer bounds START:END")):
            read_config(io.StringIO("k = 5\ngaps = y:4\n"))

    def test_error_rate_range(self):
        with pytest.raises(ValueError, match="error_rate"):
            read_config(io.StringIO("error_rate = 1.5\n"))

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="'foo'"):
            read_config(io.StringIO("foo = 1\n"))

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            read_config(io.StringIO("method = magic\n"))

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key = value"):
            read_config(io.StringIO("read_length\n"))

    @pytest.mark.parametrize("text", ["k = abc\n", "foo = 1\n", "read_length\n"])
    def test_bad_line_is_a_data_error(self, text):
        with pytest.raises(ConfigError, match="line 1") as err:
            read_config(io.StringIO(text))
        assert isinstance(err.value, AssemblyError) and isinstance(err.value, ValueError)

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 3\nk = abc\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}, line 2: key 'k'"):
            read_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("k = 11\nseed = 3\n# k = 13\n  k = 15  # again\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}, line 4: "
                           "key 'k' is already set on line 1"):
            read_config(path)

    @pytest.mark.parametrize("value", ["no", "off", "0"])
    def test_false_spellings(self, value):
        assert read_config(io.StringIO(f"correct = {value}\n")).correct is False

    def test_bad_boolean_names_its_line(self):
        with pytest.raises(ConfigError, match=re.escape(
                "line 2: key 'correct': expected a boolean, got 'maybe'")):
            read_config(io.StringIO("k = 5\ncorrect = maybe\n"))

    def test_defaults(self):
        cfg = read_config(io.StringIO(""))
        assert cfg == StageConfig()


# pieces of FASTA text: headers with and without descriptions, bare '>'
# headers, blank and whitespace lines, mixed-case and ambiguous bodies,
# symbols outside ASCII (one of which, 'ß', uppercases to two symbols),
# data before the first header, and every kind of line ending
_HEADERS = st.builds(lambda lead, name, tail: f">{lead}{name}{tail}",
                     st.sampled_from(["", " ", "\t"]),
                     st.text(alphabet="abr019_.|-", min_size=1, max_size=5),
                     st.sampled_from(["", " desc", "  two words ", "\tx y", " "]))
_BARE_HEADERS = st.sampled_from([">", "> ", ">\t"])
_GOOD_BODIES = st.text(alphabet="ACGTacgt", min_size=1, max_size=12)
_ANY_BODIES = st.text(alphabet="ACGTacgtNn ßſıé\x00\x1f", max_size=8) | st.sampled_from(
    ["Aß", "ßT", "ſ", "ı", "ACGN", "é", "\x00", "A\x1f"])
_BLANKS = st.sampled_from(["", " ", "\t \t"])


def _mostly(common, rare, one_in: int):
    """``common``, but ``rare`` about once in ``one_in`` draws."""
    return st.sampled_from(range(one_in)).flatmap(
        lambda i: rare if i == one_in - 1 else common)


_RECORDS = st.tuples(
    _mostly(_HEADERS, _BARE_HEADERS, 40),
    _mostly(st.lists(_mostly(_GOOD_BODIES, st.one_of(_ANY_BODIES, _BLANKS), 10),
                     min_size=1, max_size=3), st.just([]), 40))
_PREAMBLES = _mostly(st.just([]), st.lists(st.one_of(_BLANKS, _ANY_BODIES), min_size=1,
                                           max_size=2), 6)
_ENDINGS = st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c"]),
                    min_size=1, max_size=3)


def _fasta_text(preamble, records, endings) -> str:
    lines = [*preamble, *(line for head, body in records for line in (head, *body))]
    return "".join(line + end for line, end in zip(lines, itertools.cycle(endings)))


fasta_texts = st.builds(_fasta_text, _PREAMBLES, st.lists(_RECORDS, max_size=6), _ENDINGS)


def _outcome(parse):
    try:
        return [(r.id, str(r.sequence), r.description) for r in parse()]
    except FastaParseError as exc:
        return (type(exc), str(exc), exc.line)


class TestParseFastaMatchesLineByLine:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fasta_texts)
    def test_same_records_or_same_error(self, text):
        expected = _outcome(lambda: reference_parse_fasta(text, False))
        assert _outcome(lambda: read_fasta(io.StringIO(text))) == expected
        if isinstance(expected, list) and expected:
            reads = read_reads(io.StringIO(text))
            assert list(reads) == [seq for _, seq, _ in expected]
            assert all(type(r) is DnaString for r in reads)

    def test_symbol_that_grows_when_uppercased(self):
        # 'ß' uppercases to 'SS': the record after it keeps its extent
        text = ">a\nAß\n>b\nACGT\n"
        expected = _outcome(lambda: reference_parse_fasta(text, False))
        assert _outcome(lambda: read_fasta(io.StringIO(text))) == expected


# pieces of FASTQ text: good, bare and misplaced headers, mixed-case and
# ambiguous sequences, good and bad '+' lines, quality lines of the right
# length or one off, blank lines between records, and truncated endings
_FQ_HEADERS = st.builds(lambda name, tail: f"@{name}{tail}",
                        st.text(alphabet="abr019_.|-", min_size=1, max_size=5),
                        st.sampled_from(["", " desc", "  two words ", "\tx y", " "]))
_FQ_BAD_HEADERS = st.sampled_from(["@", "@ \t", " @r", "r1", ">r1", ""])
_FQ_SEQUENCES = _mostly(st.text(alphabet="ACGTacgt", min_size=1, max_size=12),
                        st.text(alphabet="ACGTNn \u00df\u017f\x00", max_size=6), 10)
_FQ_SEPARATORS = _mostly(st.sampled_from(["+", "+r1", "+ "]), st.sampled_from(["-", "", " +"]), 15)
_FQ_RECORDS = st.builds(
    lambda head, seq, sep, off, pad: [head, seq, sep, pad + "I" * max(0, len(seq.strip()) + off)],
    _mostly(_FQ_HEADERS, _FQ_BAD_HEADERS, 15), _FQ_SEQUENCES, _FQ_SEPARATORS,
    _mostly(st.just(0), st.sampled_from([-1, 1]), 15), st.sampled_from(["", " "]))


def _fastq_text(first, records, blanks, cut, endings) -> str:
    records[0][0] = first  # the text must read as FASTQ
    lines = [line for record, gap in zip(records, itertools.cycle(blanks))
             for line in (*record, *gap)]
    lines = lines[:len(lines) - cut]
    return "".join(line + end for line, end in zip(lines, itertools.cycle(endings)))


fastq_texts = st.builds(
    _fastq_text, _mostly(_FQ_HEADERS, st.just("@"), 20), st.lists(_FQ_RECORDS, min_size=1, max_size=5),
    st.lists(_mostly(st.just([]), st.lists(_BLANKS, min_size=1, max_size=2), 4), min_size=1,
             max_size=3),
    _mostly(st.just(0), st.integers(min_value=1, max_value=3), 8), _ENDINGS)


def _error(parse):
    with pytest.raises(FastaParseError) as err:
        parse()
    return (type(err.value), str(err.value), err.value.line)


class TestFastqMatchesFrozenParser:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fastq_texts)
    @example("@r1\nACGT\n+\nIIII\n\n \n@r2 d\nacgt\n+r2\nIIII\n")  # blank lines, lower case
    @example("@r1\nACGT\n+\nIIII\n@r2\nAC\n+\n")  # a truncated record
    @example("@r1\nACGT\n-\nIIII\n")  # a bad '+' line
    @example("@r1\nACGT\n+\nIIIII\n")  # a quality length mismatch
    @example("@r1\nACGT\n+\n@III\n@r2\nAC\n+r2\n+I\n")  # quality lines opening with '@', '+'
    @example("@r1\nACGT\n+\n@@@\n@r2\nAC\n+\nII\n")  # ... and one that is short
    @example("@a\nA\n+\nI\n@b\nC\n+\nI\n@c\nG\n\n+\nI\n")  # a blank line in the third record
    @example("@r1\r\nACGT\r\n+\r\n@III\r\n@r2 d\r\nacgt\r\n+\r\nIIII\r\n")  # CRLF endings
    @example("@r1\nACGT\n+\nIIII\n\n \n@r2\nAC\n+\n")  # truncated after blank lines
    @example("".join(f"@r{i}\n{'ACGT'[i % 4] * (i % 7 + 1)}\n+\n{'@' * (i % 7 + 1)}\n"
                     for i in range(60)))  # 60 valid records
    def test_same_records_or_same_error(self, text):
        expected = _outcome(lambda: reference_parse_fastq(text))
        assert _outcome(lambda: read_fasta(io.StringIO(text))) == expected
        if isinstance(expected, list):
            ids, reads = read_named(io.StringIO(text))
            assert list(ids) == [name for name, _, _ in expected]
            assert list(reads) == [seq for _, seq, _ in expected]
            assert read_reads(io.StringIO(text)) == reads
        else:
            assert _error(lambda: read_named(io.StringIO(text))) == expected
            assert _error(lambda: read_reads(io.StringIO(text))) == expected


# FASTA_WRAP - 1, FASTA_WRAP and FASTA_WRAP + 1 symbols, and the same past two lines
_WRAP_LENGTHS = (0, 1, 59, 60, 61, 120, 121)
_WRAP_RECORDS = st.lists(
    st.tuples(st.sampled_from(_WRAP_LENGTHS).flatmap(
        lambda n: st.text(alphabet="ACGT", min_size=n, max_size=n)),
        st.sampled_from(["", "desc", "two  words", "x\ty"])),
    max_size=8)


def _wrap_text(records) -> str:
    handle = io.StringIO()
    reference_write_fasta(records, handle)
    return handle.getvalue()


class TestWriteFastaMatchesLineByLine:
    @PROPERTY
    @given(_WRAP_RECORDS, st.sampled_from([1, 7, 200, 1 << 21]))
    @example([(DnaString("A" * n), d) for n in _WRAP_LENGTHS for d in ("", "desc")], 1 << 21)
    def test_same_bytes(self, items, batch):
        records = [FastaRecord(f"r{i}", DnaString(seq), d) for i, (seq, d) in enumerate(items)]
        source = items[0][1] if items else ""
        contigs = ContigSet(1, ReadSet(seq for seq, _ in items),
                            tuple(r.id for r in records), source)
        shared = [FastaRecord(r.id, r.sequence, source) for r in records]
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(sequence, "_COUNT_BATCH", batch)  # records laid out per batch
            assert fasta_bytes(records) == _wrap_text(records)
            handle = io.StringIO()
            write_fasta(contigs, handle)
            assert handle.getvalue() == _wrap_text(shared)
