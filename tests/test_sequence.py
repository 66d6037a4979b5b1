import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmlab.formats import read_reads
from asmlab.sequence import (
    MAX_K,
    DnaString,
    KmerSpectrum,
    ReadSet,
    decode_kmer,
    decode_kmers,
    encode_kmer,
    encode_kmers,
    first_invalid,
    folded_codes,
    from_codes,
    in_sorted,
    is_common_superstring,
    key_indices,
    kmer_codes,
    longest_repeat,
    max_overlap,
    spectrum,
    spectrum_of_set,
    spectrum_subset_check,
    symbol_codes,
    to_codes,
)
from conftest import G_SCS, G_SOL, G_TRUE
from helpers import (
    brute_longest_repeat,
    brute_max_overlap,
    brute_spectrum_subset_check,
    naive_spectrum,
)

PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

dna = st.text(alphabet="ACGT", min_size=0, max_size=40)
dna_nonempty = st.text(alphabet="ACGT", min_size=1, max_size=40)


class TestDnaString:
    def test_accepts_alphabet(self):
        assert DnaString("ACGT") == "ACGT"
        assert DnaString("") == ""

    def test_rejects_other_symbols(self):
        with pytest.raises(ValueError, match="invalid symbol"):
            DnaString("ACGN")
        with pytest.raises(ValueError):
            DnaString("acgt")

    def test_readset_keeps_dnastrings_and_validates_plain_strings(self):
        reads = (DnaString("ACGT"), DnaString("GGA"))
        kept = ReadSet(reads)
        assert tuple(kept) == reads
        mixed = ReadSet((reads[0], "TTG"))
        assert type(mixed[1]) is DnaString and mixed[0] == reads[0]
        assert tuple(ReadSet([reads[0]])) == (reads[0],)
        with pytest.raises(ValueError, match="invalid symbol 'N' at position 2"):
            ReadSet((reads[0], "ACN"))


class TestReadSet:
    def test_built_from_str_and_dnastring_mixes(self):
        mixed = ReadSet(["ACGT", DnaString("GGA"), "", "T"])
        assert mixed == ReadSet.of("ACGT", "GGA", "", "T") == ReadSet(iter(mixed))
        assert mixed != ReadSet.of("ACGT", "GGA", "T")

    @pytest.mark.parametrize("make", [ReadSet, lambda reads: ReadSet.of(*reads)])
    def test_invalid_symbol_named_at_its_position_in_its_read(self, make):
        with pytest.raises(ValueError, match="invalid symbol 'N' at position 2;"):
            make(["ACGTACGT", "ACGT", "GANTT", "NNNN"])
        with pytest.raises(ValueError, match="invalid symbol 'a' at position 0;"):
            make(["", "acgt"])

    def test_length_and_indexing(self):
        reads = ReadSet.of("ACGT", "", "GGATC")
        assert len(reads) == 3
        assert reads[0] == "ACGT" and reads[1] == "" and reads[-1] == "GGATC"
        assert reads[-3] == reads[0]
        assert all(type(reads[i]) is DnaString for i in range(-3, 3))
        for i in (3, -4):
            with pytest.raises(IndexError):
                reads[i]

    def test_iteration_gives_dnastrings_equal_to_the_inputs(self):
        inputs = ("ACGT", DnaString("TT"), "", "GATTACA")
        out = list(ReadSet(inputs))
        assert out == list(inputs) and all(type(r) is DnaString for r in out)
        assert list(ReadSet(inputs)) == out  # iterating twice gives the same reads

    def test_equality_with_parsed_reads_and_the_empty_set(self, tmp_path):
        path = tmp_path / "reads.fasta"
        path.write_text(">a\nACGT\nTT\n>b x\nggc\n>c\nA\n")
        assert read_reads(path) == ReadSet.of("ACGTTT", "GGC", "A")
        assert read_reads(path) != ReadSet.of("ACGTTT", "GGC")
        empty = ReadSet(())
        assert len(empty) == 0 and list(empty) == [] and empty == ReadSet([])
        assert empty != ReadSet.of("")


class TestKmer:
    def test_round_trip_known(self):
        assert decode_kmer(encode_kmer("ACGT"), 4) == "ACGT"

    @PROPERTY
    @given(st.text(alphabet="ACGT", min_size=1, max_size=31))
    def test_round_trip(self, text):
        assert decode_kmer(encode_kmer(text), len(text)) == text

    @PROPERTY
    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(*[st.text(alphabet="ACGT", min_size=n, max_size=n)] * 2)))
    def test_order_is_lexicographic(self, pair):
        a, b = pair
        assert (encode_kmer(a) < encode_kmer(b)) == (a < b)

    @PROPERTY
    @given(st.integers(min_value=1, max_value=31).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.text(alphabet="ACGT", min_size=k, max_size=k), max_size=20))))
    def test_vectorized_round_trip(self, case):
        k, kmers = case
        packed = encode_kmers(kmers, k)
        assert packed.tolist() == [encode_kmer(x) for x in kmers]
        assert decode_kmers(packed, k) == kmers

    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_vectorized_decode_matches_scalar_decode(self, k):
        # the DOT oracle names vertices through decode_kmers, so the
        # vectorized decoders answer to the scalar one at every width
        rng = np.random.default_rng(k)
        packed = np.concatenate((rng.integers(0, 4 ** k, size=300, dtype=np.uint64),
                                 np.array([0, 4 ** k - 1], dtype=np.uint64)))
        expected = [decode_kmer(value, k) for value in packed.tolist()]
        assert decode_kmers(packed, k) == expected
        assert kmer_codes(packed, k).tolist() == [list(to_codes(text)) for text in expected]

    def test_vectorized_decode_of_nothing(self):
        empty = np.zeros(0, dtype=np.uint64)
        for k in (1, 4, MAX_K):
            assert decode_kmers(empty, k) == []
            assert kmer_codes(empty, k).shape == (0, k)
        # width 0: unitigs of order 2 spell no symbol of their first vertex's prefix
        assert kmer_codes(np.array([0, 3], dtype=np.uint64), 0).shape == (2, 0)

    def test_vectorized_encode_checks_length_and_symbols(self):
        with pytest.raises(ValueError, match="'ACG' does not have length 2"):
            encode_kmers(["AC", "ACG"], 2)
        with pytest.raises(ValueError, match="'X' at position 1"):
            encode_kmers(["AC", "AX"], 2)

    def test_k_limits(self):
        with pytest.raises(ValueError):
            encode_kmer("A" * 32)
        with pytest.raises(ValueError):
            encode_kmer("")


class TestCodes:
    @PROPERTY
    @given(dna)
    def test_round_trip(self, text):
        codes = to_codes(text)
        assert set(codes) <= {0, 1, 2, 3}
        assert from_codes(codes) == text

    @pytest.mark.parametrize("text,pos", [
        ("", -1), ("ACGT", -1), ("N", 0), ("ACGTn", 4), ("AC\u00c3GT", 2), ("A\ud800C", 1),
    ])
    def test_first_invalid(self, text, pos):
        assert first_invalid(text) == pos

    def test_to_codes_rejects_outside_alphabet(self):
        with pytest.raises(ValueError, match="'X' at position 2"):
            to_codes("ACXT")

    def test_only_acgt_in_either_case_uppercase_to_the_alphabet(self):
        # folding a/c/g/t by table reads a text as its uppercasing reads:
        # no other code point uppercases to a nonempty string of A/C/G/T
        folding = [chr(cp) for cp in range(0x110000)
                   if (up := chr(cp).upper()) and up.strip("ACGT") == ""]
        assert folding == sorted("acgtACGT")

    def test_folded_codes_are_the_codes_of_the_uppercased_text(self):
        # every code point that uppercases to one symbol, surrogates included
        text = "".join(c for c in map(chr, range(0x110000)) if len(c.upper()) == 1)
        assert np.array_equal(folded_codes(text), symbol_codes(text.upper()))
        assert folded_codes("acgtACGTn").tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 255]


def _is_symbol(value) -> bool:
    return isinstance(value, (str, bytes)) and len(value) == 1 and value.upper() in (
        "A", "C", "G", "T", b"A", b"C", b"G", b"T")


def _alphabet_use(node: ast.AST):
    """What ``node`` spells of the alphabet or its code tables, or None."""
    if isinstance(node, ast.Constant) and node.value in ("ACGT", b"ACGT"):
        return repr(node.value)
    if not isinstance(node, (ast.Call, ast.List, ast.Tuple, ast.Set)):
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "maketrans"
                and isinstance(func.value, ast.Name) and func.value.id in ("bytes", "str")):
            return f"{func.value.id}.maketrans"
        if (isinstance(func, ast.Name) and func.id == "ord" and node.args
                and isinstance(node.args[0], ast.Constant) and _is_symbol(node.args[0].value)):
            return f"ord({node.args[0].value!r})"
        return None
    # a lookup table written out symbol by symbol, or byte value by byte value
    values = [e.value for e in node.elts if isinstance(e, ast.Constant)]
    letters = {v.upper() for v in values if _is_symbol(v)}
    if len(letters) == 4 or {65, 67, 71, 84} <= set(values) or {97, 99, 103, 116} <= set(values):
        return "a table of the four symbols"
    return None


def test_only_sequence_module_knows_the_alphabet():
    """The alphabet literal, translation tables and lookup tables built from
    the symbols or their byte values live in sequence.py alone."""
    package = Path(__file__).resolve().parents[1] / "src" / "asmlab"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "sequence.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            use = _alphabet_use(node)
            if use is not None:
                offenders.append(f"{path.name}:{node.lineno} {use}")
    assert offenders == []


def _dict_indices(keys: np.ndarray, packed: np.ndarray) -> list:
    """The reference for key_indices: a dict from each key to its index."""
    index = {key: i for i, key in enumerate(keys.tolist())}
    return np.vectorize(lambda value: index.get(value, -1), otypes=[np.intp])(packed).tolist()


class TestKeyIndices:
    """``key_indices``, the one search of packed k-mers among sorted keys."""

    keys = np.array([3, 7, 8, 20, 4 ** 31 - 1], dtype=np.uint64)

    @pytest.mark.parametrize("queries", [
        [], [3], [0], [2, 1, 0], [21, 4 ** 31 - 2, 4 ** 31 - 1], [9, 10, 19],
        [8, 8, 3, 8, 0, 3], [20, 7, 3, 8, 4 ** 31 - 1],
    ], ids=["none", "first", "below-first", "all-below", "above-last", "all-absent",
            "repeated", "every-key"])
    def test_matches_a_dict(self, queries):
        packed = np.array(queries, dtype=np.uint64)
        found = key_indices(self.keys, packed)
        assert found.dtype == np.intp and found.shape == packed.shape
        assert found.tolist() == _dict_indices(self.keys, packed)
        assert in_sorted(self.keys, packed).tolist() == (found >= 0).tolist()

    def test_no_keys(self):
        packed = np.arange(6, dtype=np.uint64).reshape(2, 3)
        assert key_indices(self.keys[:0], packed).tolist() == [[-1] * 3] * 2
        assert key_indices(self.keys[:0], packed[:0]).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(4, 5), (3, 1, 6), (0, 4)])
    def test_any_shape(self, shape):
        rng = np.random.default_rng(len(shape))
        keys = np.unique(rng.integers(0, 64, size=30, dtype=np.uint64))
        packed = rng.integers(0, 70, size=shape, dtype=np.uint64)
        assert key_indices(keys, packed).tolist() == _dict_indices(keys, packed)

    @PROPERTY
    @given(st.lists(st.integers(0, 4 ** 5 - 1), max_size=40, unique=True),
           st.lists(st.integers(0, 4 ** 5 - 1), max_size=60))
    def test_random_keys_and_queries(self, keys, queries):
        keys = np.array(sorted(keys), dtype=np.uint64)
        packed = np.array(queries, dtype=np.uint64)
        assert key_indices(keys, packed).tolist() == _dict_indices(keys, packed)
        # the same queries as a 2-D view that is not contiguous
        pairs = packed[:len(packed) // 2 * 2].reshape(-1, 2)[:, ::-1]
        assert key_indices(keys, pairs).tolist() == _dict_indices(keys, pairs)


class TestSpectrum:
    def test_running_example_counts(self, g_true):
        sp = spectrum(g_true, 3)
        assert len(sp) == 12
        doubled = sorted(k for k in sp.strings() if sp.multiplicity(k) == 2)
        assert doubled == ["ATT", "CAG", "CCA", "TCC", "TTC"]

    def test_shorter_than_k_is_empty(self):
        assert len(spectrum("", 3)) == 0
        assert len(spectrum("AC", 3)) == 0

    def test_empty_spectrum_answers_without_lookup(self):
        sp = spectrum("AC", 3)
        assert len(sp) == 0 and sp.total_count() == 0
        assert "ACG" not in sp and sp.multiplicity("ACG") == 0
        assert sp.multiplicity("TTTT") == 0  # wrong length
        assert sp.keys.dtype == np.uint64 and len(sp.keys) == 0
        assert sp.strings() == [] and sp.distinct_packed() == frozenset()
        assert sp.same_members(spectrum("", 3)) and not sp.same_members(spectrum("ACG", 3))
        assert sp == spectrum("", 3) and sp != spectrum("", 2)
        assert sp.multiplicities_of(np.arange(4, dtype=np.uint64).reshape(2, 2)).tolist() \
            == [[0, 0], [0, 0]]
        assert key_indices(sp.keys, np.arange(4, dtype=np.uint64).reshape(2, 2)).tolist() \
            == [[-1, -1], [-1, -1]]

    def test_lookup_past_the_last_key_is_absent(self):
        sp = spectrum("AAAC", 3)  # keys AAA, AAC: TTT sorts after both
        assert sp.multiplicity("TTT") == 0 and sp.multiplicity("AAC") == 1
        assert sp == spectrum_of_set(["AAA", "AAC"], 3) != spectrum("AAAAC", 3)
        assert sp.multiplicities_of(encode_kmers(["TTT", "AAA", "AAG"], 3)).tolist() \
            == [0, 1, 0]
        assert key_indices(sp.keys, encode_kmers(["TTT", "AAA", "AAG", "AAC"], 3)).tolist() \
            == [-1, 0, -1, 1]

    def test_packed_members_are_read_only(self):
        sp = spectrum("ACGTAC", 2)
        with pytest.raises(ValueError):
            sp.keys[0] = 0

    def test_constructor_keeps_callers_arrays_writable(self):
        keys, counts = encode_kmers(["AAA", "ACG"], 3), np.array([2, 1])
        sp = KmerSpectrum(3, keys, counts)
        assert keys.flags.writeable and counts.flags.writeable
        assert sp.multiplicity("AAA") == 2 and not sp.keys.flags.writeable

    @pytest.mark.parametrize("kmers", [["ACG", "AAA"], ["AAA", "AAA"]])
    def test_constructor_rejects_unsorted_or_repeated_keys(self, kmers):
        with pytest.raises(ValueError, match="sorted and distinct"):
            KmerSpectrum(3, encode_kmers(kmers, 3), np.ones(2, dtype=np.int64))

    def test_constructor_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="2 keys but 1 multiplicities"):
            KmerSpectrum(3, encode_kmers(["AAA", "ACG"], 3), np.ones(1, dtype=np.int64))

    def test_whole_string_kmer(self):
        sp = spectrum("ACGT", 4)
        assert sp.strings() == ["ACGT"] and sp.multiplicity("ACGT") == 1

    @pytest.mark.parametrize("k", [0, 32, -1])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError):
            spectrum("ACGT", k)

    @PROPERTY
    @given(dna, st.integers(min_value=1, max_value=8))
    def test_matches_naive_oracle(self, s, k):
        sp = spectrum(s, k)
        naive = naive_spectrum(s, k)
        assert {km: sp.multiplicity(km) for km in sp.strings()} == dict(naive)

    @PROPERTY
    @given(dna_nonempty, st.integers(min_value=1, max_value=8))
    def test_occurrence_count_law(self, s, k):
        sp = spectrum(s, k)
        assert sp.total_count() == max(0, len(s) - k + 1)
        for km in sp.strings():
            assert km in s

    def test_set_union_of_reads(self):
        sp = spectrum_of_set(ReadSet.of("ACG", "CGT"), 2)
        assert sp.strings() == ["AC", "CG", "GT"]
        assert sp.multiplicity("CG") == 2

    def test_symbol_outside_alphabet_named_within_its_read(self):
        with pytest.raises(ValueError, match="'X' at position 2"):
            spectrum_of_set(["ACGT", "ACXT"], 2)

    def test_union_example(self):
        sp = spectrum_of_set(ReadSet.of("CGG", "AAC"), 3)
        assert sp.strings() == ["AAC", "CGG"]
        assert sp.multiplicity("CGG") == 1

    def test_idealized_reads_reproduce_genome_spectrum(self, g_true, fig_reads):
        assert spectrum_of_set(fig_reads, 3).same_members(spectrum(g_true, 3))


class TestCommonSuperstring:
    @pytest.mark.parametrize("g,expected", [
        ("CGGAAC", True),
        ("AACGG", True),
        ("AACG", False),
    ])
    def test_two_read_example(self, g, expected):
        assert is_common_superstring(g, ReadSet.of("CGG", "AAC")) is expected


class TestSpectrumSubsetCheck:
    def test_scs_fails_two_mer_constraint(self, fig_reads):
        result = spectrum_subset_check(G_SCS, fig_reads, 2)
        assert not result.ok
        assert result.missing_kmer == "TA"
        assert result.position == 12

    def test_sol_passes_two_mers_fails_three_mers(self, fig_reads):
        assert spectrum_subset_check(G_SOL, fig_reads, 2).ok
        result = spectrum_subset_check(G_SOL, fig_reads, 3)
        assert not result.ok
        assert result.missing_kmer in ("ATG", "GAG")

    def test_superstring_and_spectrum_constraint_are_independent(self, fig_reads):
        # a common superstring can still use junctions no read supports
        assert is_common_superstring(G_SCS, fig_reads)
        assert not spectrum_subset_check(G_SCS, fig_reads, 2).ok

    @PROPERTY
    @given(dna_nonempty, st.integers(min_value=2, max_value=6))
    def test_monotone_in_k(self, g, k):
        if len(g) < k:
            return
        reads = ReadSet.of(*(g[i:i + k] for i in range(len(g) - k + 1)))
        if spectrum_subset_check(g, reads, k).ok:
            assert spectrum_subset_check(g, reads, k - 1).ok

    @PROPERTY
    @given(dna, st.lists(st.text(alphabet="ACGT", max_size=12), max_size=8),
           st.integers(min_value=1, max_value=5))
    def test_matches_string_set_oracle(self, g, reads, k):
        expected = brute_spectrum_subset_check(g, reads, k)
        assert spectrum_subset_check(g, reads, k) == expected


class TestLongestRepeat:
    def test_running_example(self, g_true):
        hit = longest_repeat(g_true)
        assert hit.length == 7
        assert hit.positions == (1, 11)
        assert g_true[1:8] == g_true[11:18] == "ATTCCAG"

    def test_all_distinct(self):
        assert longest_repeat("ACGT") is None

    def test_self_overlapping(self):
        hit = longest_repeat("AAAA")
        assert hit.length == 3 and hit.positions == (0, 1)

    def test_ten_thousand_random_strings_match_brute_force(self):
        import random

        rng = random.Random(1234)
        for _ in range(10_000):
            n = rng.randint(0, 12)
            s = "".join(rng.choice("ACGT") for _ in range(n))
            got = longest_repeat(s)
            expected = brute_longest_repeat(s)
            if expected is None:
                assert got is None, s
            else:
                assert got.length == expected[0], s
                i, j = got.positions
                assert s[i:i + got.length] == s[j:j + got.length]


class TestMaxOverlap:
    @pytest.mark.parametrize("a,b,expected", [
        ("ACG", "CGT", 2),
        ("CGG", "AAC", 0),
        ("AAC", "CGG", 1),
        ("AAAA", "AAAA", 4),
        ("", "ACG", 0),
    ])
    def test_examples(self, a, b, expected):
        assert max_overlap(a, b) == expected

    @PROPERTY
    @given(dna, dna)
    def test_matches_brute_force(self, a, b):
        assert max_overlap(a, b) == brute_max_overlap(a, b)
