import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmlab.errors import ResourceLimitError
from asmlab.sequence import DnaString, ReadSet, is_common_superstring, longest_repeat
from asmlab.simulate import idealized_reads, random_genome
from asmlab.superstring import (
    MergeStep,
    ScsResult,
    diagnose_overcollapse,
    exact_scs,
    greedy_scs,
)
from helpers import brute_scs

PROPERTY = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

read_sets = st.lists(
    st.text(alphabet="ACGT", min_size=1, max_size=6), min_size=1, max_size=6
)


class TestGreedy:
    def test_two_read_merge(self):
        assert greedy_scs(ReadSet.of("ACG", "CGT")).superstring == "ACGT"

    def test_overlap_one_beats_zero(self):
        assert greedy_scs(ReadSet.of("CGG", "AAC")).superstring == "AACGG"

    def test_single_read(self):
        assert greedy_scs(ReadSet.of("AAAA")).superstring == "AAAA"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            greedy_scs(ReadSet(()))

    @PROPERTY
    @given(read_sets)
    def test_always_a_common_superstring(self, words):
        reads = ReadSet.of(*words)
        result = greedy_scs(reads)
        assert is_common_superstring(result.superstring, reads)
        assert result.replay(reads) == result.superstring

    @PROPERTY
    @given(read_sets)
    def test_deterministic(self, words):
        reads = ReadSet.of(*words)
        assert greedy_scs(reads).superstring == greedy_scs(reads).superstring


class TestExact:
    def test_two_read_examples(self):
        assert exact_scs(ReadSet.of("ACG", "CGT")).superstring == "ACGT"
        assert exact_scs(ReadSet.of("CGG", "AAC")).superstring == "AACGG"

    def test_running_example_length(self, fig_reads):
        result = exact_scs(fig_reads)
        assert len(result.superstring) == 16
        assert is_common_superstring(result.superstring, fig_reads)
        assert result.replay(fig_reads) == result.superstring

    def test_read_limit_enforced(self):
        import itertools

        words = ["".join(p) for p in itertools.product("ACGT", repeat=3)][:14]
        with pytest.raises(ResourceLimitError) as err:
            exact_scs(ReadSet.of(*words))
        assert err.value.limit == 13

    @PROPERTY
    @given(read_sets)
    def test_matches_permutation_oracle(self, words):
        reads = ReadSet.of(*words)
        assert exact_scs(reads).superstring == brute_scs(words)

    def test_matches_permutation_oracle_at_seven_reads(self):
        rng = random.Random(271828)
        for _ in range(40):
            words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(2, 8)))
                     for _ in range(7)]
            assert exact_scs(ReadSet.of(*words)).superstring == brute_scs(words)

    @PROPERTY
    @given(read_sets)
    def test_never_longer_than_greedy(self, words):
        reads = ReadSet.of(*words)
        exact_len = len(exact_scs(reads).superstring)
        assert exact_len <= len(greedy_scs(reads).superstring)
        assert exact_len <= sum(len(w) for w in words)

    @PROPERTY
    @given(read_sets, st.randoms(use_true_random=False))
    def test_input_order_invariant(self, words, rng):
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert (exact_scs(ReadSet.of(*words)).superstring
                == exact_scs(ReadSet.of(*shuffled)).superstring)


class TestOvercollapseDiagnostic:
    def test_exact_result_within_bound(self, fig_reads):
        report = diagnose_overcollapse(exact_scs(fig_reads), 3)
        assert report.bound == 4
        assert report.repeat_length <= 4
        assert not report.exceeds_bound
        assert not report.implementation_bug

    def test_true_genome_exceeds_bound(self, g_true):
        # wrapping the repeat-rich genome as if a solver had emitted it
        fake = ScsResult(DnaString(g_true), "exact", (MergeStep(0, "seed", 0),))
        report = diagnose_overcollapse(fake, 3)
        assert report.repeat_length == 7
        assert report.exceeds_bound
        assert report.implementation_bug

    def test_greedy_exceeding_is_informational(self, g_true):
        fake = ScsResult(DnaString(g_true), "greedy", (MergeStep(0, "seed", 0),))
        report = diagnose_overcollapse(fake, 3)
        assert report.exceeds_bound and not report.implementation_bug

    def test_single_read_never_flags(self):
        result = exact_scs(ReadSet.of("AAAA"))
        report = diagnose_overcollapse(result, 4)
        assert not report.implementation_bug
        # one non-redundant read, with a duplicate and substrings absorbed
        reads = ReadSet.of("CGT", "ACGTA", "GTA", "ACGTA", "AC")
        result = exact_scs(reads)
        assert result.superstring == "ACGTA"
        assert result.merge_order == (
            MergeStep(1, "seed", 0), MergeStep(0, "absorbed", 3),
            MergeStep(2, "absorbed", 3), MergeStep(3, "absorbed", 5),
            MergeStep(4, "absorbed", 2))
        assert result.replay(reads) == result.superstring
        assert not diagnose_overcollapse(result, 5).implementation_bug


class TestRepeatBoundProperty:
    def test_exact_scs_respects_repeat_bound_on_planted_genomes(self):
        # compact version of the full acceptance sweep
        rng = random.Random(99)
        for _ in range(30):
            length = rng.randint(8, 15)
            rep = min(rng.randint(3, 6), length // 2)
            g = random_genome(length, (rep, 2), seed=rng.randrange(2**63))
            result = exact_scs(ReadSet(tuple(idealized_reads(g, 3))))
            hit = longest_repeat(result.superstring)
            assert (hit.length if hit else 0) <= 4
