import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asmlab.sequence import (
    DnaString,
    KmerSpectrum,
    ReadSet,
    is_common_superstring,
    longest_repeat,
    spectrum,
    spectrum_of_set,
)
from asmlab.simulate import (
    SimulationProfile,
    _sibling_bounds,
    correct_reads,
    idealized_reads,
    random_genome,
    uniform_reads,
    unspanned_probability,
)
from helpers import batch_correct_reads, reference_correct_reads


def anchored_genome(core_len: int, read_length: int, seed: int) -> DnaString:
    """Random core with homopolymer pads so no position sits on a
    boundary-coverage cliff (pad k-mers pool into one heavily covered word)."""
    pad = "A" * read_length
    return DnaString(pad + str(random_genome(core_len, seed=seed)) + pad)


class TestRandomGenome:
    def test_deterministic(self):
        assert random_genome(19, seed=7) == random_genome(19, seed=7)
        assert random_genome(19, seed=7) != random_genome(19, seed=8)

    def test_planted_repeat_detectable(self):
        g = random_genome(1000, (50, 2), seed=1)
        assert len(g) == 1000
        assert longest_repeat(g).length >= 50

    def test_infeasible_planting_rejected(self):
        with pytest.raises(ValueError, match="cannot plant"):
            random_genome(10, (6, 2), seed=1)


class TestIdealizedReads:
    def test_window_count(self, g_true):
        reads = idealized_reads(g_true, 3)
        assert len(reads) == 17
        assert all(is_common_superstring(g_true, [r]) for r in reads)

    def test_spectrum_equality(self, g_true):
        reads = idealized_reads(g_true, 3)
        assert spectrum_of_set(reads, 3).same_members(spectrum(g_true, 3))

    def test_single_window(self):
        assert list(idealized_reads("ACGT", 4)) == ["ACGT"]

    def test_too_short(self):
        with pytest.raises(ValueError):
            idealized_reads("ACGT", 5)


class TestUniformReads:
    def test_exact_windows_without_errors(self):
        genome = random_genome(400, seed=3)
        prof = SimulationProfile(genome_length=400, num_reads=200, read_length=40, seed=5)
        reads = uniform_reads(genome, prof)
        assert len(reads) == 200
        assert all(str(r) in genome for r in reads)

    def test_deterministic(self):
        genome = random_genome(300, seed=3)
        prof = SimulationProfile(genome_length=300, num_reads=50, read_length=30, seed=9)
        assert list(uniform_reads(genome, prof)) == list(uniform_reads(genome, prof))

    def test_gap_intervals_excluded(self):
        genome = random_genome(500, seed=11)
        prof = SimulationProfile(genome_length=500, num_reads=300, read_length=50,
                                 gap_intervals=((100, 200),), seed=2)
        for read in uniform_reads(genome, prof):
            pos = genome.find(read)
            assert pos != -1
            assert pos + 50 <= 100 or pos >= 200

    def test_no_allowed_window_errors(self):
        genome = random_genome(100, seed=1)
        prof = SimulationProfile(genome_length=100, num_reads=10, read_length=50,
                                 gap_intervals=((40, 60),), seed=2)
        with pytest.raises(ValueError, match="no read window"):
            uniform_reads(genome, prof)

    def test_error_rate_concentration(self):
        genome = random_genome(2000, seed=12)
        prof = SimulationProfile(genome_length=2000, num_reads=2000, read_length=50,
                                 error_rate=0.01, seed=5)
        reads = uniform_reads(genome, prof)
        # recover the sampled windows by replaying the generator's start draws
        rng = np.random.default_rng(5)
        starts = np.arange(2000 - 50 + 1)[rng.integers(0, 2000 - 50 + 1, size=2000)]
        mismatches = sum(
            sum(a != b for a, b in zip(r, genome[s:s + 50]))
            for r, s in zip(reads, starts)
        )
        n = 2000 * 50
        sigma = math.sqrt(0.01 * 0.99 / n)
        assert abs(mismatches / n - 0.01) <= 3 * sigma

    def test_error_free_spectrum_is_subset(self):
        genome = random_genome(300, seed=8)
        prof = SimulationProfile(genome_length=300, num_reads=100, read_length=30, seed=8)
        reads = uniform_reads(genome, prof)
        genome_kmers = spectrum(genome, 12).distinct_packed()
        assert spectrum_of_set(reads, 12).distinct_packed() <= genome_kmers


class TestUnspannedProbability:
    def test_no_reads_means_certain_gap(self):
        assert unspanned_probability(100, 0, 10, 5, "analytic") == 1.0
        assert unspanned_probability(100, 0, 10, 5, "monte_carlo", trials=10) == 1.0

    def test_k_larger_than_read_rejected(self):
        with pytest.raises(ValueError):
            unspanned_probability(100, 10, 10, 11)

    def test_saturating_read_count_drives_probability_to_zero(self):
        assert unspanned_probability(200, 5 * 200, 50, 10, "analytic") < 1e-12

    def test_analytic_within_three_sigma_of_monte_carlo(self):
        ana = unspanned_probability(5000, 1000, 200, 31, "analytic")
        mc = unspanned_probability(5000, 1000, 200, 31, "monte_carlo",
                                   trials=10_000, seed=9)
        se = max(math.sqrt(ana * (1 - ana) / 10_000),
                 math.sqrt(mc * (1 - mc) / 10_000))
        assert abs(ana - mc) <= 3 * se

    def test_union_bound_upper_bounds_simulation(self):
        # in a regime with plenty of failures the bound must sit above truth
        for m in (40, 60, 80):
            ana = unspanned_probability(2000, m, 100, 20, "analytic")
            mc = unspanned_probability(2000, m, 100, 20, "monte_carlo",
                                       trials=4000, seed=3)
            assert ana >= mc - 3 * math.sqrt(max(mc * (1 - mc), 1e-9) / 4000)


class TestCorrectReads:
    def test_identity_on_clean_reads(self):
        genome = anchored_genome(300, 30, 2)
        reads = idealized_reads(genome, 30)
        assert list(correct_reads(reads, 15, 1)) == list(reads)

    def test_single_substitution_restored(self):
        genome = anchored_genome(400, 40, 21)
        clean = idealized_reads(genome, 40)
        reads = list(clean)
        original = str(reads[100])
        flipped = {"A": "C", "C": "A", "G": "T", "T": "G"}[original[17]]
        reads[100] = DnaString(original[:17] + flipped + original[18:])
        out = correct_reads(ReadSet(tuple(reads)), 15, 3)
        assert len(out) == len(reads)
        assert str(out[100]) == original

    def test_garbage_read_discarded(self):
        genome = anchored_genome(400, 40, 21)
        clean = idealized_reads(genome, 40)
        garbage = random_genome(40, seed=999)
        assert str(garbage) not in genome
        out = correct_reads(ReadSet(tuple(list(clean) + [garbage])), 15, 3)
        assert list(out) == list(clean)

    def test_output_never_contains_weak_kmers(self):
        genome = anchored_genome(500, 50, 31)
        prof = SimulationProfile(genome_length=len(genome), num_reads=400,
                                 read_length=50, error_rate=0.02, seed=13)
        reads = uniform_reads(genome, prof)
        before = spectrum_of_set(reads, 15)
        out = correct_reads(reads, 15, 3)
        for kmer in spectrum_of_set(out, 15).strings():
            assert before.multiplicity(kmer) >= 3

    def test_logs_reads_in_changed_and_dropped(self, caplog):
        genome = anchored_genome(400, 40, 21)
        reads = list(idealized_reads(genome, 40))
        original = str(reads[100])
        flipped = {"A": "C", "C": "A", "G": "T", "T": "G"}[original[17]]
        reads[100] = DnaString(original[:17] + flipped + original[18:])
        reads.append(random_genome(40, seed=999))
        with caplog.at_level(logging.INFO, logger="asmlab.simulate"):
            out = correct_reads(ReadSet(tuple(reads)), 15, 3)
        assert len(out) == len(reads) - 1 and str(out[100]) == original
        assert caplog.messages == [f"read correction (k=15, min multiplicity 3): "
                                   f"{len(reads)} read(s) in, 1 changed, 1 dropped"]

    def test_read_shorter_than_k_rejected(self):
        with pytest.raises(ValueError, match="shorter than k"):
            correct_reads(ReadSet.of("ACGT"), 5, 1)

    def test_empty_read_set(self):
        assert correct_reads(ReadSet(()), 5, 2) == ReadSet(())


def criterion_7_reads(seed: int) -> ReadSet:
    """The stage-2 reads of acceptance criterion 7 for one seed."""
    read_length = 100
    core = random_genome(6000, seed=100 + seed)
    genome = DnaString("A" * read_length + str(core) + "A" * read_length)
    profile = SimulationProfile(genome_length=len(genome),
                                num_reads=40 * len(genome) // read_length,
                                read_length=read_length, error_rate=0.01, seed=seed)
    return uniform_reads(genome, profile)


@st.composite
def planted_read_sets(draw):
    """k, then reads of mixed length (some exactly k) cut from one short
    genome, each with up to three planted substitutions."""
    k = draw(st.sampled_from([*range(1, 9), 31]))
    genome = draw(st.text(alphabet="ACGT", min_size=k, max_size=k + 50))
    reads = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        length = draw(st.one_of(st.just(k), st.integers(k, min(len(genome), k + 30))))
        start = draw(st.integers(0, len(genome) - length))
        read = list(genome[start:start + length])
        for pos in draw(st.lists(st.integers(0, length - 1), max_size=3)):
            read[pos] = draw(st.sampled_from("ACGT"))
        reads.append("".join(read))
    return k, ReadSet.of(*reads)


class TestCorrectReadsMatchesReference:
    """The across-reads corrector against the frozen read-by-read one,
    byte for byte."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_criterion_7_inputs(self, seed):
        reads = criterion_7_reads(seed)
        out = correct_reads(reads, 21, 3)
        assert out == reference_correct_reads(reads, 21, 3)

    @pytest.mark.parametrize("batch", [1, 97, 1000])
    def test_small_batches_give_the_same_reads(self, monkeypatch, batch):
        genome = anchored_genome(500, 50, 31)
        prof = SimulationProfile(genome_length=len(genome), num_reads=300,
                                 read_length=50, error_rate=0.02, seed=13)
        reads = ReadSet(tuple(uniform_reads(genome, prof)) + (genome[:20], genome[5:33]))
        expected = reference_correct_reads(reads, 15, 3)
        monkeypatch.setattr("asmlab.simulate._CORRECT_BATCH", batch)
        assert correct_reads(reads, 15, 3) == expected

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(planted_read_sets(), st.integers(min_value=1, max_value=4))
    def test_mixed_lengths_and_planted_substitutions(self, case, threshold):
        k, reads = case
        out = correct_reads(reads, k, threshold)
        assert [str(r) for r in out] == [str(r) for r in reference_correct_reads(reads, k, threshold)]

    @pytest.mark.parametrize("k,threshold", [(4, 255), (4, 256), (1, 70_000)])
    def test_thresholds_past_one_byte(self, k, threshold):
        # poly-A flanks at high coverage give counts far above the threshold,
        # so the clipped sibling bounds need more than a byte past 255
        genome = DnaString("A" * 300 + str(random_genome(100, seed=4)) + "A" * 300)
        prof = SimulationProfile(genome_length=len(genome), num_reads=3000, read_length=30,
                                 error_rate=0.02, seed=4)
        reads = uniform_reads(genome, prof)
        counts = spectrum_of_set(reads, k).multiplicities
        assert counts.min() < threshold < counts.max()
        out = correct_reads(reads, k, threshold)
        assert out != reads
        assert out == reference_correct_reads(reads, k, threshold)

    @pytest.mark.parametrize("k", [5, 11, 21])
    def test_repeat_rich_reads(self, k):
        # poly-A flanks and a planted repeat: (k-1)-mers with several extensions
        core = random_genome(400, planted_repeat=(30, 4), seed=8)
        genome = DnaString("A" * 40 + str(core) + "A" * 40)
        prof = SimulationProfile(genome_length=len(genome), num_reads=500, read_length=45,
                                 error_rate=0.02, seed=9)
        reads = uniform_reads(genome, prof)
        out = correct_reads(reads, k, 3)
        assert out == reference_correct_reads(reads, k, 3)

    @pytest.mark.parametrize("batch", [1, 97, 1000])
    @pytest.mark.parametrize("k", [1, 31])
    def test_small_batches_at_the_smallest_and_largest_k(self, monkeypatch, k, batch):
        genome = anchored_genome(500, 50, 31)
        prof = SimulationProfile(genome_length=len(genome), num_reads=300,
                                 read_length=50, error_rate=0.02, seed=13)
        reads = ReadSet(tuple(uniform_reads(genome, prof)) + (genome[:31], genome[5:40]))
        # at k = 1 every base is a k-mer: make the two rarest symbols weak
        threshold = 3 if k > 1 else int(np.sort(spectrum_of_set(reads, 1).multiplicities)[2])
        expected = reference_correct_reads(reads, k, threshold)
        assert expected != reads
        monkeypatch.setattr("asmlab.simulate._CORRECT_BATCH", batch)
        assert correct_reads(reads, k, threshold) == expected

    def test_most_keys_seen_once(self):
        # 3 % errors at 20x: the trials search a small part of the keys
        genome = anchored_genome(3000, 100, 17)
        prof = SimulationProfile(genome_length=len(genome), num_reads=640, read_length=100,
                                 error_rate=0.03, seed=18)
        reads = uniform_reads(genome, prof)
        assert np.mean(spectrum_of_set(reads, 21).multiplicities == 1) > 0.8
        out = correct_reads(reads, 21, 3)
        assert out != reads
        assert out == reference_correct_reads(reads, 21, 3)

    @pytest.mark.parametrize("threshold", [2, 3])
    def test_no_key_seen_twice(self, threshold):
        # reads under 2k-2 nt leave columns that no window's bound covers,
        # so they are tried against an empty set of keys seen twice
        rng = np.random.default_rng(19)
        reads = ReadSet([random_genome(int(n), seed=i)
                         for i, n in enumerate(rng.integers(21, 50, size=40))])
        assert spectrum_of_set(reads, 21).multiplicities.max() == 1
        assert correct_reads(reads, 21, threshold) == reference_correct_reads(reads, 21,
                                                                              threshold)


def test_many_batches_match_the_frozen_batch_corrector(monkeypatch):
    """20,000 noisy reads against the corrector that tried every base at
    every selected column; the read-by-read oracle is too slow at this size."""
    genome = random_genome(200_000, seed=5)
    prof = SimulationProfile(genome_length=len(genome), num_reads=20_000, read_length=100,
                             error_rate=0.01, seed=6)
    reads = uniform_reads(genome, prof)
    expected = batch_correct_reads(reads, 31, 3)
    monkeypatch.setattr("asmlab.simulate._CORRECT_BATCH", 1 << 19)  # four batches
    out = correct_reads(reads, 31, 3)
    assert 0 < len(out) < len(reads)
    assert out == expected


def _sibling_rich_spectrum(k: int, seed: int) -> KmerSpectrum:
    """Keys drawn around a few random middles, so that most keys have
    siblings of both kinds, with counts from 1 to past 70,000."""
    rng = np.random.default_rng(seed)
    if k == 1:
        keys = np.flatnonzero(rng.random(4) < 0.7).astype(np.uint64)
    else:
        middles = rng.integers(0, 4 ** (k - 2), size=12, dtype=np.uint64)
        ends = rng.integers(0, 16, size=(12, 10), dtype=np.uint64)  # (first, last) pairs
        keys = ((ends >> np.uint64(2)) << np.uint64(2 * (k - 1))
                | middles[:, None] << np.uint64(2) | (ends & np.uint64(3)))
        keys = np.unique(keys)
    counts = rng.choice([1, 2, 3, 254, 255, 256, 257, 69_999, 70_000, 70_001, 90_000],
                        size=len(keys))
    return KmerSpectrum(k, keys, counts.astype(np.int64))


def _brute_sibling_bounds(sp: KmerSpectrum, threshold: int) -> tuple[list, list]:
    """Each key's three variants in its last and in its first symbol,
    counted by ``multiplicities_of``: the largest count, clipped."""
    bounds = []
    for symbol in (0, sp.k - 1):  # counted from the right
        shift = np.uint64(2 * symbol)
        own = (sp.keys >> shift) & np.uint64(3)
        largest = np.zeros(len(sp), dtype=np.int64)
        for base in range(4):
            variant = sp.keys & ~(np.uint64(3) << shift) | (np.uint64(base) << shift)
            largest = np.maximum(largest, np.where(own == base, 0, sp.multiplicities_of(variant)))
        bounds.append(np.minimum(largest, threshold).tolist())
    return bounds[0], bounds[1]


class TestSiblingBounds:
    @pytest.mark.parametrize("k", [1, 2, 5, 31])
    @pytest.mark.parametrize("seed", range(8))
    def test_match_brute_force(self, k, seed):
        sp = _sibling_rich_spectrum(k, seed)
        for threshold in (1, 3, 255, 256, 70_000):
            last, first = _sibling_bounds(sp, threshold)
            assert last.dtype == first.dtype == np.min_scalar_type(threshold)
            assert (last.tolist(), first.tolist()) == _brute_sibling_bounds(sp, threshold)

    @pytest.mark.parametrize("k", [1, 2, 5, 31])
    def test_match_brute_force_on_noisy_reads(self, k):
        genome = anchored_genome(300, 40, 3)
        prof = SimulationProfile(genome_length=len(genome), num_reads=400, read_length=40,
                                 error_rate=0.03, seed=3)
        sp = spectrum_of_set(uniform_reads(genome, prof), k)
        last, first = _sibling_bounds(sp, 3)
        assert last.any() and first.any()
        assert (last.tolist(), first.tolist()) == _brute_sibling_bounds(sp, 3)

    def test_empty_spectrum(self):
        last, first = _sibling_bounds(spectrum_of_set(ReadSet(()), 5), 3)
        assert len(last) == len(first) == 0
