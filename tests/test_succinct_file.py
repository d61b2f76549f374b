"""Unit tests for the Succinct flat-file store."""

import sys
import threading

import numpy as np
import pytest

from repro.succinct import SuccinctFile, build_suffix_array


def naive_search(data: bytes, pattern: bytes):
    out = []
    start = 0
    while True:
        index = data.find(pattern, start)
        if index < 0:
            return out
        out.append(index)
        start = index + 1


@pytest.fixture(scope="module")
def sample_text():
    return b"the quick brown fox jumps over the lazy dog; the fox was quick."


@pytest.fixture(scope="module")
def sample_file(sample_text):
    return SuccinctFile(sample_text, alpha=4)


class TestConstruction:
    def test_rejects_sentinel_in_input(self):
        with pytest.raises(ValueError):
            SuccinctFile(b"bad\x00data")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SuccinctFile(b"abc", alpha=0)

    def test_empty_input(self):
        sf = SuccinctFile(b"")
        assert len(sf) == 0
        assert sf.extract(0, 10) == b""
        assert sf.count(b"x") == 0

    def test_single_byte(self):
        sf = SuccinctFile(b"a", alpha=1)
        assert sf.extract(0, 1) == b"a"
        assert sf.count(b"a") == 1

    def test_len_is_input_size(self, sample_file, sample_text):
        assert len(sample_file) == len(sample_text)


class TestExtract:
    def test_full_roundtrip(self, sample_file, sample_text):
        assert sample_file.decompress() == sample_text

    def test_every_offset_and_length(self):
        text = b"abracadabra"
        sf = SuccinctFile(text, alpha=3)
        for offset in range(len(text) + 1):
            for length in range(len(text) - offset + 1):
                assert sf.extract(offset, length) == text[offset : offset + length]

    def test_extract_clamps_at_end(self, sample_file, sample_text):
        assert sample_file.extract(len(sample_text) - 3, 100) == sample_text[-3:]

    def test_extract_rejects_bad_offset(self, sample_file):
        with pytest.raises(IndexError):
            sample_file.extract(-1, 1)
        with pytest.raises(IndexError):
            sample_file.extract(len(sample_file) + 1, 1)

    def test_extract_rejects_negative_length(self, sample_file):
        with pytest.raises(ValueError):
            sample_file.extract(0, -1)

    def test_char_at(self, sample_file, sample_text):
        for offset in (0, 5, len(sample_text) - 1):
            assert sample_file.char_at(offset) == sample_text[offset]

    def test_extract_until(self):
        sf = SuccinctFile(b"alpha;beta;gamma", alpha=2)
        assert sf.extract_until(0, ord(";")) == b"alpha"
        assert sf.extract_until(6, ord(";")) == b"beta"
        assert sf.extract_until(11, ord(";")) == b"gamma"  # hits EOF

    def test_extract_until_limit(self):
        sf = SuccinctFile(b"alpha;beta", alpha=2)
        assert sf.extract_until(0, ord(";"), limit=3) == b"alp"


class TestSearch:
    @pytest.mark.parametrize(
        "pattern", [b"the", b"fox", b"quick", b"q", b".", b"zzz", b"the fox"]
    )
    def test_matches_naive(self, sample_file, sample_text, pattern):
        got = list(sample_file.search(pattern))
        assert got == naive_search(sample_text, pattern)

    def test_count_matches_search(self, sample_file):
        for pattern in (b"the", b"o", b"nothere"):
            assert sample_file.count(pattern) == len(sample_file.search(pattern))

    def test_empty_pattern_counts_all_positions(self, sample_file, sample_text):
        # Every suffix (including the sentinel's) matches the empty pattern.
        assert sample_file.count(b"") == len(sample_text) + 1

    def test_pattern_with_sentinel_rejected(self, sample_file):
        with pytest.raises(ValueError):
            sample_file.search(b"a\x00b")

    def test_overlapping_occurrences(self):
        sf = SuccinctFile(b"aaaa", alpha=1)
        assert list(sf.search(b"aa")) == [0, 1, 2]

    def test_repetitive_text(self):
        text = b"abcabcabcabc"
        sf = SuccinctFile(text, alpha=2)
        assert list(sf.search(b"abc")) == naive_search(text, b"abc")
        assert list(sf.search(b"cab")) == naive_search(text, b"cab")


class TestLookupSA:
    """The scalar SA lookup behind small-result ``search``."""

    @pytest.mark.parametrize("alpha", [1, 2, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_row_matches_suffix_array(self, alpha, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 150))
        text = rng.integers(1, 6 if seed % 2 else 256, size).astype(np.uint8).tobytes()
        sf = SuccinctFile(text, alpha=alpha)
        suffix_array = build_suffix_array(text + b"\x00").tolist()
        n = len(suffix_array)
        for row, value in enumerate(suffix_array):
            before = sf.stats.npa_hops
            assert sf._lookup_sa(row) == value
            # Value-based sampling: walk forward to the next multiple
            # of alpha, or to the wrap-around at the sentinel's row.
            assert sf.stats.npa_hops - before == min(-value % alpha, n - value)

    def test_reloaded_read_only_file(self):
        text = b"abracadabra" * 20
        original = SuccinctFile(text, alpha=8)
        reloaded = SuccinctFile.from_bytes(memoryview(original.to_bytes()).toreadonly())
        for row in range(len(text) + 1):
            assert reloaded._lookup_sa(row) == original._lookup_sa(row)
        assert reloaded.stats.npa_hops == original.stats.npa_hops


    def test_concurrent_first_queries(self, sample_text):
        """Threads racing to build the lazy query tables (bucket table,
        marks mirror, NPA list) on a fresh file all get exact answers."""
        patterns = [sample_text[i : i + k] for i in range(0, 40, 3) for k in (1, 3, 6)]
        expected = {pattern: naive_search(sample_text, pattern) for pattern in patterns}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                sf = SuccinctFile(sample_text, alpha=4)
                barrier = threading.Barrier(8)
                wrong = []

                def worker(sf=sf, barrier=barrier, wrong=wrong):
                    barrier.wait(timeout=10)
                    for pattern in patterns:
                        if sf.search(pattern).tolist() != expected[pattern]:
                            wrong.append(pattern)

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert wrong == []
        finally:
            sys.setswitchinterval(previous)


class TestAlphaTradeoff:
    @pytest.mark.parametrize("alpha", [1, 2, 4, 8, 16, 64])
    def test_correct_at_all_sampling_rates(self, sample_text, alpha):
        sf = SuccinctFile(sample_text, alpha=alpha)
        assert sf.decompress() == sample_text
        assert list(sf.search(b"the")) == naive_search(sample_text, b"the")

    def test_larger_alpha_smaller_footprint(self):
        text = bytes(np.random.default_rng(7).integers(1, 255, 4000, dtype=np.uint8))
        small = SuccinctFile(text, alpha=4).serialized_size_bytes()
        large = SuccinctFile(text, alpha=64).serialized_size_bytes()
        assert large < small

    def test_larger_alpha_more_hops(self, sample_text):
        fast = SuccinctFile(sample_text, alpha=1)
        slow = SuccinctFile(sample_text, alpha=32)
        fast.extract(17, 5)
        slow.extract(17, 5)
        assert slow.stats.npa_hops > fast.stats.npa_hops


class TestStats:
    def test_extract_counts(self, sample_text):
        sf = SuccinctFile(sample_text, alpha=4)
        sf.extract(3, 7)
        assert sf.stats.random_accesses == 1
        assert sf.stats.sequential_bytes == 7

    def test_search_counts(self, sample_text):
        sf = SuccinctFile(sample_text, alpha=4)
        hits = sf.search(b"the")
        assert sf.stats.searches == 1
        assert sf.stats.random_accesses == len(hits)

    def test_compressible_text_compresses(self):
        # Highly repetitive text => NPA deltas are tiny => real compression.
        text = b"abcd" * 4096
        sf = SuccinctFile(text, alpha=64)
        assert sf.serialized_size_bytes() < sf.original_size_bytes()
        assert sf.compression_ratio() > 1.0
