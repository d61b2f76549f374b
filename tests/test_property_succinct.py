"""Property-based tests (hypothesis) for the Succinct substrate.

These are the load-bearing invariants of the whole stack: if extract
and search are exact on arbitrary inputs, every ZipG query built on
them inherits correctness.
"""

import numpy as np
from conftest import hypothesis_examples
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct import BitVector, SuccinctFile, build_suffix_array, inverse_permutation

# Bytes 1..255 (sentinel 0x00 is reserved by SuccinctFile).
text_strategy = st.binary(min_size=0, max_size=120).map(
    lambda b: bytes(x or 1 for x in b)
)
nonempty_text = st.binary(min_size=1, max_size=120).map(
    lambda b: bytes(x or 1 for x in b)
)


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(text=text_strategy, alpha=st.integers(min_value=1, max_value=16))
def test_extract_equals_slice(text, alpha):
    sf = SuccinctFile(text, alpha=alpha)
    assert sf.decompress() == text


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(
    text=nonempty_text,
    alpha=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_extract_arbitrary_window(text, alpha, data):
    sf = SuccinctFile(text, alpha=alpha)
    offset = data.draw(st.integers(min_value=0, max_value=len(text)))
    length = data.draw(st.integers(min_value=0, max_value=len(text)))
    assert sf.extract(offset, length) == text[offset : offset + length]


def _reloaded_read_only(sf):
    """``sf`` reloaded the way an mmap-backed shard is: every array an
    ``np.frombuffer`` view over a read-only buffer."""
    reloaded = SuccinctFile.from_bytes(memoryview(sf.to_bytes()).toreadonly())
    npa, _, _ = reloaded._npa.arrays_for_write()
    assert not npa.flags.writeable
    return reloaded


def _naive_offsets(text, pattern):
    expected = []
    index = text.find(pattern)
    while index >= 0:
        expected.append(index)
        index = text.find(pattern, index + 1)
    return expected


def _draw_pattern(text, data):
    kind = data.draw(
        st.sampled_from(["substring", "random", "absent", "xff", "first", "last"])
    )
    if kind == "substring":  # guaranteed hit
        start = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=len(text)))
        return text[start:end]
    if kind == "random":
        return data.draw(st.binary(min_size=1, max_size=5).map(
            lambda b: bytes(x or 1 for x in b)
        ))
    # A byte with no bucket: alone, last (the first backward-search
    # step) or first (a refine step after hits).
    if kind == "absent":
        missing = [x for x in range(1, 256) if x not in text]
        byte = bytes([data.draw(st.sampled_from(missing))])
        prefix = text[: data.draw(st.integers(min_value=0, max_value=2))]
        return data.draw(st.sampled_from([byte, prefix + byte, byte + prefix]))
    if kind == "xff":  # the last entry of the 256-entry bucket table
        return data.draw(st.sampled_from([b"\xff", text[:1] + b"\xff", b"\xff" + text[-1:]]))
    # One-byte patterns on the first and the last bucket of the text.
    return bytes([min(text) if kind == "first" else max(text)])


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(text=nonempty_text, alpha=st.integers(min_value=1, max_value=16), data=st.data())
def test_search_equals_naive(text, alpha, data):
    sf = SuccinctFile(text, alpha=alpha)
    pattern = _draw_pattern(text, data)
    expected = _naive_offsets(text, pattern)
    for queried in (sf, _reloaded_read_only(sf)):
        assert queried.search(pattern).tolist() == expected
        assert queried.count(pattern) == len(expected)


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(text=nonempty_text)
def test_suffix_array_sorts_suffixes(text):
    sa = build_suffix_array(text)
    suffixes = [text[i:] for i in sa]
    assert suffixes == sorted(suffixes)
    assert sorted(sa.tolist()) == list(range(len(text)))


@settings(max_examples=hypothesis_examples(80), deadline=None)
@given(data=st.binary(max_size=150))
def test_suffix_array_matches_naive_sort(data):
    # Any bytes, the sentinel 0x00 and the empty string included.
    naive = sorted(range(len(data)), key=lambda i: data[i:])
    assert build_suffix_array(data).tolist() == naive


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(text=nonempty_text)
def test_isa_inverts_sa(text):
    sa = build_suffix_array(text)
    isa = inverse_permutation(sa)
    assert (sa[isa] == np.arange(len(text))).all()


@settings(max_examples=hypothesis_examples(60), deadline=None)
@given(
    size=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_bitvector_rank_select_consistency(size, data):
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=size - 1), unique=True, max_size=size)
    )
    vec = BitVector.from_indices(size, indices)
    members = sorted(indices)
    assert vec.count() == len(members)
    for position in range(0, size + 1, max(1, size // 7)):
        assert vec.rank1(position) == sum(1 for m in members if m < position)
    for rank, member in enumerate(members):
        assert vec.select1(rank) == member
