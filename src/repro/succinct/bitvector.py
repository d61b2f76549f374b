"""Rank/select bit vector.

A compact bitmap with O(1) amortized ``rank1`` via per-block popcount
prefix sums, used by :class:`~repro.succinct.succinct_file.SuccinctFile`
to mark sampled suffix-array rows and by ZipG's deletion bitmaps.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_BLOCK_BITS = 64


class BitVector:
    """Fixed-length mutable bit vector with rank and select support.

    Bits are stored packed in a ``uint64`` numpy array. Rank structures
    are built lazily and invalidated on mutation, so the vector can be
    used both as a static rank/select directory (sampled-row marks) and
    as a mutable bitmap (lazy deletes).
    """

    def __init__(self, num_bits: int) -> None:
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        self._num_bits = num_bits
        num_blocks = (num_bits + _BLOCK_BITS - 1) // _BLOCK_BITS
        self._blocks = np.zeros(num_blocks, dtype=np.uint64)
        self._rank_prefix: np.ndarray | None = None
        self._word_lists: tuple | None = None

    @classmethod
    def from_blocks(
        cls, num_bits: int, blocks: np.ndarray, copy: bool = True
    ) -> "BitVector":
        """Rebuild a vector from its packed ``uint64`` block array
        (deserialization path).

        With ``copy=False`` the vector adopts ``blocks`` as-is -- for
        the zero-copy mmap load path, where the blocks are a read-only
        ``np.frombuffer`` view and the vector is never mutated (sampled
        row marks). Mutable bitmaps (lazy deletes) must keep the
        default owned copy.
        """
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        blocks = np.asarray(blocks, dtype=np.uint64)
        expected = (num_bits + _BLOCK_BITS - 1) // _BLOCK_BITS
        if blocks.shape != (expected,):
            raise ValueError("block array does not match num_bits")
        # Bypass __init__: allocating-and-discarding a zeroed block
        # array would make every mmap-backed load O(n).
        vec = cls.__new__(cls)
        vec._num_bits = num_bits
        vec._blocks = blocks.copy() if copy else blocks  # zipg: owned-copy
        vec._rank_prefix = None
        vec._word_lists = None
        return vec

    @property
    def blocks(self) -> np.ndarray:
        """The packed ``uint64`` bit blocks (an owned copy)."""
        return self._blocks.copy()  # zipg: owned-copy

    def blocks_for_write(self) -> np.ndarray:
        """The internal block array, *not* copied.

        Write-side zero-copy serialization only -- callers must treat
        the result as read-only.
        """
        return self._blocks

    @classmethod
    def from_indices(cls, num_bits: int, indices: Iterable[int]) -> "BitVector":
        """Build a vector of ``num_bits`` bits with ``indices`` set."""
        vec = cls(num_bits)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            if indices.min() < 0 or indices.max() >= num_bits:
                raise IndexError("bit index out of range")
            blocks = indices // _BLOCK_BITS
            offsets = (indices % _BLOCK_BITS).astype(np.uint64)
            np.bitwise_or.at(vec._blocks, blocks, np.uint64(1) << offsets)
        return vec

    def __len__(self) -> int:
        return self._num_bits

    def _check(self, index: int) -> None:
        if not 0 <= index < self._num_bits:
            raise IndexError(f"bit index {index} out of range [0, {self._num_bits})")

    def __getitem__(self, index: int) -> bool:
        self._check(index)
        block, offset = divmod(index, _BLOCK_BITS)
        return bool((self._blocks[block] >> np.uint64(offset)) & np.uint64(1))

    def set(self, index: int) -> None:
        """Set bit ``index`` to 1."""
        self._check(index)
        block, offset = divmod(index, _BLOCK_BITS)
        self._blocks[block] |= np.uint64(1) << np.uint64(offset)
        self._rank_prefix = None
        self._word_lists = None

    def clear(self, index: int) -> None:
        """Set bit ``index`` to 0."""
        self._check(index)
        block, offset = divmod(index, _BLOCK_BITS)
        self._blocks[block] &= ~(np.uint64(1) << np.uint64(offset))
        self._rank_prefix = None
        self._word_lists = None

    def _ensure_rank(self) -> None:
        if self._rank_prefix is None:
            counts = _popcount64(self._blocks)
            self._rank_prefix = np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))
            )

    def count(self) -> int:
        """Total number of set bits."""
        self._ensure_rank()
        return int(self._rank_prefix[-1])

    def rank1(self, index: int) -> int:
        """Number of set bits in ``[0, index)``."""
        if not 0 <= index <= self._num_bits:
            raise IndexError(f"rank index {index} out of range [0, {self._num_bits}]")
        if index == 0:
            return 0
        self._ensure_rank()
        block, offset = divmod(index, _BLOCK_BITS)
        total = int(self._rank_prefix[block])
        if offset:
            mask = (np.uint64(1) << np.uint64(offset)) - np.uint64(1)
            total += int(_popcount_scalar(self._blocks[block] & mask))
        return total

    def word_lists(self) -> tuple:
        """``(blocks, rank_prefix)`` as plain Python int lists, built on
        first call (``n/64`` entries each).

        For scalar loops that probe a few bits and one rank: a list
        index and an int shift cost a fraction of a numpy scalar
        index. Bit ``i`` is ``(blocks[i >> 6] >> (i & 63)) & 1``;
        ``rank1(i)`` is ``rank_prefix[i >> 6]`` plus the popcount of
        the masked word. Rebuilt after any mutation.
        """
        if self._word_lists is None:
            self._ensure_rank()
            self._word_lists = (self._blocks.tolist(), self._rank_prefix.tolist())
        return self._word_lists

    def count_range(self, start: int, end: int) -> int:
        """Number of set bits in ``[start, end)``.

        Reads only the blocks the range spans, with one slice, so a
        short range costs the same whether or not the rank directory
        is current (mutable bitmaps invalidate it on every write).
        """
        if not 0 <= start <= end <= self._num_bits:
            raise IndexError(
                f"bit range [{start}, {end}) out of range [0, {self._num_bits}]"
            )
        if start == end:
            return 0
        words = self._blocks[start // _BLOCK_BITS : (end - 1) // _BLOCK_BITS + 1].tolist()
        words[0] &= ~((1 << (start % _BLOCK_BITS)) - 1)
        words[-1] &= (1 << ((end - 1) % _BLOCK_BITS + 1)) - 1
        return sum(bin(word).count("1") for word in words)

    def get_range(self, start: int, end: int) -> np.ndarray:
        """Boolean array of the bits in ``[start, end)``."""
        if not 0 <= start <= end <= self._num_bits:
            raise IndexError(
                f"bit range [{start}, {end}) out of range [0, {self._num_bits}]"
            )
        return self.get_many(np.arange(start, end, dtype=np.int64))

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized ``__getitem__``: boolean array of bit values.

        No bounds checking beyond numpy's own; callers pass indices
        they already know are in range (query-kernel hot path).
        """
        indices = np.asarray(indices, dtype=np.int64)
        blocks = self._blocks[indices // _BLOCK_BITS]
        offsets = (indices % _BLOCK_BITS).astype(np.uint64)
        return ((blocks >> offsets) & np.uint64(1)).astype(bool)

    def rank1_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an index array."""
        indices = np.asarray(indices, dtype=np.int64)
        self._ensure_rank()
        block = indices // _BLOCK_BITS
        offset = (indices % _BLOCK_BITS).astype(np.uint64)
        totals = self._rank_prefix[block]
        mask = (np.uint64(1) << offset) - np.uint64(1)
        partial = _popcount64(self._blocks[block] & mask)
        return totals + partial.astype(np.int64)

    def rank0(self, index: int) -> int:
        """Number of zero bits in ``[0, index)``."""
        return index - self.rank1(index)

    def select1(self, rank: int) -> int:
        """Index of the ``rank``-th (0-based) set bit."""
        self._ensure_rank()
        total = int(self._rank_prefix[-1])
        if not 0 <= rank < total:
            raise IndexError(f"select rank {rank} out of range [0, {total})")
        # Binary search over block prefix sums, then scan within the block.
        block = int(np.searchsorted(self._rank_prefix, rank + 1, side="left")) - 1
        remaining = rank - int(self._rank_prefix[block])
        word = int(self._blocks[block])
        for offset in range(_BLOCK_BITS):
            if (word >> offset) & 1:
                if remaining == 0:
                    return block * _BLOCK_BITS + offset
                remaining -= 1
        raise AssertionError("select1 internal inconsistency")

    def set_indices(self) -> np.ndarray:
        """Indices of all set bits, ascending."""
        out = []
        for block_index, word in enumerate(self._blocks):
            word = int(word)
            base = block_index * _BLOCK_BITS
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return np.asarray(out, dtype=np.int64)

    def serialized_size_bytes(self) -> int:
        """Bytes needed to persist the raw bitmap (no rank directory)."""
        return self._blocks.nbytes


def _popcount64(blocks: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount."""
    x = blocks.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)


def _popcount_scalar(word: np.uint64) -> int:
    return bin(int(word)).count("1")
