"""Packed-bitset membership representation.

A boolean membership matrix of shape ``(m, n_bits)`` is packed row-wise
into little-endian ``uint64`` words: column ``j`` lives in word
``j // 64`` at bit position ``j % 64``, and the tail word of a ragged
row (``n_bits`` not a multiple of 64) is zero-padded.  Set algebra on
membership vectors then reduces to word-wise bit operations plus
popcounts:

* ``|a ∩ b|``  — ``popcount(a & b)``
* ``|a ∪ b|``  — ``popcount(a | b)``
* ``|a Δ b|``  — ``popcount(a ^ b)``

which is what every expected-waste kernel is made of.  The functions in
this module are the backend-independent primitives (pure numpy, built on
``np.bitwise_count``); the dispatchable hot-path kernels live in
:mod:`repro.kernels.backends`.
"""

from __future__ import annotations

import sys
from typing import Sequence, Union

import numpy as np

__all__ = [
    "PackedBits",
    "words_for",
    "pack_rows",
    "unpack_rows",
    "popcount_rows",
    "intersect_count_rows",
]

WORD_BITS = 64


def words_for(n_bits: int) -> int:
    """Number of uint64 words needed to hold ``n_bits`` bits per row."""
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def _as_words(words: np.ndarray) -> np.ndarray:
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("packed words must be a 2-d (m, W) array")
    return words


class PackedBits:
    """An ``(m, W)`` uint64 word matrix plus its logical bit width.

    Rows are membership vectors; padding bits past ``n_bits`` in the
    last word are guaranteed zero by every constructor in this module,
    which is what makes popcount-based set cardinalities exact.
    """

    __slots__ = ("words", "n_bits")

    def __init__(self, words: np.ndarray, n_bits: int) -> None:
        words = _as_words(words)
        n_bits = int(n_bits)
        if words.shape[1] != words_for(n_bits):
            raise ValueError(
                f"{words.shape[1]} words cannot hold exactly "
                f"{n_bits} bits per row"
            )
        self.words = words
        self.n_bits = n_bits

    def __len__(self) -> int:
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def take(self, indices: Union[np.ndarray, Sequence[int]]) -> "PackedBits":
        """A new :class:`PackedBits` of the selected rows (a copy)."""
        return PackedBits(self.words[np.asarray(indices)], self.n_bits)

    def unpack(self) -> np.ndarray:
        """The boolean ``(m, n_bits)`` matrix this packs."""
        return unpack_rows(self.words, self.n_bits)

    def copy(self) -> "PackedBits":
        return PackedBits(self.words.copy(), self.n_bits)


def pack_rows(membership: np.ndarray) -> PackedBits:
    """Pack a boolean ``(m, n_bits)`` matrix into uint64 words."""
    membership = np.asarray(membership, dtype=bool)
    if membership.ndim != 2:
        raise ValueError("membership must be a 2-d (m, n_bits) matrix")
    m, n_bits = membership.shape
    n_words = words_for(n_bits)
    packed8 = np.packbits(membership, axis=1, bitorder="little")
    pad = n_words * 8 - packed8.shape[1]
    if pad:
        packed8 = np.pad(packed8, ((0, 0), (0, pad)))
    words = packed8.view(np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        words = words.byteswap()
    return PackedBits(np.ascontiguousarray(words), n_bits)


def unpack_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: uint64 words back to booleans."""
    words = _as_words(words)
    if words.shape[1] != words_for(n_bits):
        raise ValueError("word count does not match n_bits")
    m = words.shape[0]
    if n_bits == 0 or m == 0:
        return np.zeros((m, n_bits), dtype=bool)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        words = words.byteswap()
    as_bytes = words.reshape(m, -1).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little", count=n_bits)
    return bits.astype(bool)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """``|row|`` per row: total set bits in each packed row."""
    words = _as_words(words)
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def intersect_count_rows(words: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``|rows[k] ∩ row|`` for every row (one AND + popcount sweep)."""
    words = _as_words(words)
    row = np.ascontiguousarray(row, dtype=np.uint64)
    return np.bitwise_count(words & row[None, :]).sum(axis=1, dtype=np.int64)
