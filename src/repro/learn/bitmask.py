"""Bit-packed boolean masks: packing, unpacking and popcounts.

A mask over ``n`` rows is stored as ``np.packbits`` bytes, padding bits
zero, so an AND of two masks is one bitwise op over ``n / 8`` bytes and
a match count is a popcount. The CN2-SD beam (:mod:`.subgroup`) scores
its candidates this way, and so does the Ranker's mask engine
(:mod:`repro.core.maskset`), which imports these helpers from here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_mask", "pack_words", "popcount", "unpack_masks"]

#: Per-byte popcount lookup: ``_POPCOUNT[packed].sum()`` counts set bits.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """A boolean mask as packed uint8 bits (zero-padded to a whole byte)."""
    return np.packbits(np.asarray(mask, dtype=bool))


def pack_words(masks: np.ndarray) -> np.ndarray:
    """Boolean rows ``(r, n)`` as ``(r, ceil(n / 64))`` uint64 words.

    The bytes are :func:`pack_mask`'s, zero-padded to whole words, so
    ``unpack_masks(words.view(np.uint8), n)`` returns the rows.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim == 1:
        masks = masks[None, :]
    packed = np.packbits(masks, axis=1)
    n_bytes = -(-packed.shape[1] // 8) * 8
    words = np.zeros((packed.shape[0], n_bytes), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def unpack_masks(packed: np.ndarray, n_rows: int) -> np.ndarray:
    """Packed rows back to a ``(rows, n_rows)`` boolean matrix."""
    if packed.ndim == 1:
        packed = packed[None, :]
    return np.unpackbits(packed.view(np.uint8), axis=1, count=n_rows).view(bool)


def popcount(packed: np.ndarray) -> np.ndarray:
    """Set-bit count per row of a packed matrix (padding bits are zero)."""
    if packed.ndim == 1:
        packed = packed[None, :]
    if packed.shape[1] == 0:
        return np.zeros(packed.shape[0], dtype=np.int64)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0: one C-level pass
        return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    return _POPCOUNT[packed.view(np.uint8)].sum(axis=1)
