"""Element subsets as integer bit masks (bit i set = element index i is a member)."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def mask_from_bools(flags: np.ndarray) -> int:
    """The mask of the set flags of a 1-D bool array, read off its packed bytes."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def bools_from_mask(mask: int, size: int) -> np.ndarray:
    """Membership of each index below size, as a bool array: the inverse of
    mask_from_bools, read off the packed bytes of the mask's low size bits."""
    low = (mask & ((1 << size) - 1)).to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(low, dtype=np.uint8), count=size,
                         bitorder="little").view(bool)


def has_bit(mask: int, i: int) -> bool:
    return (mask >> i) & 1 == 1


def members(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def lowest_bit(mask: int) -> int | None:
    if mask == 0:
        return None
    return (mask & -mask).bit_length() - 1
