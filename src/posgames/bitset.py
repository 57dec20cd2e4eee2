"""Bit-mask element sets.

Element sets are plain Python ints used as bit vectors: bit i set means
element i is in the set.  Ints give constant-time-ish union/intersection/
subset tests up to the build capacity and hash directly as memo keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BoardError

# Upper bound on board size.  Every desk-scale instance in the test and
# acceptance suites fits well below this.
CAPACITY = 256

ElementSet = int


def is_int(x) -> bool:
    """Is x an int and not a bool?  `bool` subclasses `int`, so a JSON
    `true` would otherwise pass as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Build a mask from element indices, validating them against board size n."""
    mask = 0
    for i in indices:
        if not is_int(i):
            raise BoardError(f"element index {i!r} is not an integer")
        if not 0 <= i < n:
            raise BoardError(f"element index {i} out of range [0, {n})")
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> list[int]:
    """Sorted list of element indices in the mask."""
    return [bit.bit_length() - 1 for bit in iter_bits(mask)]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the single-bit masks of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def low_bits(mask: int, k: int) -> int:
    """Mask of the k lowest set bits of `mask`."""
    out = 0
    for bit in iter_bits(mask):
        if k <= 0:
            break
        out |= bit
        k -= 1
    return out
