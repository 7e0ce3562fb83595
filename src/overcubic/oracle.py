"""Brute-force enumeration of the partition families.

This module is the ground truth the series engine is checked against, so
it deliberately shares nothing with it: counts come from a direct
recurrence over the part classes, one class at a time, and tuple counts
from plain integer convolution of enumerated tables.  Keep it that way.
"""
from __future__ import annotations

from .errors import CapExceeded

# Largest n enumerated: every family's first 41 counts already cross-check
# the engine, and the cap bounds the tuple route, whose log2 k convolutions
# each take (n+1)^2 / 2 products of integers of about n log2 k bits.  At 40
# a 10^30-tuple table took 70 ms on a 2-core machine, and 2 s at n = 100.
MAX_N = 40

# Largest tuple length, refused before the first convolution: Python prints at
# most 4300 digits, and at n = MAX_N the overcubic-ktuple count, which bounds
# opt-ktuple's, has 4299 digits at k = 2^360 and 4312 at k = 2^361.
MAX_K = 1 << 360

# family -> (classes per even part size, 0 meaning odd parts only;
# whether a class's first instance may be overlined; tuple length, None
# where k sets it)
FAMILIES = {
    "partition": (1, False, 1),
    "cubic": (2, False, 1),
    "overcubic": (2, True, 1),
    "overcubic-pair": (2, True, 2),
    "overcubic-triple": (2, True, 3),
    "overcubic-ktuple": (2, True, None),
    "opt-ktuple": (0, True, None),
}


def _counts_by_classes(n_max: int, even_colors: int, overline: bool) -> list[int]:
    """Number of multisets of parts summing to n, for n = 0..n_max.  Every
    odd size is one part class and every even size `even_colors` classes;
    with overlining on, a nonempty class contributes an extra factor of 2
    (its first instance may be overlined)."""
    weight = 2 if overline else 1
    counts = [1] + [0] * n_max
    for s in range(1, n_max + 1):
        for _ in range(even_colors if s % 2 == 0 else 1):
            # used[r]: the choices so far summing to r that take this class
            used = [0] * (n_max + 1)
            for r in range(s, n_max + 1):
                used[r] = counts[r - s] + used[r - s]
            counts = [c + weight * u for c, u in zip(counts, used)]
    return counts


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def _convolve_tables(base: list[int], k: int) -> list[int]:
    """base convolved with itself to k >= 1 factors, by repeated squaring."""
    if k == 1:
        return base
    half = _convolve_tables(base, k // 2)
    acc = _convolve(half, half)
    return _convolve(acc, base) if k & 1 else acc


def table(family: str, n_max: int, k: int = 1) -> list[int]:
    """Enumerated counts of n = 0..n_max (at most MAX_N) for one named
    family: the single-partition counts, convolved to the family's tuple
    length.  k is the tuple length of the parameterized families and is
    ignored by the others."""
    if family not in FAMILIES:
        raise ValueError(f"no enumeration for family {family!r}")
    if n_max < 0:
        raise ValueError("n must be >= 0")
    if n_max > MAX_N:
        raise CapExceeded(f"n={n_max} above enumeration cap {MAX_N}")
    even_colors, overline, length = FAMILIES[family]
    if length is None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > MAX_K:
            raise CapExceeded(f"k={k} above enumeration cap 2^{MAX_K.bit_length() - 1}")
        length = k
    return _convolve_tables(_counts_by_classes(n_max, even_colors, overline), length)
