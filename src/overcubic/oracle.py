"""Brute-force enumeration of the partition families.

This module is the ground truth the series engine is checked against, so
it deliberately shares nothing with it: counts come from a direct
recursion over part-class choice vectors, and tuple counts from plain
integer convolution of enumerated tables.  Keep it that way.
"""
from __future__ import annotations

from .errors import CapExceeded

# Largest n enumerated.  The recursion is as deep as the number of part
# classes (about 1.5 n with two even colors), so n in the hundreds exhausts
# Python's recursion limit; at 40 every table takes well under a second.
MAX_N = 40

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
    sizes = []
    for s in range(1, n_max + 1):
        sizes.extend([s] * (even_colors if s % 2 == 0 else 1))
    weight = 2 if overline else 1
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, r: int) -> int:
        if r == 0:
            return 1
        if i == len(sizes):
            return 0
        key = (i, r)
        hit = memo.get(key)
        if hit is not None:
            return hit
        s = sizes[i]
        total = go(i + 1, r)
        for used in range(s, r + 1, s):
            total += weight * go(i + 1, r - used)
        memo[key] = total
        return total

    return [go(0, n) for n in range(n_max + 1)]


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
        length = k
    return _convolve_tables(_counts_by_classes(n_max, even_colors, overline), length)
