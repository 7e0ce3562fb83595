"""Brute-force enumeration of the partition families.

This module is the ground truth the series engine is checked against, so
it deliberately shares nothing with it: counts come from a direct
recursion over part-class choice vectors, and tuple counts from plain
integer convolution of enumerated tables.  Keep it that way.
"""
from __future__ import annotations

from .errors import CapExceeded

DEFAULT_CAP = 40


def _class_sizes(n: int, even_colors: int, odd_parts_only: bool) -> list[int]:
    sizes = []
    for s in range(1, n + 1):
        if s % 2 == 0:
            if not odd_parts_only:
                sizes.extend([s] * even_colors)
        else:
            sizes.append(s)
    return sizes


def _count_by_classes(n: int, sizes: list[int], overline: bool) -> int:
    """Number of multisets over the given part classes summing to n, where a
    nonempty class contributes an extra factor of 2 if overlining is on."""
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

    return go(0, n)


def _check_cap(n: int, cap: int):
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceeded(f"n={n} above enumeration cap {cap}")


def count_partitions(n: int, cap: int = DEFAULT_CAP) -> int:
    _check_cap(n, cap)
    return _count_by_classes(n, _class_sizes(n, 1, False), overline=False)


def count_cubic(n: int, cap: int = DEFAULT_CAP) -> int:
    _check_cap(n, cap)
    return _count_by_classes(n, _class_sizes(n, 2, False), overline=False)


def count_overcubic(n: int, cap: int = DEFAULT_CAP) -> int:
    """Overcubic partitions: even part sizes carry one of two colors, and the
    first instance of each (size, color) class may be overlined."""
    _check_cap(n, cap)
    return _count_by_classes(n, _class_sizes(n, 2, False), overline=True)


def count_odd_overpartition(n: int, cap: int = DEFAULT_CAP) -> int:
    """Overpartitions into odd parts (first instance of each size overlinable)."""
    _check_cap(n, cap)
    return _count_by_classes(n, _class_sizes(n, 0, True), overline=True)


def _convolve_tables(base: list[int], k: int) -> list[int]:
    acc = [1] + [0] * (len(base) - 1)
    for _ in range(k):
        nxt = [0] * len(base)
        for i, a in enumerate(acc):
            if not a:
                continue
            for j in range(len(base) - i):
                nxt[i + j] += a * base[j]
        acc = nxt
    return acc


def count_ktuple(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """Overcubic partition k-tuples of n: k-fold convolution of the
    enumerated single-partition counts."""
    _check_cap(n, cap)
    if k < 1:
        raise ValueError("k must be >= 1")
    base = [count_overcubic(i, cap) for i in range(n + 1)]
    return _convolve_tables(base, k)[n]


def count_opt_ktuple(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """Overpartition k-tuples with odd parts of n."""
    _check_cap(n, cap)
    if k < 1:
        raise ValueError("k must be >= 1")
    base = [count_odd_overpartition(i, cap) for i in range(n + 1)]
    return _convolve_tables(base, k)[n]


def count(family: str, n: int, k: int = 1, cap: int = DEFAULT_CAP) -> int:
    """Enumerated count of n for one named family; k is the tuple length of
    the parameterized families and is ignored by the others."""
    if family == "partition":
        return count_partitions(n, cap)
    if family == "cubic":
        return count_cubic(n, cap)
    if family == "overcubic":
        return count_overcubic(n, cap)
    if family == "overcubic-pair":
        return count_ktuple(n, 2, cap)
    if family == "overcubic-triple":
        return count_ktuple(n, 3, cap)
    if family == "overcubic-ktuple":
        return count_ktuple(n, k, cap)
    if family == "opt-ktuple":
        return count_opt_ktuple(n, k, cap)
    raise ValueError(f"no enumeration for family {family!r}")


def table(family: str, n_max: int, k: int = 1, cap: int = DEFAULT_CAP) -> list[int]:
    """Counts for n = 0..n_max; n_max is checked against the cap first."""
    _check_cap(n_max, cap)
    return [count(family, n, k, cap) for n in range(n_max + 1)]
