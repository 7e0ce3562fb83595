"""Empirical arithmetic density of coefficient residues.

delta_r(X) is the fraction of indices 1 <= n <= X whose coefficient is
congruent to r mod M.  Index 0 is excluded throughout: the constant term
is 1 for every family here, and counting it would cap delta_0 below 1
forever.  Densities are exact rationals; rounding happens only in export
columns explicitly labeled as rounded.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import etaq
from .catalogs import Family
from .reporting import to_csv

INDEX_CONVENTION = "indices run 1 <= n <= X (n = 0 excluded)"


@dataclass(frozen=True)
class DensityReport:
    family: str
    k: int
    modulus: int
    residue: int
    rows: tuple[tuple[int, int, Fraction], ...]  # (X, count, delta)
    exceptions: tuple[int, ...] | None  # indices with a(n) not= 0, when residue == 0

    def to_record(self) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "modulus": self.modulus,
            "residue": self.residue,
            "index_convention": INDEX_CONVENTION,
            "rows": [
                {"X": x, "count": c, "delta": d, "delta_rounded": round(float(d), 6)}
                for (x, c, d) in self.rows
            ],
            "exceptions": self.exceptions,  # JSON writes a tuple as a list
        }

    def to_csv(self) -> str:
        rows = [
            {
                "X": x,
                "count": c,
                "delta_numerator": d.numerator,
                "delta_denominator": d.denominator,
                "delta_rounded": round(float(d), 6),
            }
            for (x, c, d) in self.rows
        ]
        return to_csv(rows, ("X", "count", "delta_numerator", "delta_denominator", "delta_rounded"))


def compute_density(
    family: Family,
    modulus: int,
    residue: int,
    x_grid: list[int],
) -> DensityReport:
    """Exact residue counts on each grid point; the exception list (indices
    with a nonzero residue) is materialized only for residue 0.  Apart from
    the residue array, no full-length array is built: hits are counted per
    grid segment, and only the exceptions' indices are kept."""
    etaq.residue_modulus(modulus)  # the one modulus rule
    if not 0 <= residue < modulus:
        raise ValueError("residue must lie in [0, modulus)")
    grid = sorted(set(int(x) for x in x_grid))
    if not grid or grid[0] < 1:
        raise ValueError("grid values must be >= 1")
    x_max = grid[-1]
    arr = etaq.residue_array(family.monomial, x_max + 1, modulus)
    rows = []
    count = 0
    start = 1  # index 0 excluded
    for x in grid:
        count += int(np.count_nonzero(arr[start : x + 1] == residue))
        rows.append((x, count, Fraction(count, x)))
        start = x + 1
    exceptions = None
    if residue == 0:
        indices = np.flatnonzero(arr[1:])
        indices += 1
        exceptions = tuple(indices.tolist())
    return DensityReport(family.name, family.k, modulus, residue, tuple(rows), exceptions)


def squares_and_twice_squares(x: int) -> set[int]:
    out = {m * m for m in range(1, isqrt(x) + 1)}
    out.update(2 * m * m for m in range(1, isqrt(x // 2) + 1))
    return out


def exception_structure_check(k: int, x: int) -> bool:
    """For the (2k+1)-tuple family mod 4: True iff the indices with a
    coefficient not divisible by 4 on [1, x] are exactly the squares and
    twice-squares."""
    if k < 0:
        raise ValueError("k must be >= 0")
    family = Family("overcubic-ktuple", 2 * k + 1)
    report = compute_density(family, 4, 0, [x])
    return set(report.exceptions) == squares_and_twice_squares(x)
