"""Truncated Laurent series with exact integer coefficients.

A series stores coefficients for the exponent window [valuation, order).
Exponents below the valuation are known to be zero, exponents at or above
the order are unknown.  Every operation propagates truncation
pessimistically (min rule), so results never claim more precision than
their inputs support.  Coefficients are Python integers throughout; there
is no floating point in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InsufficientPrecision


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer Laurent series trusted on the exponent window [valuation, order)."""

    valuation: int
    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order - self.valuation:
            raise ValueError("coefficient window must match [valuation, order)")
        if self.coeffs and self.coeffs[0] == 0:
            raise ValueError("leading coefficient must be nonzero; use make()")

    @classmethod
    def make(cls, valuation: int, coeffs: Iterable[int], order: int) -> "TruncatedSeries":
        """Build a series, trimming leading zeros so the valuation points at the
        first nonzero coefficient.  An all-zero window becomes the canonical
        zero series (empty coefficients, valuation == order)."""
        cs = list(coeffs)
        if len(cs) != order - valuation:
            raise ValueError("coefficient window must match [valuation, order)")
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        if lead == len(cs):
            return cls(order, (), order)
        return cls(valuation + lead, tuple(cs[lead:]), order)

    def coefficient(self, exponent: int) -> int:
        """Coefficient of q^exponent; zero below the valuation, error at or
        above the truncation order."""
        if exponent >= self.order:
            raise InsufficientPrecision(
                f"coefficient of q^{exponent} requested, trusted only below {self.order}"
            )
        if exponent < self.valuation:
            return 0
        return self.coeffs[exponent - self.valuation]

    def __getitem__(self, exponent: int) -> int:
        return self.coefficient(exponent)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def window(self, lo: int, hi: int) -> list[int]:
        """Coefficients for exponents [lo, hi) as a dense list."""
        if hi > self.order:
            raise InsufficientPrecision(
                f"window up to {hi} requested, trusted only below {self.order}"
            )
        out = [0] * max(0, hi - lo)
        a = max(lo, self.valuation)
        b = min(hi, self.order)
        if a < b:
            out[a - lo : b - lo] = self.coeffs[a - self.valuation : b - self.valuation]
        return out

    def __repr__(self):  # keep pytest output readable for long series
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if len(self.coeffs) > 8 else ""
        return (
            f"TruncatedSeries(valuation={self.valuation}, order={self.order},"
            f" coeffs=[{shown}{more}])"
        )

    def __add__(self, other):  # expand sums its terms with sum()
        return add(self, other)


def zero(order: int) -> TruncatedSeries:
    return TruncatedSeries(order, (), order)


def constant(c: int, order: int) -> TruncatedSeries:
    if order <= 0 or c == 0:
        return zero(order)
    return TruncatedSeries(0, (c,) + (0,) * (order - 1), order)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    order = min(a.order, b.order)
    lo = min(a.valuation, b.valuation, order)
    wa = a.window(lo, order)
    wb = b.window(lo, order)
    return TruncatedSeries.make(lo, [x + y for x, y in zip(wa, wb)], order)


def scale(a: TruncatedSeries, c: int) -> TruncatedSeries:
    if c == 0:
        return zero(a.order)
    return TruncatedSeries(a.valuation, tuple(c * x for x in a.coeffs), a.order)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, schoolbook.  The sparser operand drives the outer loop
    so products against pentagonal-type series cost O(N * #nonzero)."""
    val = a.valuation + b.valuation
    order = min(a.order + b.valuation, b.order + a.valuation)
    if order <= val:  # an empty series has valuation == order
        return zero(order)
    if sum(1 for c in b.coeffs if c) < sum(1 for c in a.coeffs if c):
        a, b = b, a
    n = order - val
    out = [0] * n
    bc = b.coeffs
    for i, ca in enumerate(a.coeffs):
        if not ca or i >= n:
            continue
        hi = min(len(bc), n - i)
        if ca == 1:
            out[i : i + hi] = [x + y for x, y in zip(out[i : i + hi], bc)]
        elif ca == -1:
            out[i : i + hi] = [x - y for x, y in zip(out[i : i + hi], bc)]
        else:
            out[i : i + hi] = [x + ca * y for x, y in zip(out[i : i + hi], bc)]
    return TruncatedSeries.make(val, out, order)


def first_difference(a, b, limit: int) -> int | None:
    """Exponent of the first coefficient where a and b differ below `limit`,
    or None if they agree."""
    lo = min(a.valuation, b.valuation, limit)
    for e, (x, y) in enumerate(zip(a.window(lo, limit), b.window(lo, limit))):
        if x != y:
            return lo + e
    return None


def reduce_mod(a: TruncatedSeries, modulus: int) -> TruncatedSeries:
    """Map every coefficient to its least nonnegative residue; the valuation
    moves to the first nonzero residue."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    return TruncatedSeries.make(a.valuation, (c % modulus for c in a.coeffs), a.order)
