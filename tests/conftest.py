"""Shared test oracles, reference routes, the f_delta helper and the
acceptance-summary hook.

The oracles here are deliberately naive: term-by-term products, recursive
counts, brute-force residue sets.  They share no code with the library
paths they check.  The reference routes (series inverse, powers, q-shift
and dilation, interleaving, the theta series phi and psi, and the Sellers
product) use only TruncatedSeries and its schoolbook operators (add,
scale and series.mul), never the engine's passes, so the tests compare
the engine against them.  f_series is not an oracle: it is the engine's own expansion of a
single f_delta.
"""
from __future__ import annotations

from collections import defaultdict

import pytest

from overcubic.errors import NegativeValuation, QSeriesError
from overcubic.etaq import FMonomial, expand
from overcubic.series import TruncatedSeries, add, constant, mul, scale


def naive_euler_product(delta: int, n: int) -> list[int]:
    """Coefficients of prod_{i>=1} (1 - q^(delta*i)) below n, multiplied out
    one binomial at a time."""
    coeffs = [0] * n
    coeffs[0] = 1
    i = 1
    while delta * i < n:
        e = delta * i
        for j in range(n - 1, e - 1, -1):
            coeffs[j] -= coeffs[j - e]
        i += 1
    return coeffs


def naive_partition_counts(n: int) -> list[int]:
    """p(0..n) by recursion over the largest part, no generating functions."""
    table = defaultdict(int)

    def count(rest: int, largest: int) -> int:
        if rest == 0:
            return 1
        key = (rest, min(largest, rest))
        if key in table:
            return table[key]
        total = sum(count(rest - part, part) for part in range(1, min(largest, rest) + 1))
        table[key] = total
        return total

    return [count(i, i) for i in range(n + 1)]


def naive_convolution(a: list[int], b: list[int]) -> list[int]:
    n = min(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j in range(n - i):
            out[i + j] += x * b[j]
    return out


def f_series(delta: int, n: int) -> TruncatedSeries:
    """f_delta below q^n through etaq.expand."""
    return expand(FMonomial.make(factors={delta: 1}), n)


def ts(coeffs, valuation: int = 0, order: int | None = None) -> TruncatedSeries:
    cs = list(coeffs)
    if order is None:
        order = valuation + len(cs)
    cs += [0] * (order - valuation - len(cs))
    return TruncatedSeries.make(valuation, cs, order)


# ---------------------------------------------------------------------------
# reference routes on the schoolbook product


class NonUnitLeadingCoefficient(QSeriesError):
    """Inversion requires the lowest-order coefficient to be +1 or -1."""


def one(order: int) -> TruncatedSeries:
    return constant(1, order)


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return add(a, scale(b, -1))


def inv(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse.  Requires a unit (+-1) leading coefficient so
    the inverse stays integral."""
    if not a.coeffs or abs(a.coeffs[0]) != 1:
        lead = a.coeffs[0] if a.coeffs else 0
        raise NonUnitLeadingCoefficient(f"leading coefficient {lead} is not +-1")
    u = a.coeffs[0]
    A = a.coeffs
    L = len(A)
    B = [0] * L
    B[0] = u  # 1/u == u for u = +-1
    for n in range(1, L):
        s = 0
        for k in range(1, n + 1):
            ak = A[k]
            if ak:
                s += ak * B[n - k]
        B[n] = -u * s
    return TruncatedSeries.make(-a.valuation, B, a.order - 2 * a.valuation)


def power(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e by repeated squaring; negative exponents go through inv()."""
    if e == 0:
        return one(a.order - a.valuation)
    if e < 0:
        return power(inv(a), -e)
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def shift(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """Multiply by q^e: valuation and order both move by e."""
    return TruncatedSeries(a.valuation + e, a.coeffs, a.order + e)


def dilate(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """Substitute q -> q^m (m >= 1).  Exponents between multiples of m are
    known zero, so the result is trusted below m * a.order."""
    if m < 1:
        raise ValueError("dilation factor must be >= 1")
    out = [0] * (m * len(a.coeffs))
    out[::m] = a.coeffs
    return TruncatedSeries.make(m * a.valuation, out, m * a.order)


def interleave(parts: list[TruncatedSeries]) -> TruncatedSeries:
    """Reassemble sum_j q^j * parts[j](q^m); inverse of a full m-dissection."""
    m = len(parts)
    if m < 1:
        raise ValueError("need at least one part")
    for p in parts:
        if p.valuation < 0:
            raise NegativeValuation("interleaving expects valuation >= 0 parts")
    order = min(m * p.order + j for j, p in enumerate(parts))
    coeffs = [0] * order
    for j, p in enumerate(parts):
        coeffs[j::m] = p.window(0, len(range(j, order, m)))
    return TruncatedSeries.make(0, coeffs, order)


def phi(n: int) -> TruncatedSeries:
    """1 + 2*sum q^(k^2), truncated below exponent n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * n
    coeffs[0] = 1
    k = 1
    while k * k < n:
        coeffs[k * k] = 2
        k += 1
    return TruncatedSeries.make(0, coeffs, n)


def psi(n: int) -> TruncatedSeries:
    """sum q^(k(k+1)/2), truncated below exponent n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries.make(0, coeffs, n)


def sellers_product(t: int, n: int) -> TruncatedSeries:
    """(phi(q) * prod_{i>=1} phi(q^(2^i))^(3*2^(i-1)))^t below exponent n.

    Factors with 2^i > n contribute only 1 below q^n and are dropped.  Each
    factor is powered before dilation, which keeps it short, and mul trims
    it to the product's order n."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("order must be >= 1")
    acc = phi(n)
    i = 1
    while (1 << i) <= n:
        step = 1 << i
        inner = phi((n + step - 1) // step)
        acc = mul(acc, dilate(power(inner, 3 << (i - 1)), step))
        i += 1
    return power(acc, t)


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion, aggregated over its tests


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, list[bool]] = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in name and "::test_c" in name:
                crit = name.split("::test_")[1].split("_")[0]
                outcomes.setdefault(crit, []).append(passed)
    if not outcomes:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for crit in sorted(outcomes, key=lambda c: int(c.lstrip("c"))):
        verdict = "PASS" if all(outcomes[crit]) else "FAIL"
        tw.write_line(f"criterion {crit.lstrip('c')}: {verdict}")
