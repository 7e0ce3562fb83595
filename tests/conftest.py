"""Shared test oracles, the f_delta helper and the acceptance-summary hook.

The oracles here are deliberately naive: term-by-term products, recursive
counts, brute-force residue sets.  They share no code with the library
paths they check.  f_series is not an oracle: it is the engine's own
expansion of a single f_delta.
"""
from __future__ import annotations

from collections import defaultdict

import pytest

from overcubic.etaq import FMonomial, expand
from overcubic.series import TruncatedSeries


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
