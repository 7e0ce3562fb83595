"""Arithmetic-progression extraction (m-dissection) and identity checking.

An m-dissection splits a series by exponent class mod m; extracting the
progression (m, j) keeps the coefficients at exponents m*n + j and
reindexes them at q^n.  Identity claims compare a (possibly dissected)
left side against a sum of f-monomials, exactly or modulo M.

A claim without a progression is checked over its common f-product: with
m_delta the least exponent of f_delta over every term of both sides (0
for a term without f_delta), each term is expanded times
u^-1 = prod f_delta^-m_delta.  Every exponent left is >= 0, so the
expansion runs multiplication passes only.  u is 1 + O(q), a unit of
Z[[q]] and of (Z/M)[[q]], and (L - R)/u has its first nonzero
coefficient at the same exponent, with the same value, as L - R; so the
verdict and the first violation are those of the stated sides.  A
progression's left side keeps its own factors: it is the family build
that the catalog progressions share.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from . import etaq
from .errors import NegativeValuation
from .reporting import VerificationResult
from .series import TruncatedSeries, first_difference


def extract_progression(s: TruncatedSeries, m: int, j: int) -> TruncatedSeries:
    """Sum of c(m*n + j) q^n.  Rejects series with a principal part; no
    dissection here ever applies to one, and defining an exponent-class
    convention for negative exponents would be arbitrary."""
    if s.valuation < 0:
        raise NegativeValuation("cannot dissect a series with negative valuation")
    progression_order(m, j, 1)  # the one progression rule
    coeffs = s.window(0, s.order)[j::m]
    return TruncatedSeries.make(0, coeffs, len(coeffs))


@dataclass(frozen=True)
class IdentityClaim:
    """lhs, optionally dissected, equals rhs, exactly or mod `modulus`; both
    sides are sums of f-monomials."""

    name: str
    lhs: tuple[etaq.FMonomial, ...]
    rhs: tuple[etaq.FMonomial, ...]
    lhs_progression: tuple[int, int] | None = None
    modulus: int | None = None

    def __post_init__(self):
        if self.lhs_progression is not None:
            progression_order(*self.lhs_progression, 1)  # the one progression rule
        if self.modulus is not None:
            etaq.residue_modulus(self.modulus)  # the one modulus rule


def progression_order(m: int, j: int, n: int) -> int:
    """Order m*n + j of the expansion whose progression (m, j) carries n
    coefficients.  Refuses m < 1, j outside [0, m) and n < 1, so a caller
    that asks for the order before it expands refuses before it builds."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= j < m:
        raise ValueError("progression offset must satisfy 0 <= j < m")
    if n < 1:
        raise ValueError("order must be >= 1")
    return m * n + j


def lhs_order(claim: IdentityClaim, n: int) -> int:
    """Order of the left-side expansion, the largest of a check to order n:
    far enough that the extracted progression still carries n coefficients.
    A left side without a progression is the progression (1, 0)."""
    return progression_order(*(claim.lhs_progression or (1, 0)), n)


def over_common_product(
    lhs: tuple[etaq.FMonomial, ...], rhs: tuple[etaq.FMonomial, ...]
) -> tuple[tuple[etaq.FMonomial, ...], tuple[etaq.FMonomial, ...]]:
    """Both sides divided by prod f_delta^m_delta, m_delta the least exponent
    of f_delta over every term (0 for a term without it): no exponent left
    is negative."""
    terms = [dict(t.factors) for t in lhs + rhs]
    least = {d: min(f.get(d, 0) for f in terms) for f in terms for d in f}

    def divided(t: etaq.FMonomial) -> etaq.FMonomial:
        factors = dict(t.factors)
        return etaq.FMonomial.make(
            t.coefficient, t.qpower, {d: factors.get(d, 0) - m for d, m in least.items()}
        )

    return tuple(map(divided, lhs)), tuple(map(divided, rhs))


def verify_identity(claim: IdentityClaim, n: int) -> VerificationResult:
    """Expand both sides to order n (the left to lhs_order), mod claim.modulus,
    and compare; a claim without a progression is expanded over its common
    f-product (see the module docstring)."""
    lhs_n = lhs_order(claim, n)
    if claim.lhs_progression is None:
        lhs_terms, rhs_terms = over_common_product(claim.lhs, claim.rhs)
        lhs = etaq.expand(lhs_terms, n, claim.modulus)
    else:
        rhs_terms = claim.rhs
        lhs = etaq.expand(claim.lhs, lhs_n, claim.modulus)
        lhs = extract_progression(lhs, *claim.lhs_progression)
    rhs = etaq.expand(rhs_terms, n, claim.modulus)
    mismatch = first_difference(lhs, rhs, n)
    return VerificationResult(
        name=claim.name,
        passed=mismatch is None,
        first_violation=mismatch,
        n_checked=n,
        claim={
            "modulus": claim.modulus,
            "progression": list(claim.lhs_progression) if claim.lhs_progression else None,
        },
        orders={"lhs": lhs_n, "rhs": n},
    )


def identity_checks(claims: Iterable[IdentityClaim], n: int) -> list:
    """The (largest order, check) pair of each claim's check to order n."""
    return [(lhs_order(c, n), partial(verify_identity, c, n)) for c in claims]


def verify_catalog(claims: Iterable[IdentityClaim], n: int) -> list[VerificationResult]:
    return sorted(etaq.largest_first(identity_checks(claims, n)), key=lambda r: r.name)
