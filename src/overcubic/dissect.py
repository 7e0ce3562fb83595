"""Arithmetic-progression extraction (m-dissection) and identity checking.

An m-dissection splits a series by exponent class mod m; extracting the
progression (m, j) keeps the coefficients at exponents m*n + j and
reindexes them at q^n.  Identity claims compare a (possibly dissected)
left side against a sum of f-monomials, exactly or modulo M.
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
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= j < m:
        raise ValueError("progression offset must satisfy 0 <= j < m")
    order = (s.order - j + m - 1) // m
    coeffs = [0] * max(0, order)
    lo = s.valuation
    start = j if j >= lo else j + ((lo - j + m - 1) // m) * m
    for e in range(start, s.order, m):
        coeffs[(e - j) // m] = s.coeffs[e - lo]
    return TruncatedSeries.make(0, coeffs, order) if order > 0 else TruncatedSeries(order, (), order)


def interleave(parts: list[TruncatedSeries]) -> TruncatedSeries:
    """Reassemble sum_j q^j * parts[j](q^m); inverse of a full m-dissection."""
    m = len(parts)
    if m < 1:
        raise ValueError("need at least one part")
    for p in parts:
        if p.valuation < 0:
            raise NegativeValuation("interleaving expects valuation >= 0 parts")
    order = min(m * p.order + j for j, p in enumerate(parts))
    coeffs = [0] * max(0, order)
    for j, p in enumerate(parts):
        for i, c in enumerate(p.coeffs):
            e = m * (p.valuation + i) + j
            if e < order:
                coeffs[e] = c
    return TruncatedSeries.make(0, coeffs, order) if order > 0 else TruncatedSeries(order, (), order)


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
            m, j = self.lhs_progression
            if not 0 <= j < m:
                raise ValueError("progression offset must satisfy 0 <= j < m")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")


def lhs_order(claim: IdentityClaim, n: int) -> int:
    """Order of the left-side expansion, the largest of a check to order n:
    far enough that the extracted progression still carries n coefficients."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if claim.lhs_progression is None:
        return n
    m, j = claim.lhs_progression
    return m * n + j


def verify_identity(claim: IdentityClaim, n: int) -> VerificationResult:
    """Expand both sides to order n (the left side to lhs_order) and compare."""
    lhs_n = lhs_order(claim, n)
    lhs = etaq.expand(claim.lhs, lhs_n)
    if claim.lhs_progression is not None:
        lhs = extract_progression(lhs, *claim.lhs_progression)
    rhs = etaq.expand(claim.rhs, n)
    mismatch = first_difference(lhs, rhs, n, modulus=claim.modulus)
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


def verify_catalog(claims: Iterable[IdentityClaim], n: int) -> list[VerificationResult]:
    checks = [(lhs_order(c, n), partial(verify_identity, c, n)) for c in claims]
    return sorted(etaq.largest_first(checks), key=lambda r: r.name)


# ---------------------------------------------------------------------------
# JSON catalog format


def _sum_from_list(items: list) -> tuple[etaq.FMonomial, ...]:
    return tuple(etaq.FMonomial.from_dict(t) for t in items)


def claim_from_dict(d: dict) -> IdentityClaim:
    """Parse one catalog entry; a {"family": ...} left side becomes the
    one-term sum of that family's monomial."""
    lhs_spec = d["lhs"]
    if "family" in lhs_spec:
        f = lhs_spec["family"]
        lhs = (etaq.family_monomial(etaq.Family(f["name"], f.get("k", 1))),)
    else:
        lhs = _sum_from_list(lhs_spec["sum"])
    prog = d.get("lhs_progression")
    return IdentityClaim(
        name=d["name"],
        lhs=lhs,
        rhs=_sum_from_list(d["rhs"]["sum"]),
        lhs_progression=tuple(prog) if prog else None,
        modulus=d.get("modulus"),
    )


def load_identity_catalog(ref) -> list[IdentityClaim]:
    from . import catalogs

    entries = catalogs.load(ref)
    if not isinstance(entries, list):
        raise ValueError(f"identity catalog {ref} must hold a JSON list of identities")
    try:
        return [claim_from_dict(d) for d in entries]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed identity catalog {ref}: {exc!r}") from exc
