"""Verification of machine-produced congruence certificates.

A certificate asserts that a prefactor times the dissected generating
function equals a polynomial in an explicit Hauptmodul t, as an exact
Laurent-series identity, and that the polynomial's coefficients share a
common factor.  The check confirms the identity and the divisibility
below order n, which is evidence for the underlying congruence, not a
proof of it; producing certificates is out of scope here.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from . import etaq
from .dissect import extract_progression, progression_order
from .errors import InsufficientPrecision
from .reporting import VerificationResult
from .series import TruncatedSeries, add, constant, first_difference, mul, scale


@dataclass(frozen=True)
class RaduCertificate:
    """Data of one certificate over the singleton basis {1}."""

    name: str
    base: etaq.FMonomial
    m: int
    orbit: tuple[int, ...]
    prefactor: etaq.FMonomial
    hauptmodul: etaq.FMonomial
    polynomial: tuple[int, ...]  # ascending powers of t
    claimed_common_factor: int

    def __post_init__(self):
        if not self.polynomial:
            raise ValueError("polynomial must be nonempty")
        if not self.orbit:
            raise ValueError("orbit must be nonempty")
        for j in self.orbit:
            progression_order(self.m, j, 1)  # the one progression rule
        if self.claimed_common_factor < 1:
            raise ValueError("claimed common factor must be positive")

    def polynomial_degree(self) -> int:
        deg = len(self.polynomial) - 1
        while deg > 0 and self.polynomial[deg] == 0:
            deg -= 1
        return deg

    def factor_divides_polynomial(self) -> bool:
        return all(c % self.claimed_common_factor == 0 for c in self.polynomial)


def _poly_eval(poly: tuple[int, ...], deg: int, t: TruncatedSeries) -> TruncatedSeries:
    # Paterson-Stockmeyer: with s = ceil(sqrt(deg + 1)), the baby steps
    # t^2..t^s take s - 1 products, and Horner in t^s over the blocks
    # sum_{j<s} poly[s*i + j] * t^j, built by scale and add, takes deg // s
    # more: 6 products for deg = 15, where Horner takes 15.
    # Trust: series.mul's min rule trusts a product as many coefficients
    # past its valuation as the less trusted factor.  With val(t) = -v < 0,
    # t and each t^j are trusted t.order + v coefficients past their
    # valuations.  Constants get the order t.order + v, and in every block
    # and giant step the term of lowest valuation also has the lowest order,
    # so sums keep that count too.  The result, of valuation -deg * v, is
    # then trusted below t.order - (deg - 1) * v, the order Horner reaches,
    # which verify_certificate plans to be the comparison window n.
    order = t.order + max(0, -t.valuation)
    s = isqrt(deg) + 1  # ceil(sqrt(deg + 1))
    powers = {1: t}
    for j in range(2, min(s, deg) + 1):
        powers[j] = mul(powers[j - 1], t)
    acc = None
    for i in range(deg // s, -1, -1):
        block = constant(poly[s * i], order)
        for j in range(1, min(s, deg + 1 - s * i)):
            if poly[s * i + j]:
                block = add(block, scale(powers[j], poly[s * i + j]))
        acc = block if acc is None else add(mul(acc, powers[s]), block)
    return acc


def base_order(cert: RaduCertificate, n: int) -> int:
    """Order of the base expansion whose dissected parts reach n past the prefactor's pole."""
    if n < 50:
        raise InsufficientPrecision("certificate checks below order 50 are vacuous")
    return progression_order(cert.m, max(cert.orbit), n + max(0, -cert.prefactor.qpower))


def verify_certificate(cert: RaduCertificate, n: int) -> VerificationResult:
    """Check that the claimed common factor divides p, then expand both sides
    to order n and compare exactly: t has integer coefficients, so a left
    side that agrees with p(t) below n is a multiple of the factor there too.

    Required expansion orders are computed up front from the valuations of
    the prefactor and the Hauptmodul, so a certificate that cannot be
    checked at order n fails early instead of comparing junk."""
    base_n = base_order(cert, n)
    if not cert.factor_divides_polynomial():
        return VerificationResult(
            name=cert.name,
            passed=False,
            detail=(
                f"claimed common factor {cert.claimed_common_factor} does not divide"
                " every polynomial coefficient"
            ),
        )

    deg = cert.polynomial_degree()
    t_order = n + max(0, -cert.hauptmodul.qpower) * max(deg - 1, 0)

    base = etaq.expand(cert.base, base_n)
    lhs = etaq.expand(cert.prefactor, n)
    for j in cert.orbit:
        lhs = mul(lhs, extract_progression(base, cert.m, j))
    t = etaq.expand(cert.hauptmodul, t_order)
    rhs = _poly_eval(cert.polynomial, deg, t)

    if lhs.order < n or rhs.order < n:
        raise InsufficientPrecision(
            f"planned orders insufficient: lhs {lhs.order}, rhs {rhs.order}, need {n}"
        )
    mismatch = first_difference(lhs, rhs, n)
    window = lhs.window(lhs.valuation, n)
    g = 0
    for c in window:
        g = gcd(g, c)
    detail = ""
    if mismatch is not None:
        detail = f"series mismatch at exponent {mismatch}"
        if mismatch == min(lhs.valuation, rhs.valuation):
            detail += " (valuation mismatch)"
    return VerificationResult(
        name=cert.name,
        passed=mismatch is None,
        first_violation=mismatch,
        n_checked=n,
        detail=detail,
        claim={
            "m": cert.m,
            "orbit": list(cert.orbit),
            "claimed_common_factor": cert.claimed_common_factor,
            "coefficient_gcd": g,
        },
        orders={"base": base_n, "prefactor": n, "hauptmodul": t_order},
    )
