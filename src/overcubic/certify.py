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
from math import gcd

from . import etaq
from .dissect import extract_progression
from .errors import InsufficientPrecision, UnsupportedBasis
from .reporting import VerificationResult
from .series import TruncatedSeries, add, constant, first_difference, mul


@dataclass(frozen=True)
class RaduCertificate:
    """Data of one certificate; only the singleton basis ("1",) is
    verifiable, but the field is kept so files with larger bases still
    parse."""

    name: str
    base: etaq.FMonomial
    m: int
    orbit: tuple[int, ...]
    prefactor: etaq.FMonomial
    hauptmodul: etaq.FMonomial
    polynomial: tuple[int, ...]  # ascending powers of t
    claimed_common_factor: int
    basis: tuple[str, ...] = ("1",)

    def __post_init__(self):
        if not self.orbit:
            raise ValueError("orbit must be nonempty")
        if any(not 0 <= j < self.m for j in self.orbit):
            raise ValueError("orbit entries must lie in [0, m)")
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
    # Horner, highest coefficient first (poly[deg]).  With val(t) = -v the d
    # multiplications cost (d-1)*v trusted exponents in total, provided the
    # initial constant carries enough slack; the caller plans t.order so the
    # result is still trusted to the comparison window.
    slack = max(0, -t.valuation)
    acc = constant(poly[deg], t.order + slack)
    for i in range(deg - 1, -1, -1):
        acc = mul(acc, t)
        if poly[i]:
            acc = add(acc, constant(poly[i], acc.order))
    return acc


def base_order(cert: RaduCertificate, n: int) -> int:
    """Order of the base expansion whose dissected parts reach n past the prefactor's pole."""
    if n < 50:
        raise InsufficientPrecision("certificate checks below order 50 are vacuous")
    return cert.m * (n + max(0, -cert.prefactor.qpower)) + max(cert.orbit)


def verify_certificate(cert: RaduCertificate, n: int) -> VerificationResult:
    """Expand both sides to order n and compare exactly, then check that the
    claimed common factor divides every left-side coefficient below n.

    Required expansion orders are computed up front from the valuations of
    the prefactor and the Hauptmodul, so a certificate that cannot be
    checked at order n fails early instead of comparing junk."""
    if cert.basis != ("1",):
        raise UnsupportedBasis(
            f"only the singleton basis ('1',) is supported, got {cert.basis!r}"
        )
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
    divisible = g % cert.claimed_common_factor == 0
    detail = ""
    if mismatch is not None:
        detail = f"series mismatch at exponent {mismatch}"
        if mismatch == min(lhs.valuation, rhs.valuation):
            detail += " (valuation mismatch)"
    elif not divisible:
        detail = f"coefficient gcd {g} not divisible by {cert.claimed_common_factor}"
    return VerificationResult(
        name=cert.name,
        passed=mismatch is None and divisible,
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


# ---------------------------------------------------------------------------
# JSON format


def certificate_from_dict(d: dict) -> RaduCertificate:
    return RaduCertificate(
        name=d["name"],
        base=etaq.FMonomial.from_dict(d["base"]),
        m=d["m"],
        orbit=tuple(d["orbit"]),
        prefactor=etaq.FMonomial.from_dict(d["prefactor"]),
        hauptmodul=etaq.FMonomial.from_dict(d["hauptmodul"]),
        polynomial=tuple(int(c) for c in d["polynomial"]),
        claimed_common_factor=int(d["claimed_common_factor"]),
        basis=tuple(d.get("basis", ["1"])),
    )


def load_certificate(ref) -> RaduCertificate:
    from . import catalogs

    data = catalogs.load(ref)
    try:
        return certificate_from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed certificate {ref}: {exc!r}") from exc
