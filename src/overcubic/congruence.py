"""Verification and discovery of Ramanujan-type congruences.

A claim states that every coefficient a(2^alpha (m n + j)) of a family's
generating function is divisible by the modulus.  Checks run on the
residue expansion mod the claim's modulus (etaq.residue_array).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import etaq
from .reporting import SuiteReport, VerificationResult

STATUSES = ("proved-in-paper", "conjectured", "discovered")

PROVED = "proved-in-paper"
CONJECTURED = "conjectured"
CONJECTURE_LABEL = "conjectured, numerical evidence only"


@dataclass(frozen=True)
class CongruenceClaim:
    family: etaq.Family
    m: int
    j: int
    modulus: int
    alpha: int = 0
    status: str = PROVED

    def __post_init__(self):
        if self.m < 1 or not 0 <= self.j < self.m:
            raise ValueError("need m >= 1 and 0 <= j < m")
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}")

    def key(self) -> str:
        return (
            f"{self.family.name}[k={self.family.k}]"
            f" 2^{self.alpha}({self.m}n+{self.j}) mod {self.modulus}"
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family.name,
            "k": self.family.k,
            "alpha": self.alpha,
            "m": self.m,
            "j": self.j,
            "modulus": self.modulus,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CongruenceClaim":
        return cls(
            family=etaq.Family(d["family"], d.get("k", 1)),
            m=d["m"],
            j=d["j"],
            modulus=d["modulus"],
            alpha=d.get("alpha", 0),
            status=d.get("status", PROVED),
        )


def required_order(claim: CongruenceClaim, n_limit: int) -> int:
    return ((claim.m * n_limit + claim.j) << claim.alpha) + 1


def verify_congruence(claim: CongruenceClaim, n_limit: int) -> VerificationResult:
    """Check the claim at every n in [0, n_limit]; reports the first
    violating n on failure."""
    if n_limit < 0:
        raise ValueError("n_limit must be >= 0")
    order = required_order(claim, n_limit)
    arr = etaq.residue_array(etaq.family_monomial(claim.family), order, claim.modulus)
    indices = (claim.m * np.arange(n_limit + 1, dtype=np.int64) + claim.j) << claim.alpha
    hits = np.nonzero(arr[indices])[0]
    first = int(hits[0]) if hits.size else None
    return VerificationResult(
        name=claim.key(),
        passed=first is None,
        first_violation=first,
        n_checked=n_limit,
        status=claim.status,
        claim=claim.to_dict(),
        orders={"expansion": order},
    )


# ---------------------------------------------------------------------------
# quadratic residues


def legendre(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion; p odd prime."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def nonresidue_progressions(p: int, k: int) -> list[CongruenceClaim]:
    """Mod-4 progressions 2p*n + R for the (2k+1)-tuple family, one per
    quadratic nonresidue r mod p; R = r for odd r, p + r for even r, so R
    is always odd."""
    if p < 3:
        raise ValueError("p must be an odd prime >= 3")
    if k < 0:
        raise ValueError("k must be >= 0")
    family = etaq.Family("overcubic-ktuple", 2 * k + 1)
    claims = []
    for r in range(1, p):
        if legendre(r, p) == -1:
            R = r if r % 2 else p + r
            claims.append(CongruenceClaim(family, m=2 * p, j=R, modulus=4))
    return claims


# ---------------------------------------------------------------------------
# discovery scans


@dataclass(frozen=True)
class ScanConfig:
    family: etaq.Family
    max_m: int
    moduli: tuple[int, ...]
    n_min: int = 500

    def __post_init__(self):
        if self.max_m < 1:
            raise ValueError("max_m must be >= 1")
        if self.n_min < 100:
            raise ValueError("n_min must be >= 100 to avoid vacuous discoveries")
        if not self.moduli:
            raise ValueError("need at least one modulus")
        if any(m < 2 for m in self.moduli):
            raise ValueError("moduli must be >= 2")

    def needed_order(self) -> int:
        # doubled sample window for the stability check
        return 2 * self.max_m * self.n_min + self.max_m


def scan(cfg: ScanConfig) -> list[CongruenceClaim]:
    """Report, for each progression (m <= max_m, j < m), the largest
    configured modulus dividing every sampled coefficient.  A claim is kept
    only when the winning modulus at n_min samples is unchanged at twice as
    many, which suppresses truncation-order artifacts."""
    order = cfg.needed_order()
    mon = etaq.family_monomial(cfg.family)
    moduli = sorted(set(cfg.moduli), reverse=True)
    arrays = {modulus: etaq.residue_array(mon, order, modulus) for modulus in moduli}

    def winning_modulus(indices: np.ndarray) -> int | None:
        return next((M for M in moduli if not np.any(arrays[M][indices])), None)

    found = []
    for m in range(1, cfg.max_m + 1):
        base = m * np.arange(2 * cfg.n_min, dtype=np.int64)
        for j in range(m):
            indices = base + j
            first = winning_modulus(indices[: cfg.n_min])
            if first is None:
                continue
            if winning_modulus(indices) != first:
                continue
            found.append(
                CongruenceClaim(cfg.family, m=m, j=j, modulus=first, status="discovered")
            )
    return found


# ---------------------------------------------------------------------------
# named suites


def _triple() -> etaq.Family:
    return etaq.Family("overcubic-triple")


THEOREM_1_TABLE = (
    (4, 3, 4),
    (8, 5, 32),
    (8, 6, 4),
    (8, 7, 64),
    (16, 10, 32),
    (16, 12, 4),
    (16, 14, 64),
    (32, 20, 32),
    (32, 24, 4),
    (32, 28, 64),
)

THEOREM_3_TABLE = ((72, 21, 128), (72, 69, 384))

THEOREM_5_TABLE = (
    (8, 1, 2),
    (8, 2, 2),
    (8, 3, 4),
    (8, 4, 2),
    (8, 5, 8),
    (8, 6, 4),
    (8, 7, 16),
)


def _dilated(table, alpha_limit: int, status: str) -> list[CongruenceClaim]:
    return [
        CongruenceClaim(_triple(), m=m, j=j, modulus=M, alpha=a, status=status)
        for (m, j, M) in table
        for a in range(alpha_limit + 1)
    ]


def suite_claims(name: str, alpha_limit: int = 5) -> tuple[list[CongruenceClaim], str]:
    """Claim list plus evidence label for one named suite."""
    if name == "1":
        return [
            CongruenceClaim(_triple(), m=m, j=j, modulus=M) for (m, j, M) in THEOREM_1_TABLE
        ], PROVED
    if name == "2":
        return _dilated(((4, 3, 4), (8, 5, 32)), alpha_limit, PROVED), PROVED
    if name == "3":
        return [
            CongruenceClaim(_triple(), m=m, j=j, modulus=M) for (m, j, M) in THEOREM_3_TABLE
        ], PROVED
    if name == "conjecture-1":
        return _dilated(((8, 7, 64),), alpha_limit, CONJECTURED), CONJECTURE_LABEL
    if name == "conjecture-2":
        claims = [
            CongruenceClaim(_triple(), m=144, j=42, modulus=384, status=CONJECTURED)
        ]
        claims += _dilated(((72, 21, 128), (72, 69, 128)), alpha_limit, CONJECTURED)
        return claims, CONJECTURE_LABEL
    if name == "5":
        return [
            CongruenceClaim(etaq.Family("overcubic-ktuple", 2 * k + 1), m=m, j=j, modulus=M)
            for k in (0, 1, 2, 3)
            for (m, j, M) in THEOREM_5_TABLE
        ], PROVED
    if name == "mod4-progressions":
        claims = []
        for p in (3, 5, 7, 11):
            for k in (0, 1):
                claims.extend(nonresidue_progressions(p, k))
        return claims, PROVED
    raise ValueError(f"unknown claim suite {name!r}")


def tuple_vs_single_mod4(k: int, order: int) -> VerificationResult:
    """Coefficientwise congruence mod 4 between the (2k+1)-tuple family and
    the single overcubic family, checked below `order`."""
    mon_tuple = etaq.family_monomial(etaq.Family("overcubic-ktuple", 2 * k + 1))
    mon_single = etaq.family_monomial(etaq.Family("overcubic"))
    a = etaq.residue_array(mon_tuple, order, 4)
    b = etaq.residue_array(mon_single, order, 4)
    hits = np.nonzero(a != b)[0]
    first = int(hits[0]) if hits.size else None
    return VerificationResult(
        name=f"overcubic-ktuple[k={2*k+1}] == overcubic mod 4",
        passed=first is None,
        first_violation=first,
        n_checked=order - 1,
        status=PROVED,
        claim={"family": "overcubic-ktuple", "k": 2 * k + 1, "modulus": 4},
        orders={"expansion": order},
    )


# every named claim suite with its default n_limit; suite "9" compares whole
# series, so its default is an expansion order instead
_SUITE_DEFAULTS = {
    "1": 1000,
    "2": 200,
    "3": 500,
    "5": 500,
    "9": 2000,
    "mod4-progressions": 500,
    "conjecture-1": 200,
    "conjecture-2": 200,
}
SUITE_NAMES = tuple(_SUITE_DEFAULTS)


def theorem_suite(
    name: str,
    n_limit: int | None = None,
    alpha_limit: int | None = None,
    order: int | None = None,
) -> SuiteReport:
    """Run every claim of one named result.  Defaults match the shipped
    acceptance settings; every result of a conjecture suite carries the
    numerical-evidence label, and its sampled alpha bound is echoed in
    parameters."""
    if name not in _SUITE_DEFAULTS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    if alpha_limit is not None and alpha_limit < 0:
        raise ValueError("alpha_limit must be >= 0")
    if name == "9":
        n = order if order is not None else _SUITE_DEFAULTS[name]
        results = [tuple_vs_single_mod4(k, n) for k in (1, 2, 3)]
        return SuiteReport(
            "9", PROVED, {"order": n, "k_values": [1, 2, 3]}, sorted(results, key=lambda r: r.name)
        )
    n = n_limit if n_limit is not None else _SUITE_DEFAULTS[name]
    # conjecture evidence samples one dilation step deeper by default; the
    # sampled bound is echoed in the report parameters either way
    default_alpha = 6 if name.startswith("conjecture") else 5
    a_limit = alpha_limit if alpha_limit is not None else default_alpha
    claims, label = suite_claims(name, alpha_limit=a_limit)
    # largest order first, so each residue array is built once and every
    # later claim reads a prefix of it
    by_order = sorted(claims, key=lambda c: required_order(c, n), reverse=True)
    results = [verify_congruence(c, n) for c in by_order]
    if label == CONJECTURE_LABEL:
        for r in results:
            r.status = CONJECTURE_LABEL
    params = {"n_limit": n}
    if any(c.alpha for c in claims):
        params["alpha_limit"] = a_limit
    return SuiteReport(name, label, params, sorted(results, key=lambda r: r.name))
