"""Verification and discovery of Ramanujan-type congruences, and the
table of paper suites.

A claim states that every coefficient a(2^alpha (m n + j)) of a family's
generating function is divisible by the modulus.  Checks run on the
residue expansion mod the claim's modulus (etaq.residue_array).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from . import catalogs, certify, density, dissect, etaq
from .catalogs import Family
from .errors import InsufficientPrecision
from .reporting import VerificationResult

PROVED = "proved-in-paper"
CONJECTURED = "conjectured"
STATUSES = (PROVED, CONJECTURED, "discovered")


@dataclass(frozen=True)
class CongruenceClaim:
    family: Family
    m: int
    j: int
    modulus: int
    alpha: int = 0
    status: str = PROVED

    def __post_init__(self):
        dissect.progression_order(self.m, self.j, 1)  # the one progression rule
        etaq.residue_modulus(self.modulus)  # the one modulus rule
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


# A dilated order of more bits is refused before the shift that would build
# it; a shorter one, below 2^14284 < 10^4300, still prints in the message of
# residue_array's order ceiling, as Python prints up to 4300 digits.
ORDER_BITS = 14284


def required_order(claim: CongruenceClaim, n_limit: int) -> int:
    """2^alpha (m n_limit + j) + 1, the order a claim's check expands to."""
    if n_limit < 0:
        raise ValueError("n_limit must be >= 0")
    base = claim.m * n_limit + claim.j
    if base.bit_length() + claim.alpha > ORDER_BITS:
        raise InsufficientPrecision(
            f"required order 2^{claim.alpha} (m n_limit + j) + 1, of more than {ORDER_BITS}"
            f" bits, above the configured ceiling {etaq.MAX_ORDER}"
        )
    return (base << claim.alpha) + 1


def verify_congruence(claim: CongruenceClaim, n_limit: int) -> VerificationResult:
    """Check the claim at every n in [0, n_limit]; reports the first violating n."""
    order = required_order(claim, n_limit)
    arr = etaq.residue_array(claim.family.monomial, order, claim.modulus)
    # arr ends at index (m n_limit + j) 2^alpha, so the slice is n = 0..n_limit
    hits = np.nonzero(arr[claim.j << claim.alpha :: claim.m << claim.alpha])[0]
    first = int(hits[0]) if hits.size else None
    return VerificationResult(
        name=claim.key(),
        passed=first is None,
        first_violation=first,
        n_checked=n_limit,
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
    family = Family("overcubic-ktuple", 2 * k + 1)
    claims = []
    for r in range(1, p):
        if legendre(r, p) == -1:
            R = r if r % 2 else p + r
            claims.append(CongruenceClaim(family, m=2 * p, j=R, modulus=4))
    return claims


# ---------------------------------------------------------------------------
# discovery scans


# Ceiling on a scan's (m, j, modulus) checks, checked before its first build.
# The largest admitted one-modulus scan, `scan --family partition --max-m 2895
# --moduli 2 --n-min 100` (4,191,960 checks), took 26 s on a 2-core machine.
MAX_SCAN_CHECKS = 1 << 22


def scan_order(max_m: int, n_min: int) -> int:
    """Order of a scan's expansions: 2 * n_min samples of every progression
    with m <= max_m, the doubled window of the stability check."""
    return 2 * max_m * n_min + max_m


def scan_moduli(moduli: Iterable[int]) -> list[int]:
    """The moduli a scan checks: each candidate once, ascending; its
    etaq.residue_arrays refuses one the modulus rule refuses before any build."""
    moduli = sorted(set(moduli))
    if not moduli:
        raise ValueError("need at least one modulus")
    return moduli


def scan(
    family: Family, max_m: int, moduli: Iterable[int], n_min: int = 500
) -> list[CongruenceClaim]:
    """Report, for each progression (m <= max_m, j < m), the largest of
    `moduli` dividing every sampled coefficient, in (m, j) order.  A claim
    is kept only when the winning modulus at n_min samples is unchanged at
    twice as many, which suppresses truncation-order artifacts.  A scan of
    more than MAX_SCAN_CHECKS checks, or whose ring builds together are above
    etaq.MAX_PASS_WORK (etaq.residue_arrays charges and frees them), is
    refused before any build."""
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    if n_min < 100:
        raise ValueError("n_min must be >= 100 to avoid vacuous discoveries")
    moduli = scan_moduli(moduli)[::-1]  # largest first, the one a progression reports
    checks = max_m * (max_m + 1) // 2 * len(moduli)
    if checks > MAX_SCAN_CHECKS:
        raise InsufficientPrecision(
            f"scan of {checks} progression checks is above the scan-work ceiling {MAX_SCAN_CHECKS}"
        )
    # (m, j) -> the largest modulus dividing its n_min samples, None unless it divides twice as many
    first = {}
    for M, arr in etaq.residue_arrays(family.monomial, scan_order(max_m, n_min), moduli):
        for m in range(1, max_m + 1):
            for j in range(m):
                if (m, j) not in first and not np.any(arr[j::m][:n_min]):
                    first[m, j] = None if np.any(arr[j::m][: 2 * n_min]) else M
        del arr  # one residue array alive at a time
    found = sorted((m, j, M) for (m, j), M in first.items() if M)  # in (m, j) order
    return [CongruenceClaim(family, m=m, j=j, modulus=M, status="discovered") for m, j, M in found]


# ---------------------------------------------------------------------------
# named suites


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

THEOREM_5_TABLE = (
    (8, 1, 2),
    (8, 2, 2),
    (8, 3, 4),
    (8, 4, 2),
    (8, 5, 8),
    (8, 6, 4),
    (8, 7, 16),
)
# suite 5 runs its table on the (2k+1)-tuples for k = 0..3
_TUPLES = tuple(("overcubic-ktuple", 2 * k + 1) for k in range(4))


def _claims(table, alpha_limit=0, status=PROVED, families=(("overcubic-triple", 1),)):
    """Claims 2^a(m n + j) mod M of each (m, j, M) row, each family and each
    a in [0, alpha_limit]."""
    return [
        CongruenceClaim(Family(*f), m=m, j=j, modulus=M, alpha=a, status=status)
        for f in families
        for (m, j, M) in table
        for a in range(alpha_limit + 1)
    ]


_LACUNARY_GRID = [100, 1000, 10000]


def _criterion(k):
    rep = etaq.cotron_check(Family("overcubic-ktuple", k).monomial, 2)
    return VerificationResult(
        name=f"divisibility-criterion k={k}",
        passed=rep.lacunary and rep.max_power_exponent == 2 and rep.bound_squared == 16,
        verdict="criterion",
        claim={
            "prime": rep.prime,
            "a": rep.max_power_exponent,
            "bound_squared": str(rep.bound_squared),
            "lacunary": rep.lacunary,
            "status": PROVED,
        },
    )


def _density_trend(e):
    rep = density.compute_density(Family("overcubic-triple"), 1 << e, 0, _LACUNARY_GRID)
    deltas = [row[2] for row in rep.rows]
    return VerificationResult(
        name=f"density-trend mod 2^{e}",
        passed=all(a <= b for a, b in zip(deltas, deltas[1:])),
        claim={"deltas": [str(d) for d in deltas], "x_grid": _LACUNARY_GRID, "status": PROVED},
    )


def _exceptions(k):
    return VerificationResult(
        name=f"mod-4 exceptions are squares and twice-squares, k={k}",
        passed=density.exception_structure_check(k, _LACUNARY_GRID[-1]),
        claim={"k": k, "X": _LACUNARY_GRID[-1], "status": PROVED},
    )


_IDENTITY_CATALOGS = (
    "identities/lemma_dissections.json",
    "identities/congruence_identities.json",
    "identities/theta_dissections.json",
)


def _claim_suite(claims_of):
    """A claim suite's checks of n <= n_limit.  claims_of maps the suite's
    other bounds (alpha_limit, for a suite that dilates; 0 yields no
    dilation) to its claims, and the report echoes them when some claim does."""

    def checks(n_limit, **dilation):
        claims = claims_of(**dilation)
        params = {"n_limit": n_limit}
        if any(c.alpha for c in claims):
            params.update(dilation)
        return params, [
            (required_order(c, n_limit), partial(verify_congruence, c, n_limit)) for c in claims
        ]

    return checks


def _suite_9(order):
    """The (2k+1)-tuple family equals the single overcubic family mod 4."""
    single = (Family("overcubic").monomial,)
    claims = [
        dissect.IdentityClaim(
            f"overcubic-ktuple[k={k}] == overcubic mod 4",
            (Family("overcubic-ktuple", k).monomial,),
            single,
            modulus=4,
        )
        for k in (3, 5, 7)
    ]
    return {"order": order, "k_values": [1, 2, 3]}, dissect.identity_checks(claims, order)


def _lacunary():
    checks = [partial(_criterion, k) for k in range(1, 5)]
    checks += [partial(_density_trend, e) for e in (3, 4, 5, 6)]
    checks += [partial(_exceptions, k) for k in (0, 1)]
    return {"x_grid": _LACUNARY_GRID}, [(_LACUNARY_GRID[-1] + 1, check) for check in checks]


def _dissections(order):
    paths = map(catalogs._packaged, _IDENTITY_CATALOGS)
    claims = [c for path in paths for c in catalogs.load_identity_catalog(path)]
    params = {"order": order, "catalogs": list(_IDENTITY_CATALOGS)}
    return params, dissect.identity_checks(claims, order)


def _certificate(order):
    cert = catalogs.load_certificate(catalogs._packaged("certs/bt_8n7.json"))
    check = partial(certify.verify_certificate, cert, order)
    return {"order": order}, [(certify.base_order(cert, order), check)]


# Every paper-suite entry, in `--theorem all` order: the bounds it reads, each
# with its default (conjecture evidence dilates one step deeper), and a
# function of those bounds returning its echoed parameters and its checks; a
# check is (the largest order it expands to, a function returning its result).
SUITES = {
    "1": ({"n_limit": 1000}, _claim_suite(lambda: _claims(THEOREM_1_TABLE))),
    "2": (
        {"n_limit": 200, "alpha_limit": 5},
        _claim_suite(lambda alpha_limit: _claims(((4, 3, 4), (8, 5, 32)), alpha_limit)),
    ),
    "3": ({"n_limit": 500}, _claim_suite(lambda: _claims(((72, 21, 128), (72, 69, 384))))),
    "5": ({"n_limit": 500}, _claim_suite(lambda: _claims(THEOREM_5_TABLE, families=_TUPLES))),
    "9": ({"order": 2000}, _suite_9),
    "mod4-progressions": (
        {"n_limit": 500},
        _claim_suite(
            lambda: [c for p in (3, 5, 7, 11) for k in (0, 1) for c in nonresidue_progressions(p, k)]
        ),
    ),
    "conjecture-1": (
        {"n_limit": 200, "alpha_limit": 6},
        _claim_suite(lambda alpha_limit: _claims(((8, 7, 64),), alpha_limit, CONJECTURED)),
    ),
    "conjecture-2": (
        {"n_limit": 200, "alpha_limit": 6},
        _claim_suite(
            lambda alpha_limit: _claims(((144, 42, 384),), 0, CONJECTURED)
            + _claims(((72, 21, 128), (72, 69, 128)), alpha_limit, CONJECTURED)
        ),
    ),
    "lacunary": ({}, _lacunary),
    "dissections": ({"order": 2000}, _dissections),
    "certificate": ({"order": 300}, _certificate),
}


def run_suites(
    names, n_limit: int | None = None, alpha_limit: int | None = None, order: int | None = None
) -> tuple[dict, list[VerificationResult]]:
    """Echoed parameters per suite, and every result sorted by name, of the
    named suites.  Their checks run in one etaq.largest_first pass, so each
    expansion is built once per run; an unset bound takes each suite's
    default from SUITES, and a set bound that no named suite reads is
    refused."""
    if alpha_limit is not None and alpha_limit < 0:
        raise ValueError("alpha_limit must be >= 0")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    given = {"n_limit": n_limit, "alpha_limit": alpha_limit, "order": order}
    given = {bound: value for bound, value in given.items() if value is not None}
    for bound in given:
        if not any(bound in SUITES[name][0] for name in names):
            readers = ", ".join(name for name, (bounds, _) in SUITES.items() if bound in bounds)
            raise ValueError(f"no selected suite reads {bound}; suites {readers} do")
    if alpha_limit is not None and alpha_limit >= etaq.MAX_ORDER.bit_length():
        # every dilated suite row has j >= 1, so its order is above 2^alpha_limit
        raise InsufficientPrecision(
            f"alpha_limit {alpha_limit} puts 2^alpha_limit above the configured ceiling"
            f" {etaq.MAX_ORDER}"
        )
    parameters, checks = {}, []
    for name in names:
        bounds, suite = SUITES[name]
        parameters[name], suite_checks = suite(
            **{bound: given.get(bound, default) for bound, default in bounds.items()}
        )
        checks += suite_checks
    return parameters, sorted(etaq.largest_first(checks), key=lambda r: r.name)
