"""Workload definitions, the seeded identity catalog and the verdict gate.

Each workload is a fixed list of overcubic CLI commands.  Every command runs
in its own fresh interpreter, so each one pays import, expansion and report
emission cold, as a user of the CLI does.  The commands, and why each
workload exists, are described in ``interactions.json`` next to this file.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

# Relative to the checkout root, so report parameters that echo a path stay
# byte-identical between checkouts.
CATALOG_TEMPLATE = "{work}/frobenius-seed{seed}.json"
CATALOG_ORDER = 3000

# Sizes of the seeded Frobenius catalog: congruences that must hold mod p and
# negative controls mod p^2 that must fail at exponent d.
FROBENIUS_POSITIVES = 6
FROBENIUS_CONTROLS = 2

# Cost model of one catalog (expansion_work) and the band its estimated work
# is held to (see frobenius_catalog).
DIV_WEIGHT = 1.5
BITS_WEIGHT = 1000.0
CATALOG_WORK = 9.5e6
CATALOG_WORK_TOLERANCE = 0.03


def commands(workload: str, work: str, seed: int) -> list[tuple[str, list[str]]]:
    """(command id, CLI argv) pairs of one pass over the workload.  The
    command id names the entry in expected.json (the seeded catalog has none:
    its expected verdicts come from frobenius_catalog)."""
    if workload == "residue-deep":
        return [
            ("conjecture-2", ["paper-suite", "--theorem", "conjecture-2", "--alpha-limit", "3"]),
            (
                "density-384",
                [
                    "density", "--family", "overcubic-triple", "--mod", "384",
                    "--x-grid", "1000,10000,100000",
                ],
            ),
        ]
    if workload == "exact-identities":
        return [
            ("dissections", ["paper-suite", "--theorem", "dissections"]),
            (
                "frobenius",
                [
                    "identity", "--catalog", CATALOG_TEMPLATE.format(work=work, seed=seed),
                    "--order", str(CATALOG_ORDER),
                ],
            ),
            ("certificate", ["certificate", "--order", "1000"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("residue-deep", "exact-identities")


# ---------------------------------------------------------------------------
# seeded Frobenius catalog


def _merge(factors: dict[int, int], delta: int, r: int) -> dict[int, int]:
    out = dict(factors)
    out[delta] = out.get(delta, 0) + r
    return {d: e for d, e in out.items() if e}


def _identity(name, c, lhs, rhs, modulus) -> dict:
    def mono(f):
        return {"coefficient": c, "factors": {str(d): e for d, e in sorted(f.items())}}

    return {"name": name, "lhs": {"sum": [mono(lhs)]}, "rhs": {"sum": [mono(rhs)]}, "modulus": modulus}


def _term_exponents(delta: int, span: int, limit: int) -> list[int]:
    """Exponents below `limit` of the nonconstant terms of f_delta (span 1:
    pentagonal numbers) or of f_delta^3 (span 3: triangular numbers)."""

    def shapes(k):
        return (k * (k + 1) // 2,) if span == 3 else (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)

    out, k = [], 1
    while delta * shapes(k)[0] < limit:
        out.extend(delta * s for s in shapes(k) if delta * s < limit)
        k += 1
    return out


def expansion_work(factors: dict[str, int], order: int) -> float:
    """Estimated cost of the exact expansion of prod f_delta^r below `order`.

    A model of the program's expansion at the seed commit, fitted to timings
    there: one sparse pass per f_delta^3 and per leftover f_delta, costing one
    unit per (coefficient, term) pair, DIV_WEIGHT units in a division pass,
    and more as the coefficients grow.  While the factors multiplied in so
    far have sum(r/delta) = -w < 0, the coefficient of q^n has about
    pi*sqrt(2*w*n/3)/ln 2 bits.
    """
    work = 0.0
    weight = 0.0
    for delta, r in sorted((int(d), e) for d, e in factors.items()):
        cubes, rest = divmod(abs(r), 3)
        for span, passes in ((3, cubes), (1, rest)):
            pairs = sum(order - e for e in _term_exponents(delta, span, order))
            for _ in range(passes):
                # a product pass reads the coefficients before it, a division
                # pass the ones it writes: size the pass by the larger
                before, weight = weight, weight - span * r / abs(r) / delta
                bits = 2 / 3 * math.pi * math.sqrt(2 * max(before, weight, 0.0) * order / 3) / math.log(2)
                work += pairs * (DIV_WEIGHT if r < 0 else 1.0) * (1 + bits / BITS_WEIGHT)
    return work


def catalog_work(catalog: list[dict], order: int) -> float:
    """expansion_work summed over both sides of every identity."""
    return sum(
        expansion_work(entry[side]["sum"][0]["factors"], order) for entry in catalog for side in ("lhs", "rhs")
    )


def _draw(rng: random.Random, i: int) -> tuple[dict, dict]:
    """One catalog entry and its expected verdict (order filled in later)."""
    control = i >= FROBENIUS_POSITIVES
    p = rng.choice((2, 3))
    d = rng.randint(1, 12)
    # p must not divide c, or both sides vanish mod p and the check is
    # vacuous; a control also needs p not dividing r
    while True:
        r = rng.choice((-3, -2, -1, 1, 2, 3))
        c = rng.randint(1, 6)
        if c % p and (not control or r % p):
            break
    P = {}
    for delta in rng.sample(range(1, 13), rng.randint(1, 4)):
        P[delta] = rng.choice((-1, 1)) * rng.randint(1, 6)
    kind = "control" if control else "frobenius"
    name = f"{kind}-{i:02d} p={p} d={d} r={r}"
    modulus = p * p if control else p
    entry = _identity(name, c, _merge(P, d, p * r), _merge(P, p * d, r), modulus)
    return entry, {"passed": not control, "first_violation": d if control else None}


def frobenius_catalog(seed: int, order: int) -> tuple[list[dict], dict]:
    """Identities c*P*f_d^(p*r) == c*P*f_(p*d)^r (mod p) and their expected
    verdicts at `order`.

    They hold because (1 - x)^p == 1 - x^p (mod p).  P is a random f-product
    over deltas 1..12 with exponents of both signs.  p never divides c, so
    no identity holds merely because both sides vanish mod p.  Each negative
    control takes the modulus p^2 with p not dividing c*r: there the two sides first
    differ at q^d, by -c*p*r times the unit constant term of P, so the
    verdict must be a failure at exactly exponent d.

    The cost of one catalog varies about threefold between draws, most of it
    in small deltas with negative exponents, so catalogs are drawn until one
    whose estimated work at CATALOG_ORDER (catalog_work) lies within
    CATALOG_WORK_TOLERANCE of CATALOG_WORK: the seed changes the inputs and
    not the amount of work a run measures."""
    rng = random.Random(seed)
    while True:
        drawn = [_draw(rng, i) for i in range(FROBENIUS_POSITIVES + FROBENIUS_CONTROLS)]
        catalog = [entry for entry, _ in drawn]
        if abs(catalog_work(catalog, CATALOG_ORDER) / CATALOG_WORK - 1) <= CATALOG_WORK_TOLERANCE:
            break
    expected = {entry["name"]: {**verdict, "n_checked": order} for entry, verdict in drawn}
    return catalog, expected


def write_catalog(root: Path, work: str, seed: int) -> dict:
    """Write the seeded catalog under the checkout and return the expected
    report (exit code, overall verdict and verdict table) for it."""
    catalog, table = frobenius_catalog(seed, CATALOG_ORDER)
    path = root / CATALOG_TEMPLATE.format(work=work, seed=seed)
    path.write_text(json.dumps(catalog, indent=1) + "\n")
    return {"exit_code": 1, "passed": False, "verdicts": table}


# ---------------------------------------------------------------------------
# verdict gate


def verdict_table(report: dict) -> dict:
    """The verdicts a report carries, keyed by record name.  Gating on these
    and not on the report bytes lets later versions add report fields."""
    if "records" in report:
        return {
            r["name"]: {
                "passed": r["passed"],
                "first_violation": r.get("first_violation"),
                "n_checked": r.get("n_checked"),
            }
            for r in report["records"]
        }
    body = report["report"]  # density: one row per grid point plus the exceptions
    table = {f"X={row['X']}": {"count": row["count"], "delta": row["delta"]} for row in body["rows"]}
    exceptions = body["exceptions"] or []
    table["exceptions"] = {
        "count": len(exceptions),
        "sha256": hashlib.sha256(json.dumps(exceptions, separators=(",", ":")).encode()).hexdigest(),
    }
    return table


def check_report(expected: dict, exit_code: int, report_bytes: bytes | None) -> list[str]:
    """Mismatches between one command's outcome and its expected verdicts;
    an empty list means the command is correct."""
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    if report_bytes is None:
        return problems + ["no report written"]
    try:
        report = json.loads(report_bytes)
        passed, table = report["passed"], verdict_table(report)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if passed != expected["passed"]:
        problems.append(f"report passed={passed}, expected {expected['passed']}")
    want = expected["verdicts"]
    for name in sorted(set(want) | set(table)):
        if table.get(name) != want.get(name):
            problems.append(f"{name}: got {table.get(name)}, expected {want.get(name)}")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())
