"""Command-line front end.

Every subcommand prints one canonical report (JSON by default, CSV where a
tabular form is defined) and exits 0 only if every verification passed.
Usage problems exit 2, verification failures exit 1 and leave a
machine-readable failure record in the report.  Reports are deterministic:
sorted keys, sorted records, no timestamps.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, catalogs, certify, congruence, density, dissect, etaq, oracle
from .errors import QSeriesError
from .reporting import CONGRUENCE_COLUMNS, to_csv, to_json


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(" ", "").split(",") if x]


def _parse_factors(text: str) -> list[tuple[int, int]]:
    """(delta, r) pairs in the given order; FMonomial refuses a repeated delta."""
    pairs = (item.partition(":") for item in text.replace(" ", "").split(",") if item)
    return [(int(d), int(r)) for d, _, r in pairs]


def _monomial_from_args(args) -> etaq.FMonomial:
    """--coefficient times q^--qpower times the family's or the factors' monomial."""
    if args.family is not None:
        base = etaq.family_monomial(etaq.Family(args.family, args.k))
    elif args.k != 1:
        raise ValueError("--k is a family's tuple length; --factors takes only --k 1")
    else:
        base = etaq.FMonomial.make(factors=_parse_factors(args.factors))
    return etaq.FMonomial(args.coefficient, args.qpower + base.qpower, base.factors)


def _report(
    args, command: str, parameters: dict, body: dict, passed: bool = True, csv_text=None
) -> int:
    """Write the report envelope (command, parameters, passed) around
    `body`, or `csv_text` under --format csv; returns the exit code."""
    if args.format == "csv":
        text = csv_text
    else:
        text = to_json(
            {
                "tool": "overcubic",
                "version": __version__,
                "command": command,
                "parameters": parameters,
                "passed": passed,
                **body,
            }
        )
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    mon = _monomial_from_args(args)
    s = etaq.expand(mon, args.order, args.mod)
    return _report(
        args,
        "expand",
        {"monomial": repr(mon), "order": args.order, "mod": args.mod},
        {"valuation": s.valuation, "order": s.order, "coefficients": list(s.coeffs)},
    )


def cmd_coeffs(args) -> int:
    mon = _monomial_from_args(args)
    if args.indices is not None:
        indices = _parse_ints(args.indices)
    else:
        m, j = _parse_ints(args.progression)
        if m < 1:  # a negative j fails the index check below
            raise ValueError("--progression m,j needs m >= 1")
        indices = [m * n + j for n in range(args.n_limit + 1)]
    if not indices or min(indices) < 0:
        raise ValueError("indices must be nonnegative")
    order = max(indices) + 1
    s = etaq.expand(mon, order, args.mod)
    values = [s.coefficient(i) for i in indices]
    csv_text = to_csv(
        [{"n": i, "coefficient": v} for i, v in zip(indices, values)], ("n", "coefficient")
    )
    return _report(
        args,
        "coeffs",
        {"monomial": repr(mon), "mod": args.mod, "order": order},
        {"indices": indices, "coefficients": values},
        csv_text=csv_text,
    )


def cmd_verify(args) -> int:
    m, j = _parse_ints(args.progression)
    claim = congruence.CongruenceClaim(
        family=etaq.Family(args.family, args.k),
        m=m,
        j=j,
        modulus=args.mod,
        alpha=args.alpha,
        status=args.status,
    )
    parameters = {
        **claim.to_dict(),
        "n_limit": args.n_limit,
        "order": congruence.required_order(claim, args.n_limit),
    }
    result = congruence.verify_congruence(claim, args.n_limit)
    record = result.to_record()
    return _report(
        args,
        "verify",
        parameters,
        {"records": [record]},
        result.passed,
        to_csv([record], CONGRUENCE_COLUMNS),
    )


def cmd_scan(args) -> int:
    cfg = congruence.ScanConfig(
        family=etaq.Family(args.family, args.k),
        max_m=args.max_m,
        moduli=tuple(_parse_ints(args.moduli)),
        n_min=args.n_min,
    )
    claims = congruence.scan(cfg)
    parameters = {
        "family": cfg.family.name,
        "k": cfg.family.k,
        "max_m": cfg.max_m,
        "moduli": sorted(cfg.moduli),
        "n_min": cfg.n_min,
        "order": cfg.needed_order(),
    }
    records = sorted((c.to_dict() for c in claims), key=lambda d: (d["m"], d["j"]))
    return _report(
        args, "scan", parameters, {"records": records}, csv_text=to_csv(records, CONGRUENCE_COLUMNS)
    )


def cmd_dissect(args) -> int:
    mon = _monomial_from_args(args)
    base_order = args.m * args.order + args.j
    base = etaq.expand(mon, base_order, args.mod)
    part = dissect.extract_progression(base, args.m, args.j)
    return _report(
        args,
        "dissect",
        {"monomial": repr(mon), "m": args.m, "j": args.j, "order": args.order, "mod": args.mod},
        {
            "valuation": part.valuation,
            "order": part.order,
            "coefficients": list(part.window(0, args.order)),
        },
    )


def cmd_identity(args) -> int:
    claims = dissect.load_identity_catalog(args.catalog)
    if args.name:
        claims = [c for c in claims if c.name == args.name]
        if not claims:
            raise ValueError(f"no identity named {args.name!r} in {args.catalog}")
    results = dissect.verify_catalog(claims, args.order)
    return _report(
        args,
        "identity",
        {"catalog": str(args.catalog), "order": args.order},
        {"records": [r.to_record() for r in results]},
        all(r.passed for r in results),
    )


def cmd_certificate(args) -> int:
    cert = certify.load_certificate(args.cert)
    result = certify.verify_certificate(cert, args.order)
    return _report(
        args,
        "certificate",
        {"cert": str(args.cert), "order": args.order},
        {"records": [result.to_record()]},
        result.passed,
    )


def cmd_density(args) -> int:
    report = density.compute_density(
        etaq.Family(args.family, args.k), args.mod, args.residue, _parse_ints(args.x_grid)
    )
    return _report(
        args,
        "density",
        {"family": args.family, "k": args.k, "mod": args.mod, "residue": args.residue},
        {"report": report.to_record()},
        csv_text=report.to_csv(),
    )


def cmd_oracle(args) -> int:
    etaq.Family(args.family, args.k)  # the name and k checks every command applies
    table = oracle.table(args.family, args.max_n, args.k)
    rows = [{"n": n, "count": c} for n, c in enumerate(table)]
    return _report(
        args,
        "oracle",
        {"family": args.family, "k": args.k, "max_n": args.max_n},
        {"records": rows},
        csv_text=to_csv(rows, ("n", "count")),
    )


def cmd_paper_suite(args) -> int:
    names = congruence.SUITES if args.theorem == "all" else (args.theorem,)
    parameters, results = congruence.run_suites(names, args.n_limit, args.alpha_limit, args.order)
    rows = [r.to_record() for r in results]
    return _report(
        args,
        "paper-suite",
        {"theorem": args.theorem, "suites": parameters},
        {"records": rows},
        all(r.passed for r in results),
        to_csv(rows, CONGRUENCE_COLUMNS + ("passed",)),
    )


# ---------------------------------------------------------------------------
# parser


def _add_output_options(p, formats=("json", "csv")):
    p.add_argument("--output", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--job", help="JSON file of parameters; explicit flags override")


def _add_monomial_options(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=sorted(catalogs.family_table()))
    source.add_argument("--factors", help="explicit f-product, e.g. '4:3,1:-6,2:-3'")
    p.add_argument("--k", type=int, default=1, help="tuple length for parameterized families")
    p.add_argument("--qpower", type=int, default=0)
    p.add_argument("--coefficient", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overcubic",
        description="expand partition generating functions and verify their congruences",
    )
    parser.add_argument("--version", action="version", version=f"overcubic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="coefficients of an f-product below an order")
    _add_monomial_options(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    _add_output_options(p, ("json",))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("coeffs", help="specific coefficients, exact unless --mod is given")
    _add_monomial_options(p)
    indices = p.add_mutually_exclusive_group(required=True)
    indices.add_argument("--indices", help="comma-separated exponents")
    indices.add_argument("--progression", help="m,j: report indices m*n+j for n <= n-limit")
    p.add_argument("--n-limit", type=int, default=20)
    p.add_argument("--mod", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="check one congruence claim")
    p.add_argument("--family", choices=sorted(catalogs.family_table()), required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=int, default=0, help="dilation exponent")
    p.add_argument("--progression", help="m,j", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--n-limit", type=int, required=True)
    p.add_argument("--status", choices=congruence.STATUSES, default="proved-in-paper")
    _add_output_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="search progressions for the largest dividing modulus")
    p.add_argument("--family", choices=sorted(catalogs.family_table()), required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--moduli", help="comma-separated candidate moduli", required=True)
    p.add_argument("--n-min", type=int, default=500)
    _add_output_options(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dissect", help="extract the progression (m, j) of a series")
    _add_monomial_options(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--order", type=int, help="coefficients reported below this order", required=True)
    p.add_argument("--mod", type=int, default=None)
    _add_output_options(p, ("json",))
    p.set_defaults(func=cmd_dissect)

    p = sub.add_parser("identity", help="verify an identity catalog")
    p.add_argument("--catalog", required=True)
    p.add_argument("--name", help="verify a single named identity")
    p.add_argument("--order", type=int, default=2000)
    _add_output_options(p, ("json",))
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("certificate", help="verify a congruence certificate file")
    p.add_argument("--cert", default="certs/bt_8n7.json")
    p.add_argument("--order", type=int, default=300)
    _add_output_options(p, ("json",))
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("density", help="arithmetic density of a residue class")
    p.add_argument("--family", choices=sorted(catalogs.family_table()), required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--x-grid", default="100,1000,10000")
    _add_output_options(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("oracle", help="enumeration counts (n, count) for audit")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-n", type=int, default=oracle.MAX_N)
    _add_output_options(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-suite", help="run a named verification suite")
    p.add_argument("--theorem", choices=(*congruence.SUITES, "all"), required=True)
    p.add_argument("--n-limit", type=int, default=None)
    p.add_argument("--alpha-limit", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(func=cmd_paper_suite)

    return parser


def _with_job(path: str, argv: list[str]) -> list[str]:
    """argv with the job file's flags placed right after the subcommand, so
    the parser checks them like typed flags (a required flag may come from
    the job) and explicit ones, coming later, win."""
    job = json.loads(Path(path).read_text())
    if not isinstance(job, dict):
        raise ValueError(f"job file {path} must hold a JSON object of flags")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in job.items()]
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no abbreviations here, or `dissect --j 0` would read as --job 0; a
    # bare --job is left for the full parser to reject
    job_parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    job_parser.add_argument("--job", nargs="?")
    try:
        job = job_parser.parse_known_args(argv)[0].job
        args = build_parser().parse_args(_with_job(job, argv) if job else argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QSeriesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
