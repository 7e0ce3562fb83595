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
from .catalogs import Family
from .errors import QSeriesError
from .reporting import CONGRUENCE_COLUMNS, to_csv, to_json


def _parse_ints(text: str, flag: str, width: int = 1) -> list:
    """The comma-separated integers of `flag`, or with width 2 its pairs
    delta:r.  Text with no item at all gives [], for the caller to refuse;
    an empty item beside others, or one of another form, is refused here
    with the flag named, not read as nothing or as something else."""
    items = text.replace(" ", "").split(",")
    if not any(items):
        return []
    if not all(items):
        raise ValueError(f"{flag} has an empty item in {text!r}")
    values = []
    for item in items:
        try:
            value = tuple(map(int, item.split(":")))
        except ValueError:
            value = ()
        if len(value) != width:
            form = "an integer" if width == 1 else "two integers delta:r"
            raise ValueError(f"{flag} item {item!r} is not {form}")
        values.append(value if width > 1 else value[0])
    return values


def _parse_progression(text: str) -> tuple[int, int]:
    """The m,j of --progression; dissect.progression_order checks the values."""
    values = _parse_ints(text, "--progression")
    if len(values) != 2:
        raise ValueError(f"--progression takes two integers m,j, not {text!r}")
    return values[0], values[1]


def _monomial_from_args(args) -> etaq.FMonomial:
    """--coefficient times q^--qpower times the family's or the factors' monomial."""
    if args.family is not None:
        base = Family(args.family, args.k).monomial
    elif args.k != 1:
        raise ValueError("--k is a family's tuple length; --factors takes only --k 1")
    else:
        # (delta, r) pairs in the given order; FMonomial refuses a repeated delta
        base = etaq.FMonomial.make(factors=_parse_ints(args.factors, "--factors", 2))
    return etaq.FMonomial(args.coefficient, args.qpower + base.qpower, base.factors)


def _report(args, parameters: dict, body: dict, passed: bool = True, csv=None) -> int:
    """Write the report envelope (the subcommand, parameters, passed) around
    `body`, or under --format csv the text of calling `csv`, which is built
    only then; returns the exit code."""
    if args.format == "csv":
        text = csv()
    else:
        text = to_json(
            {
                "tool": "overcubic",
                "version": __version__,
                "command": args.command,
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


def _records(args, parameters: dict, results, columns=()) -> int:
    """The report of checked claims: one record per result, passed when
    every result passed, and under --format csv the `columns` and verdict."""
    records = [r.to_record() for r in results]
    columns = (*columns, "verdict")
    passed = all(r.passed for r in results)
    return _report(args, parameters, {"records": records}, passed, lambda: to_csv(records, columns))


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    mon = _monomial_from_args(args)
    s = etaq.expand(mon, args.order, args.mod)
    return _report(
        args,
        {"monomial": repr(mon), "order": args.order, "mod": args.mod},
        {"valuation": s.valuation, "order": s.order, "coefficients": list(s.coeffs)},
    )


def cmd_coeffs(args) -> int:
    mon = _monomial_from_args(args)
    if args.indices is not None:
        if args.n_limit is not None:
            raise ValueError("--n-limit bounds --progression; --indices reads no bound")
        indices = _parse_ints(args.indices, "--indices")
        if not indices:
            raise ValueError("no index given to --indices")
        if min(indices) < 0:
            raise ValueError("indices must be nonnegative")
    else:
        m, j = _parse_progression(args.progression)
        n_limit = 20 if args.n_limit is None else args.n_limit
        if n_limit < 0:
            raise ValueError("--n-limit must be >= 0")
        indices = list(range(j, dissect.progression_order(m, j, n_limit + 1), m))
    order = max(indices) + 1
    s = etaq.expand(mon, order, args.mod)
    values = [s.coefficient(i) for i in indices]
    return _report(
        args,
        {"monomial": repr(mon), "mod": args.mod, "order": order},
        {"indices": indices, "coefficients": values},
        csv=lambda: to_csv(
            [{"n": i, "coefficient": v} for i, v in zip(indices, values)], ("n", "coefficient")
        ),
    )


def cmd_verify(args) -> int:
    m, j = _parse_progression(args.progression)
    claim = congruence.CongruenceClaim(
        Family(args.family, args.k), m, j, args.mod, args.alpha, args.status
    )
    result = congruence.verify_congruence(claim, args.n_limit)
    parameters = {**claim.to_dict(), "n_limit": args.n_limit, "order": result.orders["expansion"]}
    return _records(args, parameters, [result], CONGRUENCE_COLUMNS)


def cmd_scan(args) -> int:
    moduli = _parse_ints(args.moduli, "--moduli")
    claims = congruence.scan(Family(args.family, args.k), args.max_m, moduli, args.n_min)
    parameters = {
        "family": args.family,
        "k": args.k,
        "max_m": args.max_m,
        "moduli": congruence.scan_moduli(moduli),
        "n_min": args.n_min,
        "order": congruence.scan_order(args.max_m, args.n_min),
    }
    records = [c.to_dict() for c in claims]  # scan finds them in (m, j) order
    return _report(
        args, parameters, {"records": records}, csv=lambda: to_csv(records, CONGRUENCE_COLUMNS)
    )


def cmd_dissect(args) -> int:
    mon = _monomial_from_args(args)
    base = etaq.expand(mon, dissect.progression_order(args.m, args.j, args.order), args.mod)
    part = dissect.extract_progression(base, args.m, args.j)
    return _report(
        args,
        {"monomial": repr(mon), "m": args.m, "j": args.j, "order": args.order, "mod": args.mod},
        {
            "valuation": part.valuation,
            "order": part.order,
            "coefficients": list(part.window(0, args.order)),
        },
    )


def cmd_identity(args) -> int:
    claims = catalogs.load_identity_catalog(args.catalog)
    if args.name:
        claims = [c for c in claims if c.name == args.name]
        if not claims:
            raise ValueError(f"no identity named {args.name!r} in {args.catalog}")
    results = dissect.verify_catalog(claims, args.order)
    return _records(args, {"catalog": str(args.catalog), "order": args.order}, results)


def cmd_certificate(args) -> int:
    cert = catalogs.load_certificate(args.cert)
    result = certify.verify_certificate(cert, args.order)
    return _records(args, {"cert": str(args.cert), "order": args.order}, [result])


def cmd_density(args) -> int:
    grid = _parse_ints(args.x_grid, "--x-grid")
    report = density.compute_density(Family(args.family, args.k), args.mod, args.residue, grid)
    return _report(
        args,
        {"family": args.family, "k": args.k, "mod": args.mod, "residue": args.residue},
        {"report": report.to_record()},
        csv=report.to_csv,
    )


def cmd_oracle(args) -> int:
    Family(args.family, args.k)  # the k check every command applies
    table = oracle.table(args.family, args.max_n, args.k)
    rows = [{"n": n, "count": c} for n, c in enumerate(table)]
    return _report(
        args,
        {"family": args.family, "k": args.k, "max_n": args.max_n},
        {"records": rows},
        csv=lambda: to_csv(rows, ("n", "count")),
    )


def cmd_paper_suite(args) -> int:
    names = congruence.SUITES if args.theorem == "all" else (args.theorem,)
    parameters, results = congruence.run_suites(names, args.n_limit, args.alpha_limit, args.order)
    return _records(
        args,
        {"theorem": args.theorem, "suites": parameters},
        results,
        CONGRUENCE_COLUMNS + ("passed",),
    )


# ---------------------------------------------------------------------------
# parser


def _add_output_options(p, formats=("json", "csv")):
    p.add_argument("--output", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--job", help="JSON file of parameters; explicit flags override")


def _add_family_options(p, factors=False):
    """--family and --k; with factors, --family or --factors, then --qpower
    and --coefficient, which make the monomial of _monomial_from_args."""
    source = p.add_mutually_exclusive_group(required=True) if factors else p
    source.add_argument("--family", choices=sorted(catalogs.family_table()), required=not factors)
    if factors:
        source.add_argument("--factors", help="explicit f-product, e.g. '4:3,1:-6,2:-3'")
    p.add_argument("--k", type=int, default=1, help="tuple length for parameterized families")
    if factors:
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
    _add_family_options(p, factors=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    _add_output_options(p, ("json",))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("coeffs", help="specific coefficients, exact unless --mod is given")
    _add_family_options(p, factors=True)
    indices = p.add_mutually_exclusive_group(required=True)
    indices.add_argument("--indices", help="comma-separated exponents")
    indices.add_argument("--progression", help="m,j: report indices m*n+j for n <= n-limit")
    p.add_argument("--n-limit", type=int, help="n bound of --progression (default 20)")
    p.add_argument("--mod", type=int, default=None)
    _add_output_options(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="check one congruence claim")
    _add_family_options(p)
    p.add_argument("--alpha", type=int, default=0, help="dilation exponent")
    p.add_argument("--progression", help="m,j", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--n-limit", type=int, required=True)
    p.add_argument("--status", choices=congruence.STATUSES, default=congruence.PROVED)
    _add_output_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="search progressions for the largest dividing modulus")
    _add_family_options(p)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--moduli", help="comma-separated candidate moduli", required=True)
    p.add_argument("--n-min", type=int, default=500)
    _add_output_options(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dissect", help="extract the progression (m, j) of a series")
    _add_family_options(p, factors=True)
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
    _add_family_options(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--x-grid", default="100,1000,10000")
    _add_output_options(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("oracle", help="enumeration counts (n, count) for audit")
    _add_family_options(p)
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
    for key, value in job.items():
        if value is None or isinstance(value, (bool, list, dict)):
            raise ValueError(
                f"job file {path}: the value of {key!r} must be a number or a string,"
                f" not {type(value).__name__} {json.dumps(value)}"
            )
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
        for dest, value in vars(args).items():
            # argparse drops the value of --flag=-- and stores [], unchecked
            if isinstance(value, list):
                raise ValueError(f"--{dest.replace('_', '-')} needs a value, not '--'")
        return args.func(args)
    # json.JSONDecodeError is a ValueError; JSON nested too deep raises RecursionError
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QSeriesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
