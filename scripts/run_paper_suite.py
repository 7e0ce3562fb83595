#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage: python scripts/run_paper_suite.py [--out reports/] [--quick]

--quick lowers the sample bounds so a full pass takes seconds; the
defaults reproduce the shipped acceptance settings.
"""
import argparse
import sys
from pathlib import Path

from overcubic.cli import main as cli_main
from overcubic.congruence import SUITES

QUICK = {
    "1": ["--n-limit", "50"],
    "2": ["--n-limit", "20", "--alpha-limit", "2"],
    "3": ["--n-limit", "50"],
    "5": ["--n-limit", "50"],
    "9": ["--order", "500"],
    "mod4-progressions": ["--n-limit", "50"],
    "conjecture-1": ["--n-limit", "20", "--alpha-limit", "2"],
    "conjecture-2": ["--n-limit", "20", "--alpha-limit", "2"],
    "dissections": ["--order", "500"],
    "certificate": ["--order", "100"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", type=Path)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    worst = 0
    for suite in SUITES:
        target = args.out / f"suite_{suite}.json"
        argv = ["paper-suite", "--theorem", suite, "--output", str(target)]
        if args.quick:
            argv += QUICK.get(suite, [])
        code = cli_main(argv)
        print(f"{suite:20s} exit={code}  -> {target}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
