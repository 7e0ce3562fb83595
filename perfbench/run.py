"""Cold-CLI benchmark of overcubic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command of the workload runs in a
fresh interpreter (``perfbench/child.py``) that imports the package from the
checkout's ``src/``, one child at a time, and the commands take turns until
the time budget is spent.  Every child's exit code and verdict table are
checked against the expected ones, and the report bytes of one command must
not differ between its runs.

wall_s and solve_s sum, over the workload's commands, each command's mean
time over its runs.  On a shared host a single child of one command varies
by up to 1.6x within a minute, with no warm-up trend; the mean of all of a
command's runs stays steadier from one benchmark run to the next than their
median or their fastest (see ``interactions.json``).  Medians and fastest
runs are printed too.  setup_s is the median over every child and
peak_rss_mb the largest ru_maxrss of any child.

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` each turn runs the command once
untraced and once traced, and the JSON carries the per-layer metrics of each
command's traced child of median solve time (see ``spans.py``).  Lines
before it are for people.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = ".perfbench_work"
# every run must end within 180 s; a child still running at this point is killed
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env(root: Path) -> dict:
    """The caller's environment without OVERCUBIC_* settings (a thread count
    there changes the timings), importing the package from the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OVERCUBIC_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, argv: list[str], report: Path, traced: bool, deadline: float) -> dict:
    """Run one CLI command cold and return its timings, exit code and
    report bytes (None when it wrote none)."""
    meta_path = report.with_suffix(".meta")
    spans_path = report.with_suffix(".spans")
    for p in (report, meta_path, spans_path):
        p.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(CHILD), str(meta_path), str(spans_path) if traced else "-", "--",
        *argv, "--output", str(report),
    ]
    with open(report.with_suffix(".stderr"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=err, stderr=err)
        timer = threading.Timer(max(0.0, deadline - spawned), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {
        "rc": proc.returncode,
        "wall": exited - spawned,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "report": report.read_bytes() if report.exists() else None,
        "meta": None,
        "spans": None,
    }
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        out["meta"] = meta
        out["setup"] = meta["imported"] - spawned
        out["solve"] = meta["end"] - meta["start"]
    if traced and spans_path.exists():
        out["spans"] = json.loads(spans_path.read_text())
    return out


def environment(root: Path, seed: int) -> dict:
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "commit": commit,
    }


def summed(children: list[list[dict]], key: str, pick) -> float:
    """Sum over the workload's commands of pick() over each command's runs."""
    return sum(pick(r[key] for r in runs) for runs in children)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd().resolve()
    src = root / "src" / "overcubic"
    if not (src / "cli.py").is_file():
        print(f"error: no overcubic sources at {src}; run from a checkout root", file=sys.stderr)
        return 2

    work = root / WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return measure(args, root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path, started: float) -> int:
    cmds = workloads.commands(args.workload, WORK, args.seed)
    expected = workloads.load_expected()
    if args.workload == "exact-identities":
        expected["frobenius"] = workloads.write_catalog(root, WORK, args.seed)
    print("# env " + json.dumps(environment(root, args.seed), sort_keys=True))

    modes = (False, True) if args.trace else (False,)
    samples = {mode: [[] for _ in cmds] for mode in modes}
    longest = [0.0] * len(cmds)  # slowest turn seen per command, to plan the stop
    digests: dict[str, set] = {cid: set() for cid, _ in cmds}
    attempted = failed = 0
    deadline = started + DEADLINE_S
    # Commands run round-robin, one child at a time, until the next turn
    # would overrun the budget; every command runs at least once.
    turn = 0
    while True:
        i = turn % len(cmds)
        cid, argv = cmds[i]
        turn_start = time.monotonic()
        # alternate which mode runs first, so drift hits both alike
        for traced in modes if (turn // len(cmds)) % 2 == 0 else modes[::-1]:
            res = run_child(root, argv, work / f"{cid}{'-traced' if traced else ''}.json", traced, deadline)
            attempted += 1
            problems = workloads.check_report(expected[cid], res["rc"], res["report"])
            if res["meta"] is None:
                problems.append("child wrote no timings")
            elif Path(res["meta"]["package"]).resolve().parent != root / "src" / "overcubic":
                problems.append(f"package imported from {res['meta']['package']}")
            if traced and res["spans"] is None:
                problems.append("traced child wrote no spans")
            if res["report"] is not None:
                digests[cid].add(hashlib.sha256(res["report"]).hexdigest())
                if len(digests[cid]) > 1:
                    problems.append("report bytes differ from an earlier run of this command")
            if problems:
                failed += 1
                print(f"FAIL {cid} ({'traced' if traced else 'untraced'}): " + "; ".join(problems[:5]))
            if res["meta"] is not None and (res["spans"] is not None or not traced):
                samples[traced][i].append(res)
        now = time.monotonic()
        longest[i] = max(longest[i], now - turn_start)
        turn += 1
        upcoming = longest[turn % len(cmds)]
        if turn >= len(cmds) and (now - started + upcoming > args.seconds or now + upcoming > deadline):
            break

    if any(not runs for mode in modes for runs in samples[mode]):
        print("error: a command produced no valid run; no metrics", file=sys.stderr)
        return 1
    plain = samples[False]
    if args.trace:
        # layer metrics come from each command's traced child of median solve time
        typical = []
        for runs in samples[True]:
            target = statistics.median_low(r["solve"] for r in runs)
            typical.append(next(r for r in runs if r["solve"] == target))
        values = spans.layer_metrics([r["spans"] for r in typical])
        values["trace.solve_s"] = sum(r["solve"] for r in typical)
        values["trace.overhead_ratio"] = values["trace.solve_s"] / summed(plain, "solve", statistics.median)
        units = [(name, unit) for name, unit, _ in spans.LAYER_METRICS]
    else:
        values = {
            "wall_s": summed(plain, "wall", statistics.fmean),
            "solve_s": summed(plain, "solve", statistics.fmean),
            "setup_s": statistics.median(r["setup"] for runs in plain for r in runs),
            "peak_rss_mb": max(r["rss_mb"] for runs in plain for r in runs),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    counts = ", ".join(f"{cid} x{len(runs)}" for (cid, _), runs in zip(cmds, plain))
    print(f"# workload {args.workload}, trace {args.trace}: {counts}")
    for (cid, _), runs in zip(cmds, plain):
        print(f"# {cid} solve_s " + " ".join(f"{r['solve']:.4f}" for r in runs))
    for key in ("wall", "solve"):
        print(
            f"# {key}_s summing each command's median {summed(plain, key, statistics.median):.6g} s,"
            f" fastest run {summed(plain, key, min):.6g} s"
        )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed}/{attempted}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
