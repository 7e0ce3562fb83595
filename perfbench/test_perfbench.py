"""Tests of the benchmark itself: the seeded catalog, the verdict gate and
the tracer.

    python3 -m pytest -q perfbench

The catalog is re-checked against a naive multiply-out that shares no code
with overcubic.etaq or overcubic.series.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# seeded Frobenius catalog


def naive_product(coefficient: int, factors: dict[str, int], n: int) -> list[int]:
    """c * prod_d prod_k (1 - q^(d*k))^r below q^n, one binomial factor at a time."""
    out = [0] * n
    out[0] = coefficient
    for d, r in factors.items():
        d = int(d)
        for step in range(d, n, d):
            for _ in range(abs(r)):
                if r > 0:  # multiply by (1 - q^step)
                    for i in range(n - 1, step - 1, -1):
                        out[i] -= out[i - step]
                else:  # divide by (1 - q^step): multiply by sum q^(j*step)
                    for i in range(step, n):
                        out[i] += out[i - step]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_frobenius_catalog_matches_naive_expansion(seed):
    order = 200
    catalog, expected = workloads.frobenius_catalog(seed, order)
    assert len(catalog) == workloads.FROBENIUS_POSITIVES + workloads.FROBENIUS_CONTROLS
    for claim in catalog:
        (lhs,), (rhs,) = claim["lhs"]["sum"], claim["rhs"]["sum"]
        p = int(claim["name"].split("p=")[1].split()[0])
        assert lhs["coefficient"] == rhs["coefficient"] and lhs["coefficient"] % p
        a = naive_product(lhs["coefficient"], lhs["factors"], order)
        b = naive_product(rhs["coefficient"], rhs["factors"], order)
        diff = [e for e in range(order) if (a[e] - b[e]) % claim["modulus"]]
        want = expected[claim["name"]]
        assert want["n_checked"] == order
        assert want["passed"] == (not diff)
        assert want["first_violation"] == (diff[0] if diff else None)
        if not want["passed"]:
            assert want["first_violation"] == int(claim["name"].split("d=")[1].split()[0])


def test_frobenius_catalog_work_is_held_to_its_band():
    for seed in range(1, 21):
        catalog, _ = workloads.frobenius_catalog(seed, 10)
        work = workloads.catalog_work(catalog, workloads.CATALOG_ORDER)
        assert abs(work / workloads.CATALOG_WORK - 1) <= workloads.CATALOG_WORK_TOLERANCE


@pytest.mark.parametrize("delta", [1, 2, 5])
def test_term_exponents_are_the_nonconstant_terms(delta):
    n = 300
    for span in (1, 3):
        f = naive_product(1, {str(delta): span}, n)
        assert workloads._term_exponents(delta, span, n) == [e for e in range(1, n) if f[e]]


def test_frobenius_catalog_depends_only_on_seed():
    assert workloads.frobenius_catalog(7, 100) == workloads.frobenius_catalog(7, 100)
    assert workloads.frobenius_catalog(7, 100) != workloads.frobenius_catalog(8, 100)


# ---------------------------------------------------------------------------
# verdict gate, through the whole benchmark loop on one small command


def run_small(monkeypatch, capsys, expected: dict, trace: int) -> dict:
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(
        workloads, "commands", lambda w, work, seed: [("cert", ["certificate", "--order", "60"])]
    )
    monkeypatch.setattr(workloads, "load_expected", lambda: {"cert": expected})
    rc = run.main(["--workload", "exact-identities", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


CERT_EXPECTED = {
    "exit_code": 0,
    "passed": True,
    "verdicts": {
        "overcubic-triple 8n+7 mod 64": {"passed": True, "first_violation": None, "n_checked": 60}
    },
}


def test_correct_verdicts_pass_the_gate(monkeypatch, capsys):
    result = run_small(monkeypatch, capsys, CERT_EXPECTED, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    result = run_small(monkeypatch, capsys, CERT_EXPECTED, trace=1)
    assert result["correct"] and result["attempted"] == 2
    assert list(result["metrics"]) == sorted(name for name, _, _ in spans.LAYER_METRICS)
    assert result["metrics"]["etaq.exact.calls"]["value"] > 0


def test_wrong_expected_verdict_counts_as_failure(monkeypatch, capsys):
    wrong = json.loads(json.dumps(CERT_EXPECTED))
    wrong["verdicts"]["overcubic-triple 8n+7 mod 64"]["first_violation"] = 7
    result = run_small(monkeypatch, capsys, wrong, trace=0)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_check_report_flags_every_kind_of_mismatch():
    report = json.dumps(
        {"passed": True, "records": [{"name": "a", "passed": True, "first_violation": None, "n_checked": 5}]}
    ).encode()
    good = {"exit_code": 0, "passed": True,
            "verdicts": {"a": {"passed": True, "first_violation": None, "n_checked": 5}}}
    assert workloads.check_report(good, 0, report) == []
    assert workloads.check_report(good, 1, report)
    assert workloads.check_report(good, 0, None)
    assert workloads.check_report(good, 0, b"{not json")
    extra = json.loads(json.dumps(good))
    extra["verdicts"]["b"] = extra["verdicts"]["a"]
    assert workloads.check_report(extra, 0, report)


# ---------------------------------------------------------------------------
# tracer


def test_install_wraps_every_binding():
    script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
mods = spans.package_modules()
def public(mod):
    return {(mod.__name__, a): o for a, o in vars(mod).items()
            if not a.startswith("_") and not isinstance(o, type) and callable(o)
            and getattr(o, "__module__", "").startswith("overcubic")}
before = {k: v for m in mods for k, v in public(m).items()}
bindings = spans.install(spans.Tracer())
left = sorted(".".join(k) for m in mods for k, v in public(m).items() if before[k] is v)
print(json.dumps({"bindings": bindings, "left": left}))
"""
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        env=run.child_env(ROOT), capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    assert got["left"] == []
    bindings = got["bindings"]
    for span, attr in [
        ("series.mul", "overcubic.certify.mul"),
        ("series.add", "overcubic.certify.add"),
        ("series.first_difference", "overcubic.certify.first_difference"),
        ("dissect.extract_progression", "overcubic.certify.extract_progression"),
        ("series.first_difference", "overcubic.dissect.first_difference"),
        ("reporting.to_json", "overcubic.cli.to_json"),
        ("etaq.residue_array", "overcubic.etaq.residue_array"),
        ("cli.main", "overcubic.cli.main"),
    ]:
        assert attr in bindings[span]


def test_self_times_and_reuse_on_synthetic_spans():
    s = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["etaq.residue_array", 1.0, 4.0, 0, {"key": "k 64", "order": 100, "kind": "pow2"}],
        ["etaq.residue_array", 4.0, 6.0, 0, {"key": "k 64", "order": 50, "kind": "pow2"}],
        ["etaq.residue_array", 6.0, 9.0, 0, {"key": "k 3", "order": 300, "kind": "odd"}],
        ["series.zero", 7.0, 8.0, 3, None],
    ]
    assert spans.self_times(s) == [2.0, 3.0, 2.0, 2.0, 1.0]
    m = spans.layer_metrics([s])
    assert m["cli.self_s"] == 2.0 and m["etaq.self_s"] == 7.0 and m["series.self_s"] == 1.0
    assert m["etaq.residue.pow2_s"] == 5.0 and m["etaq.residue.odd_s"] == 2.0
    assert m["etaq.residue.coeffs"] == 450 and m["etaq.residue.calls"] == 3
    assert m["etaq.residue.reuse_share"] == 50 / 450


SMALL_COMMANDS = [
    ["certificate", "--order", "120"],
    ["verify", "--family", "overcubic-triple", "--progression", "72,69", "--mod", "384", "--n-limit", "50"],
    ["density", "--family", "overcubic-triple", "--mod", "12", "--x-grid", "100,2000"],
]


@pytest.mark.parametrize("argv", SMALL_COMMANDS, ids=lambda a: a[0])
def test_traced_run_adds_up_and_keeps_report_bytes(argv, tmp_path):
    deadline = time.monotonic() + 120
    plain = run.run_child(ROOT, argv, tmp_path / "plain.json", False, deadline)
    traced = run.run_child(ROOT, argv, tmp_path / "traced.json", True, deadline)
    assert plain["rc"] == traced["rc"] == 0
    assert plain["report"] is not None and plain["report"] == traced["report"]
    layer = spans.layer_metrics([traced["spans"]])
    modules = sum(layer[f"{m}.self_s"] for m in spans.MODULES + ("other",))
    roots = [s for s in traced["spans"] if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    assert modules == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
    assert modules == pytest.approx(traced["solve"], rel=0.02, abs=2e-3)
    assert layer["reporting.bytes"] == len(traced["report"])


# ---------------------------------------------------------------------------
# contract


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_expected_tables_cover_every_fixed_command():
    expected = workloads.load_expected()
    for w in workloads.WORKLOADS:
        for cid, argv in workloads.commands(w, ".work", 1):
            if cid != "frobenius":
                assert expected[cid]["command"] == argv


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "residue-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
