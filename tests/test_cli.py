import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from overcubic import catalogs, etaq
from overcubic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passing_claim(capsys):
    code, out = run_cli(
        capsys, "verify", "--family", "overcubic-triple", "--progression", "8,7",
        "--mod", "64", "--n-limit", "50"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["parameters"]["order"] == 8 * 50 + 7 + 1


def test_verify_failing_claim_exits_one(capsys):
    code, out = run_cli(
        capsys, "verify", "--family", "overcubic-triple", "--progression", "4,1",
        "--mod", "4", "--n-limit", "10"
    )
    assert code == 1
    report = json.loads(out)
    assert report["records"][0]["first_violation"] == 0


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "no-such-family", "--progression", "1,0",
              "--mod", "2", "--n-limit", "1"])
    assert exc.value.code == 2


def test_bad_progression_value_exits_two(capsys):
    code = main(["verify", "--family", "overcubic-triple", "--progression", "4,9",
                 "--mod", "4", "--n-limit", "1"])
    assert code == 2


def test_identity_catalog_by_packaged_name(capsys):
    code, out = run_cli(
        capsys, "identity", "--catalog", "identities/lemma_dissections.json",
        "--order", "400"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 4 and report["passed"]


def test_reports_are_byte_identical(capsys):
    args = ("identity", "--catalog", "identities/theta_dissections.json", "--order", "300")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_expand_family_mod(capsys):
    code, out = run_cli(
        capsys, "expand", "--family", "overcubic-triple", "--order", "8", "--mod", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == [1, 2, 2, 0, 2, 0, 0, 0]


def test_expand_explicit_factors(capsys):
    code, out = run_cli(
        capsys, "expand", "--factors", "1:-1", "--order", "6"
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 1, 2, 3, 5, 7]


def test_coeffs_progression_csv(capsys):
    code, out = run_cli(
        capsys, "coeffs", "--family", "overcubic-triple", "--progression", "8,7",
        "--n-limit", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "7,9792"


def test_dissect_subcommand(capsys):
    code, out = run_cli(
        capsys, "dissect", "--family", "overcubic-triple", "--m", "2", "--j", "0",
        "--order", "5", "--mod", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == [1, 2, 2, 0, 2][: len(report["coefficients"])]


def test_scan_subcommand(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "partition", "--max-m", "5", "--moduli", "5,7",
        "--n-min", "150"
    )
    assert code == 0
    report = json.loads(out)
    assert {(r["m"], r["j"], r["modulus"]) for r in report["records"]} == {(5, 4, 5)}


def test_certificate_subcommand(capsys):
    code, out = run_cli(capsys, "certificate", "--order", "100")
    assert code == 0
    assert json.loads(out)["records"][0]["claimed_common_factor"] == 64


def test_density_subcommand(capsys):
    code, out = run_cli(
        capsys, "density", "--family", "overcubic-triple", "--mod", "4",
        "--x-grid", "100"
    )
    assert code == 0
    row = json.loads(out)["report"]["rows"][0]
    assert row["count"] == 83 and row["delta"] == "83/100"


def test_oracle_subcommand_csv(capsys):
    code, out = run_cli(
        capsys, "oracle", "--family", "overcubic", "--max-n", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,count", "0,1", "1,2", "2,6", "3,12", "4,26"]


def test_paper_suite_theorem1(capsys):
    code, out = run_cli(capsys, "paper-suite", "--theorem", "1", "--n-limit", "60")
    assert code == 0
    report = json.loads(out)
    assert len(report["records"]) == 10


def test_paper_suite_conjecture_is_labeled(capsys):
    code, out = run_cli(
        capsys, "paper-suite", "--theorem", "conjecture-1", "--n-limit", "10",
        "--alpha-limit", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert all(
        r["status"] == "conjectured, numerical evidence only" for r in report["records"]
    )


def test_job_file_fills_unset_flags(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"family": "overcubic-triple", "mod": 64,
                               "progression": "8,7", "n-limit": 25}))
    code, out = run_cli(capsys, "verify", "--job", str(job), "--mod", "4",
                        "--progression", "8,6")
    assert code == 0
    report = json.loads(out)
    # explicit flags won, job supplied the rest
    assert report["parameters"]["modulus"] == 4
    assert report["parameters"]["j"] == 6
    assert report["parameters"]["n_limit"] == 25


@pytest.mark.parametrize(
    "job",
    [[1, 2], {"mod": "x"}, {"func": "x"}],
    ids=["json-list", "wrong-typed-value", "non-flag-key"],
)
def test_bad_job_file_exits_two(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    argv = ["verify", "--job", str(path), "--family", "overcubic-triple",
            "--progression", "8,7", "--n-limit", "5"]
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser rejects bad flags this way
        code = exc.code
    assert code == 2


M_ABOVE_2_63 = str(3 << 62)


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--family", "overcubic-triple", "--mod", M_ABOVE_2_63, "--x-grid", "100"],
        ["verify", "--family", "overcubic-triple", "--progression", "8,7",
         "--mod", M_ABOVE_2_63, "--n-limit", "30"],
        ["scan", "--family", "overcubic-triple", "--max-m", "2", "--moduli", M_ABOVE_2_63,
         "--n-min", "100"],
        ["expand", "--family", "overcubic-triple", "--order", "40", "--mod", M_ABOVE_2_63],
    ],
    ids=["density", "verify", "scan", "expand"],
)
def test_modulus_above_2_63_exits_two(capsys, argv):
    assert main(argv) == 2
    assert "UnsupportedModulus" in capsys.readouterr().err


def test_verify_at_2_63_runs(capsys):
    code, out = run_cli(
        capsys, "verify", "--family", "overcubic-triple", "--progression", "8,7",
        "--mod", str(1 << 63), "--n-limit", "30"
    )
    assert code == 1
    assert json.loads(out)["records"][0]["first_violation"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--family", "overcubic-triple", "--mod", "4", "--x-grid", "4000001"],
        ["scan", "--family", "overcubic-triple", "--max-m", "2", "--moduli", "4",
         "--n-min", "1000000"],
        ["expand", "--family", "overcubic-triple", "--mod", "4", "--order", "4000001"],
        ["expand", "--family", "overcubic-triple", "--order", "100000000"],
        ["coeffs", "--family", "overcubic-triple", "--indices", "50000000"],
    ],
    ids=["density", "scan", "expand", "expand-exact", "coeffs-exact"],
)
def test_order_ceiling_exits_two_at_once(capsys, argv):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "ceiling" in capsys.readouterr().err


CERT_WITHOUT_BASE = {
    k: v for k, v in json.loads(catalogs.read_text("certs/bt_8n7.json")).items() if k != "base"
}

# argv with "{dir}" for a directory and "{file}" for a file holding the JSON
BAD_INPUTS = {
    "output-dir": (["oracle", "--family", "partition", "--max-n", "3", "--output", "{dir}"], None),
    "catalog-dir": (["identity", "--catalog", "{dir}"], None),
    "cert-dir": (["certificate", "--cert", "{dir}"], None),
    "job-dir": (["oracle", "--job", "{dir}"], None),
    "catalog-object": (["identity", "--catalog", "{file}"], {"name": "x"}),
    "catalog-entry-without-lhs": (
        ["identity", "--catalog", "{file}"], [{"name": "x", "rhs": {"sum": []}}]
    ),
    "certificate-without-base": (["certificate", "--cert", "{file}"], CERT_WITHOUT_BASE),
    "coeffs-progression-0-0": (
        ["coeffs", "--family", "overcubic", "--progression", "0,0"], None
    ),
    "oracle-negative-max-n": (["oracle", "--family", "overcubic", "--max-n", "-3"], None),
    "scan-order": (
        ["scan", "--family", "partition", "--max-m", "2", "--moduli", "5", "--order", "100000"],
        None,
    ),
    # vacuous inputs: nothing would be checked, so nothing may pass
    "suite-2-negative-alpha-limit": (["paper-suite", "--theorem", "2", "--alpha-limit", "-1"], None),
    "conjecture-1-negative-alpha-limit": (
        ["paper-suite", "--theorem", "conjecture-1", "--alpha-limit", "-1"], None
    ),
    "conjecture-2-negative-alpha-limit": (
        ["paper-suite", "--theorem", "conjecture-2", "--alpha-limit", "-1"], None
    ),
    "scan-no-moduli": (
        ["scan", "--family", "partition", "--max-m", "5", "--moduli", ",", "--n-min", "150"], None
    ),
    "lacunary-negative-alpha-limit": (
        ["paper-suite", "--theorem", "lacunary", "--alpha-limit", "-1"], None
    ),
    "dissections-negative-alpha-limit": (
        ["paper-suite", "--theorem", "dissections", "--alpha-limit", "-1"], None
    ),
    "certificate-negative-alpha-limit": (
        ["paper-suite", "--theorem", "certificate", "--alpha-limit", "-1"], None
    ),
    # either-or flags: exactly one of the pair
    "expand-family-and-factors": (
        ["expand", "--family", "overcubic", "--factors", "1:1", "--order", "5"], None
    ),
    "dissect-family-and-factors": (
        ["dissect", "--family", "overcubic", "--factors", "1:1", "--m", "2", "--j", "0",
         "--order", "5"], None
    ),
    "coeffs-indices-and-progression": (
        ["coeffs", "--family", "overcubic", "--indices", "1,2", "--progression", "2,1"], None
    ),
    "expand-neither-family-nor-factors": (["expand", "--order", "5"], None),
    "coeffs-neither-indices-nor-progression": (["coeffs", "--family", "overcubic"], None),
    # --k is a tuple length; a family without one must not echo a k it ignored
    "verify-k-on-fixed-family": (
        ["verify", "--family", "overcubic-triple", "--k", "5", "--progression", "8,7",
         "--mod", "64", "--n-limit", "10"], None
    ),
    "oracle-k-on-fixed-family": (["oracle", "--family", "overcubic", "--k", "5"], None),
    "expand-k-with-factors": (["expand", "--factors", "1:-1", "--k", "5", "--order", "5"], None),
    # f1 * f1^-1 is 1, not the last factor given for delta 1
    "expand-repeated-delta": (["expand", "--factors", "1:1,1:-1", "--order", "6"], None),
    # the enumeration ceiling is a constant, oracle.MAX_N
    "oracle-cap": (["oracle", "--family", "overcubic", "--max-n", "41", "--cap", "41"], None),
    # dissect --mod takes the residue route, whose odd part stops at 2^15
    "dissect-mod-odd-part-above-2-15": (
        ["dissect", "--family", "overcubic", "--m", "2", "--j", "0", "--order", "10",
         "--mod", "1048577"], None
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_two_with_a_message(tmp_path, capsys, case):
    argv, content = BAD_INPUTS[case]
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(json.dumps(content))
    argv = [a.format(dir=tmp_path, file=path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--family", "overcubic-triple", "--order", "30000"],
        ["dissect", "--family", "overcubic-triple", "--m", "2", "--j", "0", "--order", "50"],
        ["identity", "--catalog", "identities/lemma_dissections.json"],
        ["certificate"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_csv_is_refused_before_any_expansion(monkeypatch, capsys, argv):
    def no_build(*args):
        raise AssertionError("expanded before the usage error")

    monkeypatch.setattr(etaq, "_expand_factors_exact", no_build)
    monkeypatch.setattr(etaq, "_expand_factors_residue", no_build)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


# the same monomial from a family and from its factors, with the same flags
FAMILY_AND_FACTORS = [
    ["expand", "--order", "10"],
    ["coeffs", "--indices", "2,5,9"],
    ["dissect", "--m", "2", "--j", "1", "--order", "6", "--mod", "64"],
]


@pytest.mark.parametrize("argv", FAMILY_AND_FACTORS, ids=lambda argv: argv[0])
def test_coefficient_and_qpower_apply_to_a_family(capsys, argv):
    flags = ["--coefficient", "3", "--qpower", "2"]
    _, family = run_cli(capsys, *argv, "--family", "overcubic", *flags)
    _, factors = run_cli(capsys, *argv, "--factors", "1:-2,2:-1,4:1", *flags)
    assert family == factors
    assert json.loads(family)["parameters"]["monomial"] == "3*q^2*f1^-2*f2^-1*f4"


# subcommand argv without one required flag, and that flag
MISSING_REQUIRED_FLAG = [
    (["expand", "--family", "overcubic-triple"], "--order"),
    (["verify", "--family", "overcubic-triple", "--progression", "8,7", "--mod", "64"],
     "--n-limit"),
    (["scan", "--family", "partition", "--max-m", "5"], "--moduli"),
    (["dissect", "--family", "overcubic-triple", "--m", "2", "--order", "10"], "--j"),
    (["identity", "--order", "10"], "--catalog"),
    (["density", "--family", "overcubic-triple"], "--mod"),
    (["oracle", "--max-n", "3"], "--family"),
    (["paper-suite"], "--theorem"),
]


@pytest.mark.parametrize(
    "argv,flag", MISSING_REQUIRED_FLAG, ids=[argv[0] for argv, _ in MISSING_REQUIRED_FLAG]
)
def test_missing_required_flag_exits_two(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required: " + flag in captured.err


BUILD_COUNT_RUNS = [
    ["paper-suite", "--theorem", "all", "--n-limit", "30", "--alpha-limit", "2",
     "--order", "400"],
    ["identity", "--catalog", "identities/congruence_identities.json", "--order", "200"],
]


@pytest.mark.parametrize("argv", BUILD_COUNT_RUNS, ids=["paper-suite-all", "identity"])
def test_every_expansion_is_built_once_per_run(monkeypatch, capsys, argv):
    builds = []
    cached = etaq._cached

    def recording(cache, key, n, build):
        def counted(limit):
            builds.append(("exact" if cache is etaq._exact_cache else "residue", key))
            return build(limit)

        return cached(cache, key, n, counted)

    monkeypatch.setattr(etaq, "_cached", recording)
    etaq._exact_cache.clear()
    etaq._residue_cache.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert builds and len(builds) == len(set(builds)), sorted(builds)


def test_module_entry_point_runs():
    # the child runs the checkout's package, as the test process does
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "overcubic", "oracle", "--family", "partition",
         "--max-n", "5", "--format", "csv"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "5,7"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "verify", "--family", "overcubic-triple", "--progression", "4,3",
        "--mod", "4", "--n-limit", "10", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["passed"] is True
