import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from overcubic import catalogs, cli, congruence, density, etaq
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


def test_coeffs_progression_reads_n_limit_20_by_default(capsys):
    code, out = run_cli(capsys, "coeffs", "--family", "overcubic", "--progression", "2,1")
    assert code == 0
    assert json.loads(out)["indices"] == list(range(1, 42, 2))


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


def test_scan_echoes_each_modulus_once(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "partition", "--max-m", "2", "--moduli", "2,2",
        "--n-min", "100"
    )
    assert code == 0
    assert json.loads(out)["parameters"]["moduli"] == [2]


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
    assert report["records"]
    assert all(
        r["status"] == "conjectured" and r["verdict"] == "checked" for r in report["records"]
    )


VOCABULARY_RUNS = [
    "paper-suite --theorem all --n-limit 20 --alpha-limit 1 --order 300",
    "verify --family overcubic-triple --progression 8,7 --mod 64 --n-limit 20",
    "verify --family overcubic --progression 4,1 --mod 4 --n-limit 10 --status discovered",
    *(f"identity --catalog identities/{name}.json --order 200"
      for name in ("lemma_dissections", "congruence_identities", "theta_dissections")),
    "certificate --order 100",
]


def test_every_record_states_its_verdict_and_at_most_a_provenance(capsys):
    # a record's verdict is what the run established, and its status, where
    # the claim has one, is the claim's provenance, never free text
    STATUSES = congruence.STATUSES
    for command in VOCABULARY_RUNS:
        main(command.split())
        records = json.loads(capsys.readouterr().out)["records"]
        assert records, command
        for record in records:
            assert record["verdict"] in ("checked", "criterion"), (command, record)
            criterion = record["name"].startswith("divisibility-criterion")
            assert (record["verdict"] == "criterion") == criterion, (command, record)
            assert record.get("status", STATUSES[0]) in STATUSES, (command, record)


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
        ["coeffs", "--family", "overcubic-triple", "--coefficient", "0", "--indices", "4000000",
         "--mod", "4"],
        # the mod-32 claim's left side goes to 8 * 500001 + 0, above MAX_ORDER
        ["identity", "--catalog", "identities/congruence_identities.json",
         "--name", "overcubic-triple-8n-part-mod32", "--order", "500001"],
        # refused by bit length before the shift: the order would have more
        # digits than Python prints
        ["verify", "--family", "overcubic", "--progression", "8,7", "--mod", "64",
         "--n-limit", "1", "--alpha", "30000"],
        # 2^alpha_limit is above the ceiling, refused before any claim is made
        ["paper-suite", "--theorem", "conjecture-1", "--alpha-limit", "30000"],
    ],
    ids=["density", "scan", "expand", "expand-exact", "coeffs-exact", "coeffs-zero-coefficient",
         "identity-mod", "verify-huge-alpha", "suite-huge-alpha-limit"],
)
def test_order_ceiling_exits_two_at_once(capsys, argv):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "ceiling" in capsys.readouterr().err


CERT = json.loads(catalogs.read_text("certs/bt_8n7.json"))
CERT_WITHOUT_BASE = {k: v for k, v in CERT.items() if k != "base"}


def one_identity(lhs=None, rhs=None, **keys):
    """A catalog of one identity, f1 = f1 unless a side or a key is given."""
    f1 = {"factors": {"1": 1}}
    return [{"name": "x", "lhs": lhs or {"sum": [f1]}, "rhs": rhs or {"sum": [f1]}, **keys}]


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
    # every catalog number is a JSON integer: each of these was read as
    # another number, so that a false identity or certificate passed, or
    # raised a traceback
    "identity-float-exponent": (
        ["identity", "--catalog", "{file}"], one_identity({"sum": [{"factors": {"1": 1.5}}]})
    ),
    "identity-bool-exponent": (
        ["identity", "--catalog", "{file}"], one_identity({"sum": [{"factors": {"1": True}}]})
    ),
    "identity-float-coefficient": (
        ["identity", "--catalog", "{file}"],
        one_identity({"sum": [{"coefficient": 2.7}]}, {"sum": [{"coefficient": 2}]}),
    ),
    "identity-float-qpower": (
        ["identity", "--catalog", "{file}"],
        one_identity({"sum": [{"qpower": 1.5}]}, {"sum": [{"qpower": 1}]}),
    ),
    "identity-float-modulus": (["identity", "--catalog", "{file}"], one_identity(modulus=4.5)),
    "identity-float-progression": (
        ["identity", "--catalog", "{file}"], one_identity(lhs_progression=[2.0, 0])
    ),
    "identity-float-family-k": (
        ["identity", "--catalog", "{file}"],
        one_identity({"family": {"name": "overcubic-ktuple", "k": 2.5}}),
    ),
    "identity-mixed-names": (
        ["identity", "--catalog", "{file}"], one_identity() + [{**one_identity()[0], "name": 1}]
    ),
    "certificate-float-m": (["certificate", "--cert", "{file}"], {**CERT, "m": 8.0}),
    # an empty polynomial raised IndexError in the check
    "certificate-empty-polynomial": (["certificate", "--cert", "{file}"], {**CERT, "polynomial": []}),
    "certificate-half-coefficient": (
        ["certificate", "--cert", "{file}"],
        {**CERT, "polynomial": [*CERT["polynomial"][:3], 949826648801280.5,
                                *CERT["polynomial"][4:]]},
    ),
    "coeffs-progression-0-0": (
        ["coeffs", "--family", "overcubic", "--progression", "0,0"], None
    ),
    # coeffs --progression follows the rule verify and dissect follow
    "coeffs-progression-offset-not-below-m": (
        ["coeffs", "--family", "overcubic", "--progression", "2,5", "--n-limit", "3"], None
    ),
    "coeffs-progression-negative-n-limit": (
        ["coeffs", "--family", "overcubic", "--progression", "2,1", "--n-limit", "-1"], None
    ),
    "coeffs-no-index": (["coeffs", "--family", "overcubic", "--indices", ","], None),
    # an empty item beside others is refused, not read as nothing
    "coeffs-indices-empty-item": (["coeffs", "--family", "overcubic", "--indices", "3,,5"], None),
    "verify-progression-empty-items": (
        ["verify", "--family", "overcubic", "--progression", ",8,,7,", "--mod", "4",
         "--n-limit", "3"], None
    ),
    "scan-moduli-trailing-comma": (
        ["scan", "--family", "partition", "--max-m", "5", "--moduli", "2,4,", "--n-min", "150"],
        None,
    ),
    "density-x-grid-empty-item": (
        ["density", "--family", "overcubic-triple", "--mod", "4", "--x-grid", "100,,1000"], None
    ),
    # --indices reads no bound, so a bound given with it is refused, not dropped
    "coeffs-indices-n-limit": (
        ["coeffs", "--family", "overcubic", "--indices", "1,2", "--n-limit", "7"], None
    ),
    # a job value is a number or a string; a list reached argparse as its str()
    "job-list-value": (
        ["verify", "--job", "{file}"],
        {"progression": [8, 7], "family": "overcubic", "mod": 4, "n_limit": 3},
    ),
    "job-object-value": (
        ["verify", "--job", "{file}", "--progression", "8,7"],
        {"family": "overcubic", "mod": {"value": 4}, "n_limit": 3},
    ),
    # a job value of null reached argparse as the text None, and --output
    # None wrote the report to a file of that name
    "job-null-value": (
        ["verify", "--job", "{file}"],
        {"family": "overcubic", "mod": 4, "n_limit": 3, "progression": "8,7", "output": None},
    ),
    "job-bool-value": (
        ["verify", "--job", "{file}"],
        {"family": "overcubic", "mod": 4, "n_limit": 3, "progression": "8,7", "output": True},
    ),
    # --factors follows the comma-list rule of the other list flags: f1*f2^3
    # was expanded here
    "expand-factors-empty-item": (["expand", "--factors", "1:1,,2:3", "--order", "5"], None),
    # a list item that is not an integer is refused with the flag and the
    # item named, not with int()'s own message
    "coeffs-indices-non-integer": (["coeffs", "--family", "overcubic", "--indices", "3,x"], None),
    "expand-factors-non-integer": (["expand", "--factors", "1:x", "--order", "5"], None),
    "expand-factors-no-exponent": (["expand", "--factors", "1", "--order", "5"], None),
    # a scan checks every modulus by the engine's rule before its first build
    "scan-moduli-odd-part-above-2-15": (
        ["scan", "--family", "partition", "--max-m", "5", "--moduli", "4,65537", "--n-min", "150"],
        None,
    ),
    "scan-moduli-1": (
        ["scan", "--family", "partition", "--max-m", "5", "--moduli", "1,4", "--n-min", "150"],
        None,
    ),
    # --progression is two integers m,j, in verify as in coeffs
    "coeffs-progression-one-value": (
        ["coeffs", "--family", "overcubic", "--progression", "2"], None
    ),
    "verify-progression-one-value": (
        ["verify", "--family", "overcubic", "--progression", "2", "--mod", "4",
         "--n-limit", "10"], None
    ),
    "verify-progression-three-values": (
        ["verify", "--family", "overcubic", "--progression", "2,1,3", "--mod", "4",
         "--n-limit", "10"], None
    ),
    # a claim's progression follows the rule coeffs and dissect follow
    "verify-progression-m-0": (
        ["verify", "--family", "overcubic", "--progression", "0,0", "--mod", "4",
         "--n-limit", "10"], None
    ),
    "verify-progression-offset-not-below-m": (
        ["verify", "--family", "overcubic", "--progression", "4,9", "--mod", "4",
         "--n-limit", "10"], None
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
    # a bound that no selected suite reads is refused, not dropped
    "lacunary-n-limit": (["paper-suite", "--theorem", "lacunary", "--n-limit", "5"], None),
    "suite-9-n-limit": (["paper-suite", "--theorem", "9", "--n-limit", "5"], None),
    "suite-1-alpha-limit": (["paper-suite", "--theorem", "1", "--alpha-limit", "3"], None),
    "suite-1-order": (["paper-suite", "--theorem", "1", "--order", "300"], None),
    "dissections-n-limit": (["paper-suite", "--theorem", "dissections", "--n-limit", "5"], None),
    "certificate-alpha-limit-0": (
        ["paper-suite", "--theorem", "certificate", "--alpha-limit", "0"], None
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
    # the count at n = 40 of a larger k would have more digits than Python prints
    "oracle-k-above-cap": (
        ["oracle", "--family", "overcubic-ktuple", "--k", str((1 << 360) + 1), "--max-n", "40"],
        None,
    ),
    "expand-k-with-factors": (["expand", "--factors", "1:-1", "--k", "5", "--order", "5"], None),
    # f1 * f1^-1 is 1, not the last factor given for delta 1
    "expand-repeated-delta": (["expand", "--factors", "1:1,1:-1", "--order", "6"], None),
    # the enumeration ceiling is a constant, oracle.MAX_N
    "oracle-cap": (["oracle", "--family", "overcubic", "--max-n", "41", "--cap", "41"], None),
    # dissect --mod and identity claims with a modulus take the residue
    # route, whose odd part stops at 2^15
    "dissect-mod-odd-part-above-2-15": (
        ["dissect", "--family", "overcubic", "--m", "2", "--j", "0", "--order", "10",
         "--mod", "1048577"], None
    ),
    "identity-modulus-odd-part-above-2-15": (
        ["identity", "--catalog", "{file}"],
        [{"name": "x", "lhs": {"sum": [{"factors": {"1": -1}}]},
          "rhs": {"sum": [{"factors": {"1": -1}}]}, "modulus": 65537}],
    ),
    # dissect checks its progression and order before it expands
    "dissect-offset-not-below-m": (
        ["dissect", "--family", "overcubic-triple", "--m", "2", "--j", "5", "--order", "20000"],
        None,
    ),
    "dissect-order-0": (
        ["dissect", "--family", "overcubic-triple", "--m", "3", "--j", "1", "--order", "0"], None
    ),
    "coeffs-negative-index": (["coeffs", "--family", "overcubic", "--indices", "3,-1"], None),
    "identity-unknown-name": (
        ["identity", "--catalog", "identities/lemma_dissections.json", "--name", "nope"], None
    ),
    "identity-missing-catalog": (["identity", "--catalog", "{dir}/missing.json"], None),
    "certificate-missing-file": (["certificate", "--cert", "{dir}/missing.json"], None),
    "verify-mod-1": (
        ["verify", "--family", "overcubic-triple", "--progression", "8,7", "--mod", "1",
         "--n-limit", "10"], None
    ),
    "verify-negative-alpha": (
        ["verify", "--family", "overcubic-triple", "--progression", "8,7", "--mod", "64",
         "--n-limit", "10", "--alpha", "-1"], None
    ),
    "density-mod-1": (["density", "--family", "overcubic-triple", "--mod", "1"], None),
    "oracle-unknown-family": (["oracle", "--family", "bogus"], None),
    # an exact claim is refused on the terms it builds, f2^6 and f1^6 over
    # the common f-product f1^-6 f2^-6, before it allocates
    "identity-exact-ceiling": (
        ["identity", "--catalog", "{file}", "--order", "200000"],
        [{"name": "x", "lhs": {"sum": [{"factors": {"1": -6}}]},
          "rhs": {"sum": [{"factors": {"2": -6}}]}}],
    ),
    # a build's passes grow with |r|, not with the order: refused before any
    # pass, exactly and mod 3
    "expand-exact-pass-work": (["expand", "--factors", "1:1000000000", "--order", "10"], None),
    "expand-mod-pass-work": (
        ["expand", "--factors", "1:3000000", "--order", "10", "--mod", "3"], None
    ),
    # the estimate covers the window [qpower, order), so the message counts it
    "expand-exact-ceiling-negative-qpower": (
        ["expand", "--factors", "1:-1", "--order", "5", "--qpower", "-99999999"], None
    ),
    # argparse drops the value of --flag=-- and stored [], which raised a
    # traceback, or with --output wrote the report to stdout
    "expand-factors-double-dash": (["expand", "--factors=--", "--order", "20"], None),
    "expand-order-double-dash": (["expand", "--family", "overcubic", "--order=--"], None),
    "scan-moduli-double-dash": (
        ["scan", "--family", "partition", "--max-m", "5", "--moduli=--", "--n-min", "150"], None
    ),
    "paper-suite-theorem-double-dash": (["paper-suite", "--theorem=--"], None),
    "verify-output-double-dash": (
        ["verify", "--family", "overcubic", "--progression", "8,7", "--mod", "4",
         "--n-limit", "3", "--output=--"], None
    ),
    "verify-job-double-dash": (
        ["verify", "--job=--", "--family", "overcubic", "--progression", "8,7", "--mod", "4",
         "--n-limit", "3"], None
    ),
}

MALFORMED = [
    "catalog-object", "catalog-entry-without-lhs", "certificate-without-base",
    "identity-float-exponent", "identity-bool-exponent", "identity-float-coefficient",
    "identity-float-qpower", "identity-float-modulus", "identity-float-progression",
    "identity-float-family-k", "identity-mixed-names", "certificate-float-m",
    "certificate-half-coefficient",
]

UNREAD_BOUND = [
    "lacunary-n-limit", "suite-9-n-limit", "suite-1-alpha-limit", "suite-1-order",
    "dissections-n-limit", "certificate-alpha-limit-0",
]
PROGRESSION_ARITY = [
    "coeffs-progression-one-value", "verify-progression-one-value",
    "verify-progression-three-values",
]

# rows whose message is pinned beyond "error:"
BAD_INPUT_MESSAGES = {
    **dict.fromkeys(MALFORMED, "malformed"),
    **dict.fromkeys(UNREAD_BOUND, "no selected suite reads"),
    **dict.fromkeys(PROGRESSION_ARITY, "--progression takes two integers m,j"),
    "coeffs-progression-offset-not-below-m": "0 <= j < m",
    "coeffs-progression-negative-n-limit": "--n-limit must be >= 0",
    "coeffs-no-index": "no index given",
    "coeffs-indices-empty-item": "--indices has an empty item in '3,,5'",
    "verify-progression-empty-items": "--progression has an empty item in ',8,,7,'",
    "scan-moduli-trailing-comma": "--moduli has an empty item in '2,4,'",
    "density-x-grid-empty-item": "--x-grid has an empty item in '100,,1000'",
    "coeffs-indices-n-limit": "--n-limit bounds --progression; --indices reads no bound",
    "job-list-value": "input.json: the value of 'progression' must be a number or a string,"
    " not list [8, 7]",
    "job-object-value": "input.json: the value of 'mod' must be a number or a string,"
    " not dict {\"value\": 4}",
    "job-null-value": "input.json: the value of 'output' must be a number or a string,"
    " not NoneType null",
    "job-bool-value": "input.json: the value of 'output' must be a number or a string,"
    " not bool true",
    "expand-factors-empty-item": "--factors has an empty item in '1:1,,2:3'",
    "coeffs-indices-non-integer": "--indices item 'x' is not an integer",
    "expand-factors-non-integer": "--factors item '1:x' is not two integers delta:r",
    "expand-factors-no-exponent": "--factors item '1' is not two integers delta:r",
    "scan-moduli-odd-part-above-2-15": "UnsupportedModulus: modulus 65537 outside the residue range",
    "scan-moduli-1": "modulus must be >= 2",
    "verify-progression-m-0": "m must be >= 1",
    "oracle-k-above-cap": f"CapExceeded: k={(1 << 360) + 1} above enumeration cap 2^360\n",
    "verify-progression-offset-not-below-m": "0 <= j < m",
    "identity-exact-ceiling": "above the exact-path ceiling",
    "expand-exact-pass-work": "above the pass-work ceiling",
    "expand-mod-pass-work": "above the pass-work ceiling",
    "expand-exact-ceiling-negative-qpower": "exact expansion of 100000004 coefficients needs about",
    "expand-factors-double-dash": "error: --factors needs a value, not '--'",
    "expand-order-double-dash": "error: --order needs a value, not '--'",
    "scan-moduli-double-dash": "error: --moduli needs a value, not '--'",
    "paper-suite-theorem-double-dash": "error: --theorem needs a value, not '--'",
    "verify-output-double-dash": "error: --output needs a value, not '--'",
    "verify-job-double-dash": "error: --job needs a value, not '--'",
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
    assert BAD_INPUT_MESSAGES.get(case, "") in captured.err


@pytest.mark.parametrize(
    "argv",
    [["identity", "--catalog", "{file}"], ["verify", "--job", "{file}"]],
    ids=["catalog", "job"],
)
def test_json_nested_too_deep_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([a.format(file=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: maximum recursion depth exceeded" in captured.err


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

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


@pytest.mark.parametrize(
    "command,code",
    [
        ("coeffs --family overcubic-triple --progression 8,7 --n-limit 10", 0),
        ("verify --family overcubic-triple --progression 8,7 --mod 64 --n-limit 100", 0),
        ("verify --family overcubic-triple --progression 4,1 --mod 4 --n-limit 10", 1),
        ("scan --family partition --max-m 5 --moduli 5,7 --n-min 150", 0),
        ("density --family overcubic-triple --mod 384 --x-grid 100,1000", 0),
        ("oracle --family overcubic --max-n 6", 0),
        ("paper-suite --theorem 9 --order 300", 0),
    ],
    ids=["coeffs", "verify-pass", "verify-fail", "scan", "density", "oracle", "paper-suite"],
)
def test_a_json_report_builds_no_csv(monkeypatch, capsys, command, code):
    def no_csv(*args):
        raise AssertionError("CSV text built for a JSON report")

    monkeypatch.setattr(cli, "to_csv", no_csv)
    monkeypatch.setattr(density, "to_csv", no_csv)
    assert main(command.split()) == code
    assert json.loads(capsys.readouterr().out)["command"] == command.split()[0]


# an identity catalog whose first entry, checked mod 4, is the larger build
MOD4_THEN_UNSERVED = [
    {"name": "even-part-mod4", "lhs": {"family": {"name": "overcubic-triple"}},
     "lhs_progression": [2, 0], "modulus": 4,
     "rhs": {"sum": [{"factors": {"2": 3, "4": 15, "1": -18, "8": -6}}]}},
    {"name": "unserved", "lhs": {"sum": [{"factors": {"1": -1}}]},
     "rhs": {"sum": [{"factors": {"1": -1}}]}, "modulus": 65537},
]


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["scan", "--family", "overcubic-ktuple", "--k", "5", "--max-m", "64", "--moduli",
          f"{1 << 40},65537", "--n-min", "2000"], None, "UnsupportedModulus: modulus 65537"),
        (["identity", "--catalog", "{file}", "--order", "300000"], MOD4_THEN_UNSERVED,
         "UnsupportedModulus: modulus 65537"),
        (["certificate", "--cert", "{file}"], {**CERT, "m": 0}, "m must be >= 1"),
        (["certificate", "--cert", "{file}"], {**CERT, "orbit": [7, 8]}, "0 <= j < m"),
        # order 3.8M is below MAX_ORDER, but the (m, j) loop would make 180M checks
        (["scan", "--family", "partition", "--max-m", "19000", "--moduli", "2", "--n-min", "100"],
         None, "above the scan-work ceiling"),
        # one build of the triple's 4 passes is admitted near MAX_ORDER, ten
        # rings of them (one per odd modulus) are not
        (["scan", "--family", "overcubic-triple", "--max-m", "2", "--moduli",
          "3,5,7,9,11,13,15,17,19,21", "--n-min", "999999"], None, "above the pass-work ceiling"),
    ],
    ids=["scan-unserved-modulus", "catalog-unserved-modulus", "certificate-m-0",
         "certificate-orbit-not-below-m", "scan-work", "scan-ring-builds"],
)
def test_a_claim_is_refused_when_it_is_made_before_any_build(
    monkeypatch, tmp_path, capsys, argv, content, message
):
    def no_build(*args):
        raise AssertionError("expanded before the claim was checked")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(json.dumps(content))
    assert main([a.format(file=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("mod", [[], ["--mod", "4"]], ids=["exact", "mod"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--m", "0", "--j", "5", "--order", "20000"],
        ["--m", "2", "--j", "5", "--order", "20000"],
        ["--m", "2", "--j", "5", "--order", "1000000"],
        ["--m", "2", "--j", "-1", "--order", "20000"],
        ["--m", "3", "--j", "1", "--order", "0"],
    ],
    ids=["m-0", "j-above-m", "j-above-m-deep", "j-negative", "order-0"],
)
def test_dissect_refuses_a_bad_progression_before_any_expansion(monkeypatch, capsys, flags, mod):
    def no_build(*args):
        raise AssertionError("expanded before the progression check")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    assert main(["dissect", "--family", "overcubic-triple", *flags, *mod]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


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


# argv, and the largest order an exact build may reach (None for no bound).
# Identity claims with a modulus take the residue route, so in the
# identity run only the four-term identity, which has none, builds
# exactly, and only to --order.
BUILD_COUNT_RUNS = [
    (["paper-suite", "--theorem", "all", "--n-limit", "30", "--alpha-limit", "2",
      "--order", "400"], None),
    (["identity", "--catalog", "identities/congruence_identities.json", "--order", "200"], 200),
]


@pytest.mark.parametrize("argv,exact_cap", BUILD_COUNT_RUNS, ids=["paper-suite-all", "identity"])
def test_every_expansion_is_built_once_per_run(monkeypatch, capsys, argv, exact_cap):
    builds = []
    exact_orders = []
    cached = etaq._cached

    def recording(key, n, build):
        def counted(limit):
            # the memo key is (factors, ring); ring None is Z, the exact route
            builds.append(key)
            if key[1] is None:
                exact_orders.append(limit)
            return build(limit)

        return cached(key, n, counted)

    monkeypatch.setattr(etaq, "_cached", recording)
    monkeypatch.setattr(etaq, "_memo", {})
    assert main(argv) == 0
    capsys.readouterr()
    assert builds and len(builds) == len(set(builds)), sorted(builds)
    if exact_cap is not None:
        assert exact_orders and max(exact_orders) <= exact_cap, exact_orders


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


# -- every route for outside input, fuzzed -----------------------------------------

# no "/" in fuzzed text, so a fuzzed --output stays in the working directory
_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:,-+. ", max_size=6)
# integers are bounded so that a valid-looking case stays a small expansion
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5,
)
_IDENTITIES = [
    json.loads(catalogs.read_text("identities/congruence_identities.json"))[1],
    json.loads(catalogs.read_text("identities/lemma_dissections.json"))[0],
]


def _paths(node, path=()):
    """The path of node and of every value inside it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(value, (*path, key))


def _replaced(node, path, value):
    if not path:
        return value
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


def _fuzzed(argv, base):
    """(argv, file content, content is a catalog): base with any JSON value at any path."""
    return st.builds(
        lambda path, value: (argv, _replaced(base, path, value), True),
        st.sampled_from(list(_paths(base))),
        _JSON,
    )


_JOB = {"family": "overcubic-ktuple", "k": 3, "progression": "8,7", "mod": 4, "n_limit": 10}
_JOB_KEYS = st.sampled_from([*_JOB, "alpha", "status", "output", "format"]) | _TEXT
_JOB_VALUES = st.integers(-2, 6) | st.sampled_from(["overcubic", "2,1", "csv"]) | _JSON
# (argv, the JSON written to {file}, whether that JSON is a catalog)
_FUZZ_CASES = st.one_of(
    _fuzzed(["identity", "--catalog", "{file}", "--order", "30"], _IDENTITIES),
    _fuzzed(["certificate", "--cert", "{file}", "--order", "60"], CERT),
    st.text(alphabet="0123456789:,- ", max_size=8).map(
        lambda text: (["expand", "--factors=" + text, "--order", "20"], None, False)
    ),
    st.dictionaries(_JOB_KEYS, _JOB_VALUES, max_size=3).map(
        lambda update: (["verify", "--job", "{file}"], {**_JOB, **update}, False)
    ),
)


def _has_float(node) -> bool:
    if isinstance(node, dict):
        node = list(node.values())
    return isinstance(node, float) or isinstance(node, list) and any(map(_has_float, node))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_FUZZ_CASES)
@example(case=(["expand", "--factors=--", "--order", "20"], None, False))
def test_outside_input_exits_0_1_or_2(tmp_path, monkeypatch, capsys, case):
    """Any catalog value, --factors text or --job object ends in exit 0, 1
    or 2, never in a traceback; a catalog holding a non-integer number ends
    in 2."""
    argv, content, is_catalog = case
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    try:
        code = main([a.format(file=path) for a in argv])
    except SystemExit as exc:  # argparse refuses a bad flag this way
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)
    if is_catalog and _has_float(content):
        assert code == 2


# the report bytes of test_report_bytes.py's every-suite row; re-pinned with
# it when every checked record gained its `verdict`
_ALL_SUITES = ["paper-suite", "--theorem", "all", "--n-limit", "20", "--alpha-limit", "1",
               "--order", "300"]
_ALL_SUITES_DIGEST = "117850723db2da03846607835239279dc9b1acf140d8c007f83540369d209a58"


def test_working_directory_files_do_not_redefine_the_paper(tmp_path, monkeypatch, capsys):
    # decoys at every packaged name the family table and the suites read: a
    # triple that is 1/f1, identities that are false and a certificate whose
    # polynomial is off by one
    false_identity = one_identity(rhs={"sum": [{"factors": {"2": 1}}]})
    decoys = {
        "families/catalog.json": [{"name": "overcubic-triple", "qpower": 0, "factors": {"1": -1}}],
        "identities/lemma_dissections.json": false_identity,
        "identities/congruence_identities.json": false_identity,
        "identities/theta_dissections.json": false_identity,
        "certs/bt_8n7.json": {**CERT, "polynomial": [CERT["polynomial"][0] + 1,
                                                     *CERT["polynomial"][1:]]},
    }
    for name, content in decoys.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(json.dumps(content))
    monkeypatch.chdir(tmp_path)
    catalogs.family_table.cache_clear()  # read the table from here, not from an earlier call
    try:
        code, out = run_cli(capsys, *_ALL_SUITES)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == _ALL_SUITES_DIGEST
        code, out = run_cli(
            capsys, "verify", "--family", "overcubic-triple", "--progression", "8,7",
            "--mod", "64", "--n-limit", "10"
        )
        assert code == 0
    finally:
        catalogs.family_table.cache_clear()
