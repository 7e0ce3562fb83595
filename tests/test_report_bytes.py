"""Report bytes of fast CLI commands, pinned by sha256.

Every subcommand appears at least once, in JSON and in CSV.  The table
was recorded before the residue series type was folded into
`TruncatedSeries`; a change that alters any row must say why it changes
the report.
"""
import hashlib
import json

import pytest

from overcubic.cli import main

REPORTS = [
    ("expand --family overcubic-triple --order 30 --mod 384", 0,
     "1010695e39526679dfdddeadcd40746f3031ad6e6f7d91d8b076a3b2c799fcef"),
    ("expand --factors 4:1,1:-2,2:-1 --qpower -1 --coefficient 3 --order 12", 0,
     "2a072c6d5bc27053d01a26a4232f135ed1e837c9528da772d8bdf32a7e3c7ede"),
    ("coeffs --family overcubic-triple --progression 8,7 --n-limit 10 --format csv", 0,
     "09910de8befab7d030768df4ab927dbc95d00a3842bf28a583ae592a26e2e4c3"),
    ("coeffs --family overcubic-triple --indices 0,5,100 --mod 64", 0,
     "5d176b1df850ba813abeb586ec1946433d74a256431f9aacee6e25b18a74f2a8"),
    ("verify --family overcubic-triple --progression 8,7 --mod 64 --n-limit 100 --format csv", 0,
     "cbecc83ef960f6dfe0499519b08a8a360fea2c4ee612c6e457e6213aeb3e44e4"),
    ("verify --family overcubic-triple --progression 4,1 --mod 4 --n-limit 10", 1,
     "084d31845e95cc4b1ac571a0f7fd6cb73e36ec0db0619f8af0d8948af98bf730"),
    ("scan --family partition --max-m 5 --moduli 5,7 --n-min 150", 0,
     "d57c6acb72aeb0ef72cc4e9b18f4b9bc22915003de2a6be3c3293e75002362de"),
    # leading residue 1, so folding the valuation leaves this report alone
    ("dissect --family overcubic-triple --m 2 --j 0 --order 10 --mod 4", 0,
     "79b5d884fb70b899f4a4c909478c6d36635a1dfbf8014c1938c74a4c65511530"),
    ("identity --catalog identities/theta_dissections.json --order 300", 0,
     "2226bd06a025190066d2597cefece362463fb801a821d3193e75e2eae0f8d225"),
    ("certificate --order 100", 0,
     "0e85edf990ec4f0c63e9f36be25a5b6b4d876fce95f23731cff8223b047d12e1"),
    ("density --family overcubic-triple --mod 384 --x-grid 100,1000 --format csv", 0,
     "3629a1c7b97d5dd07379f113f4201331b092694286d8e28974b3553fcdb9099b"),
    ("oracle --family overcubic --max-n 6", 0,
     "61a4e345d41ed2ab74e2fe64d84a057fcaf741f8c71baa16c3cb5b9d47e05472"),
    ("paper-suite --theorem 9 --order 300", 0,
     "49ba8d2261554f9dfd0653887a3d4170c69d4af46191cd0c87135495eed59b33"),
    ("paper-suite --theorem 9 --order 300 --format csv", 0,
     "823b9f2b0e05ced1f4002e635edb3c8ad4286aace3d1425ee80faafe77d8fe7a"),
    # the rows below were recorded before the pass-through layers went:
    # the conjecture label is set in the suite code, not in the CLI
    ("paper-suite --theorem conjecture-1 --n-limit 20 --alpha-limit 2", 0,
     "cbde8491dd74c6110896bb926359ba6179bef5ac8b4623804ebfe5b1cd084dae"),
    # the tuple lengths and primes of these suites are constants
    ("paper-suite --theorem 5 --n-limit 20", 0,
     "4696b731effb3bb32520031aea6a1af51853474375c90780604e58ee73ef271d"),
    ("paper-suite --theorem mod4-progressions --n-limit 20", 0,
     "d91a4698fd62730251c0cc54565c24acece34980dc3c1370d55fc05606282472"),
    # cotron_check reads an FMonomial
    ("paper-suite --theorem lacunary", 0,
     "d91a49e41975375832a3b92cd760e08b90675a2f993a2f8c4f210e90c5bfba55"),
    # a family left side is a one-term sum
    ("identity --catalog identities/congruence_identities.json --order 200", 0,
     "2dae0f26dac31d8b2251ebcbefd7959d8f50dc9ffbbb96b54acdceaa0374919a"),
    # oracle.table in place of the counter object
    ("oracle --family overcubic-ktuple --k 3 --max-n 10 --format csv", 0,
     "8ccd377c4c8c3ad67a72bd91a68cb3263b64ca040bc8f39ca35e98867b62e7d0"),
    # every suite in one run, recorded before the suites moved into one table
    # and one largest-first pass
    ("paper-suite --theorem all --n-limit 20 --alpha-limit 1 --order 300", 0,
     "c6d110d5a9c4df99127139ba5259e4f8ce182743b27ae1b2a616a16768459b86"),
    ("paper-suite --theorem all --n-limit 20 --alpha-limit 1 --order 300 --format csv", 0,
     "ad6a58e7e2bc88991c25797c81fc9eca56959ce6b867b9379d723e8de9e74624"),
    # recorded while dissect --mod reduced an exact expansion and the oracle
    # enumerated every base count once per n: an odd and a CRT modulus, a
    # shifted and scaled product, and a Laurent window mod an odd prime power
    ("dissect --family overcubic-triple --m 4 --j 3 --order 40 --mod 3", 0,
     "af07911acb5ba28d56191d5261b61cace82ec1679d05eb74850c0bda252ada1f"),
    ("dissect --family overcubic-triple --m 8 --j 7 --order 40 --mod 384", 0,
     "d161bb7c1934f249c3a9b86564eb8cbdd495adb999e17fe9a309399531d2cb0c"),
    ("dissect --factors 1:-3 --qpower 1 --coefficient 5 --m 3 --j 2 --order 30 --mod 3", 0,
     "233281d41b4fb96fbf5589408bc6c9d5dbdcf0ed5b74069c70081e1df9f4482d"),
    ("coeffs --factors 1:-3 --qpower -2 --indices 0,1,5 --mod 9", 0,
     "bc9bed5d2195bffd88f9dd246bb7278b1456fb00e5318cca603dd43cf8d79337"),
    ("oracle --family overcubic-triple --max-n 40 --format csv", 0,
     "954f00cae6cdcde7f73a0325292a7929dcaf184dddd5dca59e0d22201789003e"),
    ("oracle --family opt-ktuple --k 5 --max-n 40", 0,
     "67c99723b248019adf3e6f8ecd8b1d5c58911813442a5689097f010a3fcbe923"),
]


@pytest.mark.parametrize("command,code,digest", REPORTS, ids=[r[0] for r in REPORTS])
def test_report_bytes_are_pinned(capsys, command, code, digest):
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command",
    [
        "expand --factors 4:1,1:-2,2:-1 --coefficient 2 --order 6 --mod 2",
        "dissect --family overcubic --m 2 --j 1 --order 6 --mod 2",
    ],
    ids=["expand", "dissect"],
)
def test_all_zero_residue_window_has_valuation_at_order(capsys, command):
    assert main(command.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert not any(report["coefficients"])
    assert report["valuation"] == report["order"] == 6
