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
    # re-pinned when every checked record gained its `verdict`, a CSV column here
    ("verify --family overcubic-triple --progression 8,7 --mod 64 --n-limit 100 --format csv", 0,
     "ae9a7fdf408509a85b6e79f2204d27c2911c3e5f58c814b02ca4fcce1093e05c"),
    # re-pinned when every checked record gained its `verdict`
    ("verify --family overcubic-triple --progression 4,1 --mod 4 --n-limit 10", 1,
     "ccdc3a27b86aea4e88c8f22e1a1818d1a1bfaa1bb9240f36b9b87eb967f8ce10"),
    ("scan --family partition --max-m 5 --moduli 5,7 --n-min 150", 0,
     "d57c6acb72aeb0ef72cc4e9b18f4b9bc22915003de2a6be3c3293e75002362de"),
    # leading residue 1, so folding the valuation leaves this report alone
    ("dissect --family overcubic-triple --m 2 --j 0 --order 10 --mod 4", 0,
     "79b5d884fb70b899f4a4c909478c6d36635a1dfbf8014c1938c74a4c65511530"),
    # re-pinned when every checked record gained its `verdict`
    ("identity --catalog identities/theta_dissections.json --order 300", 0,
     "9fafd5c4805a14b2f3de82fcf6f66603a5ade775931db2b78969bb241a597dd8"),
    # re-pinned when every checked record gained its `verdict`
    ("certificate --order 100", 0,
     "aa22489dea19bcd725fa2166ab53481c441883e82fad7781e38b2d3e2cb94f3f"),
    ("density --family overcubic-triple --mod 384 --x-grid 100,1000 --format csv", 0,
     "3629a1c7b97d5dd07379f113f4201331b092694286d8e28974b3553fcdb9099b"),
    ("oracle --family overcubic --max-n 6", 0,
     "61a4e345d41ed2ab74e2fe64d84a057fcaf741f8c71baa16c3cb5b9d47e05472"),
    # re-pinned when every checked record gained its `verdict`, the suite echo
    # lost its label and suite 9 became identity claims: no family, k or status,
    # orders {lhs, rhs}, and n_checked is the order
    ("paper-suite --theorem 9 --order 300", 0,
     "a49e84a9323479772aacf90e2b1a716634e9f7f41ad5fe42af143f59c1bdaafe"),
    # re-pinned when every checked record gained its `verdict` and suite 9
    # became identity claims, whose family, k and status cells are empty
    ("paper-suite --theorem 9 --order 300 --format csv", 0,
     "8023738e04a190a37e8a0ef4a6d722f61ab48eca3461c2ba546f6b90e7af715f"),
    # first recorded before the pass-through layers went; re-pinned when every
    # checked record gained its `verdict`, a conjecture record's status became
    # its claim's, `conjectured`, and the suite echo lost its label
    ("paper-suite --theorem conjecture-1 --n-limit 20 --alpha-limit 2", 0,
     "0905c5cb4c5cc4928a075bac4c1d42ae26bdc347f2d1757f8379e2641604568d"),
    # the tuple lengths and primes of these suites are constants; re-pinned
    # when every checked record gained its `verdict` and the suite echo lost
    # its label
    ("paper-suite --theorem 5 --n-limit 20", 0,
     "59b676fe0b022df88a290bd823ea95fc9ad2d25d82e41a0bab61e6ff1c0e0407"),
    # re-pinned when every checked record gained its `verdict` and the
    # suite echo lost its label
    ("paper-suite --theorem mod4-progressions --n-limit 20", 0,
     "f74a5081e081143602dffee4dab243212399df70f10508175001f111cf88c3ed"),
    # cotron_check reads an FMonomial; re-pinned when every checked record
    # gained its `verdict`, `criterion` on the divisibility criteria, and the
    # density trends' status became proved-in-paper
    ("paper-suite --theorem lacunary", 0,
     "148641bc4e75a76e31ede9fccbcd81ee49b3cb27ad6b3a0f801d97ec0c4be630"),
    # a family left side is a one-term sum; re-pinned when every checked
    # record gained its `verdict`
    ("identity --catalog identities/congruence_identities.json --order 200", 0,
     "c03135759ea3ad707454d2bff97fcac76c4d0791d6fadd6d15f2898d8bb04de3"),
    # oracle.table in place of the counter object
    ("oracle --family overcubic-ktuple --k 3 --max-n 10 --format csv", 0,
     "8ccd377c4c8c3ad67a72bd91a68cb3263b64ca040bc8f39ca35e98867b62e7d0"),
    # every suite in one run, first recorded before the suites moved into one
    # table and one largest-first pass; re-pinned when every checked record
    # gained its `verdict`, with every change of the suite rows above
    ("paper-suite --theorem all --n-limit 20 --alpha-limit 1 --order 300", 0,
     "117850723db2da03846607835239279dc9b1acf140d8c007f83540369d209a58"),
    # re-pinned when every checked record gained its `verdict`, with every
    # change of the suite rows above
    ("paper-suite --theorem all --n-limit 20 --alpha-limit 1 --order 300 --format csv", 0,
     "aa3af76f3b88b2533c335eaae83f0505b0edfaa9d125dc42ba445da8eb86f9c3"),
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
    # recorded while to_json joined every encoder chunk at once: 6,433
    # exceptions span more than one batch of the batched join
    ("density --family overcubic-triple --mod 384 --x-grid 1000,10000", 0,
     "a1443715c066a0f88f7a5897109f687704a392dcd215d917c739b45da4a0dbc2"),
    # first recorded while claims without a progression expanded their stated
    # sides, division passes included; re-pinned when every checked record
    # gained its `verdict`
    ("identity --catalog identities/lemma_dissections.json --order 500", 0,
     "903909a6e929325685b1cf47083a5f8bf86c770366f64a07f6a79d1472d9bbb8"),
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
