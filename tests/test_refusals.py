"""Refusals that no CLI path reaches, of the library and of the reference
routes in conftest.py: each guard raises its own exception with a message
naming what was refused."""
import pytest

from conftest import dilate, interleave, phi, psi, sellers_product
from overcubic import catalogs, certify, congruence, density, etaq, oracle
from overcubic.catalogs import Family
from overcubic.errors import InsufficientPrecision, NegativeValuation
from overcubic.etaq import FMonomial
from overcubic.series import TruncatedSeries

ONE = TruncatedSeries.make(0, [1, 1], 2)
TRIPLE = Family("overcubic-triple")

REFUSALS = {
    "window-past-order": (lambda: ONE.window(0, 3), InsufficientPrecision, "trusted only below 2"),
    "expand-order-0": (lambda: etaq.expand(FMonomial(), 0), ValueError, "order must be >= 1"),
    "residue-array-order-0": (
        lambda: etaq.residue_array(TRIPLE.monomial, 0, 4), ValueError, "order must be >= 1"
    ),
    "monomial-zero-exponent": (
        lambda: FMonomial(1, 0, ((1, 0),)), ValueError, "zero exponents must not be stored"
    ),
    "monomial-unsorted-factors": (
        lambda: FMonomial(1, 0, ((2, 1), (1, 1))), ValueError, "factors must be sorted"
    ),
    "phi-order-0": (lambda: phi(0), ValueError, "order must be >= 1"),
    "psi-order-0": (lambda: psi(0), ValueError, "order must be >= 1"),
    "sellers-order-0": (lambda: sellers_product(1, 0), ValueError, "order must be >= 1"),
    "sellers-t-0": (lambda: sellers_product(0, 5), ValueError, "t must be >= 1"),
    "criterion-no-positive-exponent": (
        lambda: etaq.cotron_check(FMonomial.make(factors={1: -2}), 2),
        ValueError,
        "at least one positive eta exponent",
    ),
    "family-k-0": (lambda: Family("overcubic-ktuple", 0), ValueError, "k must be >= 1"),
    "family-unknown-name": (lambda: Family("bogus"), ValueError, "unknown family 'bogus'"),
    "catalog-factor-key-not-decimal": (
        lambda: catalogs.claim_from_dict(
            {"name": "x", "lhs": {"sum": [{"factors": {"x": 1}}]}, "rhs": {"sum": []}}
        ),
        TypeError,
        "are not all decimal strings",
    ),
    "claim-unknown-status": (
        lambda: congruence.CongruenceClaim(TRIPLE, m=8, j=7, modulus=4, status="guessed"),
        ValueError,
        "status must be one of",
    ),
    "required-order-negative-n-limit": (
        lambda: congruence.required_order(congruence.CongruenceClaim(TRIPLE, 8, 7, 4), -1),
        ValueError,
        "n_limit must be >= 0",
    ),
    "legendre-even-p": (lambda: congruence.legendre(1, 4), ValueError, "p must be an odd prime"),
    "nonresidue-p-below-3": (
        lambda: congruence.nonresidue_progressions(2, 0), ValueError, "p must be an odd prime >= 3"
    ),
    "nonresidue-negative-k": (
        lambda: congruence.nonresidue_progressions(3, -1), ValueError, "k must be >= 0"
    ),
    "exception-structure-negative-k": (
        lambda: density.exception_structure_check(-1, 10), ValueError, "k must be >= 0"
    ),
    "interleave-no-part": (lambda: interleave([]), ValueError, "need at least one part"),
    "interleave-negative-valuation": (
        lambda: interleave([TruncatedSeries.make(-1, [1, 1], 1)]),
        NegativeValuation,
        "valuation >= 0 parts",
    ),
    "dilate-m-0": (lambda: dilate(ONE, 0), ValueError, "dilation factor must be >= 1"),
    "oracle-k-0": (lambda: oracle.table("overcubic-ktuple", 5, 0), ValueError, "k must be >= 1"),
    "certificate-factor-0": (
        lambda: certify.RaduCertificate(
            "x", FMonomial(), 8, (7,), FMonomial(), FMonomial(), (1,), 0
        ),
        ValueError,
        "claimed common factor must be positive",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_library_guard_refuses_with_its_message(case):
    call, exception, message = REFUSALS[case]
    with pytest.raises(exception, match=message):
        call()
