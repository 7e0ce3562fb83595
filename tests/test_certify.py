import dataclasses

import pytest

from overcubic import oracle
from overcubic.certify import (
    RaduCertificate,
    certificate_from_dict,
    load_certificate,
    verify_certificate,
)
from overcubic.errors import InsufficientPrecision, UnsupportedBasis


@pytest.fixture(scope="module")
def cert() -> RaduCertificate:
    return load_certificate("certs/bt_8n7.json")


def test_shipped_certificate_verifies(cert):
    result = verify_certificate(cert, 120)
    assert result.passed
    assert result.claim["coefficient_gcd"] % 64 == 0


def test_certificate_leading_term_is_the_enumerated_count(cert):
    # valuations cancel so the lowest compared coefficient is the count at
    # index 7 times the top polynomial coefficient over the Hauptmodul lead
    assert cert.polynomial[-1] == oracle.table("overcubic-triple", 7)[7] == 9792


def test_polynomial_has_zero_constant_term(cert):
    # so both sides start strictly below q^0, at the Hauptmodul's top power
    assert cert.polynomial[0] == 0
    assert cert.polynomial_degree() == 15


def test_perturbed_polynomial_coefficient_fails(cert):
    poly = list(cert.polynomial)
    poly[5] += 64  # keeps the divisibility invariant, breaks the identity
    bad = dataclasses.replace(cert, polynomial=tuple(poly))
    result = verify_certificate(bad, 100)
    assert not result.passed
    assert result.first_violation is not None


def test_single_unit_increment_fails_divisibility_and_identity(cert):
    poly = list(cert.polynomial)
    poly[1] += 1
    bad = dataclasses.replace(cert, polynomial=tuple(poly))
    result = verify_certificate(bad, 100)
    assert not result.passed
    assert "common factor" in result.detail


def test_prefactor_valuation_perturbation_reports_mismatch(cert):
    shifted = dataclasses.replace(
        cert, prefactor=dataclasses.replace(cert.prefactor, qpower=-14)
    )
    result = verify_certificate(shifted, 100)
    assert not result.passed
    assert "valuation mismatch" in result.detail


def test_non_singleton_basis_rejected(cert):
    widened = dataclasses.replace(cert, basis=("1", "t"))
    with pytest.raises(UnsupportedBasis):
        verify_certificate(widened, 100)


def test_low_order_check_rejected(cert):
    with pytest.raises(InsufficientPrecision):
        verify_certificate(cert, 10)


def test_orbit_validation():
    with pytest.raises(ValueError):
        certificate_from_dict(
            {
                "name": "bad",
                "base": {"factors": {"1": -1}},
                "m": 8,
                "orbit": [],
                "prefactor": {"factors": {}},
                "hauptmodul": {"qpower": -1, "factors": {}},
                "polynomial": [0, 2],
                "claimed_common_factor": 2,
            }
        )
