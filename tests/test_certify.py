import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ts
from overcubic import catalogs, certify, etaq, oracle
from overcubic.catalogs import certificate_from_dict, load_certificate
from overcubic.certify import RaduCertificate, verify_certificate
from overcubic.errors import InsufficientPrecision
from overcubic.series import TruncatedSeries, add, constant, mul


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


def test_trailing_zero_coefficient_leaves_the_record_unchanged(cert):
    padded = dataclasses.replace(cert, name="padded", polynomial=cert.polynomial + (0,))
    assert padded.polynomial_degree() == 15
    expected = dataclasses.replace(verify_certificate(cert, 120), name="padded")
    assert verify_certificate(padded, 120) == expected


def test_a_hauptmodul_expansion_one_coefficient_short_is_refused(cert, monkeypatch):
    expand = etaq.expand

    def short(terms, n, modulus=None):
        s = expand(terms, n, modulus)
        if terms == cert.hauptmodul:
            return TruncatedSeries(s.valuation, s.coeffs[:-1], s.order - 1)
        return s

    monkeypatch.setattr(etaq, "expand", short)
    with pytest.raises(InsufficientPrecision, match="planned orders insufficient"):
        verify_certificate(cert, 120)


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


def test_non_singleton_basis_rejected():
    widened = {**json.loads(catalogs.read_text("certs/bt_8n7.json")), "basis": ["1", "t"]}
    with pytest.raises(ValueError, match="basis"):
        certificate_from_dict(widened)


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


# -- evaluating p(t) ----------------------------------------------------------------


def horner(poly, deg, t):
    """The reference route for certify._poly_eval: Horner, highest
    coefficient first, starting from a constant that carries the pole's
    slack."""
    slack = max(0, -t.valuation)
    acc = constant(poly[deg], t.order + slack)
    for i in range(deg - 1, -1, -1):
        acc = mul(acc, t)
        if poly[i]:
            acc = add(acc, constant(poly[i], acc.order))
    return acc


_BIG = st.integers(-(1 << 300), 1 << 300)
_POLYS = st.lists(st.just(0) | _BIG, min_size=1, max_size=21)
_HAUPTMODULS = st.builds(
    lambda valuation, lead, rest: ts([lead, *rest], valuation),
    st.integers(-2, 1),
    _BIG.filter(bool),
    st.lists(st.just(0) | _BIG, max_size=24),
)


@given(_POLYS, _HAUPTMODULS)
@settings(max_examples=200, deadline=None)
def test_paterson_stockmeyer_matches_horner(poly, t):
    deg = max((i for i, c in enumerate(poly) if c), default=0)
    fast = certify._poly_eval(tuple(poly), deg, t)
    ref = horner(poly, deg, t)
    both = min(fast.order, ref.order)
    lo = min(fast.valuation, ref.valuation, both)
    assert fast.window(lo, both) == ref.window(lo, both)
    if t.valuation < 0:  # a pole: trusted as far as Horner, the order the plan needs
        assert fast.order >= ref.order


def test_paterson_stockmeyer_takes_six_products_for_degree_15(cert, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    t = ts(range(1, 40), -1)
    monkeypatch.setattr(certify, "mul", counted)
    certify._poly_eval(cert.polynomial, 15, t)
    assert len(calls) == 6  # t^2, t^3, t^4 and three giant steps; Horner takes 15


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_shipped_certificate_reads_the_same_by_horner(cert, monkeypatch, n):
    fast = verify_certificate(cert, n)
    monkeypatch.setattr(certify, "_poly_eval", horner)
    assert fast.passed and verify_certificate(cert, n) == fast
