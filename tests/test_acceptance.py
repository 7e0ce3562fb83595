"""Acceptance suite: one test group per shipped criterion.

Every check runs at its stated order and tolerance (all integer-exact);
the terminal summary prints one PASS/FAIL line per criterion, aggregated
over the tests named test_c<criterion>_*.
"""
import time
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f_series, interleave, inv, one, power, sub, ts
from overcubic import congruence as cg
from overcubic import catalogs, density, dissect, etaq, oracle
from overcubic.catalogs import load_certificate
from overcubic.certify import verify_certificate
from overcubic.series import first_difference, mul, reduce_mod

TRIPLE = catalogs.Family("overcubic-triple")


# -- criterion 1: the ten fixed progressions, n <= 1000, under 60 s -------------


def test_c1_theorem1_suite_exact_and_fast():
    etaq._memo.clear()  # time the cold path honestly
    t0 = time.perf_counter()
    _, results = cg.run_suites(["1"], n_limit=1000)
    elapsed = time.perf_counter() - t0
    assert len(results) == 10
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert max(r.orders["expansion"] for r in results) == 32 * 1000 + 28 + 1
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


# -- criterion 2: the two 72-progressions, n <= 500 ------------------------------


def test_c2_mod128_and_mod384_progressions():
    _, results = cg.run_suites(["3"], n_limit=500)
    assert all(r.passed for r in results)
    assert {(r.claim["m"], r.claim["j"], r.claim["modulus"]) for r in results} == {
        (72, 21, 128),
        (72, 69, 384),
    }
    assert max(r.orders["expansion"] for r in results) == 72 * 500 + 69 + 1


# -- criterion 3: dilated families and both conjectures --------------------------


def test_c3_dilated_families():
    _, results = cg.run_suites(["2"], n_limit=200, alpha_limit=5)
    assert all(r.passed for r in results) and len(results) == 12


def test_c3_conjecture_evidence_is_labeled():
    for name, expected in (("conjecture-1", 6), ("conjecture-2", 13)):
        parameters, results = cg.run_suites([name], n_limit=200, alpha_limit=5)
        assert all(r.passed for r in results) and len(results) == expected
        assert "label" not in parameters[name]
        records = [r.to_record() for r in results]
        assert all(r["status"] == "conjectured" and r["verdict"] == "checked" for r in records)
        assert parameters[name]["alpha_limit"] == 5


# -- criterion 4: the seven-progression family for small tuples ------------------


def test_c4_odd_tuple_progressions():
    _, results = cg.run_suites(["5"], n_limit=500)
    assert all(r.passed for r in results) and len(results) == 28


# -- criterion 5: odd tuples match the single family mod 4 -----------------------


def test_c5_tuple_vs_single_mod4_to_2000():
    _, results = cg.run_suites(["9"], order=2000)
    assert all(r.passed for r in results) and len(results) == 3


def test_c5_exact_difference_reduces_to_zero():
    n = 2000
    tuple3 = etaq.expand(catalogs.Family("overcubic-ktuple", 3).monomial, n)
    single = etaq.expand(catalogs.Family("overcubic").monomial, n)
    assert reduce_mod(sub(tuple3, single), 4).is_zero()


# -- criterion 6: nonresidue progressions mod 4 ----------------------------------


def test_c6_nonresidue_progressions():
    _, results = cg.run_suites(["mod4-progressions"], n_limit=500)
    assert all(r.passed for r in results)
    assert len(results) == 22  # (1+2+3+5) nonresidues, two tuple sizes
    assert {r.claim["m"] for r in results} == {6, 10, 14, 22}


# -- criterion 7: identity catalogs at order 2000 --------------------------------


def test_c7_identity_catalogs_at_2000():
    names = []
    for ref in (
        "identities/lemma_dissections.json",
        "identities/congruence_identities.json",
        "identities/theta_dissections.json",
    ):
        results = dissect.verify_catalog(catalogs.load_identity_catalog(ref), 2000)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]
        names += [r.name for r in results]
    assert len(names) == 9


# -- criterion 8: the shipped certificate ----------------------------------------


@pytest.fixture(scope="module")
def certificate():
    return load_certificate("certs/bt_8n7.json")


def test_c8_certificate_verifies_at_300(certificate):
    result = verify_certificate(certificate, 300)
    assert result.passed
    g = result.claim["coefficient_gcd"]
    assert g % 64 == 0 and (g & -g) == 64  # two-part of the gcd is exactly 64


def test_c8_any_single_bit_flip_is_rejected(certificate):
    import dataclasses

    for i in range(1, len(certificate.polynomial)):
        poly = list(certificate.polynomial)
        poly[i] ^= 1
        bad = dataclasses.replace(certificate, polynomial=tuple(poly))
        assert not verify_certificate(bad, 300).passed, f"bit flip at t^{i} accepted"
    # flips that preserve the shared factor must still fail the identity
    for i in (1, 8, 15):
        poly = list(certificate.polynomial)
        poly[i] ^= 1 << 26
        bad = dataclasses.replace(certificate, polynomial=tuple(poly))
        result = verify_certificate(bad, 300)
        assert not result.passed and result.first_violation is not None


# -- criterion 9: series equals enumeration --------------------------------------


@pytest.mark.parametrize(
    "family,k",
    [("overcubic", 1), ("overcubic-pair", 1), ("overcubic-triple", 1),
     ("opt-ktuple", 1), ("opt-ktuple", 2)],
)
def test_c9_series_equals_enumeration(family, k):
    series = etaq.expand(catalogs.Family(family, k).monomial, 26)
    assert series.window(0, 26) == oracle.table(family, 25, k)


def test_c9_anchored_spot_values():
    assert inv(f_series(1, 6))[5] == 7  # seven partitions of five
    triple = etaq.expand(TRIPLE.monomial, 26)
    assert all(triple[n] % 2 == 0 for n in range(1, 26))


# -- criterion 10: density and the lacunarity criterion ---------------------------


def test_c10_mod2_density_is_exactly_one():
    report = density.compute_density(TRIPLE, 2, 0, [10_000])
    assert report.rows[0] == (10_000, 10_000, Fraction(1))


def test_c10_mod4_exception_set():
    report = density.compute_density(TRIPLE, 4, 0, [10_000])
    assert len(report.exceptions) == isqrt(10_000) + isqrt(5_000) == 170
    assert set(report.exceptions) == density.squares_and_twice_squares(10_000)
    assert density.exception_structure_check(1, 10_000)


def test_c10_density_trend_is_monotone():
    for e in (3, 4, 5, 6):
        report = density.compute_density(TRIPLE, 1 << e, 0, [100, 1000, 10_000])
        deltas = [row[2] for row in report.rows]
        assert deltas == sorted(deltas), f"mod 2^{e}: {deltas}"


def test_c10_divisibility_criterion_report():
    rep = etaq.cotron_check(catalogs.Family("overcubic-ktuple", 3).monomial, 2)
    assert rep.max_power_exponent == 2
    assert rep.prime_power == 4
    assert rep.bound_squared == Fraction(16)
    assert rep.lacunary


# -- criterion 11: randomized property suites, 200+ cases each --------------------

prop_settings = settings(max_examples=200, deadline=None)

coeff_lists = st.lists(st.integers(min_value=-99, max_value=99), min_size=0, max_size=30)


@st.composite
def unit_series(draw):
    lead = draw(st.sampled_from((1, -1)))
    return ts([lead] + draw(coeff_lists), valuation=draw(st.integers(-4, 4)))


@given(coeff_lists, st.integers(min_value=1, max_value=7))
@prop_settings
def test_c11_dissection_round_trip(coeffs, m):
    s = ts(coeffs)
    back = interleave([dissect.extract_progression(s, m, j) for j in range(m)])
    assert back.order >= s.order - m
    n = min(back.order, s.order)
    assert back.window(0, n) == s.window(0, n)


@given(unit_series())
@prop_settings
def test_c11_inverse_identity(a):
    prod = mul(a, inv(a))
    assert first_difference(prod, one(prod.order), prod.order) is None


@given(unit_series(), st.integers(min_value=-3, max_value=4), st.integers(min_value=-3, max_value=4))
@prop_settings
def test_c11_pow_additivity(a, m, n):
    combined = power(a, m + n)
    split = mul(power(a, m), power(a, n))
    k = min(combined.order, split.order)
    lo = min(combined.valuation, split.valuation, k)
    assert combined.window(lo, k) == split.window(lo, k)


@lru_cache(maxsize=None)
def _binomial_sides(p, l, k, n):
    lhs = power(f_series(k, n), p**l)
    rhs = power(f_series(p * k, n), p ** (l - 1))
    return reduce_mod(lhs, p**l), reduce_mod(rhs, p**l)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_c11_binomial_congruence_pinned_grid(p, l, k):
    lhs, rhs = _binomial_sides(p, l, k, 500)
    assert first_difference(lhs, rhs, 500) is None


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
)
@prop_settings
def test_c11_binomial_congruence_randomized(p, l, k):
    lhs, rhs = _binomial_sides(p, l, k, 120)
    assert first_difference(lhs, rhs, 120) is None
