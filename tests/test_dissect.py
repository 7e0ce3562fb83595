import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ts
from overcubic.dissect import (
    IdentityClaim,
    claim_from_dict,
    extract_progression,
    interleave,
    load_identity_catalog,
    verify_catalog,
    verify_identity,
)
from overcubic.errors import NegativeValuation
from overcubic.etaq import Family, FMonomial, expand, family_monomial
from overcubic.series import equal_to_order, inv, reduce_mod

TRIPLE = family_monomial(Family("overcubic-triple"))


def test_identity_dissection():
    s = ts([3, 1, 4, 1, 5])
    assert extract_progression(s, 1, 0) == s


def test_all_ones_series_fixed_by_odd_extraction():
    g = inv(ts([1, -1], order=40))
    assert equal_to_order(extract_progression(g, 2, 1), g, 20)


def test_extraction_of_triple_progression_mod64():
    base = expand(TRIPLE, 8 * 40 + 7)
    part = extract_progression(base, 8, 7)
    assert part.order >= 40
    assert all(c % 64 == 0 for c in part.window(0, 40))


def test_rejects_principal_part():
    with pytest.raises(NegativeValuation):
        extract_progression(ts([1], valuation=-1), 2, 0)
    with pytest.raises(ValueError):
        extract_progression(ts([1, 2]), 2, 2)


def test_interleave_examples():
    s = ts([3, 1, 4, 1, 5, 9])
    assert interleave([s]) == s
    back = interleave([extract_progression(s, 2, 0), extract_progression(s, 2, 1)])
    assert back.window(0, back.order) == [3, 1, 4, 1, 5, 9][: back.order]
    assert interleave([ts([], order=4), ts([], order=4)]).is_zero()


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=40),
    st.integers(min_value=1, max_value=6),
)
@settings(deadline=None, max_examples=200)
def test_round_trip_through_all_classes(coeffs, m):
    s = ts(coeffs)
    parts = [extract_progression(s, m, j) for j in range(m)]
    back = interleave(parts)
    assert back.order >= s.order - m
    n = min(back.order, s.order)
    assert back.window(0, n) == s.window(0, n)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
)
@settings(deadline=None)
def test_extraction_is_linear(a_coeffs, b_coeffs, m, j):
    if j >= m:
        j = m - 1
    a, b = ts(a_coeffs), ts(b_coeffs)
    left = extract_progression(a + b, m, j)
    right = extract_progression(a, m, j) + extract_progression(b, m, j)
    n = min(left.order, right.order)
    assert left.window(0, n) == right.window(0, n)


# -- identity claims -------------------------------------------------------------


def test_catalog_lemma_identities_pass():
    claims = load_identity_catalog("identities/lemma_dissections.json")
    assert len(claims) == 4
    results = verify_catalog(claims, 600)
    assert all(r.passed for r in results)


def test_catalog_congruence_identities_pass():
    claims = load_identity_catalog("identities/congruence_identities.json")
    names = {c.name for c in claims}
    assert "overcubic-triple-four-term-expansion" in names
    results = verify_catalog(claims, 300)
    assert all(r.passed for r in results)


def test_corrupted_identity_reports_first_mismatch():
    good = load_identity_catalog("identities/lemma_dissections.json")[0]
    second = good.rhs[1]
    flipped = (good.rhs[0], FMonomial(-second.coefficient, second.qpower, second.factors))
    bad = IdentityClaim(name="corrupted", lhs=good.lhs, rhs=flipped)
    result = verify_identity(bad, 100)
    assert not result.passed
    assert result.first_violation == 1  # the odd-class term enters at q^1


def test_quarter_and_eighth_extractions_agree_mod32():
    base = expand(TRIPLE, 8 * 300)
    q4 = extract_progression(base, 4, 0)
    q8 = extract_progression(base, 8, 0)
    assert equal_to_order(reduce_mod(q4, 32), reduce_mod(q8, 32), 300)


def test_claim_from_dict_roundtrip():
    claim = claim_from_dict(
        {
            "name": "demo",
            "lhs": {"family": {"name": "overcubic-triple"}},
            "lhs_progression": [2, 0],
            "modulus": 4,
            "rhs": {"sum": [{"factors": {"2": 3, "4": 15, "1": -18, "8": -6}}]},
        }
    )
    assert claim.lhs == (family_monomial(Family("overcubic-triple")),)
    assert claim.lhs_progression == (2, 0)
    assert verify_identity(claim, 150).passed


def test_verify_identity_mod_distinguishes_exact():
    # the even-part identity holds mod 4 but not exactly
    claim = claim_from_dict(
        {
            "name": "exact-should-fail",
            "lhs": {"family": {"name": "overcubic-triple"}},
            "lhs_progression": [2, 0],
            "rhs": {"sum": [{"factors": {"2": 3, "4": 15, "1": -18, "8": -6}}]},
        }
    )
    assert not verify_identity(claim, 150).passed
