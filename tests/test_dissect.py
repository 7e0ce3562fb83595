import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interleave, inv, ts
from overcubic import etaq
from overcubic.catalogs import Family, claim_from_dict, load_identity_catalog
from overcubic.dissect import (
    IdentityClaim,
    extract_progression,
    lhs_order,
    over_common_product,
    progression_order,
    verify_catalog,
    verify_identity,
)
from overcubic.errors import NegativeValuation
from overcubic.etaq import FMonomial, expand
from overcubic.series import first_difference, reduce_mod

TRIPLE = Family("overcubic-triple").monomial


def test_progression_order():
    assert progression_order(8, 7, 40) == 327
    assert progression_order(1, 0, 5) == 5
    assert progression_order(3, 2, 1) == 5
    # m < 1, j < 0, j >= m, n < 1
    for m, j, n in [(0, 0, 5), (-2, 1, 5), (3, -1, 5), (3, 3, 5), (2, 5, 20000), (3, 1, 0),
                    (3, 0, -4)]:
        with pytest.raises(ValueError):
            progression_order(m, j, n)


def test_lhs_order_is_the_progression_order():
    plain = IdentityClaim(name="plain", lhs=(TRIPLE,), rhs=(TRIPLE,))
    dissected = IdentityClaim(name="dissected", lhs=(TRIPLE,), rhs=(TRIPLE,),
                              lhs_progression=(4, 3))
    assert lhs_order(plain, 100) == 100
    assert lhs_order(dissected, 100) == 403
    for claim in (plain, dissected):
        with pytest.raises(ValueError):
            lhs_order(claim, 0)


def test_identity_dissection():
    s = ts([3, 1, 4, 1, 5])
    assert extract_progression(s, 1, 0) == s


def test_all_ones_series_fixed_by_odd_extraction():
    g = inv(ts([1, -1], order=40))
    assert first_difference(extract_progression(g, 2, 1), g, 20) is None


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
    st.integers(min_value=0, max_value=8),
)
@example([5, 0, 7], 4, 6)  # valuation above every offset j
@example([3], 6, 0)  # order 1, at or below every offset j >= 1
@example([], 5, 2)  # the zero series of order 2
@settings(deadline=None, max_examples=200)
def test_round_trip_through_all_classes(coeffs, m, valuation):
    s = ts(coeffs, valuation)
    parts = [extract_progression(s, m, j) for j in range(m)]
    # each part against the coefficients read one at a time, so that an
    # extraction and an interleave sharing one mistake cannot pass
    for j, part in enumerate(parts):
        assert part.order == len(range(j, s.order, m))
        assert part.window(0, part.order) == [s.coefficient(m * n + j) for n in range(part.order)]
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
    assert first_difference(reduce_mod(q4, 32), reduce_mod(q8, 32), 300) is None


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
    assert claim.lhs == (Family("overcubic-triple").monomial,)
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


def _frobenius_claim(p, c, r, d, modulus):
    """c*P*f_d^(p*r) against c*P*f_(pd)^r, which agree mod p because
    (1 - x)^p == 1 - x^p (mod p).  Below q^d both sides agree exactly; at
    q^d they differ by -c*p*r, so mod p^2 (or 36 for p = 3) with p not
    dividing c*r the first violation is exactly d."""
    P = {1: -3, 5: 2, 7: -1}
    lhs = FMonomial.make(c, 0, {**P, d: P.get(d, 0) + p * r})
    rhs = FMonomial.make(c, 0, {**P, p * d: P.get(p * d, 0) + r})
    return IdentityClaim(f"frobenius p={p} d={d} r={r}", (lhs,), (rhs,), modulus=modulus)


# (p, modulus, c, r, d): the word ring (a power of two), an odd ring, a CRT ring
FROBENIUS_RINGS = [(2, 4, 5, -1, 3), (3, 9, 2, 2, 2), (3, 36, 5, -1, 4)]


@pytest.mark.parametrize(
    "p,modulus,c,r,d", FROBENIUS_RINGS, ids=["word-mod-4", "odd-mod-9", "crt-mod-36"]
)
def test_frobenius_control_fails_at_d_on_every_residue_ring(p, modulus, c, r, d):
    n = 80
    control = _frobenius_claim(p, c, r, d, modulus)
    reference = [reduce_mod(expand(side, n), modulus) for side in (control.lhs, control.rhs)]
    assert first_difference(*reference, n) == d
    result = verify_identity(control, n)
    assert not result.passed and result.first_violation == d
    assert verify_identity(_frobenius_claim(p, c, r, d, p), n).passed


# -- identities over their common f-product --------------------------------------


def test_common_product_leaves_no_negative_exponent():
    lhs = (FMonomial.make(1, 0, {1: -2}),)
    rhs = (FMonomial.make(1, 0, {2: -5, 8: 5}), FMonomial.make(2, 1, {2: -5, 4: 2, 8: -1}))
    new_lhs, new_rhs = over_common_product(lhs, rhs)
    # m_1 = -2, m_2 = -5, m_4 = 0, m_8 = -1: each term times f1^2 f2^5 f8
    assert new_lhs == (FMonomial.make(1, 0, {2: 5, 8: 1}),)
    assert new_rhs == (FMonomial.make(1, 0, {1: 2, 8: 6}), FMonomial.make(2, 1, {1: 2, 4: 2}))
    # a factor every term carries to a positive power is divided out as well
    shared = over_common_product(
        (FMonomial.make(3, 0, {1: 2, 2: 1}),), (FMonomial.make(1, 2, {1: 3}),)
    )
    assert shared == ((FMonomial.make(3, 0, {2: 1}),), (FMonomial.make(1, 2, {1: 1}),))


def _term():
    return st.builds(
        FMonomial.make,
        st.integers(-3, 3),
        st.integers(0, 2),
        st.dictionaries(st.integers(1, 12), st.integers(-6, 6), max_size=3),
    )


def _side():
    return st.lists(_term(), min_size=1, max_size=3).map(tuple)


@st.composite
def _frobenius_positive(draw):
    """c*P*f_d^(p^l*r) == c*P*f_(pd)^(p^(l-1)*r) (mod p^l), true because
    (1 - x)^p == 1 - x^p (mod p), and a == b (mod p) gives a^p == b^p
    (mod p^2)."""
    p, level = draw(st.sampled_from([(2, 1), (2, 2), (3, 2)]))
    c = draw(st.sampled_from([c for c in range(-3, 4) if c % p]))
    r = draw(st.sampled_from([-2, -1, 1, 2]))
    d = draw(st.integers(1, 4))
    P = draw(st.dictionaries(st.integers(1, 12), st.integers(-6, 6), max_size=3))
    q = draw(st.integers(0, 2))

    def term(delta, e):
        return (FMonomial.make(c, q, {**P, delta: P.get(delta, 0) + e}),)

    modulus = p**level
    return term(d, modulus * r), term(p * d, modulus // p * r), modulus, True


_random_claim = st.tuples(
    _side(), _side(), st.sampled_from([None, 2, 4, 9, 36, 384]), st.just(False)
)


@given(st.one_of(_random_claim, _frobenius_positive()), st.integers(1, 300))
@settings(deadline=None, max_examples=200)
def test_common_product_keeps_the_verdict_of_the_stated_sides(claim, n):
    lhs, rhs, modulus, holds = claim
    result = verify_identity(IdentityClaim("random", lhs, rhs, modulus=modulus), n)
    stated = [expand(side, n) for side in (lhs, rhs)]
    if modulus is not None:
        stated = [reduce_mod(s, modulus) for s in stated]
    mismatch = first_difference(*stated, n)
    assert (result.passed, result.first_violation) == (mismatch is None, mismatch)
    assert result.passed or not holds


def test_identity_catalogs_verify_without_a_division_pass(monkeypatch):
    def no_division(*args):
        raise AssertionError("division pass on the identity path")

    monkeypatch.setattr(etaq, "_div_pass", no_division)
    monkeypatch.setattr(etaq, "_memo", {})
    claims = [
        *load_identity_catalog("identities/lemma_dissections.json"),
        *load_identity_catalog("identities/theta_dissections.json"),
    ]
    assert all(r.passed for r in verify_catalog(claims, 400))
    # mod 9 the Frobenius control first fails at q^d; mod 3 it holds
    control = verify_identity(_frobenius_claim(3, 2, 2, 2, 9), 80)
    assert (control.passed, control.first_violation) == (False, 2)
    assert verify_identity(_frobenius_claim(3, 2, 2, 2, 3), 80).passed
