import tracemalloc
from fractions import Fraction
from math import log, pi, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import f_series, naive_euler_product
from overcubic import etaq, oracle
from overcubic.errors import NonIntegerWeight, UnsupportedModulus
from overcubic.etaq import (
    CriterionReport,
    Family,
    FMonomial,
    cotron_check,
    expand,
    family_monomial,
    phi,
    psi,
    residue_array,
    sellers_product,
)
from overcubic.series import add, dilate, equal_to_order, power, reduce_mod, scale, shift

TRIPLE = FMonomial.make(factors={4: 3, 1: -6, 2: -3})
SINGLE = FMonomial.make(factors={4: 1, 1: -2, 2: -1})


# -- single Euler products f_delta ---------------------------------------------


@pytest.mark.parametrize("delta", [1, 2, 3, 5, 8])
def test_expand_f_matches_naive_product(delta):
    n = 300
    got = f_series(delta, n)
    assert got.window(0, n) == naive_euler_product(delta, n)
    assert set(got.coeffs) <= {-1, 0, 1}


def test_expand_f_small_windows():
    assert f_series(1, 8).window(0, 8) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert f_series(2, 5).window(0, 5) == [1, 0, -1, 0, -1]
    assert equal_to_order(f_series(1, 1), f_series(2, 1), 1)  # both are 1 below q^1


# -- monomials and sums --------------------------------------------------------


def test_monomial_requires_distinct_deltas():
    with pytest.raises(ValueError):
        FMonomial(factors=((2, 1), (2, 3)))
    assert FMonomial.make(factors={3: 0, 2: 1}).factors == ((2, 1),)


def test_expand_monomial_overcubic_families_match_enumeration():
    got = expand(SINGLE, 12)
    assert got.window(0, 12) == oracle.table("overcubic", 11)
    got3 = expand(TRIPLE, 12)
    assert got3.window(0, 12) == oracle.table("overcubic-ktuple", 11, 3)
    assert got3[1] == 6  # the six triples holding a single 1 or overlined 1


def test_expand_monomial_laurent_prefactor():
    t = FMonomial.make(qpower=-1, factors={4: 12, 2: -4, 8: -8})
    s = expand(t, 10)
    assert s.valuation == -1 and s[-1] == 1 and s.order == 10


def test_expand_sum_four_term_identity():
    rhs = (
        FMonomial.make(factors={4: 3, 8: 15, 2: -18, 16: -6}),
        FMonomial.make(6, 1, {4: 5, 8: 9, 2: -18, 16: -2}),
        FMonomial.make(12, 2, {4: 7, 8: 3, 16: 2, 2: -18}),
        FMonomial.make(8, 3, {4: 9, 16: 6, 2: -18, 8: -3}),
    )
    assert equal_to_order(expand(rhs, 50), expand(TRIPLE, 50), 50)
    assert expand((), 10).is_zero()
    assert expand(rhs[:1], 50) == expand(rhs[0], 50)


@pytest.mark.parametrize("name,k", [("overcubic", 1), ("overcubic-pair", 1),
                                    ("overcubic-triple", 1), ("overcubic-ktuple", 4),
                                    ("opt-ktuple", 4), ("partition", 1), ("cubic", 1)])
def test_family_series_count_something(name, k):
    s = expand(family_monomial(Family(name, k)), 120)
    assert s[0] == 1
    assert all(c >= 0 for c in s.coeffs)


def test_ktuple_power_law():
    # k-fold convolution of the single series equals the k-tuple series
    n = 300
    single = expand(SINGLE, n)
    for k in (2, 3, 4):
        direct = expand(family_monomial(Family("overcubic-ktuple", k)), n)
        assert equal_to_order(direct, power(single, k), n)


monomials = st.builds(
    FMonomial.make,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-5, max_value=60),
    st.dictionaries(
        st.integers(min_value=1, max_value=16), st.integers(min_value=-7, max_value=7), max_size=4
    ),
)
RESIDUE_MODULI = (2, 64, 3, 9, 384, 6, 12, 96, 3 << 40, 32749 << 20, 1 << 63)


@given(
    st.lists(monomials, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(RESIDUE_MODULI),
)
@settings(max_examples=300, deadline=None)
def test_residue_expansion_agrees_with_exact(terms, n, modulus):
    assert expand(terms, n, modulus) == reduce_mod(expand(terms, n), modulus)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=16), st.integers(min_value=-7, max_value=7), max_size=4
    ),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_coefficients_obey_the_exact_ceiling_bound(factors, n):
    # log2 |a(i)| <= pi * sqrt(2ci/3) / ln 2 with c = sum |r| / delta, the
    # saddle-point bound the exact-path ceiling is stated with
    c = sum(abs(r) / d for d, r in factors.items())
    coeffs = expand(FMonomial.make(factors=factors), n).window(0, n)
    for i, a in enumerate(coeffs):
        assert a.bit_length() <= pi * sqrt(2 * c * i / 3) / log(2) + 1


# the certificate's prefactor, whose pole and large exponents stress the bound
PREFACTOR = FMonomial.make(1, -15, {1: 69, 4: 30, 2: -29, 8: -64})


@pytest.mark.parametrize(
    "m,n", [(TRIPLE, 2000), (FMonomial.make(factors={1: -1}), 2000), (PREFACTOR, 300)],
    ids=["triple", "f1^-1", "prefactor"],
)
def test_exact_ceiling_estimate_bounds_the_peak(monkeypatch, m, n):
    monkeypatch.setattr(etaq, "_exact_cache", {})
    tracemalloc.start()
    try:
        expand(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= etaq.exact_bytes(m.factors, n - m.qpower)


def test_residue_array_rejects_bad_inputs():
    with pytest.raises(ValueError):
        residue_array(FMonomial.make(qpower=1, factors={1: 1}), 10, 4)
    with pytest.raises(UnsupportedModulus):
        residue_array(TRIPLE, 10, (1 << 20) + 1)
    with pytest.raises(UnsupportedModulus):  # even when no coefficient is in the window
        expand(FMonomial.make(qpower=50, factors={1: -3}), 40, 3 << 62)


# -- theta series ---------------------------------------------------------------


def test_phi_psi_definitions():
    assert phi(5).window(0, 5) == [1, 2, 0, 0, 2]
    assert psi(7).window(0, 7) == [1, 1, 0, 1, 0, 0, 1]
    assert phi(1).window(0, 1) == [1]


def test_phi_as_euler_quotient():
    lhs = phi(500)
    rhs = expand(FMonomial.make(factors={2: 5, 1: -2, 4: -2}), 500)
    assert equal_to_order(lhs, rhs, 500)


def test_psi_as_euler_quotient():
    lhs = psi(500)
    rhs = expand(FMonomial.make(factors={2: 2, 1: -1}), 500)
    assert equal_to_order(lhs, rhs, 500)


def test_phi_dissection_direct():
    n = 2000
    lhs = phi(n)
    rhs = add(dilate(phi(n // 4 + 1), 4), shift(scale(dilate(psi(n // 8 + 1), 8), 2), 1))
    assert equal_to_order(lhs, rhs, n)


def test_sellers_product_matches_families():
    n = 200
    assert equal_to_order(sellers_product(1, n), expand(SINGLE, n), n)
    assert equal_to_order(sellers_product(3, n), expand(TRIPLE, n), n)
    assert sellers_product(1, 1).window(0, 1) == [1]


# -- the lacunarity criterion ----------------------------------------------------


def test_cotron_on_ktuple_families():
    for ell in (1, 2, 3, 7):
        rep = cotron_check(FMonomial.make(factors={4: ell, 1: -2 * ell, 2: -ell}), 2)
        assert rep == CriterionReport(2, 2, 4, Fraction(16), True)


def test_cotron_rejects_half_integer_weight():
    with pytest.raises(NonIntegerWeight):
        cotron_check(FMonomial.make(factors={1: -1}), 2)


def test_cotron_on_odd_overpartition_tuples():
    for k in (1, 2, 5):
        rep = cotron_check(family_monomial(Family("opt-ktuple", 2 * k)), 2)
        assert rep.max_power_exponent == 1
        assert rep.bound_squared == Fraction(4)
        assert rep.lacunary


def test_eta_quotient_fields():
    g = family_monomial(Family("overcubic-ktuple", 3))
    assert sum(r for _, r in g.factors) == -6  # twice the weight
    # d_g = gcd of the numerator deltas = 4 = 2^2, and 3 does not divide it
    assert cotron_check(g, 2).max_power_exponent == 2
    assert cotron_check(g, 3).max_power_exponent == 0


# -- binomial congruence between Euler-product powers -----------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_prime_power_binomial_congruence(p, l, k):
    n = 500
    lhs = power(f_series(k, n), p**l)
    rhs = power(f_series(p * k, n), p ** (l - 1))
    assert equal_to_order(reduce_mod(lhs, p**l), reduce_mod(rhs, p**l), n)
