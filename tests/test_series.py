import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NonUnitLeadingCoefficient,
    dilate,
    f_series,
    inv,
    naive_convolution,
    naive_euler_product,
    naive_partition_counts,
    one,
    power,
    shift,
    sub,
    ts,
)
from overcubic.errors import InsufficientPrecision
from overcubic.series import TruncatedSeries, add, first_difference, mul, reduce_mod, scale, zero

# -- strategies -------------------------------------------------------------

coeff_lists = st.lists(st.integers(min_value=-99, max_value=99), min_size=0, max_size=24)
valuations = st.integers(min_value=-6, max_value=6)


@st.composite
def series_strategy(draw, unit_leading=False):
    cs = draw(coeff_lists)
    v = draw(valuations)
    if unit_leading:
        lead = draw(st.sampled_from((1, -1)))
        cs = [lead] + cs
    return ts(cs, valuation=v)


# -- construction and invariants ---------------------------------------------


def test_make_normalizes_leading_zeros():
    s = TruncatedSeries.make(0, [0, 0, 3, 1], 4)
    assert s.valuation == 2 and s.coeffs == (3, 1) and s.order == 4


def test_make_zero_series():
    s = TruncatedSeries.make(-2, [0, 0, 0], 1)
    assert s.is_zero() and s.coeffs == () and s.valuation == s.order == 1


def test_window_and_coefficient_bounds():
    s = ts([1, 2, 3], valuation=-1)
    assert s.window(-3, 2) == [0, 0, 1, 2, 3]
    assert s[-5] == 0
    with pytest.raises(InsufficientPrecision):
        s.coefficient(2)


# -- worked examples ----------------------------------------------------------


def test_add_cancellation():
    assert add(ts([1, 1]), ts([1, -1])).coeffs == (2, 0)


def test_add_inverse_gives_zero():
    f1 = f_series(1, 30)
    assert add(f1, scale(f1, -1)).is_zero()


def test_doubled_partition_series_at_five():
    # independent route: recursive partition counts, then doubled
    p = naive_partition_counts(5)
    u = inv(f_series(1, 6))
    assert add(u, u)[5] == 2 * p[5] == 14


def test_mul_difference_of_squares():
    # inputs trusted below q^3 so the product window reaches the q^2 term
    got = mul(ts([1, 1], order=3), ts([1, -1], order=3))
    assert got.window(0, 3) == [1, 0, -1]


def test_mul_by_inverse_is_one():
    f1 = f_series(1, 60)
    assert first_difference(mul(f1, inv(f1)), one(60), 60) is None


def test_mul_f1_squared_against_naive_product():
    n = 40
    f1 = naive_euler_product(1, n)
    expected = naive_convolution(f1, f1)
    got = mul(f_series(1, n), f_series(1, n))
    assert list(got.window(0, n)) == expected
    assert expected[:7] == [1, -2, -1, 2, 1, 2, -2]


def test_inv_geometric_series():
    s = inv(ts([1, -1], order=8))
    assert s.window(0, 8) == [1] * 8


def test_inv_partition_series():
    # p(5) = 7: inverse of the Euler product against the recursive counter
    assert inv(f_series(1, 12)).window(0, 12) == naive_partition_counts(11)


def test_inv_requires_unit_leading():
    with pytest.raises(NonUnitLeadingCoefficient):
        inv(ts([2, 1]))
    with pytest.raises(NonUnitLeadingCoefficient):
        inv(zero(5))


def test_pow_zero_and_square():
    f1 = f_series(1, 20)
    assert first_difference(power(f1, 0), one(20), 20) is None
    assert power(f1, 2).coeffs == mul(f1, f1).coeffs


def test_pow_negative_two():
    # 1/f1^2 counts pairs of partitions: convolve the recursive counts
    p = naive_partition_counts(10)
    pairs = naive_convolution(p, p)
    assert power(f_series(1, 11), -2).window(0, 11) == pairs
    assert pairs[:3] == [1, 2, 5]


def test_shift_examples():
    s = shift(one(1), -15)
    assert s.valuation == -15 and s[-15] == 1
    a = ts([1, 2, 3], valuation=1)
    assert shift(shift(a, 3), -3) == a
    assert shift(ts([1, 1]), 1).coeffs == (1, 1) and shift(ts([1, 1]), 1).valuation == 1


def test_reduce_mod_examples():
    assert reduce_mod(ts([1, -2]), 2).coeffs == (1, 0)
    r = reduce_mod(ts([0, 6]), 4)
    assert r.window(0, 2) == [0, 2]
    # the valuation moves past residues that vanish
    assert reduce_mod(ts([4, 6]), 4) == TruncatedSeries(1, (2,), 2)
    assert reduce_mod(ts([4, 8]), 4) == zero(2)
    with pytest.raises(ValueError):
        reduce_mod(ts([1]), 1)


def test_equal_to_order_requires_precision():
    f1, f2 = f_series(1, 10), f_series(2, 10)
    assert first_difference(f1, f2, 3) == 1  # they differ at q^1
    with pytest.raises(InsufficientPrecision):
        first_difference(f1, f2, 11)


def test_dilate_spreads_exponents():
    d = dilate(ts([1, 2, 3]), 3)
    assert d.window(0, 9) == [1, 0, 0, 2, 0, 0, 3, 0, 0]
    assert d.order == 9
    laurent = dilate(ts([2, 0, 5], valuation=-1, order=4), 2)
    assert (laurent.valuation, laurent.order) == (-2, 8)
    assert laurent.window(-2, 8) == [2, 0, 0, 0, 5] + [0] * 5
    assert dilate(ts([], order=3), 4) == ts([], order=12)


@given(series_strategy(), st.integers(1, 5))
def test_dilate_reads_every_mth_coefficient(a, m):
    d = dilate(a, m)
    assert d.order == m * a.order
    for e in range(m * min(a.valuation, 0), d.order):
        assert d.coefficient(e) == (a.coefficient(e // m) if e % m == 0 else 0)


# -- algebraic properties ----------------------------------------------------


@given(series_strategy(), series_strategy())
@settings(deadline=None)
def test_mul_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(series_strategy(), series_strategy(), series_strategy())
@settings(deadline=None)
def test_mul_associates_to_common_order(a, b, c):
    left = mul(mul(a, b), c)
    right = mul(a, mul(b, c))
    n = min(left.order, right.order)
    lo = min(left.valuation, right.valuation, n)
    assert left.window(lo, n) == right.window(lo, n)


@given(series_strategy(), series_strategy())
@settings(deadline=None)
def test_mul_distributes_over_add(a, b):
    c = ts([1, -1, 2])
    left = mul(add(a, b), c)
    right = add(mul(a, c), mul(b, c))
    n = min(left.order, right.order)
    lo = min(left.valuation, right.valuation, n)
    assert left.window(lo, n) == right.window(lo, n)


@given(series_strategy())
@settings(deadline=None)
def test_sub_self_is_zero(a):
    assert sub(a, a).is_zero()
