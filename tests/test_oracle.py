import pytest

from overcubic import oracle
from overcubic.errors import CapExceeded
from overcubic.etaq import Family, expand_monomial, family_monomial


def test_empty_partition():
    assert oracle.count_overcubic(0) == 1
    assert oracle.count_ktuple(0, 5) == 1
    assert oracle.count_opt_ktuple(0, 3) == 1


def test_overcubic_small_listings():
    # n=1: the part 1, overlined or not
    assert oracle.count_overcubic(1) == 2
    # n=2: a colored 2 (2 colors x overline) plus 1+1 and overlined-1+1
    assert oracle.count_overcubic(2) == 6


def test_triple_of_one_picks_a_component():
    assert oracle.count_ktuple(1, 3) == 6


def test_ktuple_of_one_component_is_the_plain_count():
    for n in range(12):
        assert oracle.count_ktuple(n, 1) == oracle.count_overcubic(n)


def test_odd_overpartitions_small():
    assert oracle.count_opt_ktuple(1, 1) == 2  # 1 and overlined 1
    # n=2: only 1+1 with or without the overline; even parts are not allowed
    assert oracle.count_opt_ktuple(2, 1) == 2


def test_partition_and_cubic_counters():
    assert [oracle.count_partitions(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert oracle.count_cubic(2) == 3  # 2 in two colors, and 1+1


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        oracle.count_overcubic(41)
    assert oracle.count_overcubic(41, cap=41) > 0


def test_monotone_in_k():
    for n in range(0, 16):
        counts = [oracle.count_ktuple(n, k) for k in range(1, 5)]
        assert counts == sorted(counts)


@pytest.mark.parametrize(
    "family,k",
    [("overcubic", 1), ("overcubic-pair", 1), ("overcubic-triple", 1),
     ("overcubic-ktuple", 3), ("opt-ktuple", 1), ("opt-ktuple", 2),
     ("partition", 1), ("cubic", 1)],
)
def test_series_coefficients_equal_enumeration(family, k):
    # the central anti-bug defense: two independent routes to the same numbers
    n_max = 25
    series = expand_monomial(family_monomial(Family(family, k)), n_max + 1)
    assert series.window(0, n_max + 1) == oracle.table(family, n_max, k)


def test_part_counter_rejects_unknown_family():
    with pytest.raises(ValueError):
        oracle.count("nonsense", 1)
