from fractions import Fraction

import pytest

from overcubic.density import (
    compute_density,
    exception_structure_check,
    squares_and_twice_squares,
)
from overcubic.etaq import Family

TRIPLE = Family("overcubic-triple")


def test_everything_even_from_index_one():
    report = compute_density(TRIPLE, 2, 0, [100, 1000])
    assert [row[2] for row in report.rows] == [Fraction(1), Fraction(1)]
    assert report.exceptions == ()


def test_every_small_tuple_is_even_beyond_index_zero():
    for k in range(1, 6):
        report = compute_density(Family("overcubic-ktuple", k), 2, 0, [500])
        assert report.rows[0][2] == Fraction(1)


def test_mod4_exceptions_at_100():
    report = compute_density(TRIPLE, 4, 0, [100])
    (x, count, delta) = report.rows[0]
    assert (x, count, delta) == (100, 83, Fraction(83, 100))
    assert set(report.exceptions) == squares_and_twice_squares(100)
    assert len(report.exceptions) == 10 + 7


def test_residues_partition_the_indices():
    x = 400
    total = Fraction(0)
    for r in range(8):
        report = compute_density(TRIPLE, 8, r, [x])
        total += report.rows[0][2]
    assert total == 1


def test_composite_modulus_density():
    # CRT path: counts mod 12 must match direct residue comparison mod 12
    report = compute_density(TRIPLE, 12, 6, [50])
    from overcubic.etaq import expand, family_monomial

    exact = expand(family_monomial(TRIPLE), 51)
    expected = sum(1 for n in range(1, 51) if exact[n] % 12 == 6)
    assert report.rows[0][1] == expected


def test_exception_structure_examples():
    assert exception_structure_check(1, 2000)
    assert exception_structure_check(0, 2000)
    assert exception_structure_check(1, 1)  # {1} is a square; count at 1 is 6


def test_exception_count_bound():
    from math import isqrt

    report = compute_density(TRIPLE, 4, 0, [3000])
    assert len(report.exceptions) == isqrt(3000) + isqrt(1500)


def test_grid_validation():
    with pytest.raises(ValueError):
        compute_density(TRIPLE, 4, 0, [0, 100])
    with pytest.raises(ValueError):
        compute_density(TRIPLE, 4, 4, [100])


def test_monotone_trend_small_grid():
    for e in (3, 4):
        report = compute_density(TRIPLE, 1 << e, 0, [100, 1000, 5000])
        deltas = [row[2] for row in report.rows]
        assert deltas == sorted(deltas)


def test_csv_columns():
    report = compute_density(TRIPLE, 4, 0, [100])
    text = report.to_csv()
    header = text.splitlines()[0].split(",")
    assert header == ["X", "count", "delta_numerator", "delta_denominator", "delta_rounded"]
    assert text.splitlines()[1].startswith("100,83,83,100,")
