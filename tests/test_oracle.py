import ast
from pathlib import Path

import pytest

from overcubic import catalogs, oracle
from overcubic.errors import CapExceeded
from overcubic.etaq import Family, expand, family_monomial


def test_empty_partition():
    assert oracle.table("overcubic", 0) == [1]
    assert oracle.table("overcubic-ktuple", 0, 5) == [1]
    assert oracle.table("opt-ktuple", 0, 3) == [1]


def test_overcubic_small_listings():
    # n=1: the part 1, overlined or not
    # n=2: a colored 2 (2 colors x overline) plus 1+1 and overlined-1+1
    assert oracle.table("overcubic", 2) == [1, 2, 6]


def test_triple_of_one_picks_a_component():
    assert oracle.table("overcubic-ktuple", 1, 3)[1] == 6


def test_ktuple_of_one_component_is_the_plain_count():
    assert oracle.table("overcubic-ktuple", 11, 1) == oracle.table("overcubic", 11)


def test_odd_overpartitions_small():
    # n=1: 1 and overlined 1; n=2: only 1+1 with or without the overline,
    # since even parts are not allowed
    assert oracle.table("opt-ktuple", 2, 1) == [1, 2, 2]


def test_partition_and_cubic_counters():
    assert oracle.table("partition", 6) == [1, 1, 2, 3, 5, 7, 11]
    assert oracle.table("cubic", 2)[2] == 3  # 2 in two colors, and 1+1


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        oracle.table("overcubic", oracle.MAX_N + 1)


def test_monotone_in_k():
    tables = [oracle.table("overcubic-ktuple", 15, k) for k in range(1, 5)]
    for counts in zip(*tables):
        assert list(counts) == sorted(counts)


FAMILY_CASES = [(name, 1) for name in sorted(catalogs.family_table())] + [
    ("overcubic-ktuple", 3), ("opt-ktuple", 2)
]


@pytest.mark.parametrize("family,k", FAMILY_CASES, ids=[f"{f}-{k}" for f, k in FAMILY_CASES])
def test_series_coefficients_equal_enumeration(family, k):
    # the central anti-bug defense: two independent routes to the same numbers
    n_max = oracle.MAX_N
    series = expand(family_monomial(Family(family, k)), n_max + 1)
    assert series.window(0, n_max + 1) == oracle.table(family, n_max, k)


def test_part_counter_rejects_unknown_family():
    with pytest.raises(ValueError):
        oracle.table("nonsense", 1)


def test_oracle_imports_nothing_from_the_engine():
    # the enumeration is the engine's independent check, so it may not use it
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not imported & {"etaq", "series"}, imported
