import ast
import json
import time
from pathlib import Path

import pytest

from overcubic import catalogs, oracle
from overcubic.cli import main
from overcubic.errors import CapExceeded
from overcubic.catalogs import Family
from overcubic.etaq import expand


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
    series = expand(Family(family, k).monomial, n_max + 1)
    assert series.window(0, n_max + 1) == oracle.table(family, n_max, k)


@pytest.mark.parametrize("k", range(1, 13))
def test_ktuple_table_is_the_k_fold_convolution(k):
    base = oracle.table("overcubic", 20)
    acc = [1] + [0] * 20
    for _ in range(k):
        acc = [sum(acc[i] * base[n - i] for i in range(n + 1)) for n in range(21)]
    assert oracle.table("overcubic-ktuple", 20, k) == acc


def test_large_k_table_is_fast():
    t0 = time.perf_counter()
    counts = oracle.table("overcubic-ktuple", oracle.MAX_N, 20000)
    assert time.perf_counter() - t0 < 1.0
    assert counts[1] == 2 * 20000  # one part 1, overlined or not, in one of k components


def test_largest_admitted_k_still_reports(capsys):
    # the cap is set by overcubic-ktuple, whose base counts bound opt-ktuple's
    assert all(a <= b for a, b in zip(*(oracle.table(f, oracle.MAX_N, 1) for f in (
        "opt-ktuple", "overcubic-ktuple"))))
    argv = ["oracle", "--family", "overcubic-ktuple", "--k", str(oracle.MAX_K)]
    assert main(argv) == 0
    largest = json.loads(capsys.readouterr().out)["records"][-1]["count"]
    assert 4200 < len(str(largest)) <= 4300  # Python prints at most 4300 digits


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
