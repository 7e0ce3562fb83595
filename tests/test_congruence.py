import tracemalloc

import numpy as np
import pytest

from overcubic import congruence as cg, dissect, etaq
from overcubic.errors import InsufficientPrecision
from overcubic.catalogs import Family
from overcubic.etaq import residue_array


def brute_force_residue_set(p):
    return {x * x % p for x in range(1, p)}


# -- quadratic residues ------------------------------------------------------


def test_legendre_examples():
    assert cg.legendre(0, 5) == 0
    assert cg.legendre(4, 5) == 1
    assert cg.legendre(2, 5) == -1  # squares mod 5 are {1, 4}


def test_legendre_against_square_sets():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        squares = brute_force_residue_set(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert cg.legendre(a, p) == expected


def test_nonresidue_progressions_p3():
    claims = cg.nonresidue_progressions(3, 0)
    assert [(c.m, c.j, c.modulus) for c in claims] == [(6, 5, 4)]


def test_nonresidue_progressions_p5():
    claims = cg.nonresidue_progressions(5, 1)
    assert sorted((c.m, c.j) for c in claims) == [(10, 3), (10, 7)]
    assert all(c.family.k == 3 for c in claims)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_emitted_offsets_are_odd_and_nonresidues(p):
    for claim in cg.nonresidue_progressions(p, 0):
        assert claim.j % 2 == 1
        assert cg.legendre(claim.j % p, p) == -1


# -- claim verification --------------------------------------------------------


def test_verify_known_congruence():
    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=8, j=7, modulus=64)
    result = cg.verify_congruence(claim, 200)
    assert result.passed and result.first_violation is None


def test_verify_false_claim_fails_at_zero():
    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=4, j=1, modulus=4)
    result = cg.verify_congruence(claim, 10)
    assert not result.passed and result.first_violation == 0


def test_verify_dilated_claim():
    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=8, j=5, modulus=32, alpha=3)
    assert cg.verify_congruence(claim, 200).passed


def test_composite_modulus_uses_both_residue_parts():
    # mod 384 = 2^7 * 3: compare against exact arithmetic on a short window
    from overcubic.etaq import expand

    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=72, j=69, modulus=384)
    assert cg.verify_congruence(claim, 8).passed
    exact = expand(Family("overcubic-triple").monomial, 72 * 8 + 70)
    for n in range(8):
        assert exact[72 * n + 69] % 384 == 0


@pytest.mark.parametrize("m,j,alpha", [(8, 7, 2), (3, 0, 1), (5, 2, 3)])
def test_verify_reads_exactly_the_dilated_progression(monkeypatch, m, j, alpha):
    # a crafted array, nonzero everywhere except at (m n + j) 2^alpha for
    # n <= n_limit: the claim holds, and holds no longer once one of those
    # entries is set
    n_limit = 12
    indices = [(m * n + j) << alpha for n in range(n_limit + 1)]
    arr = None

    def residue_array(mon, order, modulus):
        assert order == cg.required_order(claim, n_limit) == indices[-1] + 1
        return arr

    monkeypatch.setattr(etaq, "residue_array", residue_array)
    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=m, j=j, modulus=4, alpha=alpha)
    arr = np.ones(indices[-1] + 1, np.uint64)
    arr[indices] = 0
    assert cg.verify_congruence(claim, n_limit).passed
    for n in (0, 5, n_limit):
        arr = np.zeros(indices[-1] + 1, np.uint64)
        arr[indices[n]] = 1
        assert cg.verify_congruence(claim, n_limit).first_violation == n


def test_order_ceiling_guards_scans():
    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=8, j=7, modulus=64, alpha=30)
    with pytest.raises(InsufficientPrecision):
        cg.verify_congruence(claim, 1000)


def test_blanket_evenness_of_tuple_coefficients():
    for k in range(1, 6):
        arr = residue_array(Family("overcubic-ktuple", k).monomial, 10_001, 2)
        assert arr[0] == 1
        assert not np.any(arr[1:])


def test_double_index_congruence_mod4():
    # coefficients at 2n and at n agree mod 4, checked to index 5000
    arr = residue_array(Family("overcubic-triple").monomial, 10_001, 4)
    half = arr[:5001]
    doubled = arr[2 * np.arange(5001)]
    assert np.array_equal(doubled, half)


# -- scans ---------------------------------------------------------------------


def test_scan_finds_the_known_progressions():
    found = cg.scan(Family("overcubic-triple"), 8, (2, 4, 8, 16, 32, 64, 128), n_min=150)
    moduli = {(c.m, c.j): c.modulus for c in found}
    assert moduli[(8, 5)] == 32
    assert moduli[(8, 7)] == 64
    assert moduli[(4, 3)] == 4
    assert (1, 0) not in moduli  # constant term 1 blocks the whole series
    assert all(c.status == "discovered" for c in found)


def test_scan_ramanujan_classic():
    assert {(c.m, c.j) for c in cg.scan(Family("partition"), 5, (5,), n_min=300)} == {(5, 4)}


def test_scan_with_multiple_of_three_modulus():
    found = cg.scan(
        Family("overcubic-triple"), 72, (2, 4, 8, 16, 32, 64, 128, 256, 384), n_min=100
    )
    moduli = {(c.m, c.j): c.modulus for c in found}
    assert moduli[(72, 21)] == 128
    assert moduli[(72, 69)] == 384


def test_scan_rediscovers_at_doubled_sample():
    family = Family("overcubic-triple")
    first = {(c.m, c.j): c.modulus for c in cg.scan(family, 8, (4, 32, 64), n_min=150)}
    second = {(c.m, c.j): c.modulus for c in cg.scan(family, 8, (4, 32, 64), n_min=300)}
    for key, modulus in first.items():
        assert second[key] == modulus


@pytest.mark.parametrize("tail,found", [(2, []), (0, [(1, 0, 4)])], ids=["unstable", "stable"])
def test_scan_keeps_only_a_stable_winning_modulus(monkeypatch, tail, found):
    # mod 2 every sample vanishes; mod 4 the first n_min do and the rest
    # read `tail`, so a nonzero tail moves the winner from 4 to 2
    n_min = 100

    def residue_array(mon, order, modulus):
        assert order == cg.scan_order(1, n_min)
        arr = np.zeros(order, np.uint64)
        if modulus == 4:
            arr[n_min:] = tail
        return arr

    monkeypatch.setattr(etaq, "residue_array", residue_array)
    claims = cg.scan(Family("partition"), 1, (2, 4), n_min)
    assert [(c.m, c.j, c.modulus) for c in claims] == found


def test_scan_holds_one_residue_array_at_a_time(monkeypatch):
    # 63 power-of-two moduli share the word build, and each residue array is
    # a masked copy of it: held together they take 63 arrays, while the build
    # and the sweep of one take about four
    monkeypatch.setattr(etaq, "_memo", {})
    n_min = 2000
    moduli = [1 << k for k in range(1, 64)]
    tracemalloc.start()
    try:
        cg.scan(Family("partition"), 2, moduli, n_min)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * np.dtype(np.uint64).itemsize * cg.scan_order(2, n_min)


def test_scan_frees_each_ring_build_after_its_last_modulus(monkeypatch):
    # eight odd primes are eight rings: kept in the memo they take eight
    # arrays, while one build, its residue copy and a pass take about four
    monkeypatch.setattr(etaq, "_memo", {})
    n_min = 2000
    tracemalloc.start()
    try:
        cg.scan(Family("partition"), 2, (3, 5, 7, 11, 13, 17, 19, 23), n_min)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * np.dtype(np.uint64).itemsize * cg.scan_order(2, n_min)
    assert not etaq._memo


def test_scan_config_validation(monkeypatch):
    def no_build(*args):
        raise AssertionError("a residue array was built")

    monkeypatch.setattr(etaq, "residue_array", no_build)
    # max_m below 1, n_min below 100, no modulus, a modulus below 2
    for max_m, moduli, n_min in [(0, (5,), 300), (4, (5,), 50), (4, (), 300), (4, (5, 1), 300)]:
        with pytest.raises(ValueError):
            cg.scan(Family("partition"), max_m, moduli, n_min)


# -- suites ----------------------------------------------------------------------


def test_theorem1_suite_small():
    _, results = cg.run_suites(["1"], n_limit=60)
    assert len(results) == 10 and all(r.passed for r in results)


def test_theorem5_suite_small():
    _, results = cg.run_suites(["5"], n_limit=40)  # k runs over 0..3
    assert len(results) == 28 and all(r.passed for r in results)


def test_tuple_vs_single_suite():
    _, results = cg.run_suites(["9"], order=500)
    assert all(r.passed for r in results) and len(results) == 3


@pytest.mark.parametrize("k", [2, 4])
def test_even_tuple_differs_from_single_mod4_at_exponent_1(k):
    # suite 9's identity claim for an even tuple length is false: a(1) is 2k
    # for the k-tuple and 2 for the single family
    tuple_k, single = Family("overcubic-ktuple", k).monomial, Family("overcubic").monomial
    claim = dissect.IdentityClaim("control", (tuple_k,), (single,), modulus=4)
    result = dissect.verify_identity(claim, 500)
    differ = np.nonzero(residue_array(tuple_k, 500, 4) != residue_array(single, 500, 4))[0]
    assert not result.passed and result.first_violation == 1 == differ[0]


def test_conjecture_suites_are_labeled():
    parameters, results = cg.run_suites(["conjecture-1"], n_limit=20, alpha_limit=2)
    assert parameters["conjecture-1"] == {"n_limit": 20, "alpha_limit": 2}
    records = [r.to_record() for r in results]
    assert all(r["status"] == "conjectured" and r["verdict"] == "checked" for r in records)
    assert all(r.passed for r in results)


def test_suite_checks_its_largest_order_before_building(monkeypatch):
    # alpha 12 needs order ~59M, above the ceiling; checked largest first,
    # the suite fails before it builds any residue array
    def no_build(*args):
        raise AssertionError("a residue array was built")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    with pytest.raises(InsufficientPrecision):
        cg.run_suites(["conjecture-2"], alpha_limit=12)


@pytest.mark.parametrize(
    "names,bounds",
    [
        (["lacunary"], {"n_limit": 5}),
        (["9", "dissections", "certificate"], {"n_limit": 5}),
        (["1", "3", "5", "mod4-progressions"], {"alpha_limit": 0}),
        (["1", "2", "lacunary"], {"order": 300}),
    ],
)
def test_a_bound_no_named_suite_reads_is_refused_before_building(monkeypatch, names, bounds):
    def no_build(*args):
        raise AssertionError("a residue array was built")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    with pytest.raises(ValueError, match="no selected suite reads"):
        cg.run_suites(names, **bounds)


def test_every_bound_is_read_by_some_suite():
    # so `--theorem all` takes every bound, and suite 2 takes alpha_limit 0
    reads = {bound for reads, _ in cg.SUITES.values() for bound in reads}
    assert reads == {"n_limit", "alpha_limit", "order"}
    parameters, results = cg.run_suites(["2"], n_limit=20, alpha_limit=0)
    assert "alpha_limit" not in parameters["2"] and len(results) == 2


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        cg.run_suites(["42"])
