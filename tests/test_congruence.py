import numpy as np
import pytest

from overcubic import congruence as cg, etaq
from overcubic.errors import InsufficientPrecision
from overcubic.etaq import Family, family_monomial, residue_array


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
    exact = expand(family_monomial(Family("overcubic-triple")), 72 * 8 + 70)
    for n in range(8):
        assert exact[72 * n + 69] % 384 == 0


def test_order_ceiling_guards_scans():
    claim = cg.CongruenceClaim(Family("overcubic-triple"), m=8, j=7, modulus=64, alpha=30)
    with pytest.raises(InsufficientPrecision):
        cg.verify_congruence(claim, 1000)


def test_blanket_evenness_of_tuple_coefficients():
    for k in range(1, 6):
        arr = residue_array(family_monomial(Family("overcubic-ktuple", k)), 10_001, 2)
        assert arr[0] == 1
        assert not np.any(arr[1:])


def test_double_index_congruence_mod4():
    # coefficients at 2n and at n agree mod 4, checked to index 5000
    arr = residue_array(family_monomial(Family("overcubic-triple")), 10_001, 4)
    half = arr[:5001]
    doubled = arr[2 * np.arange(5001)]
    assert np.array_equal(doubled, half)


# -- scans ---------------------------------------------------------------------


def test_scan_finds_the_known_progressions():
    cfg = cg.ScanConfig(
        Family("overcubic-triple"), max_m=8, moduli=(2, 4, 8, 16, 32, 64, 128), n_min=150
    )
    found = {(c.m, c.j): c.modulus for c in cg.scan(cfg)}
    assert found[(8, 5)] == 32
    assert found[(8, 7)] == 64
    assert found[(4, 3)] == 4
    assert (1, 0) not in found  # constant term 1 blocks the whole series
    assert all(c.status == "discovered" for c in cg.scan(cfg))


def test_scan_ramanujan_classic():
    cfg = cg.ScanConfig(Family("partition"), max_m=5, moduli=(5,), n_min=300)
    assert {(c.m, c.j) for c in cg.scan(cfg)} == {(5, 4)}


def test_scan_with_multiple_of_three_modulus():
    cfg = cg.ScanConfig(
        Family("overcubic-triple"), max_m=72, moduli=(2, 4, 8, 16, 32, 64, 128, 256, 384), n_min=100
    )
    found = {(c.m, c.j): c.modulus for c in cg.scan(cfg)}
    assert found[(72, 21)] == 128
    assert found[(72, 69)] == 384


def test_scan_rediscovers_at_doubled_sample():
    cfg = cg.ScanConfig(
        Family("overcubic-triple"), max_m=8, moduli=(4, 32, 64), n_min=150
    )
    first = {(c.m, c.j): c.modulus for c in cg.scan(cfg)}
    bigger = cg.ScanConfig(
        Family("overcubic-triple"), max_m=8, moduli=(4, 32, 64), n_min=300
    )
    second = {(c.m, c.j): c.modulus for c in cg.scan(bigger)}
    for key, modulus in first.items():
        assert second[key] == modulus


def test_scan_config_validation():
    with pytest.raises(ValueError):
        cg.ScanConfig(Family("partition"), max_m=4, moduli=(5,), n_min=50)


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


def test_conjecture_suites_are_labeled():
    parameters, results = cg.run_suites(["conjecture-1"], n_limit=20, alpha_limit=2)
    assert parameters["conjecture-1"]["label"] == cg.CONJECTURE_LABEL
    assert all(r.claim["status"] == "conjectured" for r in results)
    assert all(r.status == cg.CONJECTURE_LABEL for r in results)
    assert all(r.passed for r in results)


def test_suite_checks_its_largest_order_before_building(monkeypatch):
    # alpha 12 needs order ~59M, above the ceiling; checked largest first,
    # the suite fails before it builds any residue array
    def no_build(*args):
        raise AssertionError("a residue array was built")

    monkeypatch.setattr(etaq, "_expand_factors_residue", no_build)
    with pytest.raises(InsufficientPrecision):
        cg.run_suites(["conjecture-2"], alpha_limit=12)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        cg.run_suites(["42"])
