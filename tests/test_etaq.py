import ast
import tracemalloc
from fractions import Fraction
from math import log, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dilate,
    f_series,
    naive_convolution,
    naive_euler_product,
    one,
    phi,
    power,
    psi,
    sellers_product,
    shift,
    ts,
)
from overcubic import etaq, oracle
from overcubic.catalogs import Family
from overcubic.errors import InsufficientPrecision, NonIntegerWeight, UnsupportedModulus
from overcubic.etaq import (
    CriterionReport,
    FMonomial,
    cotron_check,
    expand,
    residue_array,
)
from overcubic.series import add, first_difference, mul, reduce_mod, scale

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
    assert first_difference(f_series(1, 1), f_series(2, 1), 1) is None  # both are 1 below q^1


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
    assert first_difference(expand(rhs, 50), expand(TRIPLE, 50), 50) is None
    assert expand((), 10).is_zero()
    assert expand(rhs[:1], 50) == expand(rhs[0], 50)


@pytest.mark.parametrize("name,k", [("overcubic", 1), ("overcubic-pair", 1),
                                    ("overcubic-triple", 1), ("overcubic-ktuple", 4),
                                    ("opt-ktuple", 4), ("partition", 1), ("cubic", 1)])
def test_family_series_count_something(name, k):
    s = expand(Family(name, k).monomial, 120)
    assert s[0] == 1
    assert all(c >= 0 for c in s.coeffs)


def test_tuple_family_is_its_member_to_the_kth_power():
    single = Family("overcubic").monomial
    for k in range(1, 13):
        scaled = FMonomial.make(factors=[(d, r * k) for d, r in single.factors])
        assert Family("overcubic-ktuple", k).monomial == scaled
    for k, name in ((2, "overcubic-pair"), (3, "overcubic-triple")):
        assert Family("overcubic-ktuple", k).monomial == Family(name).monomial
    assert Family("opt-ktuple").monomial == FMonomial.make(factors={1: -2, 2: 3, 4: -1})
    with pytest.raises(ValueError, match="family 'overcubic' has no tuple length; k must be 1"):
        Family("overcubic", 2)


def test_ktuple_power_law():
    # k-fold convolution of the single series equals the k-tuple series
    n = 300
    single = expand(SINGLE, n)
    for k in (2, 3, 4):
        direct = expand(Family("overcubic-ktuple", k).monomial, n)
        assert first_difference(direct, power(single, k), n) is None


monomials = st.builds(
    FMonomial.make,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-5, max_value=60),
    st.dictionaries(
        st.integers(min_value=1, max_value=16), st.integers(min_value=-7, max_value=7), max_size=4
    ),
)
RESIDUE_MODULI = (
    2, 64, 3, 9, 384, 6, 12, 96, 32767, 3 << 40, 32749 << 20, 3 << 61, 1 << 63
)


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
        st.integers(min_value=1, max_value=12), st.integers(min_value=-6, max_value=6), max_size=4
    ),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=150, deadline=None)
def test_every_ring_matches_naive_euler_products(factors, n):
    # an outside reference for the pass loop: each f_delta multiplied out one
    # binomial at a time, powered and multiplied by the schoolbook operators
    ref = one(n)
    for delta, r in factors.items():
        ref = mul(ref, power(ts(naive_euler_product(delta, n)), r))
    m = FMonomial.make(factors=factors)
    assert expand(m, n).window(0, n) == ref.window(0, n)
    for modulus in (2, 3, 384, 1 << 63):
        assert expand(m, n, modulus).window(0, n) == reduce_mod(ref, modulus).window(0, n)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=16), st.integers(min_value=-7, max_value=7), max_size=4
    ),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_coefficients_obey_the_exact_ceiling_bound(factors, n):
    # log2 |a(i)| <= pi * sqrt(2ci/3) / ln 2 with c = sum |r| / delta over
    # r < 0 and sum r / (2 delta) over r > 0, the saddle-point bound the
    # exact-path ceiling is stated with
    c = sum((-r if r < 0 else r / 2) / d for d, r in factors.items())
    coeffs = expand(FMonomial.make(factors=factors), n).window(0, n)
    for i, a in enumerate(coeffs):
        assert a.bit_length() <= pi * sqrt(2 * c * i / 3) / log(2) + 1


# the certificate's prefactor, whose pole and large exponents stress the bound
PREFACTOR = FMonomial.make(1, -15, {1: 69, 4: 30, 2: -29, 8: -64})


@pytest.mark.parametrize(
    "m,n",
    [
        (TRIPLE, 2000),
        (FMonomial.make(factors={1: -1}), 2000),
        (PREFACTOR, 300),
        (FMonomial.make(factors={1: 6, 2: 6}), 5000),
        (FMonomial.make(factors={1: 1}), 20_000),
    ],
    ids=["triple", "f1^-1", "prefactor", "f1^6*f2^6", "f1"],
)
def test_exact_ceiling_estimate_bounds_the_peak(monkeypatch, m, n):
    monkeypatch.setattr(etaq, "_memo", {})
    tracemalloc.start()
    try:
        expand(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= etaq.exact_bytes(m.factors, n - m.qpower)


def _mul_pass_kinds(monkeypatch) -> list[str]:
    """The dtype kind ('i' for int64, 'O' for Python integers) of every
    multiply pass the following builds run, with an empty memo."""
    kinds = []
    mul_pass = etaq._mul_pass

    def spy(acc, *rest):
        kinds.append(acc.dtype.kind)
        return mul_pass(acc, *rest)

    monkeypatch.setattr(etaq, "_mul_pass", spy)
    monkeypatch.setattr(etaq, "_memo", {})
    return kinds


@pytest.mark.parametrize(
    "factors,n,crosses",
    [
        # the certificate's prefactor at order 1000: f1^69 and f4^30 start on
        # int64 and cross 2^63 partway, then f8^-64 and f2^-29 divide
        (PREFACTOR.factors, 1016, True),
        (((1, 60), (2, 30)), 300, True),
        # multiply passes that stay below 2^63, then divide passes
        (((1, -3), (4, 20)), 1000, False),
        (TRIPLE.factors, 1000, False),
        # a build on int64 words throughout, returned as Python integers
        (((1, 6), (2, 6)), 2000, False),
    ],
    ids=["prefactor", "f1^60*f2^30", "f1^-3*f4^20", "triple", "f1^6*f2^6"],
)
def test_int64_route_matches_naive_euler_products(monkeypatch, factors, n, crosses):
    kinds = _mul_pass_kinds(monkeypatch)
    got = etaq._expand_factors(factors, n, None)
    assert got.dtype == object and all(type(c) is int for c in got)
    ref = one(n)
    for delta, r in factors:
        ref = mul(ref, power(ts(naive_euler_product(delta, n)), r))
    assert got.tolist() == ref.window(0, n)
    # both routes are exercised: every build starts on int64, and only the
    # crossing ones finish their multiply passes on Python integers
    assert kinds[0] == "i"
    assert ("O" in kinds) == crosses
    assert max(abs(c) for c in got).bit_length() > 63 or not crosses


def test_int64_route_takes_the_pass_bound(monkeypatch):
    # f1^3 has sum|c| = 1 + 3 + 5 + ... and f1^60 reaches 2^63 in a few
    # passes: a pass runs on int64 exactly while max|acc| * sum|c| < 2^63
    n = 200
    kinds = _mul_pass_kinds(monkeypatch)
    weight = sum(abs(c) for _, c in etaq.cube_terms(1, n))
    f1 = naive_euler_product(1, n)
    f1_cubed = naive_convolution(naive_convolution(f1, f1), f1)
    acc = [1] + [0] * (n - 1)
    expected = []
    for _ in range(20):
        bound = max(map(abs, acc)) * weight
        expected.append("i" if bound < 1 << 63 and "O" not in expected else "O")
        acc = naive_convolution(acc, f1_cubed)
    assert etaq._expand_factors(((1, 60),), n, None).tolist() == acc
    assert kinds == expected and "i" in kinds and "O" in kinds


def test_residue_array_rejects_bad_inputs():
    with pytest.raises(ValueError):
        residue_array(FMonomial.make(qpower=1, factors={1: 1}), 10, 4)
    with pytest.raises(UnsupportedModulus):
        residue_array(TRIPLE, 10, (1 << 20) + 1)
    with pytest.raises(UnsupportedModulus):  # even when no coefficient is in the window
        expand(FMonomial.make(qpower=50, factors={1: -3}), 40, 3 << 62)


# the residue range, 2 <= M <= 2^63 with an odd part at most 2^15, at its
# edges: each modulus with the error it is refused with, or None if served
MODULUS_EDGES = {
    2: None,
    384: None,
    (1 << 15) - 1: None,
    1 << 15: None,
    3 << 61: None,
    1 << 63: None,
    0: ValueError,
    1: ValueError,
    (1 << 15) + 1: UnsupportedModulus,
    (1 << 63) + 2: UnsupportedModulus,
    3 << 62: UnsupportedModulus,
    1 << 64: UnsupportedModulus,
}
EDGE_MESSAGES = {ValueError: "modulus must be >= 2", UnsupportedModulus: "outside the residue range"}


@pytest.mark.parametrize("modulus", MODULUS_EDGES, ids=hex)
def test_residue_modulus_at_the_edges_of_its_range(modulus):
    error = MODULUS_EDGES[modulus]
    if error is not None:
        with pytest.raises(error, match=EDGE_MESSAGES[error]):
            etaq.residue_modulus(modulus)
        return
    two, odd = etaq.residue_modulus(modulus)
    assert two * odd == modulus and two & (two - 1) == 0 and odd % 2 == 1
    assert expand(TRIPLE, 60, modulus) == reduce_mod(expand(TRIPLE, 60), modulus)


@pytest.mark.parametrize("coefficient,modulus", [(4, 4), (-8, 4), (12, 12), (36, 12)])
def test_coefficient_zero_mod_m_builds_nothing(monkeypatch, coefficient, modulus):
    def no_build(*args):
        raise AssertionError("built a series that the coefficient zeroes")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    out = residue_array(FMonomial(coefficient, 0, TRIPLE.factors), 200_000, modulus)
    assert out.dtype == "uint64" and out.shape == (200_000,) and not out.any()


def test_expand_checks_the_modulus_before_any_term(monkeypatch):
    def no_build(*args):
        raise AssertionError("built a series for an empty sum or an empty window")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    with pytest.raises(UnsupportedModulus, match="modulus 65537 outside the residue range"):
        expand([], 5, 65537)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        expand([], 5, 1)
    # a term whose window [qpower, n) is empty is zero, in every ring
    late = FMonomial.make(qpower=5, factors={1: -3})
    for modulus in (None, 4, 12):
        s = expand([late, late], 5, modulus)
        assert s.is_zero() and s.order == 5


def test_crt_residues_leave_the_cache_alone(monkeypatch):
    monkeypatch.setattr(etaq, "_memo", {})
    first = residue_array(TRIPLE, 5000, 384)
    second = residue_array(TRIPLE, 5000, 384)
    assert np.array_equal(first, second)
    for _, entry in etaq._memo.values():
        assert not np.shares_memory(first, entry) and not np.shares_memory(second, entry)
    cached = [residue_array(TRIPLE, 5000, m) for m in (128, 3)]
    etaq._memo.clear()
    assert all(np.array_equal(a, residue_array(TRIPLE, 5000, m)) for a, m in zip(cached, (128, 3)))


def test_residue_arrays_frees_each_ring_after_its_last_modulus(monkeypatch):
    # the word ring serves 128, 384 and 64, the mod-3 ring 384, and ring 9 the modulus 9
    monkeypatch.setattr(etaq, "_memo", {})
    moduli = [128, 384, 9, 64]
    rings = []
    for M, arr in etaq.residue_arrays(TRIPLE, 3000, moduli):
        assert np.array_equal(arr, residue_array(TRIPLE, 3000, M))
        rings.append(sorted(ring for _, ring in etaq._memo))
    assert rings == [[etaq.WORD], [3, etaq.WORD], [9, etaq.WORD], [etaq.WORD]]
    assert not etaq._memo


def test_residue_arrays_charges_every_ring_before_the_first_build(monkeypatch):
    def no_build(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(etaq, "_expand_factors", no_build)
    # at MAX_ORDER the triple's 4 passes fit four rings, not five
    assert 4 * 4 * (etaq.MAX_ORDER + etaq.PASS_CHARGE) <= etaq.MAX_PASS_WORK
    with pytest.raises(InsufficientPrecision, match="above the pass-work ceiling"):
        next(etaq.residue_arrays(TRIPLE, etaq.MAX_ORDER, [4, 3, 5, 7, 11]))


# -- theta series ---------------------------------------------------------------


def test_phi_psi_definitions():
    assert phi(5).window(0, 5) == [1, 2, 0, 0, 2]
    assert psi(7).window(0, 7) == [1, 1, 0, 1, 0, 0, 1]
    assert phi(1).window(0, 1) == [1]


def test_phi_as_euler_quotient():
    lhs = phi(500)
    rhs = expand(FMonomial.make(factors={2: 5, 1: -2, 4: -2}), 500)
    assert first_difference(lhs, rhs, 500) is None


def test_psi_as_euler_quotient():
    lhs = psi(500)
    rhs = expand(FMonomial.make(factors={2: 2, 1: -1}), 500)
    assert first_difference(lhs, rhs, 500) is None


def test_phi_dissection_direct():
    n = 2000
    lhs = phi(n)
    rhs = add(dilate(phi(n // 4 + 1), 4), shift(scale(dilate(psi(n // 8 + 1), 8), 2), 1))
    assert first_difference(lhs, rhs, n) is None


def test_sellers_product_matches_families():
    n = 200
    assert first_difference(sellers_product(1, n), expand(SINGLE, n), n) is None
    assert first_difference(sellers_product(3, n), expand(TRIPLE, n), n) is None
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
        rep = cotron_check(Family("opt-ktuple", 2 * k).monomial, 2)
        assert rep.max_power_exponent == 1
        assert rep.bound_squared == Fraction(4)
        assert rep.lacunary


def test_eta_quotient_fields():
    g = Family("overcubic-ktuple", 3).monomial
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
    assert first_difference(reduce_mod(lhs, p**l), reduce_mod(rhs, p**l), n) is None


# -- layering ----------------------------------------------------------------------


def test_imports_sit_at_module_level_and_the_engine_reads_no_catalog():
    # the engine sits below the catalog reader: etaq takes only errors and
    # series from the package, and no module defers an import to call time
    imports = (ast.Import, ast.ImportFrom)
    for path in sorted(Path(etaq.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [n.lineno for n in ast.walk(fn) if isinstance(n, imports)]
                assert not lines, f"{path.name} imports inside {fn.name} at lines {lines}"
    tree = ast.parse(Path(etaq.__file__).read_text())
    nodes = [n for n in ast.walk(tree) if isinstance(n, imports)]
    assert not any("overcubic" in ast.unparse(n) for n in nodes)
    package = {n.module or a.name for n in nodes if getattr(n, "level", 0) for a in n.names}
    assert package == {"errors", "series"}


def test_every_module_level_function_and_class_is_reached_from_the_command_line():
    # walk the names and module.name attributes that cli.main refers to, and
    # what those refer to in turn, across the package's modules
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(etaq.__file__).parent.glob("*.py")}
    defs, modules = {}, {}  # (module, name) -> a node, or the (module, name) it imports
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module is None and a.name in trees:
                        modules[mod, a.asname or a.name] = a.name
                    else:
                        defs[mod, a.asname or a.name] = (node.module or "__init__", a.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defs[mod, getattr(target, "id", None)] = node
    reached, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        if isinstance(defs[key], tuple):
            todo.append(defs[key])
            continue
        for n in ast.walk(defs[key]):
            if isinstance(n, ast.Name):
                todo.append((key[0], n.id))
            elif isinstance(n, ast.Attribute) and (key[0], getattr(n.value, "id", None)) in modules:
                todo.append((modules[key[0], n.value.id], n.attr))
    kinds = (ast.FunctionDef, ast.ClassDef)
    unreached = sorted(".".join(k) for k, d in defs.items() if isinstance(d, kinds) and k not in reached)
    assert not unreached, f"no command reaches {unreached}"
