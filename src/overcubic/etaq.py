"""Euler products f_k, symbolic f-quotients, and the eta-quotient
lacunarity criterion.

The expansion engine works factor by factor: multiplying or dividing by a
single f_delta uses its pentagonal-number expansion (all coefficients in
{-1, 0, 1}), and cubes f_delta^3 use the classical sparse expansion with
coefficients +-(2k+1), which cuts the number of passes for large
exponents roughly by three.  One multiply pass, one divide pass and one
memo serve three coefficient rings: Z, on int64 words while every
multiply pass provably stays below 2^63 and as Python integers in object
arrays after that; Z/2^64, as uint64 words that wrap (exact for any
power-of-two modulus up to 2^63); and Z/M for a small odd M, as uint64
reduced after every pass.  A build runs its multiply passes before its
divide passes.  expand is the one series entry point, exact or mod M.
residue_array, the array primitive under its residue route, splits a
modulus into its power-of-two and odd parts and recombines them by CRT;
residue_modulus is the one check of which moduli it serves.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log, pi, sqrt
from typing import Iterable, Mapping

import numpy as np

from .errors import InsufficientPrecision, NonIntegerWeight, UnsupportedModulus
from .series import TruncatedSeries, reduce_mod, zero

# hard ceiling on residue expansion orders so a mistyped size fails fast
MAX_ORDER = 4_000_000

# Ceiling on the estimated peak bytes of one exact expansion, checked before
# it allocates.  For r < 0, f_delta^r has nonnegative coefficients; for r > 0
# it is majorized by prod (1 + q^(delta k))^r.  At q = e^-t their logs are at
# most pi^2 |r| / (6 delta t) and pi^2 r / (12 delta t).  The saddle-point
# bound [q^n]F <= F(x)/x^n then gives log2 |a(n)| <= pi*sqrt(2cn/3)/ln 2 with
# c = sum_{r<0} |r|/delta + sum_{r>0} r/(2 delta), and every partial product
# of a build obeys it too.  A Python int of b bits takes at most 32 + b/7.5
# bytes and an array slot 8 more.  A mul pass holds the accumulator, its
# output and the scaled slice it adds into the output (three object arrays
# of ints), and the caller's list copy adds a fourth array of slots, so a
# build below n is estimated at n * (bits/2.5 + 128) bytes (exact_bytes).
# A build that runs on int64 words, 8 bytes a coefficient, until it turns
# into an object array holds less than that, so the estimate stays an upper
# bound.
# The cap admits the triple family to order 95,207; `coeffs --family
# overcubic-triple --indices 95206` took 15-21 s cold at 81 MB peak RSS on
# a 2-core machine.
MAX_EXACT_BYTES = 1 << 27

# Ceiling on the work of one build, in any ring, checked before its first
# pass.  f_delta^r takes about |r|/3 passes whatever the order, and each pass
# costs time in proportion to the order plus a fixed charge (its term
# arrays, its slices and the interpreter's per-pass overhead), so a build of
# P passes below n is charged P * (n + PASS_CHARGE).  The cap admits the
# triple at MAX_ORDER (4 passes) and the 3001-tuple's 4004 passes at order
# 808; it refuses f1^3000000 even at order 10.
PASS_CHARGE = 4096
MAX_PASS_WORK = 1 << 26

# The word ring Z/2^64, and the bound on the odd part of a residue modulus.
# A mul pass sums up to #terms products, each below (m-1)^2, in one uint64
# before it reduces, and a div pass takes a dot product of the same size;
# with m <= 2^15 and #terms < MAX_ORDER < 2^22 those sums stay below
# 2^52 < 2^64.  _expand_factors asserts the bound once per odd build.
WORD = 1 << 64
_SMALL_MODULUS_LIMIT = 1 << 15


# ---------------------------------------------------------------------------
# sparse building blocks


def pentagonal_terms(delta: int, limit: int) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of f_delta = prod (1 - q^(delta*i)) below `limit`."""
    terms = [(0, 1)]
    k = 1
    while True:
        e1 = delta * k * (3 * k - 1) // 2
        if e1 >= limit:
            break
        s = -1 if k & 1 else 1
        terms.append((e1, s))
        e2 = delta * k * (3 * k + 1) // 2
        if e2 < limit:
            terms.append((e2, s))
        k += 1
    return terms


def cube_terms(delta: int, limit: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of f_delta^3 below `limit`."""
    terms = []
    k = 0
    while True:
        e = delta * k * (k + 1) // 2
        if e >= limit:
            break
        c = 2 * k + 1
        terms.append((e, -c if k & 1 else c))
        k += 1
    return terms


# ---------------------------------------------------------------------------
# symbolic types


@dataclass(frozen=True)
class FMonomial:
    """c * q^e * prod f_delta^r_delta with integer exponents."""

    coefficient: int = 1
    qpower: int = 0
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        deltas = [d for d, _ in self.factors]
        if any(d < 1 for d in deltas) or len(set(deltas)) != len(deltas):
            raise ValueError("factor deltas must be distinct positive integers")
        if any(r == 0 for _, r in self.factors):
            raise ValueError("zero exponents must not be stored")
        if list(self.factors) != sorted(self.factors):
            raise ValueError("factors must be sorted; use make()")

    @classmethod
    def make(
        cls,
        coefficient: int = 1,
        qpower: int = 0,
        factors: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "FMonomial":
        items = factors.items() if isinstance(factors, Mapping) else factors
        cleaned = sorted((d, r) for d, r in items if r)
        return cls(coefficient, qpower, tuple(cleaned))

    def __repr__(self):
        parts = []
        if self.coefficient != 1 or not (self.factors or self.qpower):
            parts.append(str(self.coefficient))
        if self.qpower:
            parts.append(f"q^{self.qpower}")
        parts.extend(f"f{d}^{r}" if r != 1 else f"f{d}" for d, r in self.factors)
        return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# expansion engine

# longest expansion seen per (factors, ring); shorter requests are served a
# prefix of it
_memo: dict = {}


def _cached(key, n: int, build):
    hit = _memo.get(key)
    if hit is None or hit[0] < n:
        hit = _memo[key] = (n, build(n))
    return hit[1]


def largest_first(checks) -> list:
    """Call the function of every (order, function) check, largest order
    first, and return their values in the given order.  A check's order is
    the largest expansion it asks for.  The memo keeps the longest build per
    key and serves shorter requests a prefix, so a key first asked for at its
    largest order is built once."""
    values = [None] * len(checks)
    for i in sorted(range(len(checks)), key=lambda i: checks[i][0], reverse=True):
        values[i] = checks[i][1]()
    return values


def check_pass_work(factors: tuple[tuple[int, int], ...], n: int, builds: int = 1) -> None:
    """Refuse `builds` builds of prod f_delta^r below n above MAX_PASS_WORK: f_delta^|r|
    takes |r| // 3 cube passes and |r| % 3 pentagonal ones, each charged n + PASS_CHARGE."""
    passes = builds * sum(sum(divmod(abs(r), 3)) for _, r in factors)
    if passes * (n + PASS_CHARGE) > MAX_PASS_WORK:
        raise InsufficientPrecision(
            f"expansion of {passes} passes to order {n} is above the"
            f" pass-work ceiling {MAX_PASS_WORK}"
        )


# A pass reduces in place by its modulus, np.uint64(M) for Z/M with M odd;
# it is None for Z and for Z/2^64, whose uint64 words wrap by themselves.
def _mul_pass(acc: np.ndarray, exps: np.ndarray, coefs: np.ndarray, modulus) -> np.ndarray:
    n = len(acc)
    out = np.zeros_like(acc)
    for e, c in zip(exps.tolist(), coefs):
        out[e:] += c * acc[: n - e]
    if modulus is not None:
        out %= modulus
    return out


def _div_pass(num: np.ndarray, exps: np.ndarray, coefs: np.ndarray, modulus) -> np.ndarray:
    # forward substitution for g with g * f = num, where f = 1 - sum of
    # coefs * q^exps over exps > 0 (the factor's tail, negated)
    g = num.copy()
    counts = np.searchsorted(exps, np.arange(1, len(g)), side="right")
    with np.errstate(over="ignore"):  # a uint64 scalar sum that wraps is Z/2^64 arithmetic
        for i in range(1, len(g)):
            k = counts[i - 1]
            if k:
                g[i] += g[i - exps[:k]] @ coefs[:k]
                if modulus is not None:
                    g[i] %= modulus
    return g


def _expand_factors(factors: tuple[tuple[int, int], ...], n: int, ring: int | None) -> np.ndarray:
    """Coefficients of prod f_delta^r below n over a ring: Python integers
    in an object array for Z (ring None), uint64 words that wrap for
    Z/2^64 (ring WORD), or uint64 reduced after every pass for Z/M with M
    odd (ring M <= _SMALL_MODULUS_LIMIT).  f_delta^|r| takes |r| // 3 cube
    passes and |r| % 3 pentagonal ones, multiplying for r > 0 and dividing
    for r < 0; builds above MAX_PASS_WORK are refused before any pass.

    Every ring is commutative, so a build multiplies first, by ascending
    delta, then divides by descending delta: in Z that cuts the bits the
    triple's divide passes read by over a third; uint64 passes cost the same.
    A Z build starts on int64 words.  A multiply pass adds products c * a
    of its coefficients c and the accumulator's a, so max|a| * sum|c|
    bounds every product and partial sum it forms; while that bound is
    below 2^63 the pass runs on int64 and cannot wrap.  Once it is not, and
    before the first divide pass, the accumulator becomes an object array
    of Python integers for the rest of the build."""

    def build(limit):
        check_pass_work(factors, limit)
        modulus = None if ring is None or ring == WORD else np.uint64(ring)
        # a pass sums at most `limit` products below (ring-1)^2 before it reduces
        assert modulus is None or limit * (ring - 1) ** 2 < WORD, "uint64 pass sums would wrap"
        acc = np.zeros(limit, np.int64 if ring is None else np.uint64)
        acc[0] = 1
        for delta, r in sorted(factors, key=lambda f: (f[1] < 0, -f[0] if f[1] < 0 else f[0])):
            cubes, rest = divmod(abs(r), 3)
            for count, make in ((cubes, cube_terms), (rest, pentagonal_terms)):
                if not count:
                    continue
                terms = make(delta, limit)
                if r > 0:
                    step = _mul_pass
                else:
                    step = _div_pass
                    terms = [(e, -c) for e, c in terms if e > 0]
                exps = np.array([e for e, _ in terms], dtype=np.int64)
                coefs = np.array([c if ring is None else c % ring for _, c in terms], acc.dtype)
                weight = sum(abs(c) for _, c in terms)
                for _ in range(count):
                    # the pass bound: Z stays on int64 words while no product
                    # or partial sum of this multiply pass can reach 2^63
                    if acc.dtype == np.int64 and (
                        step is _div_pass
                        or max(int(acc.max()), -int(acc.min())) * weight >= 1 << 63
                    ):
                        acc = acc.astype(object)
                        coefs = coefs.astype(object)
                    acc = step(acc, exps, coefs, modulus)
        return acc.astype(object) if acc.dtype == np.int64 else acc

    return _cached((factors, ring), n, build)[:n]


def residue_modulus(modulus: int) -> tuple[int, int]:
    """The power-of-two and odd parts of a modulus the residue engine
    serves: 2 <= M <= 2^63 with an odd part at most 2^15.  This is the one
    check of a residue modulus; claims, scans and density reports call it
    when they are made, so an unserved modulus is refused before any build."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    two = modulus & -modulus
    odd = modulus // two
    if modulus > 1 << 63 or odd > _SMALL_MODULUS_LIMIT:
        raise UnsupportedModulus(
            f"modulus {modulus} outside the residue range (M <= 2^63, odd part <= 2^15)"
        )
    return two, odd


def residue_array(monomial: FMonomial, order: int, modulus: int) -> np.ndarray:
    """Residues mod `modulus` of the monomial's coefficients for exponents
    [0, order), as a uint64 array.  Only valuation-0 monomials are accepted
    here; congruence scans never need a principal part.

    Any modulus residue_modulus accepts is served: the power-of-two part
    reads the cached word array, the odd part the reduced array, and a
    composite M combines the two by CRT.  Orders above MAX_ORDER are
    refused before anything is allocated."""
    if monomial.qpower != 0:
        raise ValueError("residue scans expect a valuation-0 monomial")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise InsufficientPrecision(
            f"required order {order} above the configured ceiling {MAX_ORDER}"
        )
    two, odd = residue_modulus(modulus)
    c = monomial.coefficient % modulus
    if c == 0:
        return np.zeros(order, np.uint64)
    if two > 1 and odd > 1:
        # each part goes through this function, so traces show both paths
        a2 = residue_array(monomial, order, two)
        ao = residue_array(monomial, order, odd)
        # x = a2 + two * t with t = (ao - a2) * two^-1 mod odd, computed in
        # place in ao: both arrays are fresh, never a cache entry.  M = 0 mod
        # odd, so ao + M - a2 = ao - a2 (mod odd); it lies in (0, M + odd),
        # and M + odd <= 2^63 + 2^15, so adding before subtracting wraps
        # nothing.  Reduced, t < odd <= 2^15 and t * two^-1 < 2^30; the
        # result two * t + a2 <= two * (odd - 1) + two - 1 = M - 1.
        ao += np.uint64(modulus)
        ao -= a2
        ao %= np.uint64(odd)
        ao *= np.uint64(pow(two, -1, odd))
        ao %= np.uint64(odd)
        ao *= np.uint64(two)
        ao += a2
        return ao
    if odd == 1:
        out = _expand_factors(monomial.factors, order, WORD) & np.uint64(modulus - 1)
    else:
        out = _expand_factors(monomial.factors, order, modulus).copy()
    if c != 1:
        # a power-of-two modulus divides 2^64, so the product may wrap
        out = out * np.uint64(c) % np.uint64(modulus)
    return out


def residue_arrays(monomial: FMonomial, order: int, moduli: Iterable[int]):
    """(M, residue_array(monomial, order, M)) for each modulus in turn.  Its
    rings' builds (the word ring for every even M, and one ring per odd part
    above 1) are charged to MAX_PASS_WORK together before the first, and each
    leaves the memo once the last modulus that reads it is served."""
    moduli = list(moduli)
    last = {}  # ring -> the last modulus that reads it
    for M in moduli:
        two, odd = residue_modulus(M)
        if two > 1:
            last[WORD] = M
        if odd > 1:
            last[odd] = M
    check_pass_work(monomial.factors, order, len(last))
    for M in moduli:
        yield M, residue_array(monomial, order, M)
        for ring, final in last.items():
            if final == M:
                _memo.pop((monomial.factors, ring), None)


# ---------------------------------------------------------------------------
# public expansion operations


def exact_bytes(factors: tuple[tuple[int, int], ...], n: int) -> float:
    """Estimated peak bytes of the exact build of prod f_delta^r below n,
    the figure MAX_EXACT_BYTES bounds."""
    c = sum((-r if r < 0 else r / 2) / delta for delta, r in factors)
    return n * (pi * sqrt(2 * c * n / 3) / log(2) / 2.5 + 128)


def expand_monomial(m: FMonomial, n: int) -> list[int]:
    """Exact coefficients of m for the nonempty window [m.qpower, n): the
    exact route of expand, refused above MAX_EXACT_BYTES before it
    allocates.  perfbench reads the exact engine's calls by this name."""
    length = n - m.qpower
    size = exact_bytes(m.factors, length)
    if size > MAX_EXACT_BYTES:
        raise InsufficientPrecision(
            f"exact expansion of {length} coefficients needs about {size:.3g} bytes,"
            f" above the exact-path ceiling {MAX_EXACT_BYTES}"
        )
    coeffs = _expand_factors(m.factors, length, None)
    return (coeffs if m.coefficient == 1 else coeffs * m.coefficient).tolist()


def expand(
    terms: FMonomial | Iterable[FMonomial], n: int, modulus: int | None = None
) -> TruncatedSeries:
    """Expansion below exponent n of a monomial or a sum of monomials:
    exact, or with coefficients in [0, modulus) read from residue_array.

    A term c * q^e * prod f_delta^r fills the window [e, n); an empty
    window or c = 0 gives zero.  An empty sum is zero, a one-term sum is
    that term's series, and a residue sum is reduced once, at the end.  A
    modulus passes residue_modulus before any term, so an empty sum and an
    empty window are refused an unserved modulus too."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if modulus is not None:
        residue_modulus(modulus)

    def term(t: FMonomial) -> TruncatedSeries:
        if t.qpower >= n:
            return zero(n)
        if modulus is not None:
            arr = residue_array(FMonomial(t.coefficient, 0, t.factors), n - t.qpower, modulus)
            return TruncatedSeries.make(t.qpower, arr.tolist(), n)
        if not t.coefficient:
            return zero(n)
        return TruncatedSeries.make(t.qpower, expand_monomial(t, n), n)

    series = map(term, (terms,) if isinstance(terms, FMonomial) else terms)
    first = next(series, zero(n))
    total = sum(series, first)
    if modulus is None or total is first:
        return total
    return reduce_mod(total, modulus)


# ---------------------------------------------------------------------------
# eta quotients and the lacunarity criterion


@dataclass(frozen=True)
class CriterionReport:
    prime: int
    max_power_exponent: int
    prime_power: int
    bound_squared: Fraction
    lacunary: bool


def cotron_check(g: FMonomial, p: int) -> CriterionReport:
    """Divisibility criterion for lacunarity mod powers of p, applied to the
    eta quotient prod eta(delta*tau)^r_delta of g's factors; g's coefficient
    and q-power play no part.

    The weight is sum(r) / 2.  Finds the largest a with p^a dividing d_g,
    the gcd of the numerator deltas, and compares p^(2a) against
    (sum gamma_i s_i) / (sum r_i / delta_i) in exact rational arithmetic.
    Verdict is lacunary when the inequality holds, inconclusive otherwise."""
    if sum(r for _, r in g.factors) % 2:
        raise NonIntegerWeight("criterion requires integer weight")
    numer = [(d, r) for d, r in g.factors if r > 0]
    denom = [(d, -r) for d, r in g.factors if r < 0]
    if not numer:
        raise ValueError("criterion needs at least one positive eta exponent")
    a = 0
    d = gcd(*(delta for delta, _ in numer))
    while d % p == 0:
        a += 1
        d //= p
    s_sum = sum(gamma * s for gamma, s in denom)
    t_sum = sum(Fraction(r, delta) for delta, r in numer)
    bound_sq = Fraction(s_sum) / t_sum
    lacunary = Fraction(p ** (2 * a)) >= bound_sq
    return CriterionReport(p, a, p**a, bound_sq, lacunary)
