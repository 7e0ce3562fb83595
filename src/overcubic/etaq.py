"""Euler products f_k, symbolic f-quotients, theta series, and the
eta-quotient lacunarity criterion.

The expansion engine works factor by factor: multiplying or dividing by a
single f_delta uses its pentagonal-number expansion (all coefficients in
{-1, 0, 1}), and cubes f_delta^3 use the classical sparse expansion with
coefficients +-(2k+1), which cuts the number of passes for large
exponents roughly by three.  Exact expansions carry Python integers; the
residue path carries numpy uint64 words, either wrapping naturally mod
2^64 (exact for any power-of-two modulus up to 2^63) or reduced mod a
small odd modulus after every pass.  expand is the one series entry
point, exact or mod M.  residue_array, the array primitive under its
residue route, splits a modulus into those two parts and recombines
them by CRT.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log, pi, sqrt
from typing import Iterable, Mapping

import numpy as np

from . import catalogs
from .errors import InsufficientPrecision, NonIntegerWeight, UnsupportedModulus
from .series import TruncatedSeries, reduce_mod, zero

# hard ceiling on residue expansion orders so a mistyped size fails fast
MAX_ORDER = 4_000_000

# Ceiling on the estimated peak bytes of one exact expansion, checked before
# it allocates.  The saddle-point bound [q^n]F <= F(x)/x^n on the majorant of
# prod f_delta^r_delta (log F(e^-t) <= pi^2 sum |r_delta| / (6 delta t))
# gives log2 |a(n)| <= pi*sqrt(2cn/3)/ln 2 with c = sum |r_delta|/delta, and
# every partial product obeys it too.  A Python int of b bits takes at most
# 32 + b/7.5 bytes and a list slot 8 more.  A mul pass holds the accumulator,
# its output and the new slice it writes into the output (three lists of
# ints) and the old slice it reads (a fourth list of slots), so a build
# below n is estimated at n * (bits/2.5 + 128) bytes (exact_bytes).  The cap
# admits the triple family to order 93,832; `coeffs --family overcubic-triple
# --indices 93831` took 35 s cold at 114 MB peak RSS on a 2-core machine.
MAX_EXACT_BYTES = 1 << 27

# Bound on the odd part of a residue modulus.  A mul pass sums up to
# #terms products, each below (m-1)^2, in one uint64 before it reduces, and
# a div pass takes a dot product of the same size; with m <= 2^15 and
# #terms < MAX_ORDER < 2^22 those sums stay below 2^52 < 2^64.
# _expand_factors_residue asserts the bound once per build.
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
        cleaned = sorted((int(d), int(r)) for d, r in items if int(r) != 0)
        return cls(int(coefficient), int(qpower), tuple(cleaned))

    @classmethod
    def from_dict(cls, d: Mapping) -> "FMonomial":
        """Parse the catalog form {"coefficient", "qpower", "factors": {delta: r}}."""
        return cls.make(d.get("coefficient", 1), d.get("qpower", 0), d.get("factors", {}))

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

# longest expansion seen per key; shorter requests are served a prefix of it
_exact_cache: dict = {}
_residue_cache: dict = {}


def _cached(cache: dict, key, n: int, build):
    hit = cache.get(key)
    if hit is None or hit[0] < n:
        hit = cache[key] = (n, build(n))
    return hit[1]


def largest_first(checks) -> list:
    """Call the function of every (order, function) check, largest order
    first, and return their values in the given order.  A check's order is
    the largest expansion it asks for.  The memos keep the longest build per
    key and serve shorter requests a prefix, so a key first asked for at its
    largest order is built once."""
    values = [None] * len(checks)
    for i in sorted(range(len(checks)), key=lambda i: checks[i][0], reverse=True):
        values[i] = checks[i][1]()
    return values


def _factor_passes(delta: int, r: int, limit: int):
    """Yield sparse term lists whose product is f_delta^|r|."""
    cubes, rest = divmod(abs(r), 3)
    if cubes:
        terms = cube_terms(delta, limit)
        for _ in range(cubes):
            yield terms
    if rest:
        terms = pentagonal_terms(delta, limit)
        for _ in range(rest):
            yield terms


def _mul_pass(acc: list[int], terms, n: int) -> list[int]:
    out = [0] * n
    for e, c in terms:
        if e >= n:
            break
        if c == 1:
            out[e:] = [x + y for x, y in zip(out[e:], acc)]
        elif c == -1:
            out[e:] = [x - y for x, y in zip(out[e:], acc)]
        else:
            out[e:] = [x + c * y for x, y in zip(out[e:], acc)]
    return out


def _div_pass(num: list[int], terms, n: int) -> list[int]:
    # forward substitution for g with g * f = num; f has constant term 1
    tail = [(e, c) for e, c in terms if e > 0]
    g = list(num)
    for i in range(1, n):
        s = 0
        for e, c in tail:
            if e > i:
                break
            s += c * g[i - e]
        if s:
            g[i] -= s
    return g


def _expand_factors_exact(factors: tuple[tuple[int, int], ...], n: int) -> list[int]:
    def build(limit):
        acc = [1] + [0] * (limit - 1)
        for delta, r in factors:
            for terms in _factor_passes(delta, r, limit):
                acc = _mul_pass(acc, terms, limit) if r > 0 else _div_pass(acc, terms, limit)
        return acc

    return _cached(_exact_cache, factors, n, build)[:n]


def _np_terms(terms, wrap: int):
    exps = np.array([e for e, _ in terms], dtype=np.int64)
    coefs = np.array([c % wrap for _, c in terms], dtype=np.uint64)
    return exps, coefs


def _np_mul_pass(acc: np.ndarray, exps, coefs, n: int, modulus: int | None) -> np.ndarray:
    out = np.zeros(n, dtype=np.uint64)
    for e, c in zip(exps.tolist(), coefs.tolist()):
        if e >= n:
            break
        out[e:] += np.uint64(c) * acc[: n - e]
    if modulus is not None:
        out %= np.uint64(modulus)
    return out


def _np_div_pass(num: np.ndarray, exps, coefs, n: int, wrap: int) -> np.ndarray:
    keep = exps > 0
    es, cs = exps[keep], coefs[keep]
    g = num.copy()
    if es.size == 0 or n <= 1:
        return g
    counts = np.searchsorted(es, np.arange(1, n), side="right")
    for i in range(1, n):
        k = counts[i - 1]
        if k:
            acc = int(g[i - es[:k]] @ cs[:k])
            g[i] = (int(g[i]) - acc) % wrap
    return g


def _expand_factors_residue(
    factors: tuple[tuple[int, int], ...], n: int, modulus: int | None
) -> np.ndarray:
    """f-product coefficients as uint64: raw words (exact mod 2^64) when
    modulus is None, else reduced mod the given small odd modulus."""

    wrap = 1 << 64 if modulus is None else modulus

    def build(limit):
        passes = [
            (r > 0, _np_terms(terms, wrap))
            for delta, r in factors
            for terms in _factor_passes(delta, r, limit)
        ]
        if modulus is not None:
            widest = max((len(exps) for _, (exps, _) in passes), default=0)
            assert widest * (modulus - 1) ** 2 < 1 << 64, "uint64 pass sums would wrap"
        acc = np.zeros(limit, dtype=np.uint64)
        acc[0] = 1
        for is_mul, (exps, coefs) in passes:
            if is_mul:
                acc = _np_mul_pass(acc, exps, coefs, limit, modulus)
            else:
                acc = _np_div_pass(acc, exps, coefs, limit, wrap)
        return acc

    return _cached(_residue_cache, (factors, modulus), n, build)[:n]


def residue_array(monomial: FMonomial, order: int, modulus: int) -> np.ndarray:
    """Residues mod `modulus` of the monomial's coefficients for exponents
    [0, order), as a uint64 array.  Only valuation-0 monomials are accepted
    here; congruence scans never need a principal part.

    Any modulus M <= 2^63 whose odd part is at most 2^15 is served: the
    power-of-two part reads the cached word array, the odd part the
    reduced array, and a composite M combines the two by CRT.  Orders
    above MAX_ORDER are refused before anything is allocated."""
    if monomial.qpower != 0:
        raise ValueError("residue scans expect a valuation-0 monomial")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise InsufficientPrecision(
            f"required order {order} above the configured ceiling {MAX_ORDER}"
        )
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    two = modulus & -modulus
    odd = modulus // two
    if modulus > 1 << 63 or odd > _SMALL_MODULUS_LIMIT:
        raise UnsupportedModulus(
            f"modulus {modulus} outside the residue range (M <= 2^63, odd part <= 2^15)"
        )
    if two > 1 and odd > 1:
        # each part goes through this function, so traces show both paths
        a2 = residue_array(monomial, order, two)
        ao = residue_array(monomial, order, odd)
        # x = a2 + two * t with t = (ao - a2) * two^-1 mod odd.  Before its
        # last reduction t is a product of factors below 2 * odd and odd,
        # so below 2^31; x < two * odd = M < 2^63.  Nothing wraps.
        inv_two = np.uint64(pow(two, -1, odd))
        t = (ao + np.uint64(odd) - a2 % np.uint64(odd)) * inv_two % np.uint64(odd)
        return a2 + np.uint64(two) * t
    if odd == 1:
        out = _expand_factors_residue(monomial.factors, order, None) & np.uint64(modulus - 1)
    else:
        out = _expand_factors_residue(monomial.factors, order, modulus).copy()
    c = monomial.coefficient % modulus
    if c != 1:
        # a power-of-two modulus divides 2^64, so the product may wrap
        out = out * np.uint64(c) % np.uint64(modulus)
    return out


# ---------------------------------------------------------------------------
# public expansion operations


def exact_bytes(factors: tuple[tuple[int, int], ...], n: int) -> float:
    """Estimated peak bytes of the exact build of prod f_delta^r below n,
    the figure MAX_EXACT_BYTES bounds."""
    c = sum(abs(r) / delta for delta, r in factors)
    return n * (pi * sqrt(2 * c * n / 3) / log(2) / 2.5 + 128)


def expand_monomial(m: FMonomial, n: int) -> list[int]:
    """Exact coefficients of m for the nonempty window [m.qpower, n): the
    exact route of expand, refused above MAX_EXACT_BYTES before it
    allocates.  perfbench reads the exact engine's calls by this name."""
    length = n - m.qpower
    size = exact_bytes(m.factors, length)
    if size > MAX_EXACT_BYTES:
        raise InsufficientPrecision(
            f"exact expansion to order {n} needs about {size:.3g} bytes,"
            f" above the exact-path ceiling {MAX_EXACT_BYTES}"
        )
    coeffs = _expand_factors_exact(m.factors, length)
    return coeffs if m.coefficient == 1 else [m.coefficient * c for c in coeffs]


def expand(
    terms: FMonomial | Iterable[FMonomial], n: int, modulus: int | None = None
) -> TruncatedSeries:
    """Expansion below exponent n of a monomial or a sum of monomials:
    exact, or with coefficients in [0, modulus) read from residue_array.

    A term c * q^e * prod f_delta^r fills the window [e, n); an empty
    window or c = 0 gives zero.  An empty sum is zero, a one-term sum is
    that term's series, and a residue sum is reduced once, at the end."""
    if n < 1:
        raise ValueError("order must be >= 1")

    def term(t: FMonomial) -> TruncatedSeries:
        length = n - t.qpower
        if modulus is None:
            if length < 1 or not t.coefficient:
                return zero(n)
            return TruncatedSeries.make(t.qpower, expand_monomial(t, n), n)
        # an empty window still goes through residue_array, which checks the modulus
        arr = residue_array(FMonomial(t.coefficient, 0, t.factors), max(length, 1), modulus)
        return TruncatedSeries.make(t.qpower, arr.tolist(), n) if length > 0 else zero(n)

    series = map(term, (terms,) if isinstance(terms, FMonomial) else terms)
    first = next(series, zero(n))
    total = sum(series, first)
    if modulus is None or total is first:
        return total
    return reduce_mod(total, modulus)


# ---------------------------------------------------------------------------
# theta series


def phi(n: int) -> TruncatedSeries:
    """1 + 2*sum q^(k^2), truncated below exponent n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * n
    coeffs[0] = 1
    k = 1
    while k * k < n:
        coeffs[k * k] = 2
        k += 1
    return TruncatedSeries.make(0, coeffs, n)


def psi(n: int) -> TruncatedSeries:
    """sum q^(k(k+1)/2), truncated below exponent n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        coeffs[k * (k + 1) // 2] = 1
        k += 1
    return TruncatedSeries.make(0, coeffs, n)


def sellers_product(t: int, n: int) -> TruncatedSeries:
    """(phi(q) * prod_{i>=1} phi(q^(2^i))^(3*2^(i-1)))^t below exponent n.

    Factors with 2^i > n contribute only 1 below q^n and are dropped.  Each
    factor is powered before dilation, which keeps the intermediate series
    short."""
    from .series import dilate, mul, power  # local import keeps module top tidy

    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("order must be >= 1")
    acc = phi(n)
    i = 1
    while (1 << i) <= n:
        step = 1 << i
        inner = phi((n + step - 1) // step)
        factor = _clip(dilate(power(inner, 3 << (i - 1)), step), n)
        acc = mul(acc, factor)
        i += 1
    return _clip(power(acc, t), n)


def _clip(s: TruncatedSeries, n: int) -> TruncatedSeries:
    if s.order == n:
        return s
    if s.order < n:
        raise ValueError("cannot extend a truncated series")
    return TruncatedSeries.make(s.valuation, s.window(s.valuation, n), n)


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


# ---------------------------------------------------------------------------
# named generating-function families


@dataclass(frozen=True)
class Family:
    """A named generating function; k is the tuple length of the
    parameterized families (a k-linear exponent in the catalog) and must be
    1 for the others."""

    name: str
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        entry = catalogs.family_table().get(self.name)
        if entry is None:
            known = ", ".join(sorted(catalogs.family_table()))
            raise ValueError(f"unknown family {self.name!r}; known: {known}")
        if self.k != 1 and all(isinstance(r, int) for r in entry["factors"].values()):
            raise ValueError(f"family {self.name!r} has no tuple length; k must be 1")


_K_LINEAR = re.compile(r"^(-?\d*)k$")


def _scaled_exponent(value, k: int) -> int:
    if isinstance(value, int):
        return value
    m = _K_LINEAR.match(str(value).strip())
    if not m:
        raise ValueError(f"factor exponent {value!r} is neither an integer nor <int>k")
    lead = m.group(1)
    coeff = -1 if lead == "-" else 1 if lead == "" else int(lead)
    return coeff * k


def family_monomial(family: Family) -> FMonomial:
    entry = catalogs.family_table()[family.name]
    factors = {
        int(d): _scaled_exponent(r, family.k) for d, r in entry["factors"].items()
    }
    return FMonomial.make(qpower=int(entry.get("qpower", 0)), factors=factors)
