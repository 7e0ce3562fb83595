"""The JSON catalogs (families, identities, certificates) and their one reader.

A path the user types is read from the working directory first, then from
the copies shipped inside the package, so CLI invocations work from any
directory; the family table and the paper suites read the packaged copies.

Every number in these files is a JSON integer, never a bool, a float or
a string; factor keys are decimal strings, names strings and sums lists.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from . import certify, dissect, etaq


def _packaged(relative: str):
    node = resources.files(__package__) / "catalogs"
    for part in Path(relative).parts:
        node = node / part
    return node


def read_text(ref: str | Path) -> str:
    p = Path(ref)
    if p.exists():
        return p.read_text()
    node = _packaged(str(ref))
    if node.is_file():
        return node.read_text()
    raise FileNotFoundError(f"no catalog file at {ref!r} (checked cwd and packaged catalogs)")


def read(ref: str | Path, kind: str, parse):
    """parse applied to the JSON in ref, with a missing key or a wrongly
    typed value refused as ValueError("malformed <kind> <ref>: ...").  So is
    a float or NaN anywhere in the file: the decoder hands its text, a str,
    to _typed."""
    text = read_text(ref)
    try:
        return parse(json.loads(text, parse_float=_typed, parse_constant=_typed))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} {ref}: {exc!r}") from exc


def _typed(value, kind: type = int):
    """value, if its JSON type is `kind`; a number must be a JSON integer."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _integers(value) -> tuple[int, ...]:
    return tuple(map(_typed, _typed(value, list)))


def _monomial(d: dict) -> etaq.FMonomial:
    """The form {"coefficient", "qpower", "factors": {"delta": r}}; the
    coefficient defaults to 1, the q-power to 0."""
    factors = _typed(d.get("factors", {}), dict)
    if not all(key.isascii() and key.isdecimal() for key in factors):
        raise TypeError(f"factor keys {list(factors)} are not all decimal strings")
    return etaq.FMonomial.make(
        _typed(d.get("coefficient", 1)),
        _typed(d.get("qpower", 0)),
        {int(key): _typed(r) for key, r in factors.items()},
    )


def _sum(d: dict) -> tuple[etaq.FMonomial, ...]:
    return tuple(map(_monomial, _typed(d["sum"], list)))


@lru_cache(maxsize=1)
def family_table() -> dict[str, tuple[etaq.FMonomial, bool]]:
    """name -> (monomial, tuple flag).  A tuple family stores one member's
    f-product; Family.monomial raises it to the k-th power."""
    return read(
        _packaged("families/catalog.json"),
        "family catalog",
        lambda entries: {
            _typed(e["name"], str): (_monomial(e), _typed(e.get("tuple", False), bool))
            for e in _typed(entries, list)
        },
    )


@dataclass(frozen=True)
class Family:
    """A named generating function of the family catalog; k is the tuple
    length of a tuple family, and must be 1 for the others."""

    name: str
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        entry = family_table().get(self.name)
        if entry is None:
            known = ", ".join(sorted(family_table()))
            raise ValueError(f"unknown family {self.name!r}; known: {known}")
        if self.k != 1 and not entry[1]:
            raise ValueError(f"family {self.name!r} has no tuple length; k must be 1")

    @property
    def monomial(self) -> etaq.FMonomial:
        """The family's monomial; for a tuple family, its member to the k-th power."""
        member, _ = family_table()[self.name]
        k = self.k
        factors = [(d, r * k) for d, r in member.factors]
        return etaq.FMonomial.make(member.coefficient**k, member.qpower * k, factors)


def claim_from_dict(d: dict) -> dissect.IdentityClaim:
    """One identity entry; a {"family": {"name", "k"}} left side becomes
    the one-term sum of that family's monomial."""
    lhs = d["lhs"]
    if "family" in lhs:
        f = lhs["family"]
        lhs = (Family(_typed(f["name"], str), _typed(f.get("k", 1))).monomial,)
    else:
        lhs = _sum(lhs)
    return dissect.IdentityClaim(
        name=_typed(d["name"], str),
        lhs=lhs,
        rhs=_sum(d["rhs"]),
        lhs_progression=_integers(d["lhs_progression"]) if "lhs_progression" in d else None,
        modulus=_typed(d["modulus"]) if "modulus" in d else None,
    )


def load_identity_catalog(ref) -> list[dissect.IdentityClaim]:
    return read(
        ref, "identity catalog", lambda entries: list(map(claim_from_dict, _typed(entries, list)))
    )


def certificate_from_dict(d: dict) -> certify.RaduCertificate:
    """One certificate; its basis must be absent or ["1"], the one supported."""
    if d.get("basis", ["1"]) != ["1"]:
        raise ValueError(f'certificate basis must be absent or ["1"], got {d["basis"]!r}')
    return certify.RaduCertificate(
        name=_typed(d["name"], str),
        base=_monomial(d["base"]),
        m=_typed(d["m"]),
        orbit=_integers(d["orbit"]),
        prefactor=_monomial(d["prefactor"]),
        hauptmodul=_monomial(d["hauptmodul"]),
        polynomial=_integers(d["polynomial"]),
        claimed_common_factor=_typed(d["claimed_common_factor"]),
    )


def load_certificate(ref) -> certify.RaduCertificate:
    return read(ref, "certificate", certificate_from_dict)
