"""Verification records and canonical report emission.

Reports are emitted with sorted keys and no timestamps, so identical
inputs produce byte-identical JSON.  Exact rationals are serialized as
"num/den" strings; rounding happens only at explicitly labeled columns.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Any


@dataclass
class VerificationResult:
    """Outcome of one claim.  `verdict` is what the run established: "checked"
    to n_checked (or the claim's X or x_grid), or "criterion"."""

    name: str
    passed: bool
    first_violation: int | None = None
    n_checked: int | None = None
    verdict: str = "checked"
    detail: str = ""
    claim: dict[str, Any] = field(default_factory=dict)
    orders: dict[str, int] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {"name": self.name, "passed": self.passed, "verdict": self.verdict}
        rec.update(self.claim)
        if self.n_checked is not None:
            rec["n_checked"] = self.n_checked
        rec["first_violation"] = self.first_violation
        if self.detail:
            rec["detail"] = self.detail
        if self.orders:
            rec["orders"] = dict(self.orders)
        return rec


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# encoder chunks joined at a time: the indented encoder yields about one
# chunk per scalar, and a chunk object is several times the size of its text
_JSON_BATCH = 4096


def to_json(payload: Any) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=2) plus a
    newline.  The encoder's chunks are joined in fixed batches, so at most
    one batch of chunk objects is alive beside the text built so far."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2, default=_jsonable).iterencode(payload)
    batches = []
    while batch := list(islice(chunks, _JSON_BATCH)):
        batches.append("".join(batch))
    batches.append("\n")
    return "".join(batches)


CONGRUENCE_COLUMNS = (
    "family",
    "k",
    "alpha",
    "m",
    "j",
    "modulus",
    "n_checked",
    "status",
    "first_violation",
)


def to_csv(rows: list[dict[str, Any]], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: _csv_cell(row.get(c)) for c in columns})
    return buf.getvalue()


def _csv_cell(value):
    return "" if value is None else value
