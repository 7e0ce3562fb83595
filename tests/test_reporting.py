import json
import tracemalloc
from fractions import Fraction

import pytest

from overcubic.reporting import _jsonable, to_json

PAYLOADS = {
    "empty": {},
    "nested": {"b": [1, {"z": None, "a": [True, 2.5, "x"]}], "a": {"c": [], "d": {}}},
    "fraction": {"delta": Fraction(3, 7), "rows": [{"delta": Fraction(-1, 2)}]},
    "ints": list(range(100_000)),
}


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
def test_to_json_is_json_dumps(payload):
    assert to_json(payload) == json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"


def test_to_json_peak_is_bounded_by_the_text():
    payload = PAYLOADS["ints"]
    tracemalloc.start()
    try:
        text = to_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
