"""Out-of-program spans for the overcubic package, and the layer metrics
computed from them.

``install`` wraps every public function of every ``overcubic`` module from
outside, at its home module and at every ``from ... import`` copy, so no
file of the program changes.  Each call records one span (name, start, end,
parent span, attributes) in memory; the child writes the list out when the
command ends, one file per command, so the file is the spans' command id.
A span's self time is its duration minus its direct child
spans, so the self times of one command add up to its root span, the
traced ``cli.main``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Modules whose self time is reported on its own; anything else lands in
# other.self_s, so the module totals always add up to the traced solve time.
MODULES = (
    "catalogs", "certify", "cli", "congruence", "density", "dissect", "etaq",
    "oracle", "reporting", "series", "util",
)


def _pow2(m: int) -> bool:
    return m >= 2 and m & (m - 1) == 0


def _residue_attrs(bound) -> dict:
    # the residue engine caches pow2 requests under one key per factor tuple
    # and odd requests under (factors, modulus)
    mon, order, modulus = bound["monomial"], bound["order"], bound["modulus"]
    kind = "pow2" if _pow2(modulus) else "odd"
    key = f"{mon.factors!r} {'pow2' if kind == 'pow2' else modulus}"
    return {"key": key, "order": order, "kind": kind}


def _exact_attrs(bound) -> dict:
    m, n = bound["m"], bound["n"]
    length = n - m.qpower if m.coefficient else 0
    return {"key": repr(m.factors), "order": max(0, length)}


# Attributes recorded from the arguments, per span name.
ATTRS = {"etaq.residue_array": _residue_attrs, "etaq.expand_monomial": _exact_attrs}


class Tracer:
    """Span list for one process.  Calls are assumed single-threaded, which
    holds while OVERCUBIC_THREADS is unset."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        # time.monotonic is CLOCK_MONOTONIC, the clock child.py stamps with
        spans, stack, clock = self.spans, self._stack, time.monotonic
        attrs_of = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(signature.bind(*args, **kwargs).arguments) if attrs_of else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "reporting.to_json":
                rec[4] = {"bytes": len(result.encode())}
            return result

        return traced


def package_modules(package: str = "overcubic") -> list:
    """The package and its submodules.  ``__main__`` is skipped: importing
    it runs the CLI."""
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


def install(tracer: Tracer, package: str = "overcubic") -> dict[str, list[str]]:
    """Wrap every public function at every binding; returns, per span name,
    the module attributes now bound to its wrapper."""
    mods = package_modules(package)
    wrappers = {}  # id(original) -> (original, wrapper, span name)
    for mod in mods:
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{mod.__name__.rpartition('.')[2]}.{attr}"
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj), name)
    bindings: dict[str, list[str]] = {}
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                bindings.setdefault(hit[2], []).append(f"{mod.__name__}.{attr}")
    return bindings


# ---------------------------------------------------------------------------
# layer metrics


def self_times(spans: list) -> list[float]:
    """Duration minus direct children, per span."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _reuse(calls: list[dict]) -> tuple[int, int]:
    """(covered, requested) coefficients over requests in call order: a
    request is covered up to the longest earlier request with its key."""
    longest: dict = {}
    covered = requested = 0
    for a in calls:
        key = a["key"]
        covered += min(a["order"], longest.get(key, 0))
        requested += a["order"]
        longest[key] = max(longest.get(key, 0), a["order"])
    return covered, requested


LAYER_METRICS = (
    ("etaq.residue.self_s", "s", "lower"),
    ("etaq.residue.pow2_s", "s", "lower"),
    ("etaq.residue.odd_s", "s", "lower"),
    ("etaq.residue.calls", "count", "lower"),
    ("etaq.residue.coeffs", "count", "lower"),
    ("etaq.residue.coeffs_per_s", "1/s", "higher"),
    ("etaq.residue.reuse_share", "ratio", "higher"),
    ("etaq.exact.self_s", "s", "lower"),
    ("etaq.exact.calls", "count", "lower"),
    ("etaq.exact.coeffs", "count", "lower"),
    ("etaq.exact.reuse_share", "ratio", "higher"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.first_difference.self_s", "s", "lower"),
    ("dissect.verify_identity.self_s", "s", "lower"),
    ("dissect.extract_progression.self_s", "s", "lower"),
    ("certify.verify_certificate.self_s", "s", "lower"),
    ("congruence.verify_congruence.self_s", "s", "lower"),
    ("congruence.claims", "count", "higher"),
    ("density.compute_density.self_s", "s", "lower"),
    ("reporting.to_json.self_s", "s", "lower"),
    ("reporting.bytes", "B", "lower"),
) + tuple((f"{m}.self_s", "s", "lower") for m in MODULES) + (
    ("other.self_s", "s", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(commands: list[list]) -> dict[str, float]:
    """Layer metrics of a workload from the span lists of its commands, each
    traced in its own process.  Reuse is tracked per process, because each
    command starts with empty caches.  trace.* metrics are filled in by the
    caller."""
    fn_self: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    mod_self: dict[str, float] = {}
    residue = {"pow2": 0.0, "odd": 0.0}
    covered = {"etaq.residue_array": [0, 0], "etaq.expand_monomial": [0, 0]}  # [covered, requested]
    nbytes = 0
    for spans in commands:
        calls: dict[str, list] = {"etaq.residue_array": [], "etaq.expand_monomial": []}
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span[0], span[4]
            fn_self[name] = fn_self.get(name, 0.0) + own
            fn_calls[name] = fn_calls.get(name, 0) + 1
            module = name.partition(".")[0]
            module = module if module in MODULES else "other"
            mod_self[module] = mod_self.get(module, 0.0) + own
            if name in calls:
                calls[name].append(attrs)
            if name == "etaq.residue_array":
                residue[attrs["kind"]] += own
            elif name == "reporting.to_json":
                nbytes += attrs["bytes"]
        for name, seq in calls.items():
            c, r = _reuse(seq)
            covered[name][0] += c
            covered[name][1] += r

    def share(name):
        c, r = covered[name]
        return c / r if r else 0.0

    res_self = fn_self.get("etaq.residue_array", 0.0)
    out = {
        "etaq.residue.self_s": res_self,
        "etaq.residue.pow2_s": residue["pow2"],
        "etaq.residue.odd_s": residue["odd"],
        "etaq.residue.calls": fn_calls.get("etaq.residue_array", 0),
        "etaq.residue.coeffs": covered["etaq.residue_array"][1],
        "etaq.residue.coeffs_per_s": covered["etaq.residue_array"][1] / res_self if res_self else 0.0,
        "etaq.residue.reuse_share": share("etaq.residue_array"),
        "etaq.exact.self_s": fn_self.get("etaq.expand_monomial", 0.0),
        "etaq.exact.calls": fn_calls.get("etaq.expand_monomial", 0),
        "etaq.exact.coeffs": covered["etaq.expand_monomial"][1],
        "etaq.exact.reuse_share": share("etaq.expand_monomial"),
        "series.mul.calls": fn_calls.get("series.mul", 0),
        "congruence.claims": fn_calls.get("congruence.verify_congruence", 0),
        "reporting.bytes": nbytes,
    }
    for name in (
        "series.mul", "series.add", "series.first_difference", "dissect.verify_identity",
        "dissect.extract_progression", "certify.verify_certificate",
        "congruence.verify_congruence", "density.compute_density", "reporting.to_json",
    ):
        out[f"{name}.self_s"] = fn_self.get(name, 0.0)
    for module in MODULES + ("other",):
        out[f"{module}.self_s"] = mod_self.get(module, 0.0)
    return out
