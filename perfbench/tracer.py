"""Layer tracing for the benchmark, installed from outside the package.

The tracer wraps the public functions and kernel methods of each ``cend``
module in the benchmark process.  Modules import these names directly (for
example ``from .conformal import nproduct`` in ``classify``), so every module
binding that refers to a wrapped object is replaced, not just the defining
one.  A span records its layer name, start, end and parent; spans stay in
memory until the run ends.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (layer, defining module, attribute path).  A dotted path names a method.
SPANS = (
    ("poly.bipoly_mul", "cend.poly", "BiPoly.__mul__"),
    ("poly.polymatrix_mul", "cend.poly", "PolyMatrix.__mul__"),
    ("poly.hermite_reduce", "cend.poly", "hermite_reduce"),
    ("poly.smith_normal_form", "cend.poly", "smith_normal_form"),
    ("weyl.weyl_mul", "cend.weyl", "weyl_mul"),
    ("weyl.shift_calculus", "cend.weyl", "h_sequences"),
    ("weyl.shift_calculus", "cend.weyl", "split_by_shift"),
    ("weyl.shift_calculus", "cend.weyl", "rebase_coefficients"),
    ("weyl.shift_calculus", "cend.weyl", "rebase_inverse"),
    ("conformal.nproduct", "cend.conformal", "nproduct"),
    ("conformal.locality", "cend.conformal", "locality"),
    ("conformal.bracket", "cend.conformal", "bracket"),
    ("conformal.phi_sigma", "cend.conformal", "phi"),
    ("conformal.phi_sigma", "cend.conformal", "phi_inv"),
    ("conformal.phi_sigma", "cend.conformal", "sigma"),
    ("operators.symbol", "cend.operators", "symbol"),
    ("operators.act", "cend.operators", "act"),
    ("operators.orbit_density_check", "cend.operators", "orbit_density_check"),
    ("classify.subalgebra_closure", "cend.classify", "subalgebra_closure"),
    ("classify.kv_closure", "cend.classify", "kv_closure"),
    ("classify.left_ideal_member", "cend.classify", "left_ideal_member"),
    ("classify.classify_irreducible", "cend.classify", "classify_irreducible"),
    ("classify.apply_autom", "cend.classify", "apply_autom"),
    ("serialize.encode", "cend.serialize", "canonical_dumps"),
    ("cli.main", "cend.cli", "main"),
)

# Called so often that a span each would dominate the run: counted only.
COUNTED = (
    ("poly.unipoly_new", "cend.poly", "UniPoly.__init__"),
    ("classify.span_member", "cend.poly", "HSubmoduleBasis.member"),
)

# Every ``*_to_json`` / ``*_from_json`` in ``cend.serialize`` joins these layers.
_SERIALIZE = {"_to_json": "serialize.encode", "_from_json": "serialize.decode"}

CLOSURE = "classify.subalgebra_closure"

# Per-layer metrics reported by a traced run, with their units.  Metrics
# named ``calls``, ``rows_in``, ``rounds``, ``products`` and ``bytes_out``
# are counts and repeat exactly for a given seed.
LAYER_METRICS = {
    "poly.unipoly_new.calls": "count",
    "poly.bipoly_mul.calls": "count",
    "poly.bipoly_mul.self_s": "s",
    "poly.polymatrix_mul.calls": "count",
    "poly.polymatrix_mul.self_s": "s",
    "poly.hermite_reduce.calls": "count",
    "poly.hermite_reduce.rows_in": "count",
    "poly.hermite_reduce.self_s": "s",
    "poly.smith_normal_form.calls": "count",
    "poly.smith_normal_form.self_s": "s",
    "weyl.weyl_mul.calls": "count",
    "weyl.weyl_mul.self_s": "s",
    "weyl.shift_calculus.self_s": "s",
    "conformal.nproduct.calls": "count",
    "conformal.nproduct.self_s": "s",
    "conformal.nproduct.useful_ratio": "ratio",
    "conformal.locality.calls": "count",
    "conformal.locality.self_s": "s",
    "conformal.bracket.calls": "count",
    "conformal.bracket.self_s": "s",
    "conformal.phi_sigma.self_s": "s",
    "operators.symbol.calls": "count",
    "operators.symbol.self_s": "s",
    "operators.act.calls": "count",
    "operators.act.self_s": "s",
    "operators.orbit_density_check.calls": "count",
    "operators.orbit_density_check.self_s": "s",
    "classify.subalgebra_closure.calls": "count",
    "classify.subalgebra_closure.self_s": "s",
    "classify.subalgebra_closure.rounds": "count",
    "classify.subalgebra_closure.products": "count",
    "classify.span_hit_ratio": "ratio",
    "classify.kv_closure.self_s": "s",
    "classify.left_ideal_member.calls": "count",
    "classify.classify_irreducible.self_s": "s",
    "classify.apply_autom.self_s": "s",
    "classify.unknown_ratio": "ratio",
    "serialize.decode.self_s": "s",
    "serialize.encode.self_s": "s",
    "serialize.bytes_out": "bytes",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "verify.core.s": "s",
    "verify.operators.s": "s",
    "verify.weyl.s": "s",
    "verify.ideals.s": "s",
    "verify.autom.s": "s",
    "verify.classify.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(owner, path):
    """Return (object holding the attribute, attribute name)."""
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span and count recorder; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # (layer, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, layer, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count(self, layer, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[layer] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _after(self, layer):
        """Extra counts taken from a call's arguments or result."""
        counts = self.counts
        if layer == "conformal.nproduct":

            def after(args, out):
                counts["conformal.nproduct.nonzero"] += not out.is_zero()

        elif layer == "poly.hermite_reduce":

            def after(args, out):
                counts["poly.hermite_reduce.rows_in"] += len(args[0])

        elif layer == CLOSURE:

            def after(args, out):
                counts[CLOSURE + ".rounds"] += out.iterations

        elif layer == "classify.classify_irreducible":

            def after(args, out):
                counts["classify.unknown"] += out.verdict == "Unknown"

        elif layer == "classify.span_member":

            def after(args, out):
                counts["classify.span_member.hits"] += bool(out)

        elif layer == "serialize.encode":

            def after(args, out):
                if isinstance(out, str):
                    counts["serialize.bytes_out"] += len(out.encode())

        else:
            after = None
        return after

    # -- installation ------------------------------------------------------

    def _targets(self):
        serialize = sys.modules["cend.serialize"]
        for layer, module, path in SPANS:
            yield layer, module, path, self._span
        for layer, module, path in COUNTED:
            yield layer, module, path, self._count
        for name in sorted(vars(serialize)):
            for suffix, layer in _SERIALIZE.items():
                if name.endswith(suffix):
                    yield layer, "cend.serialize", name, self._span

    def install(self):
        """Wrap every target and rebind it in each ``cend`` module."""
        import cend.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cend"]
        for layer, module, path, make in self._targets():
            owner, name = _resolve(sys.modules[module], path)
            orig = vars(owner)[name]
            wrapper = make(layer, orig, self._after(layer))
            if "." in path:
                setattr(owner, name, wrapper)
                self._restore.append((owner, name, orig))
            else:
                self._rebind(modules, orig, wrapper)
        self._rebind(modules, sys.modules["cend.verify"].verify_suite, self._verify_suite())

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _verify_suite(self):
        """``verify_suite`` timed as ``verify.<suite>``, one layer per suite."""
        orig = sys.modules["cend.verify"].verify_suite
        spans = {}

        @functools.wraps(orig)
        def wrapper(seed=42, suite="all", *args, **kwargs):
            if suite not in spans:
                spans[suite] = self._span(f"verify.{suite}", orig)
            return spans[suite](seed, suite, *args, **kwargs)

        return wrapper

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def export(self) -> dict:
        """Spans and counts in a JSON-ready form (spans as lists)."""
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}

    def merge(self, exported: dict):
        """Append spans and counts recorded by another process."""
        base = len(self.spans)
        for layer, start, end, parent in exported["spans"]:
            self.spans.append(
                (layer, start, end, parent + base if parent >= 0 else -1)
            )
        self.counts.update(exported["counts"])


def layer_totals(tracer: Tracer) -> dict:
    """Calls, self time and inclusive time per layer, plus derived counts."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    in_closure = [False] * len(spans)
    for i, (layer, start, end, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            in_closure[i] = in_closure[parent]
        if layer == CLOSURE:
            in_closure[i] = True
    calls: Counter = Counter(tracer.counts)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for i, (layer, start, end, _) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (end - start) - covered[i]
        total_s[layer] += end - start
        if layer == "conformal.nproduct" and in_closure[i]:
            calls[CLOSURE + ".products"] += 1
    return {"calls": calls, "self_s": self_s, "total_s": total_s}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, import_s: float, overhead_ratio: float) -> dict:
    """Every metric in ``LAYER_METRICS`` from one traced pass."""
    t = layer_totals(tracer)
    calls, self_s, total_s = t["calls"], t["self_s"], t["total_s"]
    out = dict.fromkeys(LAYER_METRICS, 0)
    for name in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[layer]
        elif kind == "self_s":
            out[name] = self_s[layer]
        elif kind in ("rows_in", "rounds", "products", "bytes_out"):
            out[name] = calls[name]
    out["conformal.nproduct.useful_ratio"] = _ratio(
        calls["conformal.nproduct.nonzero"], calls["conformal.nproduct"]
    )
    out["classify.span_hit_ratio"] = _ratio(
        calls["classify.span_member.hits"], calls["classify.span_member"]
    )
    out["classify.unknown_ratio"] = _ratio(
        calls["classify.unknown"], calls["classify.classify_irreducible"]
    )
    for name in LAYER_METRICS:
        if name.startswith("verify."):
            out[name] = total_s[name[: -len(".s")]]
    out["cli.import_s"] = import_s
    out["trace.overhead_ratio"] = overhead_ratio
    return out
