"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the ``nc_hopf`` modules from
outside: it rebinds each wrapped name in every ``nc_hopf`` module that holds
it (so calls between library modules are traced too), patches the ``Poly``
and ``LinearFunctional`` methods on their classes, and puts every original
back on ``uninstall``.  Nothing under ``src/`` changes.

A span is (name, start, end, parent span, request id).  Spans stay in memory,
in flat arrays, and are written out once, by ``write``.  Self time is kept as
spans close: a span's duration minus the durations of its direct children,
which cannot overlap because the library is single-threaded.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (layer name, module, attribute, quantities beyond calls and self_s).
# A dotted attribute is a method patched on its class.
FUNCTION_LAYERS = (
    ("partitions.enumerate_nc", "partitions", "enumerate_nc_partitions", ()),
    ("partitions.enumerate_set", "partitions", "enumerate_set_partitions", ()),
    ("partitions.moebius_to_top", "partitions", "moebius_to_top", ("hit_ratio",)),
    ("partitions.moebius", "partitions", "moebius", ()),
    ("partitions.admissible_splits", "partitions", "admissible_splits",
     ("hit_ratio", "yield_ratio")),
    ("partitions.standardize", "partitions", "standardize", ()),
    ("tensor.delta_nc", "tensor", "delta_nc", ("hit_ratio", "terms")),
    ("tensor.delta_word", "tensor", "delta_word", ("hit_ratio", "terms")),
    ("tensor.delta_bar", "tensor", "delta_bar", ("hit_ratio",)),
    ("tensor.sp", "tensor", "sp", ("terms",)),
    ("functionals.evaluate", "functionals", "LinearFunctional.__call__", ()),
    ("functionals.on_lincomb", "functionals", "LinearFunctional.on_lincomb", ()),
    ("transforms.free_moments", "transforms", "free_moments_from_cumulants", ()),
    ("transforms.free_cumulants", "transforms", "free_cumulants_from_moments", ()),
    ("transforms.classical_moments", "transforms",
     "classical_moments_from_cumulants", ()),
    ("transforms.classical_cumulants", "transforms",
     "classical_cumulants_from_moments", ()),
    ("transforms.multi_cumulants", "transforms", "generalized_free_cumulants", ()),
    ("transforms.kappa_powers", "transforms", "kappa_powers", ()),
    ("coefficients.poly_mul", "coefficients", "Poly.__mul__", ()),
    ("coefficients.poly_mul", "coefficients", "Poly.__rmul__", ()),
    ("coefficients.poly_add", "coefficients", "Poly.__add__", ()),
    ("coefficients.poly_add", "coefficients", "Poly.__radd__", ()),
    ("coefficients.format", "coefficients", "coeff_str", ()),
    ("coefficients.format", "coefficients", "poly_str", ()),
    ("trees.hierarchy_tree", "trees", "hierarchy_tree", ()),
    ("trees.tree_coproduct", "trees", "tree_coproduct", ()),
    ("verify.run_suite", "verify", "run_suite", ()),
)

# Cached functions whose hit ratio is read from cache_info() without a span.
CACHE_ONLY_LAYERS = (("trees.admissible_edge_cuts", "trees", "admissible_edge_cuts"),)

CLI_MAIN = "cli.main"
CLI_IMPORT = "cli.import"
REQUEST = "request"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out, seen = [], set()
    for layer, _, _, extras in FUNCTION_LAYERS:
        if layer in seen:
            continue
        seen.add(layer)
        if not layer.startswith("transforms.") or layer == "transforms.kappa_powers":
            out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        for q in extras:
            unit, better = {"hit_ratio": ("ratio", "higher"),
                            "yield_ratio": ("ratio", "higher"),
                            "terms": ("count", "lower")}[q]
            out.append((f"{layer}.{q}", unit, better))
    for layer, _, _ in CACHE_ONLY_LAYERS:
        out.append((f"{layer}.hit_ratio", "ratio", "higher"))
    out += [("cli.import_s", "s", "lower"), ("cli.main.self_s", "s", "lower"),
            ("trace.unattributed_share", "ratio", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    """Records spans around wrapped library calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.request = -1
        self.paused = False
        self._stack: list[list] = []       # [span index, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sums: dict[str, float] = {}   # extra counters, e.g. terms
        self._restore: list[tuple] = []
        self._cache_base: dict[str, tuple] = {}
        self._cached: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._ids[name]

    def open(self, name: str) -> list:
        index = len(self.start_col)
        self.name_col.append(self._id(name))
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.request_col.append(self.request)
        self.end_col.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        self.start_col.append(perf_counter())
        return frame

    def close(self, frame: list) -> float:
        end = perf_counter()
        index, child = frame
        self._stack.pop()
        self.end_col[index] = end
        duration = end - self.start_col[index]
        if self._stack:
            self._stack[-1][1] += duration
        name = self.names[self.name_col[index]]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        return duration

    def add(self, key: str, value: float):
        self.sums[key] = self.sums.get(key, 0.0) + value

    def wrap(self, name: str, fn, extras=()):
        tracer = self
        self._id(name)
        terms = "terms" in extras
        splits = "yield_ratio" in extras

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if splits else 0
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if terms:
                tracer.add(f"{name}.terms", len(result))
            if splits and fn.cache_info().misses > misses:
                tracer.add(f"{name}.tried", 2 ** len(args[0].blocks))
                tracer.add(f"{name}.returned", len(result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer of the imported ``nc_hopf`` modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "nc_hopf" or name.startswith("nc_hopf.")}
        for layer, module, attr, extras in FUNCTION_LAYERS:
            owner = modules[f"nc_hopf.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(layer, original, extras))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(layer, original, extras)
            if hasattr(original, "cache_info"):
                self._cached[layer] = original
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for layer, module, attr in CACHE_ONLY_LAYERS:
            self._cached[layer] = getattr(modules[f"nc_hopf.{module}"], attr)
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            self._cache_base[layer] = (info.hits, info.misses)

    def uninstall(self):
        """Put back every original rebound by ``install``."""
        self._read_caches()
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _read_caches(self):
        for layer, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_base[layer]
            self.sums[f"{layer}.hits"] = info.hits - hits0
            self.sums[f"{layer}.misses"] = info.misses - misses0

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates that sum across processes: calls, self time, counters."""
        if self._restore:
            self._read_caches()
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "sums": dict(self.sums)}

    def write(self, path: str):
        """Write every span: a JSON header line, then the raw columns."""
        columns = (self.name_col, self.start_col, self.end_col,
                   self.parent_col, self.request_col)
        header = {"names": self.names, "count": len(self.start_col),
                  "columns": ["name", "start", "end", "parent", "request"],
                  "typecodes": [c.typecode for c in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(fh)


def read_spans(path: str) -> dict:
    """Read a file written by ``Tracer.write`` back into named columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for name, code in zip(header["columns"], header["typecodes"]):
            column = array(code)
            column.fromfile(fh, header["count"])
            out[name] = column
    return out


def merge(summaries: list[dict]) -> dict:
    total = {"calls": {}, "self_s": {}, "sums": {}}
    for s in summaries:
        for part in total:
            for key, value in s[part].items():
                total[part][key] = total[part].get(key, 0) + value
    return total


def layer_metrics(summary: dict, unattributed: float, overhead: float,
                  import_s: float = 0.0) -> dict:
    """Every per-layer metric, from merged summaries.  A layer that never
    ran reports 0; so does a ratio whose base is 0."""
    calls, self_s, sums = summary["calls"], summary["self_s"], summary["sums"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for name, _, _ in per_layer_metrics():
        layer, _, quantity = name.rpartition(".")
        if quantity == "calls":
            values[name] = calls.get(layer, 0)
        elif quantity == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif quantity == "hit_ratio":
            hits = sums.get(f"{layer}.hits", 0)
            values[name] = ratio(hits, hits + sums.get(f"{layer}.misses", 0))
        elif quantity == "yield_ratio":
            values[name] = ratio(sums.get(f"{layer}.returned", 0),
                                 sums.get(f"{layer}.tried", 0))
        elif quantity == "terms":
            values[name] = ratio(sums.get(f"{layer}.terms", 0),
                                 calls.get(layer, 0))
    values["cli.import_s"] = import_s
    values["trace.unattributed_share"] = unattributed
    values["trace.overhead_ratio"] = overhead
    return values
