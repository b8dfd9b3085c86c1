"""In-memory span tracer that wraps the public functions of each library layer.

Spans are kept in one flat int64 array, five fields per span (layer id,
start ns, end ns, parent span index, case id), and written out once at the
end of a run.  A layer's self time is its spans' durations minus the part
covered by their direct child spans.  The library is single-threaded, so
spans nest strictly and one stack gives every span its parent.
"""
from __future__ import annotations

import inspect
import json
import os
from array import array
from collections import Counter
from time import perf_counter_ns

FIELDS = ("layer", "start_ns", "end_ns", "parent", "case")
_NF = len(FIELDS)

CASE_LAYER = "bench.case"

# (layer, owner, attribute): owner is a conepersist submodule, optionally
# followed by a class name.  Module-level functions are rebound in every
# conepersist module that imported them by name.
LAYERS = [
    ("interleave.distance", "interleave", "interleaving_distance"),
    ("interleave.verify", "interleave.InterleavingWitness", "verify"),
    ("exactla.solve_space", "exactla", "affine_solution_space"),
    ("exactla.rank", "exactla.FieldMat", "rank"),
    ("exactla.matmul", "exactla.FieldMat", "__mul__"),
    ("persist.structure_map", "persist.ArrModule", "structure_map"),
    ("persist.restrict", "persist", "restrict_module"),
    ("persist.restrict", "persist", "restrict_morphism"),
    ("persist.pointwise", "persist", "pointwise_kernel"),
    ("persist.pointwise", "persist", "pointwise_image"),
    ("persist.pointwise", "persist", "pointwise_cokernel"),
    ("persist.construct", "persist.ArrModule", "__init__"),
    ("sites.stabilize", "sites", "beta_star"),
    ("sites.stabilize", "sites", "beta_inv"),
    ("sites.stabilize", "sites", "alpha_star"),
    ("sites.stabilize", "sites", "beta_star_morphism"),
    ("sites.stabilize", "sites", "beta_inv_morphism"),
    ("sites.stabilize", "sites", "alpha_star_morphism"),
    ("sites.exactness_probe", "sites", "exactness_probe"),
    ("arrangement.refine", "arrangement", "common_refinement"),
    ("arrangement.cell_of", "arrangement.AxisGrid", "cell_of"),
    ("conv1d.distance", "conv1d", "convolution_distance"),
    ("conv1d.to_gamma", "conv1d", "to_gamma_module"),
    ("cone.construct", "cone.ConeSpec", "__init__"),
    ("cone.gauge", "cone.GaugeSpec", "__init__"),
    ("cone.gauge", "cone.GaugeSpec", "__call__"),
    ("cone.gauge", "cone.GaugeSpec", "ball_membership"),
    ("cone.gauge", "cone.GaugeSpec", "bisect"),
    ("qlinalg", "qlinalg", "qmat"),
    ("qlinalg", "qlinalg", "qidentity"),
    ("qlinalg", "qlinalg", "qmatvec"),
    ("qlinalg", "qlinalg", "qmatmul"),
    ("qlinalg", "qlinalg", "qrref"),
    ("qlinalg", "qlinalg", "qrank"),
    ("qlinalg", "qlinalg", "qsolve"),
    ("qlinalg", "qlinalg", "qnullspace"),
    ("qlinalg", "qlinalg", "qinverse"),
    ("docio.load", "docio", "load_document"),
    ("docio.save", "docio", "save_document"),
    ("cli.main", "cli", "main"),
]


# counters recorded at the same boundaries as the spans; each takes the
# call's arguments by parameter name


def _count_solve_space(tracer, args, result):
    c = tracer.counters
    c["exactla.solve_space_unknowns"] += sum(r * k for r, k in args["unknowns"].values())
    c["exactla.solve_space_feasible"] += bool(result.feasible)
    c["exactla.solve_space_f2_calls" if args["p"] == 2 else "exactla.solve_space_generic_calls"] += 1


def _count_read(tracer, args, result):
    tracer.counters["docio.bytes_read"] += os.path.getsize(args["path"])


def _count_written(tracer, args, result):
    tracer.counters["docio.bytes_written"] += os.path.getsize(args["path"])


_ON_RESULT = {
    "affine_solution_space": _count_solve_space,
    "load_document": _count_read,
    "save_document": _count_written,
}


class Tracer:
    """Spans and counters of one run; wrap() makes the traced functions."""

    def __init__(self):
        self.layers: list[str] = [CASE_LAYER]
        self._layer_ids = {CASE_LAYER: 0}
        self.spans = array("q")
        self._stack = [-1]
        self.case = -1
        self.counters: Counter = Counter()
        self._mark = (0, Counter())

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _open(self, lid: int) -> int:
        idx = len(self.spans) // _NF
        self.spans.extend((lid, perf_counter_ns(), 0, self._stack[-1], self.case))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx * _NF + 2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer: str, fn, on_result=None, refusal=None):
        """fn recording a span of layer per call.  on_result(tracer,
        arguments by name, result) updates counters after a call; an
        exception of type refusal leaving fn counts as interleave.refusals."""
        lid = self._layer_id(layer)
        tracer = self
        bind = inspect.signature(fn).bind if on_result is not None else None

        def traced(*args, **kwargs):
            idx = tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            except refusal or ():
                tracer.counters["interleave.refusals"] += 1
                raise
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def begin_case(self, case_id: int) -> None:
        self.case = case_id
        self._mark = (len(self.spans), Counter(self.counters))
        self._open(0)

    def end_case(self) -> None:
        self._close(self._stack[-1])
        self.case = -1

    def drop_case(self) -> None:
        """Forget an interrupted case: its spans may be left open."""
        start, counters = self._mark
        del self.spans[start:]
        self.counters = counters
        self._stack = [-1]
        self.case = -1

    def summary(self) -> dict:
        """Per layer: span count and self time in seconds."""
        sp = self.spans
        n = len(sp) // _NF
        child = array("q", bytes(8 * n))
        for i in range(n):
            parent = sp[i * _NF + 3]
            if parent >= 0:
                child[parent] += sp[i * _NF + 2] - sp[i * _NF + 1]
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        for i in range(n):
            lid = sp[i * _NF]
            calls[lid] += 1
            self_ns[lid] += sp[i * _NF + 2] - sp[i * _NF + 1] - child[i]
        return {
            name: {"calls": calls[lid], "self_s": self_ns[lid] / 1e9}
            for lid, name in enumerate(self.layers)
        }

    def write(self, stem) -> None:
        """Raw spans as int64 rows in stem.spans, layer names beside them."""
        with open(f"{stem}.spans", "wb") as f:
            self.spans.tofile(f)
        meta = {"fields": list(FIELDS), "layers": self.layers, "spans": len(self.spans) // _NF}
        with open(f"{stem}.layers.json", "w") as f:
            json.dump(meta, f)


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for every layer and counter, zero when the
    workload never reached it."""
    summary = tracer.summary()
    metrics = {}
    for layer in dict.fromkeys(name for name, _, _ in LAYERS):
        s = summary.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}_calls"] = (s["calls"], "count")
        metrics[f"{layer}_s"] = (s["self_s"], "s")
    metrics[f"{CASE_LAYER}_self_s"] = (summary[CASE_LAYER]["self_s"], "s")
    c = tracer.counters
    calls = metrics["exactla.solve_space_calls"][0]
    metrics["exactla.solve_space_feasible_ratio"] = (
        c["exactla.solve_space_feasible"] / calls if calls else 0.0,
        "ratio",
    )
    for key in (
        "interleave.refusals",
        "exactla.solve_space_unknowns",
        "exactla.solve_space_f2_calls",
        "exactla.solve_space_generic_calls",
    ):
        metrics[key] = (c[key], "count")
    for key in ("docio.bytes_read", "docio.bytes_written"):
        metrics[key] = (c[key], "B")
    metrics["trace.spans"] = (len(tracer.spans) // _NF, "count")
    return metrics


def install(tracer: Tracer, lib) -> None:
    """Replace each listed library function by a traced wrapper under
    every name it has: in its class, or in its defining module and every
    module that imported it."""
    refusal = lib.interleave.BudgetExceededError
    modules = [m for m in vars(lib).values() if getattr(m, "__name__", "").startswith("conepersist")]
    for layer, owner, attr in LAYERS:
        mod_name, _, cls_name = owner.partition(".")
        holder = getattr(lib, mod_name)
        if cls_name:
            holder = getattr(holder, cls_name)
        orig = vars(holder)[attr]
        wrapped = tracer.wrap(
            layer,
            orig,
            on_result=_ON_RESULT.get(attr),
            refusal=refusal if layer == "interleave.distance" else None,
        )
        # a class may alias the method (FieldMat.__matmul__ = __mul__)
        for ns in [holder] if cls_name else modules:
            for name, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, name, wrapped)
                elif isinstance(value, dict) and not cls_name:
                    _rebind_in_table(value, orig, wrapped)


def _rebind_in_table(table: dict, orig, wrapped) -> None:
    """Module-level dispatch tables hold functions directly or in tuples,
    as cli._FUNCTORS does."""
    for key, value in table.items():
        if value is orig:
            table[key] = wrapped
        elif isinstance(value, tuple) and any(v is orig for v in value):
            table[key] = tuple(wrapped if v is orig else v for v in value)
