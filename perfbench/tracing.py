"""Layer spans recorded from outside pdakit.

Tracer.install() replaces every public module-level function of the six
library layers, and PdaGrid.params, with a wrapper that records a span
(name, start, end, parent span, op id).  The replacement is made in every
pdakit module namespace that holds the function, so calls between layers
(constructions -> core.concat, caching.simulate -> caching.place) get spans
of their own.  Per-cell helpers stay unwrapped: a span per grid cell would
cost more than the work it measures.  Spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("core", "constructions", "formats", "bounds", "search", "caching")

# Called once per cell or per loop step inside other layer functions.
HOT = {"colex_rank", "ceil_div", "column_key"}

# A span's self time goes to the metric of its nearest ancestor-or-self in
# the same layer that has one; helpers without a metric fold into it.
ROOT_METRICS = {
    "core.verify": "core.verify_s",
    "core.params": "core.params_s",
    "core.symbol_dual": "core.symbol_dual_s",
    "core.replicate": "core.replicate_s",
    "core.concat": "core.concat_s",
    "core.permute": "core.permute_s",
    "core.canonical_form": "core.canonical_form_s",
    "core.grids_equivalent": "core.grids_equivalent_s",
    "core.find_isomorphism": "core.find_isomorphism_s",
    "constructions.mn_pda": "constructions.mn_pda_s",
    "constructions.optimal_fz2": "constructions.optimal_fz2_s",
    "formats.render": "formats.render_s",
    "formats.parse": "formats.parse_s",
    "formats.render_json": "formats.render_json_s",
    "formats.parse_json": "formats.parse_json_s",
    "bounds.structural_checks": "bounds.structural_s",
    "search.max_k": "search.max_k_s",
    "search.min_s": "search.min_s_s",
    "search.decompose": "search.decompose_s",
    "caching.place": "caching.place_s",
    "caching.deliver": "caching.deliver_s",
    "caching.decode": "caching.decode_s",
}
# Bound queries made directly, outside structural_checks.
LAYER_FALLBACK = {"bounds": "bounds.table_s"}
# verify on the hostile grid is reported apart from verify on valid grids.
HOSTILE_OP = "verify_hostile"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, name: str) -> None:
        self.ops.append(name)
        self._op = len(self.ops) - 1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self._op)
                stack.pop()

        return traced

    def install(self) -> None:
        from pdakit import core

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"pdakit.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in HOT
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pdakit" or mod_name.startswith("pdakit."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, name, wrapped[id(obj)])
        core.PdaGrid.params = self._wrap("core.params", core.PdaGrid.params)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"ops": self.ops, "spans": self.spans}))


def self_times(spans: list, ops: list[str], scale: float) -> dict[str, float]:
    """Per-metric self time: each span's duration minus its children's,
    times `scale`, credited by ROOT_METRICS; plus search-layer self time per
    op (the `search.<op>.s` cell metrics)."""
    self_t = [end - start for (_, start, end, _, _) in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    out: dict[str, float] = {}
    for idx, (name, _, _, _, op) in enumerate(spans):
        layer = name.split(".", 1)[0]
        op_name = ops[op] if op >= 0 else ""
        t = self_t[idx] * scale
        metric = None
        cur = idx
        while cur >= 0 and spans[cur][0].split(".", 1)[0] == layer:
            metric = ROOT_METRICS.get(spans[cur][0])
            if metric:
                break
            cur = spans[cur][3]
        metric = metric or LAYER_FALLBACK.get(layer)
        if metric == "core.verify_s" and op_name == HOSTILE_OP:
            metric = "core.verify_hostile_s"
        if metric:
            out[metric] = out.get(metric, 0.0) + t
        if layer == "search":
            key = f"search.{op_name}.s"
            out[key] = out.get(key, 0.0) + t
    return out


def load_self_times(path: Path, scale: float) -> dict[str, float]:
    """self_times of a spans file written by dump()."""
    data = json.loads(path.read_text())
    return self_times([tuple(s) for s in data["spans"]], data["ops"], scale)
