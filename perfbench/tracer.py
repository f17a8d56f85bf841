"""Per-layer tracing from outside the program.

Layers are genturan modules.  The tracer rebinds each public function
name where its caller looks it up (a module global such as
`genturan.oracle.has_matching_of_size`, or the package attribute the
benchmark itself calls) to a wrapper that times the call.  Nothing under
src/ changes, and uninstall() restores every original binding.

Spans nest through a stack, so a layer's self time is its spans' length
minus the part covered by child spans of other layers.  A call into the
layer that is already on top of the stack (build_extremal_odd calling
build_block_star, canonical_graph6 calling canonical_encoding) belongs to
the open span.  Leaf calls are not stored one by one: each item span
keeps, per (parent layer, layer) edge, the call count, total time and
self time, which bounds memory at millions of calls per pass.  The item
spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module whose global or attribute is rebound, name, layer)
BINDINGS = [
    # calls made by the benchmark itself, through the package namespace
    ("genturan", "brute_force_ex", "oracle.search"),
    ("genturan", "enumerate_family_free", "oracle.enum"),
    ("genturan", "build_extremal_odd", "constructors"),
    ("genturan", "build_St1", "constructors"),
    ("genturan", "build_St2", "constructors"),
    ("genturan", "build_H", "constructors"),
    ("genturan", "build_block_star", "constructors"),
    ("genturan", "ex_even", "formulas"),
    ("genturan", "to_graph6", "graph_io"),
    ("genturan", "from_graph6", "graph_io"),
    ("genturan", "is_family_free", "family"),
    ("genturan", "count_cliques", "graphs.cliques"),
    ("genturan", "max_matching", "matching.blossom"),
    ("genturan", "berge_tutte_certificate", "matching.certificate"),
    ("genturan", "block_decomposition", "blocks"),
    # calls between genturan modules, rebound in the calling module
    ("genturan.oracle", "canonical_graph6", "oracle.canon"),
    ("genturan.oracle", "canonical_encoding", "oracle.canon"),
    ("genturan.oracle", "is_family_free", "family"),
    ("genturan.oracle", "has_matching_of_size", "matching.size_test"),
    ("genturan.oracle", "count_cliques", "graphs.cliques"),
    ("genturan.oracle", "count_cliques_in_mask", "graphs.cliques"),
    ("genturan.oracle", "build_block_star", "constructors"),
    ("genturan.oracle", "build_woodall_G0", "constructors"),
    ("genturan.oracle", "ex_even_edges", "formulas"),
    ("genturan.oracle", "ex_odd", "formulas"),
    ("genturan.oracle", "to_graph6", "graph_io"),
    ("genturan.family", "find_cycle_geq", "cycles"),
    ("genturan.family", "maximum_matching_edges", "matching.blossom"),
    ("genturan.matching", "max_matching", "matching.blossom"),
    ("genturan.constructors", "ex_odd", "formulas"),
    # formulas imports these from their modules at call time
    ("genturan.constructors", "st1_spec", "constructors"),
    ("genturan.constructors", "st2_spec", "constructors"),
    ("genturan.optimizer", "maximize_g", "optimizer"),
    ("genturan.optimizer", "extremal_even_witness", "optimizer"),
    ("genturan.optimizer", "g_value", "formulas"),
]

# layer -> the outcome metric it reports besides calls and self_s
OUTCOMES = {
    "oracle.search": "examined",
    "oracle.canon": "unique_ratio",
    "cycles": "found_ratio",
    "matching.size_test": "true_ratio",
    "family": "free_ratio",
}

LAYERS = [
    "oracle.search",
    "oracle.enum",
    "oracle.canon",
    "cycles",
    "matching.size_test",
    "matching.blossom",
    "matching.certificate",
    "graphs.cliques",
    "family",
    "constructors",
    "formulas",
    "optimizer",
    "graph_io",
    "blocks",
]

ROOT = "bench"


class Tracer:
    """Span stack and per-edge aggregates for one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []
        self.item_edges: dict[tuple[str, str], list] = {}
        self.items: list[dict] = []
        self.examined = 0
        self.hits: dict[str, int] = {layer: 0 for layer in OUTCOMES}
        self.canon_outputs: set = set()
        self._saved: list[tuple[object, str, object]] = []
        self._item_label = ""
        self._item_start = 0.0
        self.origin = perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        tracer = self
        materialize = layer == "oracle.enum"  # a generator: time its iteration
        outcome = OUTCOMES.get(layer)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], layer)
                rec = tracer.item_edges.get(key)
                if rec is None:
                    rec = tracer.item_edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if outcome == "examined":
                tracer.examined += out.examined
            elif outcome == "unique_ratio":
                tracer.canon_outputs.add(out)
            elif outcome is not None and out:
                tracer.hits[layer] += 1
            return iter(out) if materialize else out

        return wrapper

    # -- item spans --------------------------------------------------------

    def begin_item(self, label: str) -> None:
        self.stack = [[ROOT, 0.0]]
        self.item_edges = {}
        self._item_label = label
        self._item_start = perf_counter()
        self.active = True

    def end_item(self) -> None:
        end = perf_counter()
        self.active = False
        total = end - self._item_start
        root_self = total - self.stack[0][1]
        self.items.append(
            {
                "item": self._item_label,
                "start": round(self._item_start - self.origin, 6),
                "end": round(end - self.origin, 6),
                "self_s": round(root_self, 6),
                "edges": {
                    f"{parent}>{layer}": [calls, round(tot, 6), round(own, 6)]
                    for (parent, layer), (calls, tot, own) in self.item_edges.items()
                },
            }
        )

    # -- results -----------------------------------------------------------

    def edge_totals(self) -> dict[str, list]:
        """Per `parent>layer` edge: [calls, total seconds, self seconds]."""
        edges: dict[str, list] = {}
        for item in self.items:
            for edge, (calls, tot, own) in item["edges"].items():
                acc = edges.setdefault(edge, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += tot
                acc[2] += own
        return edges

    def layer_totals(self) -> dict[str, dict]:
        totals = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for edge, (calls, tot, own) in self.edge_totals().items():
            layer = totals[edge.split(">", 1)[1]]
            layer["calls"] += calls
            layer["total_s"] += tot
            layer["self_s"] += own
        totals[ROOT] = {
            "calls": len(self.items),
            "total_s": sum(item["end"] - item["start"] for item in self.items),
            "self_s": sum(item["self_s"] for item in self.items),
        }
        return totals

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics: name -> (value, unit)."""
        totals = self.layer_totals()
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            calls = totals[layer]["calls"]
            out[f"{layer}.calls"] = (calls / passes, "count")
            out[f"{layer}.self_s"] = (totals[layer]["self_s"] / passes, "s")
            kind = OUTCOMES.get(layer)
            if kind == "examined":
                out[f"{layer}.examined"] = (self.examined / passes, "count")
            elif kind == "unique_ratio":
                value = len(self.canon_outputs) * passes / calls if calls else 0.0
                out[f"{layer}.unique_ratio"] = (value, "ratio")
            elif kind is not None:
                value = self.hits[layer] / calls if calls else 0.0
                out[f"{layer}.{kind}"] = (value, "ratio")
        out[f"{ROOT}.self_s"] = (totals[ROOT]["self_s"] / passes, "s")
        return out
