"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of the layer modules, plus
``cli.main``, and puts each wrapper into every namespace of the package that
holds the original: the defining module, modules that bound the name with
``from ... import``, and module-level dicts such as ``suites.SUITES``.  A
wrapper records one span per call (name, start, end, span id, parent span id,
item id) in memory and adds the call's self time, its duration minus the
time of its child spans, to per-function totals.  ``uninstall`` puts every
original back.

Helpers of a module that start with ``_`` are not wrapped, so their time is
self time of the public function that called them.  ``generators`` is not
wrapped either: its time is the instance generation of ``suites``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

from workloads import contractions

PACKAGE = "minor_toolkit"
LAYERS = ("graph", "graph6", "flow", "oracles", "bounds", "extraction",
          "linkage", "certificates", "suites")
SPAN_FIELDS = ("name", "start", "end", "span", "parent", "item")

ST_PATHS = "flow.internally_disjoint_st_paths"
VERTEX_CONNECTIVITY = "oracles.vertex_connectivity"
VERIFY_CERTIFICATE = "certificates.verify_certificate"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter[str] = Counter()
        self.spans = array("d")  # SPAN_FIELDS per span, in the order spans end
        self.item = -1  # id of the call in progress; set by the caller
        self._stack: list[list[Any]] = []  # [start, child seconds, span id, name id, running minimum]
        self._next_span = 0
        self._last_refusal: BaseException | None = None
        self._restore: list[tuple[dict, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        clock = time.perf_counter
        oracles = sys.modules[f"{PACKAGE}.oracles"]
        refusals = (oracles.OracleSizeError, oracles.BudgetExceeded) if name.startswith("oracles.") else ()
        is_vc = name == VERTEX_CONNECTIVITY
        on_result = {ST_PATHS: self._pair_flow, VERIFY_CERTIFICATE: self._verified}.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [0.0, 0.0, self._next_span, idx, None]
            self._next_span += 1
            if is_vc:
                # vertex_connectivity starts its running minimum at the minimum degree
                g = args[0]
                frame[4] = min((g.degree(v) for v in g.vertices()), default=0)
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            except refusals as exc:
                if exc is not self._last_refusal:
                    self._last_refusal = exc
                    self.counts["refused"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.extend((idx, frame[0], end, frame[2],
                                   parent[2] if parent is not None else -1, self.item))
            if on_result is not None:
                on_result(parent, result)
            return result

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced

    def _pair_flow(self, parent: list[Any] | None, result: tuple[int, Any]) -> None:
        if parent is None or self.names[parent[3]] != VERTEX_CONNECTIVITY:
            return
        self.counts["pair_flows"] += 1
        if result[0] < parent[4]:
            self.counts["improving_flows"] += 1
            parent[4] = result[0]

    def _verified(self, parent: list[Any] | None, result: Any) -> None:
        self.counts["valid_certificates"] += bool(result.valid)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        cli = sys.modules[f"{PACKAGE}.cli"]
        wrappers[cli.main] = self.wrap("cli.main", cli.main)
        for name, mod in sorted(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            namespace = vars(mod)
            for table in [namespace] + [v for v in namespace.values() if type(v) is dict]:
                for key, obj in list(table.items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._restore.append((table, key, obj))
                        table[key] = wrappers[obj]

    def uninstall(self) -> None:
        while self._restore:
            table, key, original = self._restore.pop()
            table[key] = original

    def totals(self) -> dict[str, Any]:
        return {"functions": {n: [c, s] for n, c, s in zip(self.names, self.calls, self.self_s)},
                "counts": dict(self.counts)}


def wrapped_names() -> list[str]:
    """Package namespace entries that still hold a wrapper (empty once uninstalled)."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        namespace = vars(mod)
        for table in [namespace] + [v for v in namespace.values() if type(v) is dict]:
            found += [f"{name}.{key}" for key, obj in table.items()
                      if hasattr(obj, "__perfbench_original__")]
    return found


# (metric, unit, better): the traced run reports every one of these.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("flow.st_paths.calls", "count", "lower"),
    ("flow.st_paths.self_s", "s", "lower"),
    ("flow.st_paths.improving_frac", "ratio", "higher"),
    ("flow.set_paths.calls", "count", "lower"),
    ("flow.set_paths.self_s", "s", "lower"),
    ("flow.separates.calls", "count", "lower"),
    ("flow.separates.self_s", "s", "lower"),
    ("flow.self_s", "s", "lower"),
    ("oracles.hadwiger_number.calls", "count", "lower"),
    ("oracles.hadwiger_number.self_s", "s", "lower"),
    ("oracles.hall_ratio.self_s", "s", "lower"),
    ("oracles.chromatic_number.self_s", "s", "lower"),
    ("oracles.independence_number.self_s", "s", "lower"),
    ("oracles.refused", "count", "lower"),
    ("oracles.vertex_connectivity.calls", "count", "lower"),
    ("oracles.vertex_connectivity.self_s", "s", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("bounds.check_duchet_meyniel.calls", "count", "lower"),
    ("bounds.check_duchet_meyniel.self_s", "s", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("graph.contract.calls", "count", "lower"),
    ("graph.contract.self_s", "s", "lower"),
    ("graph.induced_subgraph.calls", "count", "lower"),
    ("graph.induced_subgraph.self_s", "s", "lower"),
    ("graph.self_s", "s", "lower"),
    ("extraction.small_dense_subgraph.self_s", "s", "lower"),
    ("extraction.contractions", "count", "lower"),
    ("extraction.special_subset.self_s", "s", "lower"),
    ("extraction.k_connected_subgraph.calls", "count", "lower"),
    ("extraction.k_connected_subgraph.self_s", "s", "lower"),
    ("extraction.outcome_other", "count", "lower"),
    ("extraction.self_s", "s", "lower"),
    ("certificates.verify_certificate.calls", "count", "lower"),
    ("certificates.verify_certificate.self_s", "s", "lower"),
    ("certificates.valid_frac", "ratio", "higher"),
    ("certificates.self_s", "s", "lower"),
    ("linkage.menger.self_s", "s", "lower"),
    ("linkage.redundant_menger_paths.self_s", "s", "lower"),
    ("linkage.verify_minor_model.self_s", "s", "lower"),
    ("linkage.verify_linkage.self_s", "s", "lower"),
    ("linkage.self_s", "s", "lower"),
    ("graph6.encode_graph6.calls", "count", "lower"),
    ("graph6.encode_graph6.self_s", "s", "lower"),
    ("graph6.decode_graph6.self_s", "s", "lower"),
    ("graph6.self_s", "s", "lower"),
    ("suites.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# short metric names for functions whose full name is long
ALIASES = {"flow.st_paths": ST_PATHS, "flow.set_paths": "flow.disjoint_set_paths"}
OUTCOME_OTHER = ("rejected", "refused", "exhausted", "unverified-candidate")


def layer_metrics(totals: dict[str, Any], records: list[dict[str, Any]],
                  overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER value from a traced run's totals and its output records.

    A ratio whose base is zero (the layer was not reached) reads 0.
    """
    functions = totals["functions"]
    counts = totals["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {
        "flow.st_paths.improving_frac": ratio(counts.get("improving_flows", 0), counts.get("pair_flows", 0)),
        "oracles.refused": counts.get("refused", 0),
        "extraction.contractions": sum(contractions(r) for r in records),
        "extraction.outcome_other": sum(r.get("outcome") in OUTCOME_OTHER for r in records),
        "certificates.valid_frac": ratio(counts.get("valid_certificates", 0),
                                         functions.get(VERIFY_CERTIFICATE, [0, 0.0])[0]),
        "trace.overhead_frac": overhead_frac,
    }
    for metric, _unit, _better in PER_LAYER:
        if metric in values:
            continue
        base, _, stat = metric.rpartition(".")
        if base in LAYERS or base == "cli":  # a whole layer's self time
            values[metric] = sum(s for n, (_c, s) in functions.items() if n.startswith(base + "."))
        else:
            calls, self_s = functions.get(ALIASES.get(base, base), [0, 0.0])
            values[metric] = calls if stat == "calls" else self_s
    return values
