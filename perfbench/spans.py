"""Span recorder for the traced benchmark run.

The program has no tracing of its own, so the traced run installs
wrappers around the calls into each layer from here: every wrapped call
records one span (name, start, end, parent span, thread, counts).  A
layer's self time is the duration of its spans minus the part covered by
their child spans.  Spans stay in memory and are written out at the end
as Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` open.

The wrappers are installed only in the worker or server process of a
traced run; end-to-end metrics are measured without any of them.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span names that are not layers of the program.  ``flow`` covers one
#: ``run_flow`` call of the engine, ``bench.check`` the benchmark's own
#: output check; both exist so that their time is excluded from the
#: engine's self time.
FLOW_SPAN = "flow"
CHECK_SPAN = "bench.check"


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func: Callable, args, kwargs, count=None):
        """Run ``func(*args, **kwargs)`` inside a span named ``name``.

        ``count(result, args, kwargs)`` returns the span's counts; it runs
        after the span has ended, so its own cost is not charged to the
        layer.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "tid": threading.get_ident(),
                "start": start,
                "end": end,
            }
            with self._lock:
                self.spans.append(span)
        if count is not None:
            span["counts"] = count(result, args, kwargs)
        return result

    def wrap(self, name: str, func: Callable, count=None) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, func, args, kwargs, count)

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_iterator(self, name: str, func: Callable) -> Callable:
        """Wrap a generator function: one span per ``next()`` call.

        Time the consumer spends between two items is not charged to the
        generator.
        """

        def wrapper(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                try:
                    item = self.call(name, next, (iterator,), {})
                except StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = func
        return wrapper

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": spans}, handle)


def load(path) -> Tuple[int, List[Dict[str, Any]]]:
    """``(pid, spans)`` written by :meth:`Recorder.dump`.

    Span ids are prefixed with the pid, so spans of several processes can
    be aggregated together.
    """
    with open(path) as handle:
        data = json.load(handle)
    pid = data["pid"]
    for span in data["spans"]:
        span["id"] = f"{pid}:{span['id']}"
        if span["parent"] is not None:
            span["parent"] = f"{pid}:{span['parent']}"
    return pid, data["spans"]


# -- counters -------------------------------------------------------------------


def _digest(*parts: bytes) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
        sha.update(b"\0")
    return sha.hexdigest()


def _aig_digest(aig) -> str:
    from repro.io.aiger import write_aiger

    return _digest(write_aiger(aig).encode())


def _count_pipeline(result, args, kwargs) -> Dict[str, Any]:
    reports = result.reports
    counts: Dict[str, Any] = {
        "passes": len(reports),
        "noop_passes": sum(1 for r in reports if r.before == r.after),
    }
    pipeline, network = args[0], args[1]
    if network.network_type == "aig":
        counts["key"] = _digest(_aig_digest(network).encode(), str(pipeline).encode())
    return counts


def _count_esop(result, args, kwargs):
    return {"terms_out": result.num_terms()}


def _count_lut_map(result, args, kwargs):
    return {"luts_out": result.num_luts()}


def _count_tbs(result, args, kwargs):
    embedding = args[0]
    lines = (embedding.input_lines, embedding.output_lines,
             sorted(embedding.constant_lines.items()))
    return {"key": _digest(embedding.permutation.tobytes(), repr(lines).encode())}


def _count_solve(result, args, kwargs):
    return {"conflicts": result.conflicts, "unknown": int(result.status == "unknown")}


def _count_verify(result, args, kwargs):
    return {"complete": int(result.complete)}


def _count_cache_get(result, args, kwargs):
    return {"hit": int(result is not None)}


# -- installation ----------------------------------------------------------------

#: ``(span name, module, attribute, counter)`` for every layer entry point
#: that ``repro.core.flows``, ``repro.core.explorer`` and the SAT users
#: call.  Attributes are patched where the caller looks them up: the
#: module a name was imported into, or the defining module for calls that
#: import lazily inside a function.
MODULE_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("hdl", "repro.core.flows", "synthesize_verilog", None),
    ("hdl", "repro.core.flows", "design_source", None),
    ("hdl", "repro.core.explorer", "design_source", None),
    ("logic.esop", "repro.core.flows", "collapse_to_esop", _count_esop),
    ("logic.collapse", "repro.core.flows", "collapse_to_bdd", None),
    ("logic.collapse", "repro.core.flows", "bdd_to_truth_table", None),
    ("logic.xmg_mapping", "repro.core.flows", "aig_to_xmg", None),
    ("logic.xmg_mapping", "repro.logic.xmg_mapping", "xmg_to_aig", None),
    ("logic.cuts", "repro.logic.cuts", "lut_map", _count_lut_map),
    ("reversible.embedding", "repro.core.flows", "optimum_embedding", None),
    ("reversible.tbs", "repro.core.flows", "symbolic_tbs", _count_tbs),
    ("reversible.esop_synth", "repro.core.flows", "esop_synthesis", None),
    ("reversible.hierarchical", "repro.core.flows", "hierarchical_synthesis", None),
    ("reversible.pebbling", "repro.reversible.pebbling", "make_schedule", None),
    ("reversible.lut_synth", "repro.reversible.lut_synth", "synthesize_schedule", None),
    ("sat", "repro.logic.exact_esop", "solve", _count_solve),
    ("sat", "repro.reversible.exact_pebbling", "solve", _count_solve),
    ("verify", "repro.core.flows", "check_equivalent", _count_verify),
    ("quantum.mapping", "repro.quantum.mapping", "map_to_clifford_t", None),
    ("quantum.resources", "repro.quantum.resources", "estimate_resources", None),
    (FLOW_SPAN, "repro.core.explorer", "run_flow", None),
)


def install(recorder: Recorder) -> None:
    """Patch every layer entry point to record spans into ``recorder``."""
    for name, module_name, attribute, count in MODULE_TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        setattr(module, attribute, recorder.wrap(name, original, count))

    from repro.core.cache import ResultCache
    from repro.core.cost import CostReport
    from repro.core.explorer import ExplorationEngine
    from repro.opt.pipeline import Pipeline

    run = Pipeline.run

    def pipeline_run(self, network, *args, **kwargs):
        return recorder.call(
            f"opt.{network.network_type}", run, (self, network) + args, kwargs,
            _count_pipeline,
        )

    Pipeline.run = pipeline_run

    from_circuit = CostReport.from_circuit.__func__
    CostReport.from_circuit = classmethod(
        lambda cls, *a, **k: recorder.call(
            "core.cost", from_circuit, (cls,) + a, k
        )
    )
    ResultCache.get = recorder.wrap("core.cache.get", ResultCache.get, _count_cache_get)
    ResultCache.put = recorder.wrap("core.cache.put", ResultCache.put)
    ExplorationEngine.run_iter = recorder.wrap_iterator(
        "core.explorer", ExplorationEngine.run_iter
    )


# -- aggregation -------------------------------------------------------------------


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[Any, float]:
    """Span id -> duration minus the time its direct children cover."""
    spans = list(spans)
    child_time: Dict[Any, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = span["parent"]
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        for span in spans
    }


def layer_metrics(
    spans: List[Dict[str, Any]], window: Optional[Tuple[float, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self time and summed counts.

    ``window`` keeps only spans that start inside ``[begin, end)``; self
    times are computed over all spans first, so a child outside the
    window still counts as a child.
    """
    selves = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    keys: Dict[str, set] = {}
    for span in spans:
        if window is not None and not window[0] <= span["start"] < window[1]:
            continue
        entry = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selves[span["id"]]
        for key, value in span.get("counts", {}).items():
            if key == "key":
                keys.setdefault(span["name"], set()).add(value)
            else:
                entry[key] = entry.get(key, 0) + value
    for name, distinct in keys.items():
        out[name]["distinct_calls"] = len(distinct)
    return out


def chrome_trace(processes: Dict[str, Tuple[int, List[Dict[str, Any]]]]) -> Dict:
    """Chrome trace-event JSON of ``label -> (pid, spans)``."""
    events: List[Dict[str, Any]] = []
    origin = min(
        (span["start"] for _, spans in processes.values() for span in spans),
        default=0.0,
    )
    for label, (pid, spans) in processes.items():
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "args": {"name": label}}
        )
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "cat": span["name"].split(".")[0],
                    "pid": pid,
                    "tid": span["tid"],
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": {
                        "id": span["id"],
                        "parent": span["parent"],
                        **{
                            k: v
                            for k, v in span.get("counts", {}).items()
                            if k != "key"
                        },
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
