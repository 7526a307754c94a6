"""Span tracing from outside the program: wrap layer entry points, record spans.

The traced run installs a wrapper around each public, synchronous entry
point of the simulator's layers (the table in :data:`TARGETS`), records one
span per call and removes every wrapper afterwards.  Nothing under ``src/``
knows it is being traced.

* A span is ``(name, start, end, parent)``; every span of one traced run
  shares the recorder's ``run_id``.  Spans live in flat in-memory arrays
  and are written out by :meth:`SpanRecorder.write` once the run is over.
* A span's *self time* is its duration minus the part its child spans
  cover.  Children nest strictly inside their parent (calls are
  synchronous), so that part is the sum of the children's durations.
* Generator bodies (the executor, device and session loops) are never
  wrapped: a generator function returns before its body runs.  Their time
  lands in the self time of ``Environment.run``, reported as ``sim.loop``.
* Each name is patched where callers look it up: on the class for methods,
  and in every loaded ``repro`` module that bound a function with
  ``from ... import``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Per-row helpers
#: (``AggregateState.add``, ``merge_rows``) are deliberately left out.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.environment", "Environment", "run", "sim.loop"),
    ("repro.workloads.tpch", None, "build_catalog", "workloads.build_catalog"),
    ("repro.service.service", "StorageService", "__init__", "service.init"),
    ("repro.service.admission", "AdmissionController", "request", "service.admission"),
    ("repro.service.admission", "AdmissionController", "release", "service.admission"),
    ("repro.fleet.placement", "ConsistentHashPlacement", "place", "fleet.place"),
    ("repro.fleet.placement", "ConsistentHashPlacement", "bulk_key_hashes", "fleet.place"),
    ("repro.fleet.placement", "ConsistentHashPlacement", "diff_keys", "fleet.diff_keys"),
    ("repro.fleet.migration", None, "plan_migration", "fleet.plan_migration"),
    ("repro.fleet.router", "FleetRouter", "submit", "fleet.submit"),
    ("repro.fleet.router", "FleetRouter", "metrics", "fleet.report"),
    ("repro.fleet.router", "FleetRouter", "rebalance_metrics", "fleet.report"),
    ("repro.fleet.router", "FleetRouter", "replication_metrics", "fleet.report"),
    ("repro.fleet.router", "FleetRouter", "routing_metrics", "fleet.report"),
    ("repro.fleet.router", "FleetRouter", "per_epoch_imbalance", "fleet.report"),
    ("repro.csd.device", "ColdStorageDevice", "submit", "csd.device_submit"),
    ("repro.csd.device", "IntervalLog", "window_overlap", "csd.window_overlap"),
    ("repro.core.mjoin", "MJoinStateManager", "on_arrival", "core.on_arrival"),
    ("repro.core.mjoin", "MJoinStateManager", "initial_requests", "core.cycle_requests"),
    ("repro.core.mjoin", "MJoinStateManager", "next_cycle_requests", "core.cycle_requests"),
    ("repro.core.njoin", "NAryJoin", "execute_ordered", "core.njoin"),
    ("repro.core.client_proxy", "ClientProxy", "request_objects", "core.request_objects"),
    ("repro.core.cache", "ObjectCache", "evict", "core.cache.evict"),
    ("repro.engine.relation", "Segment", "filtered_rows", "engine.filtered_rows"),
    ("repro.engine.operators.aggregate", "AggregateState", "add_all", "engine.aggregate"),
    ("repro.engine.operators.aggregate", "AggregateState", "results", "engine.aggregate"),
    ("repro.cluster.metrics", None, "attribute_waiting_batch", "cluster.attribute_waiting"),
    ("repro.cluster.metrics", None, "busy_span_index", "cluster.attribute_waiting"),
) + tuple(
    # The concrete scheduler classes the workloads use.  They inherit some
    # of these methods, so each class gets its own wrapper in its own
    # ``__dict__``.
    ("repro.csd.scheduler", scheduler, attribute, name)
    for scheduler in ("SlackFCFSScheduler", "RankBasedScheduler")
    for attribute, name in (
        ("add_request", "csd.scheduler.add"),
        ("choose_next_group", "csd.scheduler.choose"),
        ("next_request", "csd.scheduler.next"),
    )
)

#: Layer of a span name: its first dotted component.
LAYERS = ("sim", "workloads", "service", "fleet", "csd", "core", "engine", "cluster")


class SpanRecorder:
    """Collects spans of one traced run in flat arrays."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        """Start a span under the innermost open span; returns its index."""
        index = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a (phase) span around a block."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its children's durations."""
        start, end, parent = self.start, self.end, self.parent
        self_time = [end[i] - start[i] for i in range(len(start))]
        for i, p in enumerate(parent):
            if p >= 0:
                self_time[p] -= end[i] - start[i]
        return self_time

    def roots(self) -> List[int]:
        """Root span of every span (itself for a root)."""
        root: List[int] = []
        for i, p in enumerate(self.parent):
            root.append(i if p < 0 else root[p])
        return root

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Summed self time and call count per span name."""
        sums = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for name_id, self_time in zip(self.name_of, self.self_times()):
            sums[name_id] += self_time
            counts[name_id] += 1
        return {name: (sums[i], counts[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self),
            "arrays": ["name_of:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(handle)


def _wrap(recorder: SpanRecorder, name: str, function: Callable) -> Callable:
    name_id = recorder.name_id(name)
    open_span = recorder.open
    close_span = recorder.close

    def traced(*args, **kwargs):
        index = open_span(name_id)
        try:
            return function(*args, **kwargs)
        finally:
            close_span(index)

    traced.__wrapped__ = function  # type: ignore[attr-defined]
    traced.__name__ = getattr(function, "__name__", name)
    traced.__qualname__ = getattr(function, "__qualname__", name)
    return traced


class Patches:
    """Installs the wrappers of :data:`TARGETS` and removes them all again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        #: (owner, attribute, had its own entry, original entry).
        self._undo: List[Tuple[object, str, bool, object]] = []

    def _set(self, owner: object, attribute: str, value: object) -> None:
        had = attribute in vars(owner)
        self._undo.append((owner, attribute, had, vars(owner).get(attribute)))
        setattr(owner, attribute, value)

    def install(self) -> "Patches":
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for module_name, class_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = getattr(owner, attribute)
                self._set(owner, attribute, _wrap(self._recorder, span_name, original))
                continue
            original = getattr(module, attribute)
            wrapped = _wrap(self._recorder, span_name, original)
            for other in modules:
                if vars(other).get(attribute) is original:
                    self._set(other, attribute, wrapped)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attribute, had, original = self._undo.pop()
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()
