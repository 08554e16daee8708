"""Span tracing for the benchmark's traced run.

The program has no spans of its own at its layer boundaries, so the
traced run wraps each layer's public functions from here, records one
span per call and restores the originals afterwards.  Nothing under
``src/`` changes: :func:`install` patches module attributes and class
methods in place and returns a :class:`Patches` whose
:meth:`~Patches.restore` undoes every patch.

A span is ``(name, start, end, parent)``: ``parent`` is the index of
the enclosing span in :attr:`Tracer.spans` (``-1`` at the root).  A
span's *self time* is its duration minus the part of it its child
spans cover; :func:`layer_metrics` turns one pass's spans and counts
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int]

#: The round-driven protocols whose drivers get per-protocol metrics.
DRIVER_PROTOCOLS = ("hbh", "reunite", "pim-sm", "pim-ss")

_END = object()


class Tracer:
    """In-memory span and count recorder.

    :meth:`reset` clears in place: wrappers hold references to
    :attr:`spans` and :attr:`counts`, so they must never be rebound.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn: Callable, args: tuple = (),
             kwargs: Optional[dict] = None):
        """Call ``fn(*args, **kwargs)`` inside one span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            spans[index] = (name, start, time.perf_counter(), parent)
            stack.pop()

    def wrap(self, name: str,
             count: Optional[Callable[[Counter, object, tuple], None]] = None
             ) -> Callable[[Callable], Callable]:
        """A decorator recording a span per call; ``count(counts,
        result, args)`` then tallies whatever the call produced."""
        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = self.span(name, fn, args, kwargs)
                if count is not None:
                    count(self.counts, result, args)
                return result
            traced.__e2ebench_traced__ = True
            return traced
        return decorate

    def wrap_iter(self, name: Optional[str],
                  count_key: Optional[str] = None
                  ) -> Callable[[Callable], Callable]:
        """A decorator for functions returning iterators: every
        ``next()`` on the result is one span named ``name`` (no span
        when ``name`` is None), and every item adds one to
        ``counts[count_key]``."""
        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._iterate(name, count_key, fn(*args, **kwargs))
            traced.__e2ebench_traced__ = True
            return traced
        return decorate

    def _iterate(self, name: Optional[str], count_key: Optional[str],
                 iterator: Iterator) -> Iterator:
        counts = self.counts
        while True:
            if name is None:
                item = next(iterator, _END)
            else:
                item = self.span(name, next, (iterator, _END))
            if item is _END:
                return
            if count_key is not None:
                counts[count_key] += 1
            yield item

    def closed_spans(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return self.spans  # type: ignore[return-value]


class Patches:
    """Every attribute :func:`install` replaced, restorable in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, module, attr: str, wrapper: Callable) -> None:
        """Replace the module-level function ``module.attr`` in every
        ``repro`` module that bound it by name (``from m import f``
        copies the reference, so the defining module alone is not
        enough)."""
        original = module.__dict__[attr]
        wrapped = wrapper(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def method(self, cls: type, attr: str, wrapper: Callable) -> None:
        """Replace the plain method ``cls.attr`` (defined on ``cls``)."""
        self._set(cls, attr, wrapper(cls.__dict__[attr]))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _add_result(key: str):
    def count(counts: Counter, result, _args) -> None:
        counts[key] += result
    return count


def _add_len(key: str):
    def count(counts: Counter, result, _args) -> None:
        counts[key] += len(result)
    return count


def _add_true(key: str):
    def count(counts: Counter, result, _args) -> None:
        counts[key] += 1 if result else 0
    return count


def _drops(tracer: Tracer, name: str,
           records: Optional[Callable[[object], int]] = None):
    """A span wrapper for ring-buffered recorders: adds the instance's
    ``dropped`` growth to ``obs.dropped`` and, given ``records``, the
    records the call produced to ``obs.flow_records``."""
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            before = self.dropped
            result = tracer.span(name, fn, (self,) + args, kwargs)
            tracer.counts["obs.dropped"] += self.dropped - before
            if records is not None:
                tracer.counts["obs.flow_records"] += records(result)
            return result
        traced.__e2ebench_traced__ = True
        return traced
    return decorate


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics need; the
    caller must :meth:`~Patches.restore` the returned patches.

    Every module involved must already be imported, so no later
    ``from m import f`` can capture a wrapper that outlives the run.
    """
    from repro.exec import executor
    from repro.experiments import churn
    from repro.netsim.engine import Simulator
    from repro.obs.flow import FlowTelemetry
    from repro.obs.registry import MetricsRegistry
    from repro.obs.timeline import ConvergenceMonitor, TreeTimeline
    from repro.protocols.base import PROTOCOL_REGISTRY
    from repro.routing import dijkstra, incremental
    from repro.topology import hosts, isp, random_graphs
    from repro.verify.oracle import ConvergenceOracle
    from repro.workload.driver import RoundChurnPlayer
    from repro.workload.membership import MembershipLedger
    from repro.workload.schedule import ChurnSchedule

    patches = Patches()
    try:
        wrap = tracer.wrap
        # repro.topology
        for module, attr in ((random_graphs, "random_topology_50"),
                             (random_graphs, "scaled_waxman_topology"),
                             (isp, "isp_topology")):
            patches.function(module, attr, wrap("topology.build"))
        patches.function(hosts, "attach_one_host_per_router",
                         wrap("topology.hosts"))
        # repro.routing
        patches.function(dijkstra, "shortest_paths_from",
                         wrap("routing.build"))
        patches.function(incremental, "repair_tree",
                         wrap("routing.repair",
                              _add_len("routing.repair.nodes_touched")))
        # repro.core + repro.protocols: the round drivers (importing
        # the adapters registers them)
        import repro.protocols.hbh_adapter  # noqa: F401
        import repro.protocols.pim.protocol  # noqa: F401
        import repro.protocols.reunite.protocol  # noqa: F401
        for protocol in DRIVER_PROTOCOLS:
            cls = PROTOCOL_REGISTRY[protocol]
            patches.method(cls, "converge",
                           wrap(f"driver.{protocol}.converge",
                                _add_result(f"driver.{protocol}.rounds")))
            patches.method(cls, "distribute_data",
                           wrap(f"driver.{protocol}.distribute"))
            for attr in ("add_receiver", "remove_receiver"):
                patches.method(cls, attr,
                               wrap(f"driver.{protocol}.membership"))
        # repro.workload
        patches.method(ChurnSchedule, "events",
                       tracer.wrap_iter("workload.generate"))
        patches.method(ChurnSchedule, "_generate",
                       tracer.wrap_iter(None, "workload.events_generated"))
        patches.method(RoundChurnPlayer, "advance",
                       wrap("workload.advance",
                            _add_result("workload.events_applied")))
        for attr in ("add", "remove"):
            patches.method(MembershipLedger, attr,
                           wrap("workload.ledger",
                                _add_true("workload.edges")))
        # repro.obs
        patches.method(TreeTimeline, "record",
                       _drops(tracer, "obs.timeline.record"))
        for attr in ("observe_tables", "perturb", "control", "poll"):
            patches.method(TreeTimeline, attr, wrap("obs.timeline"))
        for attr in ("poll", "finalize"):
            patches.method(ConvergenceMonitor, attr, wrap("obs.timeline"))
        patches.method(FlowTelemetry, "record_transmit", wrap("obs.flow"))
        patches.method(FlowTelemetry, "record_delivery",
                       _drops(tracer, "obs.flow",
                              lambda record: int(record is not None)))
        patches.method(FlowTelemetry, "observe_distribution",
                       _drops(tracer, "obs.flow", len))
        patches.function(churn, "digest_registry", wrap("obs.digest"))
        patches.method(MetricsRegistry, "snapshot", wrap("obs.digest"))
        # repro.verify
        patches.method(ConvergenceOracle, "check", wrap("verify.oracle"))
        # repro.netsim
        patches.method(Simulator, "run",
                       wrap("netsim.run", _add_result("netsim.events")))
        # repro.exec
        patches.method(executor.SweepExecutor, "map_cells", wrap("exec.map"))
        patches.method(executor.CellTask, "run_local", wrap("exec.cell"))
    except BaseException:
        patches.restore()
        raise
    return patches


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Tuple[Dict[str, float],
                                           Dict[str, float],
                                           Counter]:
    """Per span name: (self seconds, inclusive seconds, call count).

    Spans nest strictly (a call stack), so the part of a parent that
    its children cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, _parent) in enumerate(spans):
        own[name] += (end - start) - child_time[index]
        inclusive[name] += end - start
        calls[name] += 1
    return own, inclusive, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], counts: Counter) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``_s`` metrics are self seconds and partition the root span, named
    ``pass``: ``unattributed_s`` is the time in the pass or inside an
    executor cell that no layer below claimed.
    """
    own, _inclusive, calls = self_times(spans)

    def self_of(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    metrics: Dict[str, float] = {
        "topology.build_s": self_of("topology.build", "topology.hosts"),
        "topology.builds": calls["topology.build"],
        "routing.build_s": self_of("routing.build"),
        "routing.builds": calls["routing.build"],
        "routing.repair_s": self_of("routing.repair"),
        "routing.repair.nodes_touched":
            counts["routing.repair.nodes_touched"],
    }
    for protocol in DRIVER_PROTOCOLS:
        prefix = f"driver.{protocol}"
        converge_s = self_of(f"{prefix}.converge")
        rounds = counts[f"{prefix}.rounds"]
        metrics.update({
            f"{prefix}.converge_s": converge_s,
            f"{prefix}.converges": calls[f"{prefix}.converge"],
            f"{prefix}.rounds": rounds,
            f"{prefix}.round_us": _ratio(converge_s * 1e6, rounds),
            f"{prefix}.distribute_s": self_of(f"{prefix}.distribute"),
            f"{prefix}.membership_s": self_of(f"{prefix}.membership"),
        })
    generated = counts["workload.events_generated"]
    applied = counts["workload.events_applied"]
    run_s = self_of("netsim.run")
    metrics.update({
        "workload.generate_s": self_of("workload.generate"),
        "workload.events_generated": generated,
        "workload.events_applied": applied,
        "workload.yield": _ratio(applied, generated),
        "workload.advance_s": self_of("workload.advance", "workload.ledger"),
        "workload.edges": counts["workload.edges"],
        "obs.timeline_s": self_of("obs.timeline", "obs.timeline.record"),
        "obs.timeline_events": calls["obs.timeline.record"],
        "obs.flow_s": self_of("obs.flow"),
        "obs.flow_records": counts["obs.flow_records"],
        "obs.dropped": counts["obs.dropped"],
        "obs.digest_s": self_of("obs.digest"),
        "verify.oracle_s": self_of("verify.oracle"),
        "verify.checks": calls["verify.oracle"],
        "netsim.run_s": run_s,
        "netsim.events": counts["netsim.events"],
        "netsim.events_per_s": _ratio(counts["netsim.events"], run_s),
        "netsim.tx_copies": counts["netsim.tx_copies"],
        "exec.cells": calls["exec.cell"],
        # Cells run inside map_cells, so its self time is map_cells
        # minus the time inside cells.
        "exec.overhead_s": self_of("exec.map"),
        "unattributed_s": self_of("pass", "exec.cell"),
    })
    return {name: float(value) for name, value in metrics.items()}


def median_metrics(per_pass: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Metric-wise median over passes (counts repeat exactly)."""
    per_pass = list(per_pass)
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}


#: Which end-to-end metric each per-layer metric should move, and on
#: which workloads the layer works (little or no work in parentheses).
LAYER_TARGETS: Dict[str, Tuple[str, str]] = {
    "topology": ("throughput, item_p50_ms",
                 "paper-sweep (churn-primetime)"),
    "routing": ("throughput",
                "paper-sweep builds, fault-replay repair (churn-primetime)"),
    "driver": ("throughput, item_p50_ms",
               "paper-sweep, churn-primetime (fault-replay)"),
    "workload": ("throughput, peak_rss_mb",
                 "churn-primetime (paper-sweep, fault-replay)"),
    "obs": ("throughput",
            "fault-replay, churn-primetime (paper-sweep: disabled path)"),
    "verify": ("throughput", "churn-primetime"),
    "netsim": ("throughput, item_p50_ms",
               "fault-replay (paper-sweep, churn-primetime)"),
    "exec": ("wall_s", "churn-primetime"),
    "unattributed_s": ("wall_s", "all: time in no traced layer"),
    "trace": ("none: traced minus untraced wall_s", "all"),
}
