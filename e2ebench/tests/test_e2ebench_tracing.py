"""The traced run's wrappers: they must not change what the program
computes, and their spans must add up.

Run from the repository root::

    python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import sys
import time
from typing import List

import pytest

from e2ebench.tracing import Span, Tracer, install, layer_metrics, self_times
from e2ebench.workloads import ChurnPrimetime, FaultReplay, PaperSweep

#: Each workload at the smallest size that still runs every layer it
#: runs at full size.
SMALL = {
    "paper-sweep": lambda: PaperSweep(seed=1, runs=1),
    "churn-primetime": lambda: ChurnPrimetime(seed=1, events=200),
    "fault-replay": lambda: FaultReplay(seed=1, seeds=2),
}


def traced_leftovers() -> List[str]:
    """Names of ``repro`` attributes still bound to a wrapper (empty
    after a clean :meth:`Patches.restore`)."""
    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if getattr(value, "__e2ebench_traced__", False):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if getattr(member, "__e2ebench_traced__", False):
                        found.append(f"{name}.{key}.{attr}")
    return found


def nesting_errors(spans: List[Span]) -> List[str]:
    """Children that start before or end after their parent."""
    errors = []
    for index, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            continue
        p_name, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end or parent >= index:
            errors.append(f"span {index} {name} [{start}, {end}] outside "
                          f"parent {parent} {p_name} [{p_start}, {p_end}]")
    return errors


class Traced:
    """One workload run untraced, traced, then untraced again."""

    def __init__(self, make) -> None:
        workload = make()
        workload.setup()
        self.before = workload.check(workload.body()).digest
        tracer = Tracer()
        patches = install(tracer)
        try:
            self.leftovers_while_installed = traced_leftovers()
            started = time.perf_counter()
            body = tracer.span("pass", workload.body)
            self.wall = time.perf_counter() - started
            self.spans = list(tracer.closed_spans())
            self.layers = layer_metrics(self.spans, tracer.counts)
            self.during = workload.check(body).digest
        finally:
            patches.restore()
        self.leftovers = traced_leftovers()
        self.after = workload.check(workload.body()).digest


_RUNS: dict = {}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced(request) -> Traced:
    if request.param not in _RUNS:
        _RUNS[request.param] = Traced(SMALL[request.param])
    return _RUNS[request.param]


def test_wrapping_then_unwrapping_keeps_the_output_digest(traced):
    assert traced.leftovers_while_installed
    assert traced.leftovers == []
    assert traced.before == traced.during == traced.after


def test_child_spans_stay_inside_their_parent(traced):
    assert len(traced.spans) > 1
    assert nesting_errors(traced.spans) == []


def test_layer_self_times_sum_to_at_most_the_traced_wall(traced):
    own, inclusive, _calls = self_times(traced.spans)
    assert min(own.values()) >= 0.0
    layer_seconds = sum(value for name, value in traced.layers.items()
                        if name.endswith("_s")
                        and not name.endswith("_per_s"))
    assert layer_seconds == pytest.approx(inclusive["pass"])
    assert layer_seconds <= traced.wall


@pytest.mark.parametrize("traced", ["churn-primetime"], indirect=True)
def test_churn_generates_the_prefix_once_per_cell(traced):
    # 2 protocols x 4 shards = 8 cells each generate the 200-event
    # prefix; each protocol applies it once.
    assert traced.layers["workload.events_generated"] == 8 * 200
    assert traced.layers["workload.events_applied"] == 2 * 200
    assert traced.layers["workload.yield"] == 0.25


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    def parent():
        leaf_traced()
        leaf_traced()
        return sum(range(20000))

    leaf_traced = tracer.wrap("leaf")(leaf)
    tracer.span("root", tracer.wrap("parent")(parent))
    spans = tracer.closed_spans()
    own, inclusive, calls = self_times(spans)
    assert calls == {"root": 1, "parent": 1, "leaf": 2}
    assert nesting_errors(spans) == []
    assert own["parent"] == pytest.approx(
        inclusive["parent"] - inclusive["leaf"])
    assert sum(own.values()) == pytest.approx(inclusive["root"])
