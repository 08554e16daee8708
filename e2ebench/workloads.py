"""The benchmark's three workloads, driven through the library's public
entry points.

Each workload is set up once (:meth:`Workload.setup`) and then runs
fixed-size *passes* back to back.  A pass is the timed
:meth:`Workload.body`, which returns the program's raw output plus the
time of each work item; the untimed :meth:`Workload.check` then
checks that output and digests it.  One seed gives the same simulated
output on every pass.  ``e2ebench/README.md`` says why these three
workloads were chosen.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from e2ebench.yardstick import Yardstick

#: Monte-Carlo runs per group size in one paper-sweep pass.
SWEEP_RUNS = 5
#: Global stream events (the prefix cap) in one churn-primetime pass.
CHURN_EVENTS = 4000
#: Consecutive fault-scenario seeds in one fault-replay pass.
FAULT_SEEDS = 100

CHURN_SCENARIO = "iptv-primetime"


@dataclass
class Body:
    """What one timed body returned."""

    #: The program's output (None when it raised).
    output: Any
    #: Seconds per work item, in completion order.
    item_seconds: List[float]


@dataclass
class PassResult:
    """The checked outcome of one pass."""

    #: Work done, in the workload's throughput unit.
    work: int
    attempted: int
    failed: int
    digest: str
    #: Per-layer counts the program reports in its output (traced run).
    counts: Dict[str, float] = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One named workload."""

    name = ""
    #: What one unit of ``PassResult.work`` (the throughput) is.
    work_unit = ""
    #: What one item of ``Body.item_seconds`` is.
    item_unit = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Imports, configs, topology and schedule construction."""
        raise NotImplementedError

    def body(self, yardstick: Optional[Yardstick] = None) -> Body:
        """One timed pass; ``yardstick`` (when given) is sampled
        between work items, outside their timing."""
        raise NotImplementedError

    def check(self, body: Body) -> PassResult:
        raise NotImplementedError


class PaperSweep(Workload):
    """Fig. 7(b): random50, four protocols, group sizes 5-45."""

    name = "paper-sweep"
    work_unit = "Monte-Carlo runs"
    item_unit = "Monte-Carlo run (all four protocols)"

    def __init__(self, seed: int, runs: int = SWEEP_RUNS) -> None:
        super().__init__(seed)
        self.runs = runs

    def setup(self) -> None:
        from repro.exec.digest import code_fingerprint
        from repro.experiments.figures import figure_config
        from repro.experiments.harness import run_seed

        import repro.experiments.storage  # noqa: F401
        import repro.protocols.hbh_adapter  # noqa: F401
        import repro.protocols.pim.protocol  # noqa: F401
        import repro.protocols.reunite.protocol  # noqa: F401

        self.config = replace(figure_config("fig7b", runs=self.runs),
                              seed=self.seed)
        code_fingerprint()
        first = self.config.group_sizes[0]
        self.config.build_topology(run_seed(self.config, first, 0))

    def body(self, yardstick: Optional[Yardstick] = None) -> Body:
        from repro.errors import ReproError
        from repro.experiments.harness import run_sweep

        item_seconds: List[float] = []
        started = [time.perf_counter()]

        def progress(_group_size, _protocol, _done, _total) -> None:
            item_seconds.append(time.perf_counter() - started[0])
            if yardstick is not None:
                yardstick.sample()
            started[0] = time.perf_counter()

        try:
            result = run_sweep(self.config, progress=progress)
        except ReproError:
            # A run that fails delivery raises after the executor's
            # retries; check() counts every run that did not finish.
            result = None
        return Body(result, item_seconds)

    def check(self, body: Body) -> PassResult:
        from repro.experiments.storage import result_to_dict

        config = self.config
        attempted = config.runs * len(config.group_sizes)
        finished = len(body.item_seconds)
        result = body.output
        if result is None:
            return PassResult(work=finished, attempted=attempted,
                              failed=max(1, attempted - finished),
                              digest="failed")
        # One check per run: it passes when every protocol delivered to
        # every receiver.  The registry pools runs per protocol, so a
        # missing delivery anywhere fails every run of the pass.
        receivers = config.runs * sum(config.group_sizes)
        complete = finished == attempted and all(
            _counter(result.metrics, "data.missing", protocol) == 0
            and _counter(result.metrics, "data.deliveries",
                         protocol) == receivers
            for protocol in config.protocols)
        archive = json.dumps(result_to_dict(result, canonical=True),
                             sort_keys=True)
        return PassResult(work=finished, attempted=attempted,
                          failed=0 if complete else attempted,
                          digest=_sha(archive))


class ChurnPrimetime(Workload):
    """iptv-primetime capped at a stream prefix: hbh and reunite x 4
    channel shards, joins and leaves, timeline and monitor on."""

    name = "churn-primetime"
    work_unit = "applied stream events"
    item_unit = "executor cell (protocol x channel shard)"

    def __init__(self, seed: int, events: int = CHURN_EVENTS) -> None:
        super().__init__(seed)
        self.events = events

    def setup(self) -> None:
        from repro.experiments.churn import (
            build_schedule,
            get_scenario,
            scenario_setup,
        )

        import repro.exec.executor  # noqa: F401
        import repro.protocols.hbh_adapter  # noqa: F401
        import repro.protocols.reunite.protocol  # noqa: F401

        scenario = get_scenario(CHURN_SCENARIO)
        setup = scenario_setup(scenario, self.seed)
        build_schedule(scenario, tuple(setup.candidates), self.seed)

    def body(self, yardstick: Optional[Yardstick] = None) -> Body:
        from repro.exec.executor import CellTask
        from repro.experiments.churn import run_churn

        # run_churn exposes no per-cell hook, so its cells are timed at
        # the executor's cell boundary: one clock pair per cell, eight
        # cells per pass.
        cell_seconds: List[float] = []
        run_local = CellTask.__dict__["run_local"]

        def timed_run_local(task):
            started = time.perf_counter()
            try:
                return run_local(task)
            finally:
                cell_seconds.append(time.perf_counter() - started)
                if yardstick is not None:
                    yardstick.sample()

        CellTask.run_local = timed_run_local
        try:
            payloads = run_churn(CHURN_SCENARIO, events=self.events,
                                 seed=self.seed)
        finally:
            CellTask.run_local = run_local
        return Body(payloads, cell_seconds)

    def check(self, body: Body) -> PassResult:
        from repro.experiments.churn import archive_text

        # One check per oracle spot check (it passes at 0 violations; a
        # cell's violations are charged to at most that many of its
        # checks), plus one per protocol: it applied the whole prefix.
        attempted = failed = 0
        applied: Dict[str, int] = {}
        for payload in body.output:
            checked = int(_digest_value(payload, "churn.oracle.checked"))
            violations = int(_digest_value(payload,
                                           "churn.oracle.violations"))
            attempted += checked
            failed += min(checked, violations)
            protocol = payload["protocol"]
            applied[protocol] = (applied.get(protocol, 0)
                                 + payload["events_applied"])
        attempted += len(applied)
        failed += sum(1 for total in applied.values()
                      if total != self.events)
        archive = archive_text(body.output, CHURN_SCENARIO, self.seed)
        return PassResult(work=sum(applied.values()), attempted=attempted,
                          failed=failed, digest=_sha(archive))


class FaultReplay(Workload):
    """The four fault scenarios on the packet-level event plane, for a
    fixed run of consecutive seeds, timeline and flow planes on."""

    name = "fault-replay"
    work_unit = "scenario replays"
    item_unit = "seed (all four scenarios)"

    def __init__(self, seed: int, seeds: int = FAULT_SEEDS) -> None:
        super().__init__(seed)
        self.seeds = [seed * seeds + offset for offset in range(seeds)]

    def setup(self) -> None:
        from repro.experiments.faults import SCENARIOS

        import repro.exec.executor  # noqa: F401
        import repro.obs.flow  # noqa: F401
        import repro.obs.timeline  # noqa: F401

        for scenario in SCENARIOS.values():
            scenario.build_topology()
            for seed in self.seeds:
                scenario.build_schedule(seed)

    def body(self, yardstick: Optional[Yardstick] = None) -> Body:
        from repro.experiments.faults import run_scenarios

        item_seconds: List[float] = []
        payloads: List[dict] = []
        for seed in self.seeds:
            started = time.perf_counter()
            payloads.extend(run_scenarios(seed=seed, timeline=True,
                                          flows=True))
            item_seconds.append(time.perf_counter() - started)
            if yardstick is not None:
                yardstick.sample()
        return Body(payloads, item_seconds)

    def check(self, body: Body) -> PassResult:
        payloads = body.output
        # One check per replay: it passes when the replay recovered.
        failed = sum(1 for payload in payloads if not payload["recovered"])
        outputs = [
            {key: payload[key] for key in
             ("scenario", "seed", "recovered", "text", "timeline",
              "convergence", "flows", "flow_util")}
            for payload in payloads
        ]
        copies = sum(
            entry["value"]
            for payload in payloads
            for entry in payload["metrics"].get(
                "net.tx.copies", {"series": []})["series"])
        return PassResult(work=len(payloads), attempted=len(payloads),
                          failed=failed,
                          digest=_sha(json.dumps(outputs, sort_keys=True)),
                          counts={"netsim.tx_copies": copies})


def _counter(registry, name: str, protocol: str) -> float:
    return sum(instrument.value
               for found, labels, instrument in registry.collect(name)
               if found == name and labels.get("protocol") == protocol)


def _digest_value(payload: dict, name: str) -> float:
    entry = payload["metrics"].get(name)
    return float(entry["value"]) if entry else 0.0


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    PaperSweep.name: PaperSweep,
    ChurnPrimetime.name: ChurnPrimetime,
    FaultReplay.name: FaultReplay,
}
