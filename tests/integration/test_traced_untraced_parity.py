"""Tracing is observation only: a round driver with a causal tracer and
flight recorder attached must evolve exactly like one without.

Both round drivers run the same join/leave script, with one mid-run
``set_cost`` reroute, once traced and once untraced on identical
topologies.  Per-round table snapshots, converge round counts,
``messages_processed`` and the measured data distribution must agree
step for step.
"""

import random

import pytest

from repro.core.static_driver import StaticHbh
from repro.errors import ProtocolError
from repro.obs.causal import CausalTracer
from repro.obs.flight import FlightRecorder
from repro.protocols.reunite.static_driver import StaticReunite
from repro.routing.tables import UnicastRouting
from repro.topology import paper
from repro.topology.hosts import attach_one_host_per_router
from repro.topology.random_graphs import random_topology_50

DRIVERS = [StaticHbh, StaticReunite]


def _fig2():
    script = [("join", 11), ("join", 12), ("join", 13), ("converge",),
              ("leave", 12), ("rounds", 3), ("cost", 11, 2, 100.0),
              ("converge",), ("join", 12), ("converge",)]
    return paper.fig2_topology(), 0, script


def _fig3():
    script = [("join", 11), ("join", 12), ("converge",),
              ("cost", 1, 6, 20.0), ("rounds", 2), ("leave", 11),
              ("converge",), ("join", 11), ("converge",)]
    return paper.fig3_topology(), 0, script


def _random50(seed):
    def build():
        topology = random_topology_50(seed=seed)
        hosts = attach_one_host_per_router(topology, seed=seed + 1000)
        rng = random.Random(seed)
        receivers = rng.sample(hosts[1:], 8)
        # The mid-run reroute: the second link of one data path.
        path = UnicastRouting(topology).path(hosts[0], receivers[0])
        a, b = path[1], path[2]
        script = [("join", r) for r in receivers[:6]]
        script += [("converge",), ("leave", receivers[1]), ("rounds", 2),
                   ("cost", a, b, topology.cost(a, b) * 10 + 5),
                   ("join", receivers[6]), ("converge",),
                   ("leave", receivers[2]), ("join", receivers[7]),
                   ("converge",)]
        return topology, hosts[0], script
    return build


CASES = {
    "fig2": _fig2,
    "fig3": _fig3,
    **{f"random50-seed{seed}": _random50(seed) for seed in (1, 2, 3)},
}


def _data(driver):
    distribution = driver.distribute_data()
    return (tuple(distribution.transmissions),
            tuple(sorted(distribution.delays.items())),
            distribution.copies)


def _replay(driver_cls, case, traced):
    """Run ``case`` on a fresh driver; returns its observable trace."""
    topology, source, script = CASES[case]()
    driver = driver_cls(topology, source, routing=UnicastRouting(topology))
    tracer = None
    if traced:
        tracer = CausalTracer(maxlen=5000)
        driver.attach_tracer(tracer, flight=FlightRecorder())
    record = []
    run_round = driver.run_round

    def recorded_round():
        run_round()
        record.append(("round", driver.round_no, driver._snapshot()))

    driver.run_round = recorded_round  # converge() rounds land here too
    for step in script:
        op = step[0]
        if op == "join":
            driver.add_receiver(step[1])
        elif op == "leave":
            driver.remove_receiver(step[1])
        elif op == "cost":
            topology.set_cost(*step[1:])
        elif op == "rounds":
            for _ in range(step[1]):
                driver.run_round()
        else:
            try:
                rounds = driver.converge(max_rounds=80)
            except ProtocolError as error:
                rounds = str(error)
            record.append(("converged", rounds))
            record.append(("data", _data(driver)))
        record.append((step, driver.messages_processed))
    return record, driver, tracer


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("driver_cls", DRIVERS,
                         ids=lambda cls: cls.__name__)
def test_traced_run_matches_untraced(driver_cls, case):
    plain, _, _ = _replay(driver_cls, case, traced=False)
    traced, driver, tracer = _replay(driver_cls, case, traced=True)
    assert traced == plain
    # The traced run really traced: spans and round snapshots landed.
    assert len(tracer) > 0
    assert driver.flight.entries(driver.channel_name)
