"""Registry adapter exposing the HBH static driver through the common
:class:`~repro.protocols.base.MulticastProtocol` interface, so the
experiment harness can build all four of the paper's protocols by name.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.static_driver import StaticHbh
from repro.metrics.distribution import DataDistribution
from repro.protocols.base import RoundDriverProtocol, register_protocol

NodeId = Hashable


@register_protocol("hbh")
class HbhProtocol(RoundDriverProtocol):
    """HBH (the paper's contribution), round-driven to convergence."""

    driver_class = StaticHbh

    def add_receiver(self, receiver: NodeId) -> None:
        self.driver.add_receiver(receiver)
        self.receivers.add(receiver)

    def remove_receiver(self, receiver: NodeId) -> None:
        self.driver.remove_receiver(receiver)
        self.receivers.discard(receiver)

    def converge(self, max_rounds: int = 40) -> int:
        return self.driver.converge(max_rounds=max_rounds)

    def distribute_data(self) -> DataDistribution:
        return self.driver.distribute_data()

    def soft_state(self):
        from repro.verify.state import hbh_soft_state

        return hbh_soft_state(self.driver)
