"""Round-based REUNITE driver (the HBH round skeleton, REUNITE rules).

One round = one protocol period: every receiver's periodic join walks
toward the source under the interception rules; the source then emits
its periodic tree messages (marked for a stale dst), which branching
nodes regenerate per fresh receiver; finally soft state ages.  The
asymmetric-routing pathologies of paper Figs. 2-3 emerge naturally from
these rules — nothing is special-cased.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.round_driver import MAX_CASCADE, RoundDriver
from repro.core.rules import Consume
from repro.core.tables import ProtocolTiming
from repro.errors import ProtocolError
from repro.metrics.distribution import DataDistribution
from repro.obs.causal import DATA, TREE, Span
from repro.obs.profiling import profiled
from repro.protocols.reunite.messages import ReuniteJoin, ReuniteTree
from repro.protocols.reunite.rules import (
    RegenerateTree,
    process_join,
    process_join_at_source,
    process_tree,
)
from repro.protocols.reunite.tables import ReuniteState

NodeId = Hashable


class StaticReunite(RoundDriver):
    """One REUNITE conversation driven round-by-round to convergence.

    Unlike HBH, a receiver's first join may be intercepted anywhere in
    the existing tree — REUNITE has no first-join exemption, the root
    of the Fig. 2 problem.  A leaving receiver goes silent; upstream
    state decays and marked tree messages reconfigure the branch
    (Fig. 2(b-d)).
    """

    protocol = "reunite"
    noun = "conversation"
    state_type = ReuniteState
    join_type = ReuniteJoin

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.source_state = ReuniteState()
        self._tree_msgs: Dict[Tuple[NodeId, bool], ReuniteTree] = {}

    def _source_table(self):
        return self.source_state.mft

    def _expire_source(self, now: float, timing: ProtocolTiming) -> None:
        self.source_state.expire(now, timing)
        source_mft = self.source_state.mft
        if source_mft is not None and source_mft.dst is None:
            # Fig. 2(d): the source re-anchors data on the oldest fresh
            # receiver once the old dst entry dies.
            source_mft.promote_receiver_to_dst(now, timing)
            if source_mft.empty:
                self.source_state.mft = None

    def _table_rows(self) -> List[Tuple]:
        """Source first, then nodes in order; the dst anchor is its own
        table, so a Fig. 2(d) re-anchor shows up as the dst row
        moving."""
        now, timing = self.now, self.timing
        items: List[Tuple] = []

        def emit(node: NodeId, state: ReuniteState) -> None:
            if state.mct is not None:
                for entry in state.mct:
                    items.append((node, "mct", entry.address,
                                  entry.is_stale(now, timing)))
            if state.mft is not None:
                dst = state.mft.dst
                items.append((
                    node, "dst",
                    dst.address if dst is not None else None,
                    state.mft.is_stale(now, timing),
                ))
                for entry in state.mft.receivers():
                    items.append((node, "mft", entry.address,
                                  entry.is_stale(now, timing)))

        emit(self.source, self.source_state)
        for node in sorted(self.states):
            emit(node, self.states[node])
        return items

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _walk_join(self, origin: NodeId, message: ReuniteJoin,
                   span: Optional[Span] = None) -> None:
        """Walk a join toward the source until the first router whose
        join rules consume it (or the source)."""
        self.messages_processed += 1
        steps, hops, _ = (self._join_plans.get(origin)
                          or self._join_plan(origin))
        now, timing = float(self.round_no), self.timing
        states = self.states
        for current, index in steps:
            state = states.get(current)
            if state is None:
                state = states[current] = ReuniteState()
            if span is not None:
                before = self._join_facts(state, message)
            if process_join(state, message, now,
                            timing)[0].__class__ is Consume:
                if span is not None:
                    span.hops.extend(hops[:index + 1])
                    self._join_effects(span, current, state, message,
                                       before, at_source=False)
                return
        state = self.source_state
        if span is not None:
            before = self._join_facts(state, message)
        process_join_at_source(state, message, now, timing)
        if span is not None:
            span.hops.extend(hops)
            self._join_effects(span, self.source, state, message, before,
                               at_source=True)

    def _join_facts(self, state, message: ReuniteJoin) -> Tuple[bool, bool]:
        """(joiner already known, node already branching) before the
        join rules ran — enough to name what the interception did."""
        mft = state.mft
        known = (
            mft is not None
            and (mft.get_receiver(message.joiner) is not None
                 or (mft.dst is not None
                     and mft.dst.address == message.joiner))
        )
        return known, mft is not None

    def _join_effects(self, span: Span, node: NodeId, state,
                      message: ReuniteJoin, before: Tuple[bool, bool],
                      at_source: bool) -> None:
        """Record what a consumed REUNITE join did to the node's MFT."""
        known, was_branching = before
        causal = self.causal
        now = self.now
        table = "mft"
        if known:
            causal.effect(span, node, table, message.joiner,
                          "refresh-join", now)
            what = f"refreshed {message.joiner}"
        elif was_branching or at_source:
            causal.effect(span, node, table, message.joiner, "add", now)
            what = f"added {message.joiner}"
        else:
            # An MCT node promoted itself to branching (dst = the old
            # MCT receiver, the joiner added alongside).
            mft = state.mft
            if mft is not None and mft.dst is not None:
                causal.effect(span, node, table, mft.dst.address,
                              "promote-dst", now)
            causal.effect(span, node, table, message.joiner, "add", now)
            what = f"promoted to branching node, added {message.joiner}"
        where = "reached source" if at_source else f"intercepted by {node}"
        causal.finish(span, f"{where} ({what})")

    # ------------------------------------------------------------------
    # Trees
    # ------------------------------------------------------------------
    def _tree_message(self, target: NodeId, marked: bool) -> ReuniteTree:
        """Build and cache ``tree(S, target)`` (callers look in
        :attr:`_tree_msgs` first)."""
        message = self._tree_msgs[(target, marked)] = \
            ReuniteTree(self.channel, target, marked=marked)
        return message

    def _tree_phase(self) -> None:
        queue: Deque[Tuple[NodeId, ReuniteTree, Optional[Span]]] = deque()
        # A node regenerates tree(S, rj) once per period in the real
        # protocol; dedupe per round so pathological mutual-dst state
        # (possible under asymmetric routing) cannot make the cascade
        # unbounded — the loop then resolves through soft state.
        emitted: Set[Tuple[NodeId, NodeId, bool]] = set()

        def enqueue(origin: NodeId, target: NodeId, marked: bool,
                    parent: Optional[Span] = None) -> None:
            key = (origin, target, marked)
            if key not in emitted:
                emitted.add(key)
                message = (self._tree_msgs.get((target, marked))
                           or self._tree_message(target, marked))
                queue.append((origin, message, parent))

        mft = self.source_state.mft
        if mft is None:
            return
        now, timing = self.now, self.timing
        if mft.dst is not None:
            enqueue(self.source, mft.dst.address,
                    mft.dst.is_stale(now, timing))
        for entry in mft.fresh_receivers(now, timing):
            enqueue(self.source, entry.address, False)
        causal = self.causal
        tracing = causal is not None and causal.enabled
        round_trace = (
            f"{self.channel_name}/round{self.round_no}.tree" if tracing
            else None
        )
        steps = 0
        while queue:
            steps += 1
            if steps > MAX_CASCADE:  # pragma: no cover - safety valve
                raise ProtocolError("REUNITE tree cascade did not terminate")
            origin, message, parent = queue.popleft()
            span: Optional[Span] = None
            if tracing:
                span = causal.begin(
                    TREE, origin, now, self.channel_name,
                    trace_id=round_trace if parent is None else None,
                    parent=parent, target=message.target,
                )
                message = self._stamp(message, span)
            self._walk_tree(origin, message, enqueue, span)

    def _walk_tree(self, origin: NodeId, message: ReuniteTree, enqueue,
                   span: Optional[Span] = None) -> None:
        """Walk ``tree(S, target)`` toward its target: every router on
        the way (the target itself excluded) applies the tree rules and
        forwards; branching nodes regenerate per fresh receiver."""
        self.messages_processed += 1
        target = message.target
        steps, hops, _ = (self._tree_plans.get((origin, target))
                          or self._tree_plan(origin, target))
        now, timing = float(self.round_no), self.timing
        states = self.states
        for current, _, _ in steps:
            if current == target:
                break  # consumed by the receiver (or its leaf node)
            state = states.get(current)
            if state is None:
                state = states[current] = ReuniteState()
            if span is not None:
                before = self._tree_facts(state, message)
            actions = process_tree(state, message, now, timing)
            if span is not None:
                self._tree_effects(span, current, state, message, before)
            for action in actions:
                if action.__class__ is RegenerateTree \
                        and action.target != current:
                    enqueue(current, action.target, action.marked, span)
        if span is not None:
            span.hops.extend(hops)
            self.causal.finish(span, f"reached {target}")

    def _tree_facts(self, state,
                    message: ReuniteTree) -> Tuple[bool, bool]:
        """(target is this node's MFT.dst, target held an MCT entry)
        before the tree rules ran."""
        mft = state.mft
        is_dst = (mft is not None and mft.dst is not None
                  and mft.dst.address == message.target)
        had_mct = (state.mct is not None
                   and state.mct.get(message.target) is not None)
        return is_dst, had_mct

    def _tree_effects(self, span: Span, node: NodeId, state,
                      message: ReuniteTree,
                      before: Tuple[bool, bool]) -> None:
        """Record what one REUNITE tree-rule application mutated."""
        is_dst, had_mct = before
        causal = self.causal
        now = self.now
        target = message.target
        if is_dst:
            causal.effect(span, node, "mft", target,
                          "make-stale" if message.marked else "refresh-tree",
                          now)
        elif state.mft is not None:
            pass  # transit through a branching node: no mutation
        elif message.marked:
            if had_mct:
                causal.effect(span, node, "mct", target, "remove", now)
        else:
            causal.effect(span, node, "mct", target,
                          "refresh-tree" if had_mct else "add", now)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    @profiled("reunite.distribute_data")
    def distribute_data(self) -> DataDistribution:
        """One data packet: the source addresses the original to
        ``MFT.dst`` and one modified copy to every other receiver in
        its MFT; each branching node below does the same when the
        original (addressed to *its* dst) passes through."""
        distribution = DataDistribution(expected=set(self.receivers))
        mft = self.source_state.mft
        if mft is None:
            return distribution
        now, timing = self.now, self.timing
        expanded: Set[Tuple[NodeId, NodeId]] = set()
        root = self._span(DATA, self.source)
        targets: List[NodeId] = []
        if mft.dst is not None:
            targets.append(mft.dst.address)
        targets.extend(e.address for e in mft.live_receivers(now, timing))
        for target in targets:
            child = None
            if root is not None:
                child = self.causal.begin(
                    DATA, self.source, self.now, self.channel_name,
                    parent=root, target=target,
                )
            self._walk_data(self.source, target, 0.0, distribution,
                            expanded, child)
        if root is not None:
            self.causal.finish(root, f"data fan-out from {self.source}")
        return distribution

    def _walk_data(self, origin: NodeId, target: NodeId, elapsed: float,
                   distribution: DataDistribution,
                   expanded: Set[Tuple[NodeId, NodeId]],
                   span: Optional[Span] = None) -> None:
        now, timing = self.now, self.timing
        copies = 0
        current = origin
        for nxt in self._hops(origin, target):
            cost = self.topology.cost(current, nxt)
            distribution.record_hop(current, nxt, cost)
            elapsed += cost
            current = nxt
            if span is not None:
                span.hops.append(current)
            if current == target:
                break
            state = self.states.get(current)
            if state is None or state.mft is None:
                continue
            mft = state.mft
            if mft.dst is not None and mft.dst.address == target:
                # The original passes its branching node: one modified
                # copy per live receiver (the original continues).  A
                # (node, target) pair duplicates once per packet — a
                # pathological mutual-dst loop would otherwise recurse
                # forever where a real packet just dies by TTL.
                if (current, target) in expanded:
                    continue
                expanded.add((current, target))
                for entry in mft.live_receivers(now, timing):
                    child = None
                    if span is not None:
                        child = self.causal.begin(
                            DATA, current, self.now, self.channel_name,
                            parent=span, target=entry.address,
                        )
                    copies += 1
                    self._walk_data(current, entry.address, elapsed,
                                    distribution, expanded, child)
        delivered = current in self.receivers
        if delivered:
            distribution.record_delivery(current, elapsed)
        if span is not None:
            parts = []
            if delivered:
                parts.append(f"delivered to {current} (delay {elapsed:g})")
            if copies:
                parts.append(f"branched into {copies} copies en route")
            self.causal.finish(
                span, "; ".join(parts) or f"terminated at {current}"
            )
