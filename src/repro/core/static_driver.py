"""Round-based ("static") HBH driver.

Executes the Appendix-A rules (:mod:`repro.core.rules`) on the shared
round skeleton of :mod:`repro.core.round_driver`:

1. every receiver emits its periodic ``join`` (walked hop-by-hop along
   its unicast route toward the source, applying the join rules);
2. the source emits ``tree`` messages for its non-stale MFT entries;
   tree messages walk forward unicast routes, applying the tree rules,
   cascading regenerated trees and ``fusion`` messages to a fixpoint
   within the round;
3. soft state ages: entries missing refreshes go stale (t1) and are
   destroyed (t2), with one round = one refresh period.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Set, Tuple, Union

from repro.core.messages import FusionMessage, JoinMessage, TreeMessage
from repro.core.round_driver import MAX_CASCADE, RoundDriver
from repro.core.rules import (
    FORWARD_ONLY,
    Consume,
    OriginateFusion,
    OriginateTree,
    process_fusion,
    process_fusion_at_source,
    process_join,
    process_join_at_source,
    process_tree,
)
from repro.core.tables import HbhChannelState, Mft, ProtocolTiming
from repro.errors import ProtocolError, RoutingError
from repro.metrics.distribution import DataDistribution
from repro.obs.causal import DATA, FUSION, JOIN, TREE, Span
from repro.obs.profiling import profiled

NodeId = Hashable


class StaticHbh(RoundDriver):
    """One HBH channel driven round-by-round to convergence."""

    protocol = "hbh"
    noun = "channel"
    state_type = HbhChannelState
    join_type = JoinMessage
    join_steps_read_source = True  # the on-SPT premise of join rule 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.source_mft = Mft()
        self._tree_msgs: Dict[NodeId, TreeMessage] = {}

    def _source_table(self):
        return self.source_mft

    def _expire_source(self, now: float, timing: ProtocolTiming) -> None:
        self.source_mft.expire(now, timing)

    def _table_rows(self) -> List[Tuple]:
        """Runs twice per round (convergence compares consecutive
        snapshots), so the entry flags are computed inline — same
        predicates as :meth:`MftEntry.is_marked` / ``is_stale`` —
        instead of two method calls per entry."""
        now, timing = self.now, self.timing
        t1 = timing.t1
        items: List[Tuple] = []
        append = items.append
        states = self.states
        for node in sorted(states):
            state = states[node]
            mct = state.mct
            if mct is not None:
                append((node, "mct", mct.entry.address,
                        mct.is_stale(now, timing)))
            mft = state.mft
            if mft is not None:
                for entry in mft.entries():
                    marked_at = entry.marked_at
                    append((node, "mft", entry.address,
                            marked_at is not None and (now - marked_at) < t1,
                            entry.forced_stale
                            or (now - entry.refreshed_at) >= t1))
        source = self.source
        for entry in self.source_mft.entries():
            marked_at = entry.marked_at
            append((source, "src", entry.address,
                    marked_at is not None and (now - marked_at) < t1,
                    entry.forced_stale or (now - entry.refreshed_at) >= t1))
        return items

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_step(self, node: NodeId, index: int, origin: NodeId) -> Tuple:
        # Rule 3's routing premise is a function of the origin alone
        # (every planned join has joiner == origin), so it lives in
        # the plan.
        return (node, index, self._on_spt(node, origin))

    def _on_spt(self, node: NodeId, receiver: NodeId) -> bool:
        """Does ``node`` lie on a unicast shortest path from the source
        to ``receiver``?  The routing fact behind join rule 3's premise
        (a branching node serves receivers on forward shortest paths);
        unreachable endpoints — e.g. mid-fault — count as off-path."""
        distance = self.routing.distance
        try:
            return (distance(self.source, node) + distance(node, receiver)
                    == distance(self.source, receiver))
        except RoutingError:
            return False

    def _walk_join(self, origin: NodeId, message: JoinMessage,
                   span: Optional[Span] = None) -> None:
        """Walk a join from ``origin`` toward the source, applying the
        join rules at every HBH router until interception or arrival.

        Join rule 3 is the only outcome besides forwarding: the
        interceptor refreshes the joiner's entry and joins the channel
        itself upstream — a nested walk, run before the intercepted
        one finishes.
        """
        self.messages_processed += 1
        steps, hops, _ = (self._join_plans.get(origin)
                          or self._join_plan(origin))
        now = float(self.round_no)
        timing = self.timing
        states = self.states
        for current, index, on_spt in steps:
            state = states.get(current)
            if state is None:
                state = states[current] = HbhChannelState()
            if process_join(state, message, current, now, timing,
                            on_spt=on_spt) is FORWARD_ONLY:
                continue
            nested = (self._join_msgs.get(current)
                      or self._join_message(current))
            if span is None:
                self._walk_join(current, nested, None)
                return
            causal = self.causal
            span.hops.extend(hops[:index + 1])
            causal.effect(span, current, "mft", message.joiner,
                          "refresh-join", now)
            child = causal.begin(JOIN, current, now, self.channel_name,
                                 parent=span, target=current)
            self._walk_join(current, self._stamp(nested, child), child)
            causal.finish(span, f"intercepted by {current} (join rule 3)")
            return
        if span is None:
            process_join_at_source(self.source_mft, message, now)
            return
        joiner = message.joiner
        existed = joiner in self.source_mft
        process_join_at_source(self.source_mft, message, now)
        span.hops.extend(hops)
        self.causal.effect(span, self.source, "source-mft", joiner,
                           "refresh-join" if existed else "add", now)
        self.causal.finish(
            span,
            f"reached source (MFT entry {joiner} "
            f"{'refreshed' if existed else 'added'})",
        )

    # ------------------------------------------------------------------
    # Trees and fusions
    # ------------------------------------------------------------------
    def _tree_message(self, target: NodeId) -> TreeMessage:
        """Build and cache the periodic ``tree(S, target)`` (callers
        look in :attr:`_tree_msgs` first)."""
        message = self._tree_msgs[target] = TreeMessage(self.channel, target)
        return message

    def _tree_phase(self) -> None:
        """The source's periodic tree emission plus the full in-round
        cascade of regenerated tree and fusion messages.

        Each distinct message is walked at most once per round: the
        real protocol emits one ``tree(S, G, target)`` per refresh
        period, so replaying duplicates within one synchronous round
        would be an artifact.  This also guarantees the cascade
        terminates when a route flip leaves a transient table cycle
        (two nodes regenerating trees at each other) — the cycle is
        walked once and left to age out over subsequent rounds.
        """
        queue: Deque[
            Tuple[NodeId, Union[TreeMessage, FusionMessage], Optional[Span]]
        ] = deque()
        tree_msgs = self._tree_msgs
        for target in self.source_mft.tree_targets(self.now, self.timing):
            queue.append((self.source,
                          tree_msgs.get(target) or self._tree_message(target),
                          None))
        causal = self.causal
        tracing = causal is not None and causal.enabled
        #: All of one round's emission shares one trace: the origin
        #: event is "the source's periodic tree refresh of round N".
        round_trace = (
            f"{self.channel_name}/round{self.round_no}.tree" if tracing
            else None
        )
        seen: Set[Tuple] = set()
        steps = 0
        while queue:
            steps += 1
            if steps > MAX_CASCADE:  # pragma: no cover - safety valve
                raise ProtocolError("tree/fusion cascade did not terminate")
            origin, message, parent = queue.popleft()
            is_tree = message.__class__ is TreeMessage
            if is_tree:
                key = ("tree", origin, message.target)
            else:
                key = ("fusion", origin, tuple(message.receivers))
            if key in seen:
                continue
            seen.add(key)
            span: Optional[Span] = None
            if tracing:
                if is_tree:
                    span = causal.begin(
                        TREE, origin, self.now, self.channel_name,
                        trace_id=round_trace if parent is None else None,
                        parent=parent, target=message.target,
                    )
                else:
                    span = causal.begin(
                        FUSION, origin, self.now, self.channel_name,
                        parent=parent, target=message.receivers,
                    )
                message = self._stamp(message, span)
            if is_tree:
                self._walk_tree(origin, message, queue, span)
            else:
                self._walk_fusion(origin, message, span)

    def _walk_tree(self, origin: NodeId, message: TreeMessage,
                   queue: Deque, span: Optional[Span] = None) -> None:
        """Walk ``tree(S, target)`` from ``origin`` toward its target,
        applying the tree rules at every HBH router on the way (each
        needs its full-path predecessor as ``arrived_from``, the
        upstream interface the tree message arrived on)."""
        self.messages_processed += 1
        target = message.target
        steps, hops, _ = (self._tree_plans.get((origin, target))
                          or self._tree_plan(origin, target))
        now = float(self.round_no)
        timing = self.timing
        states = self.states
        queue_append = queue.append
        tree_msgs = self._tree_msgs
        for current, arrived_from, index in steps:
            state = states.get(current)
            if state is None:
                state = states[current] = HbhChannelState()
            if span is not None:
                before = self._tree_facts(state, target)
            actions = process_tree(state, message, current, now, timing,
                                   arrived_from=arrived_from)
            if span is not None:
                self._tree_effects(span, current, state, target, before)
            if actions is FORWARD_ONLY:
                continue
            consumed = False
            for action in actions:
                cls = action.__class__
                if cls is Consume:
                    consumed = True
                elif cls is OriginateTree:
                    regenerated = action.target
                    if regenerated != current:
                        queue_append((current,
                                      tree_msgs.get(regenerated)
                                      or self._tree_message(regenerated),
                                      span))
                elif cls is OriginateFusion:
                    queue_append((current,
                                  FusionMessage(self.channel,
                                                action.receivers,
                                                sender=current),
                                  span))
            if consumed:
                if span is not None:
                    span.hops.extend(hops[:index + 1])
                    if before[0]:  # the target held an MFT: rule 1
                        regenerated = sum(1 for a in actions
                                          if a.__class__ is OriginateTree)
                        self.causal.finish(
                            span,
                            f"delivered to branching node {current} "
                            f"(tree rule 1: {regenerated} trees "
                            f"regenerated)",
                        )
                    else:
                        self.causal.finish(span, f"reached {target}")
                return
        if span is not None:
            span.hops.extend(hops)
            self.causal.finish(span, f"reached {target}")

    def _tree_facts(self, state: HbhChannelState,
                    target: NodeId) -> Tuple[bool, bool, Optional[NodeId]]:
        """Cheap before-facts from which :meth:`_tree_effects` infers
        which Appendix-A tree rule fired (the rules stay pure)."""
        mct = state.mct
        return (
            state.mft is not None,
            state.mft is not None and target in state.mft,
            None if mct is None else mct.entry.address,
        )

    def _tree_effects(self, span: Span, node: NodeId,
                      state: HbhChannelState, target: NodeId,
                      before: Tuple[bool, bool, Optional[NodeId]]) -> None:
        """Record the table mutations one tree-rule application made."""
        had_mft, had_entry, mct_addr = before
        causal = self.causal
        now = self.now
        if target == node:
            return  # rule 1 (or plain consume): regeneration only
        if had_mft:
            # rule 3 refreshes an existing entry, rule 2 adds a new one.
            causal.effect(span, node, "mft", target,
                          "refresh-tree" if had_entry else "add", now)
            return
        if state.mft is not None:
            # rule 8: the MCT promoted into an MFT (new branching node).
            causal.effect(span, node, "mct", mct_addr, "promote", now)
            for entry in state.mft:
                causal.effect(span, node, "mft", entry.address, "add", now)
            return
        if state.mct is None:
            return  # no mutation (shouldn't happen on this path)
        if mct_addr is None:  # rule 4
            causal.effect(span, node, "mct", target, "add", now)
        elif mct_addr == target:  # rules 5, 6
            causal.effect(span, node, "mct", target, "refresh-tree", now)
        elif state.mct.entry.address == target:  # rule 7
            causal.effect(span, node, "mct", target, "replace", now)

    def _fusion_next_hop(self, node: NodeId,
                         visited: Set[NodeId]) -> NodeId:
        """Where a fusion leaves ``node``: up the *tree* (the upstream
        interface learned from tree-message arrivals) when known — this
        is what makes the fusion find the data-plane parent even when
        the unicast reverse route toward S misses it — otherwise (off
        tree, unicast-only stretch, or a would-be loop) plain unicast
        toward the source."""
        state = self.states.get(node)
        if (
            state is not None
            and state.upstream is not None
            and state.upstream not in visited
            and self._applies_rules(node)
        ):
            return state.upstream
        return self.routing.next_hop(node, self.source)

    def _walk_fusion(self, origin: NodeId, message: FusionMessage,
                     span: Optional[Span] = None) -> None:
        """Walk a fusion from ``origin`` upstream toward the source
        (tree-path first, unicast fallback), applying the fusion rules
        until interception.  The only walk without a plan: its route
        follows table state, not unicast routes alone."""
        self.messages_processed += 1
        current = origin
        visited: Set[NodeId] = {origin}
        while current != self.source:
            previous = current
            current = self._fusion_next_hop(current, visited)
            visited.add(current)
            if span is not None:
                span.hops.append(current)
            if current == self.source:
                if span is not None:
                    marked = [r for r in message.receivers
                              if r in self.source_mft]
                    adopted = message.sender not in self.source_mft
                process_fusion_at_source(self.source_mft, message, self.now)
                if span is not None:
                    self._fusion_effects(span, self.source, "source-mft",
                                         message.sender, marked, adopted)
                return
            if not self._applies_rules(current):
                continue
            state = self._state_at(current)
            if span is not None:
                mft = state.mft
                marked = [] if mft is None else \
                    [r for r in message.receivers if r in mft]
                adopted = mft is not None and message.sender not in mft
            actions = process_fusion(state, message, self.now,
                                     arrived_from=previous)
            if actions is FORWARD_ONLY:
                continue
            if any(isinstance(action, Consume) for action in actions):
                if span is not None:
                    self._fusion_effects(span, current, "mft",
                                         message.sender, marked, adopted)
                return

    def _fusion_effects(self, span: Span, node: NodeId, table: str,
                        sender: NodeId, marked: List[NodeId],
                        adopted: bool) -> None:
        """Record a fusion interception: marks plus sender adoption."""
        causal = self.causal
        now = self.now
        for receiver in marked:
            causal.effect(span, node, table, receiver, "mark", now)
        causal.effect(span, node, table, sender,
                      "adopt" if adopted else "keep-alive", now)
        where = ("reached source" if node == self.source
                 else f"intercepted by {node}")
        causal.finish(
            span,
            f"{where} (fusion: marked {marked}, "
            f"{'adopted' if adopted else 'kept'} {sender})",
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    @profiled("hbh.distribute_data")
    def distribute_data(self) -> DataDistribution:
        """Inject one data packet at the source and record its journey.

        The source addresses one copy to every data-eligible MFT entry
        (stale entries included, marked ones skipped); each branching
        node consumes copies addressed to itself and re-emits per its
        own MFT — the recursive-unicast data plane of Section 2.2.
        """
        distribution = DataDistribution(expected=set(self.receivers))
        expanded: Set[NodeId] = set()
        root = self._span(DATA, self.source)
        for target in self.source_mft.data_targets(self.now, self.timing):
            child = None
            if root is not None:
                child = self.causal.begin(
                    DATA, self.source, self.now, self.channel_name,
                    parent=root, target=target,
                )
            self._walk_data(self.source, target, 0.0, distribution,
                            expanded, child)
        if root is not None:
            self.causal.finish(
                root, f"data fan-out from {self.source}"
            )
        return distribution

    def _walk_data(
        self,
        origin: NodeId,
        target: NodeId,
        elapsed: float,
        distribution: DataDistribution,
        expanded: Set[NodeId],
        span: Optional[Span] = None,
    ) -> None:
        current = origin
        topology_cost = self.topology.cost
        for nxt in self._hops(origin, target):
            cost = topology_cost(current, nxt)
            distribution.record_hop(current, nxt, cost)
            elapsed += cost
            current = nxt
            if span is not None:
                span.hops.append(current)
        delivered = current in self.receivers
        if delivered:
            distribution.record_delivery(current, elapsed)
        if current in expanded:
            # A transient table cycle would re-copy forever; a real
            # packet would loop until its TTL died.  The first-visit
            # expansion already served this subtree.
            if span is not None:
                self.causal.finish(
                    span, f"suppressed at {current} (already expanded)"
                )
            return
        expanded.add(current)
        copies = 0
        state = self.states.get(current)
        if state is not None and state.mft is not None:
            for address in state.mft.data_targets(self.now, self.timing):
                if address == current:
                    continue  # a self-entry is the local delivery above
                child = None
                if span is not None:
                    child = self.causal.begin(
                        DATA, current, self.now, self.channel_name,
                        parent=span, target=address,
                    )
                copies += 1
                self._walk_data(
                    current, address, elapsed, distribution, expanded, child
                )
        if span is not None:
            parts = []
            if delivered:
                parts.append(f"delivered to {current} (delay {elapsed:g})")
            if copies:
                parts.append(f"branched into {copies} copies at {current}")
            self.causal.finish(
                span, "; ".join(parts) or f"terminated at {current}"
            )
