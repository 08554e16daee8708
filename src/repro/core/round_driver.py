"""Round-based ("static") protocol drivers: the shared skeleton.

The Monte-Carlo sweeps of Section 4 need thousands of converged trees;
running the full packet-level simulator for each would dominate wall
clock without changing the outcome (the paper's scenarios have static
membership).  A round driver executes a protocol's pure message rules
synchronously, one protocol period per round:

1. every receiver emits its periodic ``join``, walked hop-by-hop along
   its unicast route toward the source under the join rules;
2. the source emits its periodic ``tree`` messages, which walk forward
   unicast routes under the tree rules and cascade regenerated
   messages to a fixpoint within the round;
3. soft state ages: entries missing refreshes go stale (t1) and are
   destroyed (t2), with one round = one refresh period.

``converge()`` repeats rounds until the table state stops changing;
``distribute_data()`` then injects one data packet and records every
link crossing and receiver delay — the measurement the paper's figures
are built from.

:class:`RoundDriver` holds what HBH (:mod:`repro.core.static_driver`)
and REUNITE (:mod:`repro.protocols.reunite.static_driver`) share:
membership, the round loop and ``converge`` fixed point, the causal
tracer / flight recorder / timeline seams, soft-state expiry and the
generation-keyed walk plans.  A protocol subclass supplies its state
type and messages, one walk per message type (the rule application at
each hop), its source-side handling, one table-row enumerator
(:meth:`~RoundDriver._table_rows`) and its data plane.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.tables import ROUND_TIMING, ProtocolTiming
from repro.errors import ChannelError, ProtocolError
from repro.obs.causal import INITIAL_JOIN, JOIN, CausalTracer, Span
from repro.obs.flight import FlightRecorder
from repro.obs.profiling import PROFILER
from repro.obs.registry import channel_label
from repro.obs.timeline import ConvergenceMonitor, TreeTimeline
from repro.routing.tables import UnicastRouting, shared_routing
from repro.topology.model import NodeKind, Topology

NodeId = Hashable

#: Safety valve for in-round message cascades.
MAX_CASCADE = 100_000

#: Sentinel for "origin generation not queried yet" during plan
#: revalidation (``None`` is a legitimate answer: origin not cached).
_UNKNOWN = object()

#: ``(origin, origin_generation)`` pairs a plan's routes consulted.
Deps = Tuple[Tuple[NodeId, Optional[int]], ...]


class RoundDriver:
    """One multicast conversation driven round-by-round to convergence.

    Node ids double as protocol addresses (the round drivers never
    leave the topology layer).  Only multicast-capable *routers* apply
    the rules; hosts and unicast-only routers simply relay, which is
    exactly the transparent-unicast-cloud property of both protocols.

    **Walk plans.**  A message walk only does work at the rule-applying
    hops of its route, and both the route and the per-node rules
    verdicts are fixed for a routing generation.  Each route is
    therefore resolved once into a plan ``(steps, hops, deps)``:

    - ``steps`` — the rule-applying hops, each with its index into
      ``hops`` (join steps as built by :meth:`_join_step`; tree steps
      ``(node, arrived_from, index)`` with the full-path predecessor);
    - ``hops`` — the full hop sequence, which a traced walk copies into
      its span up to where it stopped;
    - ``deps`` — the ``(origin, generation)`` pairs of every routing
      table the route consulted.

    A routing generation bump revalidates each plan against its own
    ``deps`` and drops only those whose origin trees moved.  Untraced,
    a walk pays one ``span is None`` check per rule-applying hop and
    nothing per transparent hop.
    """

    #: Protocol name: channel tag, timeline label, profiler prefix.
    protocol = ""
    #: What receivers join, in messages ("channel", "conversation").
    noun = ""
    #: Per-router channel state and the join message constructor.
    state_type: Any = None
    join_type: Any = None
    #: Whether :meth:`_join_step` consults the source's routing table.
    join_steps_read_source = False

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        routing: Optional[UnicastRouting] = None,
        timing: ProtocolTiming = ROUND_TIMING,
        group: str = "G",
    ) -> None:
        topology.kind(source)  # validates node existence
        self.topology = topology
        self.routing = routing or shared_routing(topology)
        self.source = source
        self.timing = timing
        self.group = group
        self.channel = (self.protocol, source)
        self.states: Dict[NodeId, Any] = {}
        self.receivers: Set[NodeId] = set()
        #: Sorted membership, rebuilt on add/remove (run_round iterates
        #: it every round; sorting per round is pure waste).
        self._receivers_sorted: Optional[List[NodeId]] = None
        self.round_no = 0
        #: Count of rule-level message walks, for overhead analysis.
        self.messages_processed = 0
        #: Rendered ``<S,G>`` label used by metrics and causal spans.
        self.channel_name = channel_label(source, group)
        #: Memoized :meth:`_applies_rules` verdicts.  Node kind and
        #: multicast capability are fixed before a driver exists (every
        #: ``set_multicast_capable`` call site configures the topology
        #: first), so the verdict is static for the driver's lifetime.
        self._rules_cache: Dict[NodeId, bool] = {}
        #: Walk plans (see the class docstring), keyed by join origin
        #: and by ``(origin, target)`` for tree walks.
        self._join_plans: Dict[NodeId, Tuple] = {}
        self._tree_plans: Dict[Tuple[NodeId, NodeId], Tuple] = {}
        self._plan_generation: Optional[int] = None
        #: Control messages are frozen dataclasses and every round
        #: re-emits identical ones — cache the periodic joins.
        self._join_msgs: Dict[NodeId, Any] = {}
        #: Optional causal tracer + flight recorder (attach_tracer).
        self.causal: Optional[CausalTracer] = None
        self.flight: Optional[FlightRecorder] = None
        #: Optional tree-dynamics timeline (attach_timeline).  None (or
        #: a disabled timeline) costs one check per round — the walks
        #: themselves are never touched; the timeline diffs table state
        #: at round boundaries only.
        self.timeline: Optional[TreeTimeline] = None
        self._timeline_messages = 0
        #: The end-of-round snapshot, when :meth:`run_round` took one
        #: for the timeline or flight recorder; :meth:`converge` reuses
        #: it instead of enumerating the tables twice.
        self._round_snapshot: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # Observability seams (see repro.obs.causal / repro.obs.timeline)
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Optional[CausalTracer],
                      flight: Optional[FlightRecorder] = None) -> None:
        """Wire a causal tracer (and optionally a flight recorder) into
        every message walk; ``None`` detaches both."""
        self.causal = tracer
        if tracer is None:
            self.flight = None
            return
        if flight is not None:
            tracer.recorder = flight
        recorder = tracer.recorder
        self.flight = recorder if isinstance(recorder, FlightRecorder) else None

    def attach_timeline(self, timeline: Optional[TreeTimeline],
                        monitor: Optional[ConvergenceMonitor] = None
                        ) -> None:
        """Wire a tree-dynamics timeline (and optionally an online
        convergence monitor) into the round loop; ``None`` detaches."""
        self.timeline = timeline
        self._timeline_messages = self.messages_processed
        if timeline is not None and monitor is not None:
            timeline.attach_monitor(monitor)
        if timeline is not None and timeline.monitor is not None:
            timeline.monitor.watch(self.protocol, self.channel_name)

    def _span(self, name: str, node: NodeId, target: NodeId = None,
              parent: Optional[Span] = None,
              trace_id: Optional[str] = None) -> Optional[Span]:
        """Open a span when tracing is on; a single None/flag check —
        and None back — when it is off."""
        causal = self.causal
        if causal is None or not causal.enabled:
            return None
        return causal.begin(name, node, self.now, self.channel_name,
                            trace_id=trace_id, parent=parent, target=target)

    @staticmethod
    def _stamp(message, span: Optional[Span]):
        """Copy the span identity onto a control message (no-op copy
        elided entirely when untraced)."""
        if span is None:
            return message
        return replace(message, trace_id=span.trace_id, span_id=span.span_id)

    def _perturb(self, receiver: NodeId, detail: str) -> None:
        timeline = self.timeline
        if timeline is not None and timeline.enabled:
            timeline.perturb(self.now, self.protocol, self.channel_name,
                             node=receiver, detail=detail)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_receiver(self, receiver: NodeId) -> None:
        """Join ``receiver``: its first (``initial``) join is walked
        immediately under the protocol's join rules."""
        self.topology.kind(receiver)
        if receiver == self.source:
            raise ChannelError(f"the source cannot join its own {self.noun}")
        if receiver in self.receivers:
            raise ChannelError(f"receiver {receiver} already joined")
        self.receivers.add(receiver)
        self._receivers_sorted = None
        self._perturb(receiver, "join")
        self._sync_plans()
        span = self._span(INITIAL_JOIN, receiver, target=receiver)
        join = self.join_type(self.channel, receiver, initial=True)
        self._walk_join(receiver, self._stamp(join, span), span)

    def remove_receiver(self, receiver: NodeId) -> None:
        """Leave: the receiver just stops sending joins (Section 2.1);
        its upstream state ages out over subsequent rounds."""
        try:
            self.receivers.remove(receiver)
        except KeyError:
            raise ChannelError(f"receiver {receiver} is not joined") from None
        self._receivers_sorted = None
        self._perturb(receiver, "leave")

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Virtual time: the current round number."""
        return float(self.round_no)

    def run_round(self) -> None:
        """One protocol period: joins, tree cascade, aging."""
        self.round_no += 1
        self._sync_plans()
        receivers = self._receivers_sorted
        if receivers is None:
            receivers = self._receivers_sorted = sorted(self.receivers)
        walk = self._walk_join
        messages = self._join_msgs
        causal = self.causal
        tracing = causal is not None and causal.enabled
        for receiver in receivers:
            message = messages.get(receiver) or self._join_message(receiver)
            if tracing:
                span = self._span(JOIN, receiver, target=receiver)
                walk(receiver, self._stamp(message, span), span)
            else:
                walk(receiver, message, None)
        self._tree_phase()
        self._expire()
        self._round_snapshot = None
        timeline = self.timeline
        watched = timeline is not None and timeline.enabled
        if watched or self.flight is not None:
            snapshot = self._round_snapshot = self._snapshot()
            if watched:
                self._observe_timeline(timeline, snapshot)
            if self.flight is not None:
                watermark = causal.next_id if causal is not None else 0
                self.flight.snapshot(
                    self.channel_name, self.now, f"round {self.round_no}",
                    snapshot, span_watermark=watermark,
                )

    def converge(self, max_rounds: int = 40, settle_rounds: int = 2) -> int:
        """Run rounds until the tree is stable; returns rounds executed.

        Stability = the structural snapshot unchanged for
        ``settle_rounds`` consecutive rounds.  Raises
        :class:`ProtocolError` if ``max_rounds`` pass without
        convergence (a rule bug, not a tuning matter).
        """
        with PROFILER.span(f"{self.protocol}.converge"):
            stable = 0
            previous = self._snapshot()
            for executed in range(1, max_rounds + 1):
                self.run_round()
                current = self._round_snapshot
                if current is None:
                    current = self._snapshot()
                if current == previous:
                    stable += 1
                    if stable >= settle_rounds:
                        return executed
                else:
                    stable = 0
                    previous = current
        raise ProtocolError(
            f"{self.protocol.upper()} did not converge within {max_rounds} "
            f"rounds ({len(self.receivers)} receivers on "
            f"{self.topology.name!r})"
        )

    def _table_rows(self) -> List[Tuple]:
        """Every table entry as ``(node, table, address, *flags)``, in
        a deterministic order — the protocol's one structural view.

        Five-field rows carry ``(marked, stale)`` flags (HBH MFT
        entries: a fresh fusion mark is the first flag); four-field
        rows carry ``stale`` only.  A ``None`` address (REUNITE's
        unanchored MFT) counts for convergence but is no timeline row.
        """
        raise NotImplementedError

    def _snapshot(self) -> Tuple:
        """A hashable structural view of all channel state: compared
        between rounds by :meth:`converge` and recorded per round by
        the flight recorder."""
        return tuple(self._table_rows())

    def _observe_timeline(self, timeline: TreeTimeline,
                          items: Tuple) -> None:
        """Feed the round's table state (its :meth:`_snapshot`) into
        the tree-dynamics timeline: one structural row diff at the
        round boundary plus this round's control-message count into
        the windowed load series.  Marks use the snapshot's freshness
        predicate, so an expired mark is a fusion change."""
        now = self.now
        rows = [item[:3] for item in items if item[2] is not None]
        marks = [item[:3] for item in items if len(item) == 5 and item[3]]
        timeline.observe_tables(now, self.protocol, self.channel_name,
                                rows, marks)
        timeline.control(now, self.protocol, self.channel_name,
                         self.messages_processed - self._timeline_messages)
        self._timeline_messages = self.messages_processed
        timeline.poll(now)

    def _expire_source(self, now: float, timing: ProtocolTiming) -> None:
        """Age the source's own tables."""
        raise NotImplementedError

    def _expire(self) -> None:
        now, timing = self.now, self.timing
        self._expire_source(now, timing)
        emptied = []
        for node, state in self.states.items():
            state.expire(now, timing)
            if not state.in_tree:
                emptied.append(node)
        for node in emptied:
            del self.states[node]

    # ------------------------------------------------------------------
    # Message walks (hop-by-hop over unicast routes)
    # ------------------------------------------------------------------
    def _walk_join(self, origin: NodeId, message,
                   span: Optional[Span] = None) -> None:
        raise NotImplementedError

    def _tree_phase(self) -> None:
        """The source's periodic tree emission and its in-round
        cascade."""
        raise NotImplementedError

    def _join_message(self, joiner: NodeId):
        """Build and cache the periodic ``join(S, joiner)`` (callers
        look in :attr:`_join_msgs` first)."""
        message = self._join_msgs[joiner] = self.join_type(self.channel,
                                                           joiner)
        return message

    def _state_at(self, node: NodeId):
        state = self.states.get(node)
        if state is None:
            state = self.states[node] = self.state_type()
        return state

    def _applies_rules(self, node: NodeId) -> bool:
        """The rules run at multicast-capable transit routers only.
        Memoized: asked once per hop of every plan, against topology
        facts that are fixed before the driver is built."""
        cached = self._rules_cache.get(node)
        if cached is None:
            cached = self._rules_cache[node] = (
                node != self.source
                and self.topology.kind(node) is NodeKind.ROUTER
                and self.topology.is_multicast_capable(node)
            )
        return cached

    def _hops(self, origin: NodeId, destination: NodeId) -> Tuple:
        """The hop sequence ``origin -> destination`` *excluding*
        ``origin`` — what a message walk visits."""
        return self.routing.path_tuple(origin, destination)[1:]

    def _join_step(self, node: NodeId, index: int, origin: NodeId) -> Tuple:
        """One rule-applying hop of ``origin``'s join plan."""
        return (node, index)

    def _join_plan(self, origin: NodeId) -> Tuple:
        """Build and cache the plan of a join walk from ``origin``
        (walks look in :attr:`_join_plans` first).  Every planned join
        has ``joiner == origin``: periodic joins start at the receiver,
        HBH's rule-3 joins carry the interceptor's own address."""
        hops = self._hops(origin, self.source)
        applies = self._applies_rules
        steps = tuple(self._join_step(hop, index, origin)
                      for index, hop in enumerate(hops) if applies(hop))
        # A walk consults the table of every hop but its destination
        # (the last next_hop decision happens one node earlier) —
        # here the source, unless the join steps read its table too.
        consulted = hops if self.join_steps_read_source else hops[:-1]
        plan = self._join_plans[origin] = (
            steps, hops, self._route_deps((origin, *consulted)))
        return plan

    def _tree_plan(self, origin: NodeId, target: NodeId) -> Tuple:
        """Build and cache the plan of a tree walk ``origin -> target``
        (walks look in :attr:`_tree_plans` first)."""
        hops = self._hops(origin, target)
        applies = self._applies_rules
        steps = []
        previous = origin
        for index, hop in enumerate(hops):
            if applies(hop):
                steps.append((hop, previous, index))
            previous = hop
        plan = self._tree_plans[(origin, target)] = (
            tuple(steps), hops, self._route_deps((origin, *hops[:-1])))
        return plan

    def _sync_plans(self) -> None:
        """Entry-point check that the walk plans match the routing
        generation.  On a bump, drop exactly the plans whose origin
        trees changed: each origin is queried once (the query triggers
        its lazy repair, so a clean origin costs one repaired no-op
        and every plan over it survives the fault)."""
        generation = self.routing.generation
        if generation == self._plan_generation:
            return
        self._plan_generation = generation
        origin_generation = self.routing.origin_generation
        fresh: Dict[NodeId, Optional[int]] = {}

        def stale(deps: Deps) -> bool:
            for node, built in deps:
                current = fresh.get(node, _UNKNOWN)
                if current is _UNKNOWN:
                    current = fresh[node] = origin_generation(node)
                if built is None or current != built:
                    return True
            return False

        for plans in (self._join_plans, self._tree_plans):
            for key in [key for key, plan in plans.items() if stale(plan[2])]:
                del plans[key]

    def _route_deps(self, nodes) -> Deps:
        """Capture ``(origin, generation)`` pairs for every distinct
        origin whose table a just-built plan consulted.  Called right
        after the plan is computed, so every table is built and synced
        — each query is one integer compare."""
        origin_generation = self.routing.origin_generation
        deps: Dict[NodeId, Optional[int]] = {}
        for node in nodes:
            if node not in deps:
                deps[node] = origin_generation(node)
        return tuple(deps.items())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def branching_nodes(self) -> List[NodeId]:
        """Routers currently holding an MFT (the tree's branch points)."""
        return sorted(
            node for node, state in self.states.items() if state.is_branching
        )

    def tree_nodes(self) -> List[NodeId]:
        """All routers holding any state for the channel."""
        return sorted(node for node, state in self.states.items()
                      if state.in_tree)

    def _source_table(self):
        """The source's forwarding table, for :meth:`describe`."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable dump of the converged tree (examples/tests)."""
        lines = [f"{self.protocol.upper()} {self.noun} {self.channel}, "
                 f"round {self.round_no}",
                 f"  source {self.source}: {self._source_table()!r}"]
        for node in sorted(self.states):
            state = self.states[node]
            table = state.mft if state.mft is not None else state.mct
            lines.append(f"  node {node}: {table!r}")
        return "\n".join(lines)
