"""Per-node forwarding tables and the network-wide routing view.

:class:`UnicastRouting` computes and caches the shortest-path trees of
every node lazily; :class:`RoutingTable` is one node's view (the
longest-lived object the protocol agents touch on every packet).

The split mirrors reality: a router only ever consults *its own* table
(``next_hop``), while the experiment harness uses the global view for
path and delay calculations.

Cost changes are tracked *incrementally*: the routing view registers a
cost listener on its topology, appends every effective ``set_cost`` to
a delta log, and repairs each cached table lazily — on its next query —
via :func:`repro.routing.incremental.repair_tree`, touching only the
origins whose trees the deltas actually cross.  A per-origin
``generation`` counter lets downstream memoizers (the round drivers'
walk plans) revalidate per origin instead of rebuilding wholesale.  Setting ``REPRO_ROUTING_FULL=1`` in the
environment is the escape hatch: every repair becomes a from-scratch
Dijkstra rebuild (still lazy, still per-origin), which the determinism
tests use to prove the two modes byte-identical.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import RoutingError
from repro.obs.profiling import PROFILER
from repro.routing.dijkstra import shortest_paths_from
from repro.routing.incremental import repair_tree
from repro.topology.model import Topology

NodeId = Hashable

#: Environment flag selecting the full-recompute escape hatch.
FULL_RECOMPUTE_ENV = "REPRO_ROUTING_FULL"

_ABSENT = object()


@dataclass
class RepairStats:
    """Counters describing how the incremental substrate has worked.

    ``origins_changed`` / ``origins_clean`` split the refreshes by
    whether the pending deltas actually moved that origin's tree — the
    scale tests assert a single link event leaves almost every origin
    clean.  ``full_rebuilds`` counts refreshes served by a from-scratch
    Dijkstra (escape hatch, overflowed delta log, or the batch-size
    heuristic); ``nodes_touched`` sums the changed node sets.
    """

    refreshes: int = 0
    origins_changed: int = 0
    origins_clean: int = 0
    full_rebuilds: int = 0
    nodes_touched: int = 0

    def reset(self) -> None:
        self.refreshes = 0
        self.origins_changed = 0
        self.origins_clean = 0
        self.full_rebuilds = 0
        self.nodes_touched = 0


class RoutingTable:
    """One node's unicast forwarding view (destination -> next hop).

    Stores the origin's shortest-path tree sparsely — the ``(distance,
    predecessor)`` maps — and derives next hops on demand by walking a
    predecessor chain once, memoizing the whole chain (every node on it
    shares the same first hop).  A table owned by a
    :class:`UnicastRouting` synchronises itself on every query: one
    integer compare against the owner's delta sequence, then a lazy
    repair when costs changed since the last read.  Holders may
    therefore keep a table reference indefinitely; it never goes
    silently stale.

    :attr:`generation` bumps only when *this origin's* routes actually
    changed, so memoizers of per-origin route facts can revalidate
    without a wholesale flush.
    """

    __slots__ = ("node", "_dist", "_pred", "_next_hops", "_owner",
                 "applied_seq", "generation")

    def __init__(
        self,
        node: NodeId,
        distances: Dict[NodeId, float],
        predecessors: Dict[NodeId, Optional[NodeId]],
        owner: Optional["UnicastRouting"] = None,
    ) -> None:
        self.node = node
        self._dist = distances
        self._pred = predecessors
        self._next_hops: Dict[NodeId, NodeId] = {}
        self._owner = owner
        #: The owner delta-log sequence this table has applied.
        self.applied_seq = 0 if owner is None else owner._seq
        #: Bumped (to the owner's global generation) whenever a repair
        #: changes this origin's routes.
        self.generation = 0 if owner is None else owner.generation

    def _sync(self) -> None:
        owner = self._owner
        if owner is not None and self.applied_seq != owner._seq:
            owner._refresh(self)

    def next_hop(self, destination: NodeId) -> NodeId:
        """The neighbor to which traffic for ``destination`` is forwarded.

        Raises :class:`RoutingError` for the node itself or unreachable
        destinations.
        """
        self._sync()
        hop = self._next_hops.get(destination)
        if hop is not None:
            return hop
        if destination == self.node:
            raise RoutingError(f"{self.node}: no next hop to self")
        pred = self._pred
        if destination not in pred:
            raise RoutingError(
                f"{self.node}: no route to {destination}"
            )
        # Walk the predecessor chain back toward this node, stopping
        # early at any already-memoized ancestor; every node visited
        # shares the ancestor's first hop.
        node = self.node
        hops = self._next_hops
        chain = []
        cursor = destination
        while True:
            chain.append(cursor)
            parent = pred[cursor]
            if parent == node:
                first = cursor
                break
            cached = hops.get(parent)
            if cached is not None:
                first = cached
                break
            if parent is None:  # pragma: no cover - connected topology
                raise RoutingError(
                    f"broken predecessor chain {node} -> {destination}"
                )
            cursor = parent
        for n in chain:
            hops[n] = first
        return first

    def distance(self, destination: NodeId) -> float:
        """Total directed cost from this node to ``destination``."""
        self._sync()
        try:
            return self._dist[destination]
        except KeyError:
            raise RoutingError(
                f"{self.node}: no route to {destination}"
            ) from None

    def predecessor(self, destination: NodeId) -> Optional[NodeId]:
        """``destination``'s parent in this origin's shortest-path tree
        (``None`` for the node itself); raises on unreachable nodes."""
        self._sync()
        try:
            return self._pred[destination]
        except KeyError:
            raise RoutingError(
                f"{self.node}: no route to {destination}"
            ) from None

    def destinations(self) -> List[NodeId]:
        """All reachable destinations (excluding the node itself), sorted."""
        self._sync()
        node = self.node
        return sorted(d for d in self._dist if d != node)

    def __repr__(self) -> str:
        return f"RoutingTable(node={self.node}, routes={len(self._dist) - 1})"


class UnicastRouting:
    """Shortest-path unicast routing for a whole topology.

    Tables are computed on demand (one Dijkstra per *origin* node) and
    cached.  Cost mutations arrive through the topology's cost-listener
    hook and are applied to each cached table lazily, as incremental
    repairs; ``invalidate()`` remains as the wholesale fallback (and is
    still required after *structural* mutations such as ``add_link``).
    All route queries in the library flow through this class so that
    HBH, REUNITE and the PIM baselines see the exact same unicast
    substrate, as the paper assumes.
    """

    def __init__(self, topology: Topology) -> None:
        topology.validate()
        self.topology = topology
        self._tables: Dict[NodeId, RoutingTable] = {}
        #: Full forward paths, memoized as immutable tuples so hot
        #: consumers (the round drivers' walk plans) can iterate a
        #: route without one ``next_hop`` call per hop.  Flushed
        #: wholesale (they are cross-table facts: each hop consults its
        #: own table) the first time a path is asked for after deltas.
        self._paths: Dict[Tuple[NodeId, NodeId], Tuple[NodeId, ...]] = {}
        self._paths_seq = 0
        #: Bumped on every cost delta and by :meth:`invalidate`.
        #: Consumers that memoize route facts (the round drivers' walk
        #: plans) compare this to learn that *something* changed, then
        #: use :meth:`origin_generation` to keep every plan whose
        #: origins did not.
        self.generation = 0
        #: Monotone count of cost deltas observed (the delta-log
        #: sequence); each table records the sequence it has applied.
        self._seq = 0
        #: The log itself: ``(a, b, old_cost)`` per effective
        #: ``set_cost``, entry ``i`` carrying sequence ``_log_base + i``
        #: (the new cost is read off the live topology at repair time).
        self._log: List[Tuple[NodeId, NodeId, float]] = []
        self._log_base = 1
        #: Overflow guard: past this length the oldest half of the log
        #: is dropped and tables that old fall back to a full rebuild.
        self._log_cap = max(256, 4 * topology.num_links)
        #: Marker for fault players and other mutators: this substrate
        #: observes ``set_cost`` itself; callers must NOT ``invalidate``
        #: on its behalf.
        self.auto_tracking = True
        #: Escape hatch (``REPRO_ROUTING_FULL=1``): serve every refresh
        #: with a from-scratch Dijkstra instead of a repair.
        self.full_recompute = (
            os.environ.get(FULL_RECOMPUTE_ENV, "") not in ("", "0")
        )
        self.stats = RepairStats()
        # Register weakly: the topology outliving this view (tests and
        # benchmarks build many views over one fixture topology) must
        # not pin every view's table cache in memory forever.
        self_ref = weakref.ref(self)

        def _listener(a: NodeId, b: NodeId, old: float, new: float,
                      _ref=self_ref) -> None:
            routing = _ref()
            if routing is not None:
                routing._on_cost_change(a, b, old, new)

        topology.add_cost_listener(_listener)

    # ------------------------------------------------------------------
    # Delta intake & repair
    # ------------------------------------------------------------------
    def _on_cost_change(self, a: NodeId, b: NodeId,
                        old: float, new: float) -> None:
        self._seq += 1
        self.generation += 1
        log = self._log
        log.append((a, b, old))
        if len(log) > self._log_cap:
            drop = len(log) // 2
            del log[:drop]
            self._log_base += drop

    def _refresh(self, table: RoutingTable) -> None:
        """Bring ``table`` up to the current delta sequence (repair or
        rebuild), bumping its generation only on real change."""
        seq = self._seq
        applied = table.applied_seq
        with PROFILER.span("routing.repair"):
            if self.full_recompute or applied + 1 < self._log_base:
                changed = self._rebuild(table)
            else:
                # Coalesce the pending window per directed edge: the
                # oldest logged cost is what the table still assumes,
                # the live topology holds the net result.  Edges that
                # round-tripped (down then up) net out and are skipped —
                # the table never observed the intermediate state.
                start = applied + 1 - self._log_base
                pending: Dict[Tuple[NodeId, NodeId], float] = {}
                setdefault = pending.setdefault
                for a, b, old in self._log[start:]:
                    setdefault((a, b), old)
                cost = self.topology.cost
                deltas = []
                for (a, b), old in pending.items():
                    new = cost(a, b)
                    if new != old:
                        deltas.append((a, b, old, new))
                if not deltas:
                    changed = set()
                elif 3 * len(deltas) >= 2 * self.topology.num_links:
                    # Most of the graph moved; a fresh Dijkstra is
                    # cheaper than repairing edge by edge (and produces
                    # the identical canonical tree).
                    changed = self._rebuild(table)
                else:
                    changed = repair_tree(
                        self.topology, table.node,
                        table._dist, table._pred, deltas,
                    )
            table.applied_seq = seq
            stats = self.stats
            stats.refreshes += 1
            if changed:
                stats.origins_changed += 1
                stats.nodes_touched += len(changed)
                table.generation = self.generation
                table._next_hops.clear()
            else:
                stats.origins_clean += 1

    def _rebuild(self, table: RoutingTable):
        """From-scratch Dijkstra for one table, with change detection."""
        dist, pred = shortest_paths_from(self.topology, table.node)
        old_dist, old_pred = table._dist, table._pred
        changed = {
            n for n in dist.keys() | old_dist.keys()
            if dist.get(n, _ABSENT) != old_dist.get(n, _ABSENT)
            or pred.get(n, _ABSENT) != old_pred.get(n, _ABSENT)
        }
        table._dist = dist
        table._pred = pred
        self.stats.full_rebuilds += 1
        return changed

    def refresh_all(self) -> int:
        """Eagerly repair every cached table; returns how many changed.

        Queries repair lazily on their own — this exists for callers
        that want the repair cost accounted *now* (benchmarks, the
        scale tests' affected-origin assertions).
        """
        changed = 0
        seq = self._seq
        for table in self._tables.values():
            before = table.generation
            if table.applied_seq != seq:
                self._refresh(table)
            if table.generation != before:
                changed += 1
        return changed

    def export_repair_metrics(self, registry) -> None:
        """Fold :attr:`stats` into ``registry`` as ``routing.repair.*``
        counters.  Increments by the delta against the counter's
        current value, so the export is idempotent per state and safe
        to call repeatedly (sweep cells export once per run into fresh
        registries; long-lived networks may export per probe)."""
        stats = self.stats
        for name, value in (
            ("routing.repair.refreshes", stats.refreshes),
            ("routing.repair.origins_changed", stats.origins_changed),
            ("routing.repair.origins_clean", stats.origins_clean),
            ("routing.repair.full_rebuilds", stats.full_rebuilds),
            ("routing.repair.nodes_touched", stats.nodes_touched),
        ):
            counter = registry.counter(name)
            counter.inc(max(0.0, float(value) - counter.value))

    def origin_generation(self, origin: NodeId) -> Optional[int]:
        """The current generation of ``origin``'s table, or ``None``
        when no table is cached (callers must treat ``None`` as
        "assume changed": an uncached origin has no identity to pin a
        memoized fact to)."""
        table = self._tables.get(origin)
        if table is None:
            return None
        if table.applied_seq != self._seq:
            self._refresh(table)
        return table.generation

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def table(self, node: NodeId) -> RoutingTable:
        """The forwarding table of ``node`` (computed lazily)."""
        cached = self._tables.get(node)
        if cached is not None:
            if cached.applied_seq != self._seq:
                self._refresh(cached)
            return cached
        with PROFILER.span("routing.table_build"):
            return self._build_table(node)

    def _build_table(self, node: NodeId) -> RoutingTable:
        distance, predecessor = shortest_paths_from(self.topology, node)
        table = RoutingTable(node, distance, predecessor, owner=self)
        self._tables[node] = table
        return table

    def next_hop(self, node: NodeId, destination: NodeId) -> NodeId:
        """Next hop at ``node`` for traffic toward ``destination``."""
        return self.table(node).next_hop(destination)

    def path(self, origin: NodeId, destination: NodeId) -> List[NodeId]:
        """The full unicast path ``[origin, ..., destination]``.

        This is the *forward* path — with asymmetric costs it generally
        differs from ``path(destination, origin)`` reversed.  Returns a
        fresh list (callers may mutate it); use :meth:`path_tuple` on
        hot paths to share the memoized tuple instead.
        """
        return list(self.path_tuple(origin, destination))

    def path_tuple(self, origin: NodeId,
                   destination: NodeId) -> Tuple[NodeId, ...]:
        """The memoized forward path ``(origin, ..., destination)``.

        Identical hop sequence to chaining :meth:`next_hop` (that is
        how it is built), cached until the next cost delta.  The tuple
        is shared — do not mutate-by-copy unless you must.
        """
        if self._paths_seq != self._seq:
            self._paths.clear()
            self._paths_seq = self._seq
        key = (origin, destination)
        cached = self._paths.get(key)
        if cached is not None:
            return cached
        if origin == destination:
            path: List[NodeId] = [origin]
        else:
            path = [origin]
            node = origin
            guard = len(self.topology.nodes) + 1
            while node != destination:
                node = self.next_hop(node, destination)
                path.append(node)
                guard -= 1
                if guard == 0:  # pragma: no cover - tables are loop-free
                    raise RoutingError(
                        f"forwarding loop between {origin} and {destination}"
                    )
        result = tuple(path)
        self._paths[key] = result
        return result

    def distance(self, origin: NodeId, destination: NodeId) -> float:
        """Directed shortest-path cost from ``origin`` to ``destination``."""
        if origin == destination:
            return 0.0
        return self.table(origin).distance(destination)

    def invalidate(self) -> None:
        """Drop every cached table and path, advancing
        :attr:`generation`.

        Cost mutations no longer need this — the cost listener feeds
        them to the lazy repairs — but it remains the required call
        after *structural* topology changes, and the wholesale
        semantics some callers (and tests) rely on.
        """
        self._tables.clear()
        self._paths.clear()
        self.generation += 1
        # Dropped tables can never consume the log; restart it.
        self._log.clear()
        self._log_base = self._seq + 1


def shared_routing(topology: Topology) -> UnicastRouting:
    """The memoized :class:`UnicastRouting` for ``topology``.

    Keyed on topology *identity* (the instance, not its contents), so
    every consumer of one topology draw — the four paired protocols of
    a Monte-Carlo run, the convergence oracle, the explain CLI — shares
    one table cache instead of re-running identical Dijkstras.
    ``Topology.copy()`` produces a fresh instance and therefore a fresh
    routing view, which is what per-fraction/per-spread cost mutation
    needs.  Cost mutations on a live topology are tracked by the shared
    view itself (it listens on ``set_cost``), so every holder observes
    the repaired routes — costs are topology-level state.
    """
    routing = topology.__dict__.get("_shared_routing")
    if routing is None:
        routing = UnicastRouting(topology)
        topology.__dict__["_shared_routing"] = routing
    return routing
