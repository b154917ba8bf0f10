"""Dynamic membership: join, leave, fail, and periodic stabilization.

The paper's headline adaptivity claim — "data centers and links may fail
and new data centers and streams may be added without the need to
temporarily block the normal system operation" — is inherited from
Chord.  This module implements Chord's stabilization protocol so the
claim can actually be exercised: nodes join through any bootstrap node,
crash without warning, or leave gracefully, and the periodic
``stabilize`` / ``fix_fingers`` / ``check_predecessor`` tasks repair
successor pointers and finger tables until routing is exact again.

Stabilization control traffic is *not* charged to the message statistics:
the paper's load figures count only application (MBR/query/response)
messages, with overlay maintenance considered part of the Chord
substrate.

Two layers piggyback on the maintenance tick via the :attr:`Stabilizer
.on_round` hook (``None`` by default, keeping the tick byte-identical
to a build without them): the §10 replication layer's anti-entropy /
hinted-handoff repair, and the §13 adaptive-mapping layer's key-density
histogram reports — both are *soft-state* protocols in the paper's
spirit (Sec. V: state is periodically re-asserted rather than
transactionally maintained), so a lost round costs freshness, never
correctness.

Under virtual nodes (DESIGN.md §13) every token maintains itself
independently — the protocol below is unchanged — and
:meth:`Stabilizer.join_physical` / :meth:`Stabilizer.fail_physical`
are the membership operations that keep a physical node's ``v`` tokens
joining and failing as one unit, which is the failure model that
matches reality (a data center crashes with all its tokens).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from ..sim.process import PeriodicProcess
from .node import ChordNode
from .ring import ChordRing
from .routing import find_successor

__all__ = ["Stabilizer"]


class Stabilizer:
    """Runs Chord's maintenance protocol for every node of a ring.

    Parameters
    ----------
    sim:
        Simulator providing the clock for periodic maintenance.
    ring:
        The ring whose nodes are maintained.  The ring's membership
        registry is kept in sync on join/leave/fail so ground-truth
        queries remain available to tests.
    period_ms:
        Interval of each node's maintenance tick.
    successor_list_len:
        Number of backup successors each node keeps; the ring tolerates
        up to ``len-1`` consecutive simultaneous failures.
    cohorts:
        ``0`` (default): one periodic process per node, each ticking
        every ``period_ms`` — the historical layout, byte-identical to
        every pinned digest.  ``C > 0``: nodes are grouped into ``C``
        round-robin cohorts (by ``node_id % C``) sharing ``C`` periodic
        processes with phases spread across the period; each node is
        still maintained once per ``period_ms``, but the scheduler holds
        ``C`` timers instead of ``N`` — the O(log n)-batch knob that
        makes stabilization affordable at N = 5000.
    """

    def __init__(
        self,
        sim: Simulator,
        ring: ChordRing,
        *,
        period_ms: float = 500.0,
        successor_list_len: int = 4,
        cohorts: int = 0,
    ) -> None:
        if cohorts < 0:
            raise ValueError(f"cohorts must be >= 0, got {cohorts}")
        self.sim = sim
        self.ring = ring
        self.period_ms = period_ms
        self.successor_list_len = successor_list_len
        self.cohorts = cohorts
        #: both bounded: one entry per node under maintenance
        self._procs: Dict[int, PeriodicProcess] = {}
        self._finger_cursor: Dict[int, int] = {}
        #: cohort mode: members per cohort (bounded by ring membership)
        #: and the C shared periodic processes, started lazily
        self._cohort_members: List[Dict[int, ChordNode]] = [
            {} for _ in range(cohorts)
        ]
        self._cohort_procs: List[Optional[PeriodicProcess]] = [None] * cohorts
        #: optional per-node callback fired after each maintenance
        #: round — the replication layer's anti-entropy hook
        #: (DESIGN.md §10).  ``None`` (the default) keeps stabilization
        #: byte-identical to a build without the hook.
        self.on_round: Optional[Callable[[ChordNode], None]] = None

    # ------------------------------------------------------------------
    # membership operations
    # ------------------------------------------------------------------
    def bootstrap_ring(self, nodes: List[ChordNode]) -> None:
        """Start maintenance for an already-built static ring."""
        for node in nodes:
            self.start_maintenance(node)

    def join(self, node: ChordNode, bootstrap: ChordNode) -> None:
        """Join ``node`` to the ring known by ``bootstrap``.

        As in the Chord paper, the joining node only learns its
        successor; predecessor and fingers are filled in by subsequent
        stabilization rounds.
        """
        node.predecessor = None
        node.successor = find_successor(bootstrap, node.node_id)
        node.successor_list = [node.successor]
        node.alive = True
        self.ring.add(node)
        self.start_maintenance(node)

    def join_physical(
        self, nodes: List[ChordNode], bootstrap: ChordNode
    ) -> None:
        """Join all tokens of one physical node (DESIGN.md §13).

        Tokens join sequentially through the same bootstrap; each is an
        independent Chord join, so the ring never observes anything but
        ordinary single-node joins.  At ``v == 1`` this degenerates to
        exactly one :meth:`join` call.
        """
        for node in nodes:
            self.join(node, bootstrap)

    def fail_physical(self, nodes: List[ChordNode]) -> None:
        """Crash-fail all tokens of one physical node at once.

        A physical data center crashing takes every one of its ring
        identifiers down in the same instant — failing tokens
        one-per-tick would understate the correlated-failure stress on
        successor lists.
        """
        for node in nodes:
            if node.alive:
                self.fail(node)

    def leave(self, node: ChordNode) -> None:
        """Graceful departure: hand pointers over, then vanish."""
        succ = node.first_live_successor()
        pred = node.predecessor
        if succ is not None and succ is not node:
            if pred is not None and pred.alive:
                pred.successor = succ
                if succ.predecessor is node:
                    succ.predecessor = pred
                node.space.note_routing_change()
        self._shutdown(node)

    def fail(self, node: ChordNode) -> None:
        """Crash failure: the node disappears without notifying anyone."""
        self._shutdown(node)

    def _shutdown(self, node: ChordNode) -> None:
        proc = self._procs.pop(node.node_id, None)
        if proc is not None:
            proc.stop()
        if self.cohorts:
            self._cohort_members[node.node_id % self.cohorts].pop(
                node.node_id, None
            )
        self.ring.remove(node)  # sets node.alive = False

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def start_maintenance(self, node: ChordNode) -> None:
        """Begin this node's periodic stabilization process."""
        if self.cohorts:
            cohort = node.node_id % self.cohorts
            members = self._cohort_members[cohort]
            if node.node_id in members:
                return
            self._finger_cursor.setdefault(node.node_id, 0)
            members[node.node_id] = node
            if self._cohort_procs[cohort] is None:
                proc = PeriodicProcess(
                    self.sim,
                    self.period_ms,
                    lambda j=cohort: self._maintain_cohort(j),
                    # Spread cohort ticks evenly across the period so
                    # maintenance load stays smooth, as with per-node
                    # staggering.
                    phase=cohort / self.cohorts * self.period_ms + 1.0,
                )
                self._cohort_procs[cohort] = proc
                proc.start()
            return
        if node.node_id in self._procs:
            return
        self._finger_cursor[node.node_id] = 0
        proc = PeriodicProcess(
            self.sim,
            self.period_ms,
            lambda n=node: self._maintain(n),
            # Stagger ticks deterministically by node id so all nodes do
            # not stabilize in the same simulated instant.
            phase=(node.node_id % 97) / 97.0 * self.period_ms + 1.0,
        )
        self._procs[node.node_id] = proc
        proc.start()

    def _maintain_cohort(self, cohort: int) -> None:
        """One shared tick: maintain every cohort member, in id order."""
        members = self._cohort_members[cohort]
        for node_id in sorted(members):
            node = members.get(node_id)
            if node is not None and node.alive:
                self._maintain(node)

    def _maintain(self, node: ChordNode) -> None:
        if not node.alive:
            return
        self._check_predecessor(node)
        self._stabilize(node)
        self._fix_one_finger(node)
        if self.on_round is not None:
            self.on_round(node)

    def _check_predecessor(self, node: ChordNode) -> None:
        if node.predecessor is not None and not node.predecessor.alive:
            node.predecessor = None

    def _stabilize(self, node: ChordNode) -> None:
        """Chord's ``stabilize``: verify the successor, then notify it.

        Routing-cache note: the node's ``next_hop`` memo is dropped only
        when its successor pointer or backup list *actually changes* — a
        converged ring's maintenance ticks rewrite identical values and
        must not thrash it.  Other nodes' memos stay: ``next_hop`` reads
        only the routing node's own pointers (and ``_notify`` touches
        only ``succ.predecessor``, which it never reads).
        """
        old_succ = node.successor
        old_list = node.successor_list
        succ = node.first_live_successor()
        if succ is None:
            # The whole successor list died at once (more simultaneous
            # failures than successor_list_len - 1 covers).  Before
            # declaring ourselves alone, scavenge any other live
            # reference — fingers, predecessor — and rebuild from the
            # nearest following one.
            succ = self._emergency_successor(node)
            if succ is None:
                node.successor = node
                node.successor_list = []
                if old_succ is not node or old_list:
                    node.note_routing_change()
                return
            node.successor_list = [succ]
        node.successor = succ
        candidate = succ.predecessor
        if (
            candidate is not None
            and candidate.alive
            and candidate is not node
            and node.space.between_open(candidate.node_id, node.node_id, succ.node_id)
        ):
            node.successor = candidate
            succ = candidate
        self._notify(succ, node)
        # Refresh the backup successor list from the (new) successor.
        fresh = [succ]
        for backup in succ.successor_list:
            if backup.alive and backup is not node and backup not in fresh:
                fresh.append(backup)
            if len(fresh) >= self.successor_list_len:
                break
        node.successor_list = fresh
        if node.successor is not old_succ or fresh != old_list:
            node.note_routing_change()

    @staticmethod
    def _emergency_successor(node: ChordNode) -> Optional[ChordNode]:
        """The nearest live node clockwise of ``node``, from any reference.

        Scans the finger table and the predecessor pointer; returns the
        live node with the smallest positive clockwise distance, or
        ``None`` when the node holds no live reference at all (truly
        isolated — a partition from this node's point of view).
        """
        best: Optional[ChordNode] = None
        best_dist: Optional[int] = None
        for cand in list(node.fingers) + [node.predecessor]:
            if cand is None or not cand.alive or cand is node:
                continue
            dist = (cand.node_id - node.node_id) % node.space.size
            if dist == 0:
                continue
            if best_dist is None or dist < best_dist:
                best, best_dist = cand, dist
        return best

    def partitioned_nodes(self) -> List[ChordNode]:
        """Live nodes with no route to the rest of the ring.

        A node whose successor is itself while other live members exist
        has lost every live reference; it can neither reach nor be
        (deliberately) reached by the rest of the ring until a new join
        or an external repair reconnects it.
        """
        nodes = list(self.ring)
        if len(nodes) <= 1:
            return []
        return [node for node in nodes if node.successor is node]

    @staticmethod
    def _notify(succ: ChordNode, node: ChordNode) -> None:
        """``node`` tells ``succ`` it might be its predecessor."""
        pred = succ.predecessor
        if (
            pred is None
            or not pred.alive
            or succ.space.between_open(node.node_id, pred.node_id, succ.node_id)
        ):
            succ.predecessor = node

    def _fix_one_finger(self, node: ChordNode) -> None:
        """Repair one finger-table entry per tick (round robin)."""
        i = self._finger_cursor[node.node_id]
        self._finger_cursor[node.node_id] = (i + 1) % node.space.m
        try:
            repaired: Optional[ChordNode] = find_successor(node, node.finger_start(i))
        except Exception:
            repaired = None  # repaired on a later round
        if node.fingers[i] is not repaired:
            node.fingers[i] = repaired
            node.note_routing_change()

    def fix_all_fingers(self, node: ChordNode) -> None:
        """Eagerly repair the whole finger table (test/bench convenience)."""
        for i in range(node.space.m):
            repaired = find_successor(node, node.finger_start(i))
            if node.fingers[i] is not repaired:
                # Invalidate immediately: the repaired entry is consulted
                # by the very next find_successor of this loop.
                node.fingers[i] = repaired
                node.note_routing_change()

    def stabilize_until_converged(self, max_rounds: int = 200) -> int:
        """Drive maintenance synchronously until routing state is exact.

        Returns the number of rounds taken.  Intended for tests: after a
        burst of churn, call this instead of running simulated time
        forward, then assert exactness.
        """
        for round_no in range(1, max_rounds + 1):
            for node in list(self.ring):
                self._maintain(node)
            if self.is_converged():
                for node in self.ring:
                    self.fix_all_fingers(node)
                return round_no
        partitioned = self.partitioned_nodes()
        if partitioned:
            ids = sorted(n.node_id for n in partitioned)
            raise RuntimeError(
                f"ring partitioned after {max_rounds} rounds: "
                f"nodes {ids} hold no live references"
            )
        raise RuntimeError(f"stabilization did not converge in {max_rounds} rounds")

    def is_converged(self) -> bool:
        """Whether every successor/predecessor matches ring ground truth.

        The hook the invariant checker (and tests) use to decide when a
        churned ring is back in its exact state; fingers are not
        consulted (they are an optimisation, repaired lazily).
        """
        ids = self.ring.node_ids
        n = len(ids)
        for idx, node_id in enumerate(ids):
            node = self.ring.node(node_id)
            want_succ = self.ring.node(ids[(idx + 1) % n])
            want_pred = self.ring.node(ids[(idx - 1) % n])
            if node.successor is not want_succ and n > 1:
                return False
            if node.predecessor is not want_pred and n > 1:
                return False
        return True
