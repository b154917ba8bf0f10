"""Chord node state: successor/predecessor pointers and the finger table.

A :class:`ChordNode` holds pure protocol state; it does not know about
the simulator or the network.  Routing decisions
(:meth:`ChordNode.closest_preceding_node`) and ownership tests
(:meth:`ChordNode.owns_key`) are local computations on that state, which
is exactly how the Chord paper specifies them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .idspace import IdSpace

__all__ = ["ChordNode"]


class ChordNode:
    """State of one Chord participant (a data center in the paper).

    Attributes
    ----------
    name:
        Symbolic name the identifier was hashed from (e.g. ``"dc-4"``).
    node_id:
        The ``m``-bit identifier on the circle.
    space:
        The shared identifier space.
    fingers:
        ``m`` entries; ``fingers[i]`` is the node believed to succeed
        ``(node_id + 2**i) mod 2**m`` (0-based here; the paper's
        ``finger[i+1]``).  Entries may be ``None`` before the table is
        built, or stale after churn until ``fix_fingers`` repairs them.
    successor / predecessor:
        Ring neighbors.  ``successor`` is authoritative for correctness
        (Chord's invariant); fingers are only an optimisation.
    successor_list:
        ``r`` backup successors for fault tolerance.
    alive:
        Cleared when the node crashes or leaves; dead nodes neither
        route nor deliver.
    physical_name:
        The physical data center this identifier belongs to.  Under
        virtual nodes (DESIGN.md §13) several ring identifiers — tokens
        — share one ``physical_name``; without them it simply equals
        ``name``.  Protocol state never consults it: tokens route and
        own keys as fully independent Chord participants, and only
        load accounting and the invariant checker aggregate by it.
    """

    __slots__ = (
        "name",
        "node_id",
        "space",
        "fingers",
        "successor",
        "predecessor",
        "successor_list",
        "alive",
        "physical_name",
        "_nh_arcs",
        "_nh_epoch",
    )

    def __init__(
        self,
        name: str,
        node_id: int,
        space: IdSpace,
        physical_name: Optional[str] = None,
    ) -> None:
        self.name = name
        self.node_id = space.intern(int(node_id))
        self.physical_name = physical_name if physical_name is not None else name
        self.space = space
        self.fingers: List[Optional["ChordNode"]] = [None] * space.m
        self.successor: Optional["ChordNode"] = None
        self.predecessor: Optional["ChordNode"] = None
        self.successor_list: List["ChordNode"] = []
        self.alive = True
        # Arc-keyed memo for repro.chord.routing.next_hop: the routing
        # decision is piecewise-constant in the clockwise key distance,
        # so (breakpoints, results) covers the *whole* key space in
        # O(m + r) entries — bounded by construction, no per-key growth.
        # Valid only while _nh_epoch matches space.routing_epoch, and
        # dropped by note_routing_change when this node's own pointers
        # change.
        self._nh_arcs: Optional[
            Tuple[List[int], List[Tuple["ChordNode", bool]]]
        ] = None
        self._nh_epoch = -1

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChordNode(N{self.node_id}, {self.name!r})"

    def note_routing_change(self) -> None:
        """Drop this node's ``next_hop`` memo after its own pointers changed.

        Called by the stabilizer whenever it repairs this node's
        ``successor``, ``successor_list`` or ``fingers``.  ``next_hop``
        reads only those and the ``alive`` flags, so one node's repair
        leaves every other node's memo valid; a change that flips
        ``alive`` or rebuilds every node goes through the ring-wide
        :meth:`~repro.chord.idspace.IdSpace.note_routing_change`.
        """
        self._nh_arcs = None

    def finger_start(self, i: int) -> int:
        """Start of finger interval ``i`` (0-based): ``n + 2**i mod 2**m``."""
        return (self.node_id + (1 << i)) % self.space.size

    def owns_key(self, key: int) -> bool:
        """Whether this node is responsible for ``key``.

        A node owns the keys in ``(predecessor, self]``.  A node without
        a predecessor (fresh join, or one-node ring) conservatively
        claims only its own identifier; stabilization fills the pointer
        in promptly.
        """
        if self.predecessor is None or not self.predecessor.alive:
            return key % self.space.size == self.node_id
        return self.space.between_half_open(
            key, self.predecessor.node_id, self.node_id
        )

    def closest_preceding_node(self, key: int) -> "ChordNode":
        """The best live next hop towards ``key``.

        Scans the finger table from the most distant entry down,
        returning the first live finger strictly between this node and
        the key — the greedy step that gives Chord its O(log N) routes.
        Falls back to the successor (always a correct, if slow, step)
        when no finger helps.
        """
        between = self.space.between_open
        my_id = self.node_id
        for finger in reversed(self.fingers):
            if (
                finger is not None
                and finger.alive
                and between(finger.node_id, my_id, key)
            ):
                return finger
        for backup in self.successor_list:
            if backup.alive and between(backup.node_id, my_id, key):
                return backup
        if self.successor is not None and self.successor.alive:
            return self.successor
        for backup in self.successor_list:
            if backup.alive:
                return backup
        return self  # isolated node: nowhere to forward

    def first_live_successor(self) -> Optional["ChordNode"]:
        """Current successor if alive, else the first live backup."""
        if self.successor is not None and self.successor.alive:
            return self.successor
        for backup in self.successor_list:
            if backup.alive:
                return backup
        return None
