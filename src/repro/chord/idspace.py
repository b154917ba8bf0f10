"""Arithmetic on the Chord identifier circle.

All Chord reasoning happens on the ring of integers modulo ``2**m``:
key ownership ("is ``k`` in ``(pred, self]``?"), finger targets
(``n + 2**(i-1) mod 2**m``), and greedy routing ("which finger most
immediately precedes ``k``?").  This module centralises that modular
interval arithmetic so the protocol code reads like the Chord paper.
"""

from __future__ import annotations

__all__ = [
    "IdSpace",
    "in_open_interval",
    "in_half_open_interval",
    "circular_distance",
]


def in_open_interval(x: int, a: int, b: int, modulus: int) -> bool:
    """Whether ``x`` lies in the circular open interval ``(a, b)``.

    Follows the Chord convention that an interval with ``a == b`` spans
    the *entire* circle (minus the endpoint): this arises when a node is
    its own successor in a one-node ring.
    """
    x %= modulus
    a %= modulus
    b %= modulus
    if a == b:
        return x != a
    if a < b:
        return a < x < b
    return x > a or x < b


def in_half_open_interval(x: int, a: int, b: int, modulus: int) -> bool:
    """Whether ``x`` lies in the circular half-open interval ``(a, b]``.

    This is the key-ownership test: node ``n`` with predecessor ``p``
    owns exactly the keys in ``(p, n]``.  As with
    :func:`in_open_interval`, ``a == b`` denotes the full circle.
    """
    x %= modulus
    a %= modulus
    b %= modulus
    if a == b:
        return True
    if a < b:
        return a < x <= b
    return x > a or x <= b


def circular_distance(a: int, b: int, modulus: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on the circle (0..modulus-1)."""
    return (b - a) % modulus


class IdSpace:
    """The identifier circle of ``2**m`` points.

    A small value object shared by nodes, the ring, and the key-mapping
    layer, so that every component agrees on ``m``.
    """

    __slots__ = ("m", "size", "routing_epoch", "_interned")

    def __init__(self, m: int) -> None:
        if not (1 <= m <= 160):
            raise ValueError(f"m must be in [1, 160], got {m}")
        self.m = m
        self.size = 1 << m
        #: canonical int object per member identifier (see :meth:`intern`);
        #: bounded: one entry per distinct node id ever admitted to this
        #: space — membership-sized, not workload-sized.
        self._interned: dict = {}
        #: monotone counter bumped on ring-wide routing changes (a member
        #: joins or leaves, flipping ``alive``, or the ring is rebuilt).
        #: Shared through the space object every node already holds, it
        #: gives the per-node ``next_hop`` caches a single O(1) staleness
        #: test;
        #: deliberately excluded from ``__eq__``/``__hash__`` (two spaces
        #: of equal ``m`` stay interchangeable).
        self.routing_epoch = 0

    def note_routing_change(self) -> None:
        """Invalidate all routing caches keyed to this identifier space.

        Called where a change can reach every node's ``next_hop``: a
        node's ``alive`` flag flips (``ChordRing.add`` / ``remove``, so
        every join, leave and failure) or every node's pointers are
        rewritten (``ChordRing.build``).  A change to one node's own ``successor``
        / ``successor_list`` / ``fingers`` needs only
        :meth:`ChordNode.note_routing_change
        <repro.chord.node.ChordNode.note_routing_change>`.  Code that
        mutates routing state directly must call one of the two, or
        routed lookups may serve stale hops.
        """
        self.routing_epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdSpace(m={self.m})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IdSpace) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("IdSpace", self.m))

    def wrap(self, x: int) -> int:
        """Reduce ``x`` modulo the circle size."""
        return x % self.size

    def intern(self, node_id: int) -> int:
        """The canonical int object for a member identifier.

        At ``m = 32`` every node id is a heap-boxed integer well outside
        CPython's small-int cache, and each arithmetic reduction
        (``% size``) mints a fresh equal copy.  Node ids are the most
        replicated values in the system — ring index, app registry,
        per-``(node, kind)`` stats keys, message origins — so routing
        them all through one canonical object deduplicates those boxes
        and lets dict probes short-circuit on identity.  Purely a
        memory/speed measure: the returned int is ``==`` the input.
        """
        node_id %= self.size
        got = self._interned.get(node_id)
        if got is None:
            got = self._interned[node_id] = node_id
        return got

    def finger_start(self, node_id: int, i: int) -> int:
        """Start of the ``i``-th finger interval (1-based, as in the paper).

        ``finger[i].start = (n + 2**(i-1)) mod 2**m``.
        """
        if not (1 <= i <= self.m):
            raise ValueError(f"finger index must be in [1, {self.m}], got {i}")
        return (node_id + (1 << (i - 1))) % self.size

    def between_open(self, x: int, a: int, b: int) -> bool:
        """``x`` in circular ``(a, b)``; see :func:`in_open_interval`.

        Same logic as the module-level function, restated inline: this
        sits on the greedy-routing hot path (one call per finger probed
        per hop) and the extra frame of a delegating call is measurable.
        """
        size = self.size
        x %= size
        a %= size
        b %= size
        if a == b:
            return x != a
        if a < b:
            return a < x < b
        return x > a or x < b

    def between_half_open(self, x: int, a: int, b: int) -> bool:
        """``x`` in circular ``(a, b]``; see :func:`in_half_open_interval`.

        Inlined for the same hot-path reason as :meth:`between_open`
        (key-ownership test, one per routing step).
        """
        size = self.size
        x %= size
        a %= size
        b %= size
        if a == b:
            return True
        if a < b:
            return a < x <= b
        return x > a or x <= b

    def distance(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b``."""
        return circular_distance(a, b, self.size)
