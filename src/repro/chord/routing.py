"""Chord lookup: greedy routing over finger tables.

This module contains the *pure* lookup algorithm — given a starting
node and a key, compute the owner and the hop path — independent of the
simulator.  The timed, message-counted version used by the middleware
(:mod:`repro.chord.dht`) takes exactly the same steps but pays 50 ms and
one accounted message per hop.

Routing-step caching
--------------------
``next_hop`` of a node is a pure function of that node's own
``successor``, ``successor_list`` and ``fingers`` plus the ``alive``
flags of the nodes they name.  Every node memoises its decisions, so
repeated lookups (periodic finger repair, soft-state refresh towards
stable keys) skip the finger-table scan.  The memo is invalidated at
two scopes:

* **ring-wide** — a membership change flips an ``alive`` flag
  (``ChordRing.add`` / ``remove``, so every join, leave and failure)
  or every node's pointers are rewritten (``ChordRing.build``): these
  bump the shared :attr:`~repro.chord.idspace.IdSpace.routing_epoch`,
  which stales every node's memo;
* **node-scoped** — a stabilizer repair of one node's own pointers
  (``_stabilize``, ``_fix_one_finger``, ``fix_all_fingers``) calls
  :meth:`~repro.chord.node.ChordNode.note_routing_change`, which drops
  that node's memo only.  Under churn the stabilizer repairs some
  pointer every few rounds; a ring-wide bump for each would rebuild
  the memo of every node.

A cached hop is *identical* to a freshly computed one — never merely
"still reaches the owner" — so caching cannot change simulated behavior
(hop sequences, and therefore every figure statistic, stay
byte-identical; see PERFORMANCE.md).

The memo is keyed by *arc*, not by key: the greedy decision depends on
the key only through which candidates (successor, fingers, backups) lie
strictly between the node and the key, and each candidate's membership
flips exactly once as the clockwise distance of the key grows.  The
decision is therefore piecewise-constant in that distance, with at most
``2 + m + r`` pieces.  One table covers every possible key — the old
per-key dict grew ~40 k entries per node at N = 5000 (the dominant RSS
term) and still missed ~85 % of lookups; the arc table is a few dozen
entries and answers every second lookup onwards from cache.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

from ..perf import counters as _opc
from .node import ChordNode

__all__ = ["find_successor", "lookup_path", "physical_hops", "LookupError_"]


class LookupError_(RuntimeError):
    """Raised when a lookup cannot make progress (partitioned/dead ring)."""


def _compute_hop(node: ChordNode, key: int) -> Tuple[ChordNode, bool]:
    """The uncached greedy step (Chord pseudo-code, see :func:`next_hop`)."""
    succ = node.first_live_successor()
    if succ is None or succ is node:
        return (node, True)  # single-node ring owns everything
    if node.space.between_half_open(key, node.node_id, succ.node_id):
        return (succ, True)
    nxt = node.closest_preceding_node(key)
    if nxt is node:
        # No finger strictly precedes the key; fall back to the
        # successor, which always makes (slow) forward progress.
        return (succ, False)
    return (nxt, False)


def _build_arcs(
    node: ChordNode,
) -> Tuple[List[int], List[Tuple[ChordNode, bool]]]:
    """Tabulate ``next_hop`` over the whole key space as decision arcs.

    Every predicate in the greedy step is of the form "candidate ``c``
    lies strictly between the node and the key", which in clockwise
    distance terms is ``dist(c) < dist(key)`` — it flips exactly at
    ``dist(key) = dist(c) + 1``.  The successor ownership test flips at
    ``dist(successor) + 1``, and ``dist(key) = 0`` (the node's own id)
    is its own arc.  Between consecutive flip points the decision is
    constant, so evaluating the plain algorithm once per arc start
    reproduces it for every key, bit for bit.
    """
    size = node.space.size
    my_id = node.node_id
    bounds = {0, 1}
    succ = node.first_live_successor()
    if succ is not None and succ is not node:
        bounds.add((succ.node_id - my_id) % size + 1)
        for finger in node.fingers:
            if finger is not None and finger.alive:
                bounds.add((finger.node_id - my_id) % size + 1)
        for backup in node.successor_list:
            if backup.alive:
                bounds.add((backup.node_id - my_id) % size + 1)
    breakpoints = [d for d in sorted(bounds) if d < size]
    results = [_compute_hop(node, (my_id + d) % size) for d in breakpoints]
    return breakpoints, results


def next_hop(node: ChordNode, key: int) -> Tuple[ChordNode, bool]:
    """One greedy routing step from ``node`` towards ``key``.

    Returns ``(next_node, final)`` where ``final`` means ``next_node``
    is believed to own the key.  Mirrors the Chord pseudo-code:

    * if ``key`` is in ``(node, node.successor]``, the successor is the
      owner — the final hop;
    * otherwise forward to the closest preceding live finger.

    Decisions are memoised per node as arcs of the identifier circle
    until the ring's routing epoch moves or the node's own pointers are
    repaired (see the module docstring); a hit additionally re-checks
    that the memoised hop is still alive, as defense in depth against
    routing state mutated without a ``note_routing_change`` call.
    """
    epoch = node.space.routing_epoch
    c = _opc.ACTIVE
    arcs = node._nh_arcs
    if node._nh_epoch != epoch:
        arcs = None
        node._nh_epoch = epoch
    dist = (key - node.node_id) % node.space.size
    if arcs is not None:
        breakpoints, results = arcs
        hit = results[bisect_right(breakpoints, dist) - 1]
        if hit[0].alive:
            if c is not None:
                c.inc("route.cache_hits")
            return hit
    if c is not None:
        c.inc("route.cache_misses")
    breakpoints, results = _build_arcs(node)
    node._nh_arcs = (breakpoints, results)
    return results[bisect_right(breakpoints, dist) - 1]


def lookup_path(start: ChordNode, key: int, max_hops: int = 10_000) -> List[ChordNode]:
    """The full hop path of a lookup, starting node included.

    The returned list begins with ``start`` and ends with the owner of
    ``key``.  If ``start`` already owns the key the path is ``[start]``
    (zero hops).

    Raises
    ------
    LookupError_
        If the lookup visits more than ``max_hops`` nodes, which only
        happens when routing state is badly corrupted.
    """
    path = [start]
    node = start
    if node.owns_key(key):
        return path
    for _ in range(max_hops):
        nxt, final = next_hop(node, key)
        if nxt is node:
            return path
        path.append(nxt)
        if final:
            return path
        node = nxt
    raise LookupError_(f"lookup of key {key} exceeded {max_hops} hops")


def find_successor(start: ChordNode, key: int) -> ChordNode:
    """The node responsible for ``key``, found by greedy routing."""
    return lookup_path(start, key)[-1]


def physical_hops(path: List[ChordNode]) -> int:
    """Inter-data-center hops along a lookup path (DESIGN.md §13).

    Under virtual nodes a lookup path is a token sequence; consecutive
    tokens of the same physical node are one local handoff (no WAN
    traversal), so the physical hop count — what the paper's Fig. 6(a)
    latency model charges 50 ms per hop for — collapses those runs.
    Without virtual nodes every token is its own physical node and this
    equals ``len(path) - 1`` exactly.
    """
    hops = 0
    for prev, nxt in zip(path, path[1:]):
        if nxt.physical_name != prev.physical_name:
            hops += 1
    return hops
