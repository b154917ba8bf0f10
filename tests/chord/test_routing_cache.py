"""The epoch-keyed next_hop memo: hits, invalidation, churn safety."""

from repro.chord.idspace import IdSpace
from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.chord.routing import find_successor, next_hop
from repro.chord.stabilize import Stabilizer
from repro.perf.counters import counting
from repro.sim.engine import Simulator


def build_ring(n, m=16):
    ring = ChordRing(m=m)
    for i in range(n):
        ring.create_node(f"dc-{i}")
    ring.build()
    return ring


def test_cached_hop_identical_to_fresh(tmp_path=None):
    ring = build_ring(24)
    node = next(iter(ring))
    for key in range(0, ring.space.size, ring.space.size // 97):
        first = next_hop(node, key)
        again = next_hop(node, key)
        assert again == first
        node._nh_arcs = None
        node._nh_epoch = -1
        fresh = next_hop(node, key)
        assert fresh == first


def test_counters_record_hits_and_misses():
    ring = build_ring(12)
    node = next(iter(ring))
    with counting() as ops:
        next_hop(node, 123)  # miss: builds the arc table
        next_hop(node, 123)
        next_hop(node, 456)  # different key, same table: still a hit
    assert ops.get("route.cache_misses") == 1
    assert ops.get("route.cache_hits") == 2


def test_membership_change_invalidates_cache():
    ring = build_ring(10)
    start = next(iter(ring))
    # Warm every node's memo along some lookup paths.
    keys = [7, 1000, 54321, ring.space.size - 1]
    before = {k: find_successor(start, k).node_id for k in keys}
    assert before == {k: ring.successor_of_key(k).node_id for k in keys}

    # Add a node and rebuild: the epoch moves, memos must not serve the
    # old owner for keys the newcomer now covers.
    newcomer = ring.create_node("late-joiner")
    ring.build()
    for k in list(keys) + [newcomer.node_id]:
        assert find_successor(start, k) is ring.successor_of_key(k)


def test_remove_invalidates_cache():
    ring = build_ring(10)
    start = next(iter(ring))
    victim = ring.successor_of_key(12345)
    assert find_successor(start, 12345) is victim
    ring.remove(victim)
    ring.build()
    new_owner = ring.successor_of_key(12345)
    assert new_owner is not victim
    assert find_successor(start, 12345) is new_owner


def test_alive_check_rejects_stale_cached_hop():
    """Direct `alive` mutation (no epoch bump) must not serve a dead hop."""
    ring = build_ring(8)
    start = next(iter(ring))
    key = 999
    hop, _final = next_hop(start, key)  # now memoised
    assert start._nh_arcs is not None
    hop.alive = False  # simulate unsanctioned mutation
    again, _final = next_hop(start, key)
    assert again is not hop
    assert again.alive


def test_churn_with_stabilizer_converges_to_exact_routing():
    sim = Simulator()
    ring = ChordRing(m=16)
    nodes = [ring.create_node(f"dc-{i}") for i in range(16)]
    ring.build()
    stab = Stabilizer(sim, ring, successor_list_len=4)
    stab.bootstrap_ring(list(ring))

    # Warm memos, then churn: two failures, one graceful leave, one join.
    start = nodes[0]
    for key in range(0, ring.space.size, ring.space.size // 31):
        find_successor(start, key)
    stab.fail(nodes[5])
    stab.fail(nodes[9])
    stab.leave(nodes[11])
    joiner = ChordNode("joiner", 4242, ring.space)
    stab.join(joiner, start)
    stab.stabilize_until_converged()

    for key in range(0, ring.space.size, ring.space.size // 53):
        assert find_successor(start, key) is ring.successor_of_key(key)
        assert find_successor(joiner, key) is ring.successor_of_key(key)


def test_memo_size_is_bounded_by_routing_state_not_key_stream():
    """The arc table covers every key in O(m + r) entries."""
    ring = build_ring(6)
    node = next(iter(ring))
    for key in range(0, ring.space.size, 7):  # ~9 k distinct keys
        next_hop(node, key)
    breakpoints, results = node._nh_arcs
    bound = 2 + ring.space.m + len(node.successor_list)
    assert len(breakpoints) == len(results) <= bound


def test_arc_table_matches_uncached_for_every_key():
    """Exhaustive sweep on a small space: memoised == fresh, bit for bit."""
    from repro.chord.routing import _compute_hop

    ring = build_ring(10, m=8)
    for node in ring:
        for key in range(ring.space.size):
            assert next_hop(node, key) == _compute_hop(node, key)


def test_epoch_is_shared_per_space_not_global():
    a, b = IdSpace(8), IdSpace(8)
    assert a == b  # epoch excluded from equality
    before = b.routing_epoch
    a.note_routing_change()
    assert b.routing_epoch == before
    assert a.routing_epoch != b.routing_epoch or a is b


def _stabilized_ring(n=16, m=16):
    sim = Simulator()
    ring = ChordRing(m=m)
    nodes = [ring.create_node(f"dc-{i}") for i in range(n)]
    ring.build()
    stab = Stabilizer(sim, ring, successor_list_len=4)
    stab.bootstrap_ring(list(ring))
    return ring, stab, nodes


def _stale_finger(stab, node):
    """Point one finger of ``node`` at the wrong node (no invalidation)
    and aim the stabilizer's round-robin cursor at it."""
    i = node.space.m - 1
    node.fingers[i] = node.successor
    stab._finger_cursor[node.node_id] = i


def _stale_successor_list(stab, node):
    """Drop ``node``'s last backup successor (no invalidation)."""
    node.successor_list = node.successor_list[:-1]


def test_stabilizer_repair_leaves_other_nodes_memos_in_place():
    """A pointer repair on node A drops A's memo only: the other nodes'
    arc tables stay the very same objects and the ring epoch holds."""
    for stale, repair in (
        (_stale_finger, Stabilizer._fix_one_finger),
        (_stale_successor_list, Stabilizer._stabilize),
    ):
        ring, stab, nodes = _stabilized_ring()
        a = nodes[3]
        stale(stab, a)
        for node in ring:
            next_hop(node, 12345)  # warm every memo
        arcs = {node.node_id: node._nh_arcs for node in ring}
        epoch = ring.space.routing_epoch
        repair(stab, a)
        assert a._nh_arcs is None, repair.__name__
        assert ring.space.routing_epoch == epoch
        for node in ring:
            if node is not a:
                assert node._nh_arcs is arcs[node.node_id], repair.__name__


def _assert_memo_exact(node):
    """Memoised next_hop == _compute_hop on both sides of every arc
    breakpoint, of the memo held now and of a fresh table — together
    these pin the two piecewise-constant functions to each other."""
    from repro.chord.routing import _build_arcs, _compute_hop

    size = node.space.size
    held = node._nh_arcs if node._nh_epoch == node.space.routing_epoch else None
    points = set(_build_arcs(node)[0])
    if held is not None:
        points.update(held[0])
    for d in points:
        for dist in (d, d - 1):
            key = (node.node_id + dist) % size
            assert next_hop(node, key) == _compute_hop(node, key), (node, key)


def test_memoised_hops_stay_exact_through_stabilizer_churn():
    """Fail, leave and join between maintenance rounds; after every
    round each live node's memo answers like the uncached step."""
    ring, stab, nodes = _stabilized_ring(n=20)
    churn = {
        1: lambda: stab.fail(nodes[5]),
        2: lambda: stab.fail(nodes[6]),  # consecutive: backups matter
        4: lambda: stab.join(ChordNode("joiner-a", 4242, ring.space), nodes[0]),
        6: lambda: stab.leave(nodes[11]),
        7: lambda: stab.join(ChordNode("joiner-b", 60001, ring.space), nodes[2]),
        9: lambda: stab.fail(nodes[17]),
    }
    for node in ring:
        _assert_memo_exact(node)
    for round_no in range(1, 25):
        if round_no in churn:
            churn[round_no]()
        for node in list(ring):
            stab._maintain(node)
        for node in ring:
            _assert_memo_exact(node)
    assert stab.is_converged()
