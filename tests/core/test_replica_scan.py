"""The replica store's block scan must match its scalar MINDIST loop exactly.

``ReplicationManager.new_candidates`` matches replica copies with the
same block scan as the primary index (``BoxStore.scan``), passing its
own acceptance radius ``radius + 1e-12``.  These tests compare it with
the scalar loop it replaced, kept here verbatim, across expiry, the
``reported`` skip, the acceptance boundary, mixed dimensionalities and
every store mutation.
"""

import numpy as np
import pytest

from repro.core import MiddlewareConfig, StreamIndexSystem
from repro.core.index import StoredSimilaritySub
from repro.core.mbr import MBR
from repro.core.protocol import HintedHandoff, ReplicaPublish, SimilaritySubscribe
from repro.sim.rng import RngRegistry


def scalar_replica_scan(store, stored, now):
    """The pre-vectorisation replica loop, verbatim (minus the marking)."""
    out = []
    feature = stored.sub.feature
    radius = stored.sub.radius
    for stream_id, entries in store.items():
        if stream_id in stored.reported:
            continue
        best = None
        for entry in entries:
            if entry.expires <= now:
                continue
            d = entry.mbr.mindist(feature)
            if d <= radius + 1e-12 and (best is None or d < best):
                best = d
        if best is not None:
            out.append((stream_id, best))
    return out


@pytest.fixture
def mgr():
    """A replica manager of a small r = 2 ring, its store still empty."""
    system = StreamIndexSystem(
        4, MiddlewareConfig(m=16, replication_factor=2), seed=0, with_stabilizer=True
    )
    return system.app(0).runtime.holder.replication


def sub_of(feature, radius, reported=()):
    sub = SimilaritySubscribe(
        query_id=1,
        client_id=7,
        feature=np.asarray(feature, dtype=np.float64),
        radius=radius,
        low_key=0,
        high_key=10,
        middle_key=5,
        lifespan_ms=1_000.0,
    )
    stored = StoredSimilaritySub(sub, expires=1_000.0)
    stored.reported.update(reported)
    return stored


def replica(mbr, expires, owner_id=1):
    return ReplicaPublish(
        mbr=mbr,
        source_id=owner_id,
        low_key=100,
        high_key=200,
        owner_id=owner_id,
        expires_ms=expires,
    )


def handoff(mgr, mbr, expires):
    """A handoff whose span end the manager's node does not own, so it
    is installed as a replica (not adopted as a primary)."""
    node = mgr._node
    high = (node.node_id + 1) % node.space.size
    assert not node.owns_key(high)
    return HintedHandoff(
        mbr=mbr, source_id=1, low_key=high, high_key=high, expires_ms=expires
    )


def random_box(rng, stream_id, dims=4):
    lo = rng.uniform(-1, 1, dims)
    return MBR(low=lo, high=lo + rng.uniform(0, 0.5, dims), stream_id=stream_id)


def assert_scan_matches_reference(mgr, stored, now):
    want = scalar_replica_scan(mgr.store, stored, now)
    before = set(stored.reported)
    got = mgr.new_candidates(stored, now)
    assert got == want  # same streams, same order, bit-identical distances
    assert stored.reported == before | {sid for sid, _ in want}
    return got


def test_replica_scan_equals_scalar_reference_with_expiry_and_skip(mgr):
    rng = RngRegistry(seed=42).get("replica-scan")
    for s in range(12):
        for _ in range(5):
            expires = float(rng.uniform(50, 150))
            mgr.install_replica(replica(random_box(rng, f"s{s}"), expires))
    for trial in range(20):
        q = rng.uniform(-1.5, 1.5, 4)
        radius = float(rng.uniform(0.05, 1.5))
        now = float(rng.uniform(0, 200))  # expires some copies, not others
        skipped = {f"s{i}" for i in range(12) if rng.random() < 0.3}
        assert_scan_matches_reference(mgr, sub_of(q, radius, skipped), now)


def test_replica_scan_never_calls_scalar_mindist(mgr, monkeypatch):
    rng = RngRegistry(seed=5).get("replica-scan-nomindist")
    for s in range(4):
        mgr.install_replica(replica(random_box(rng, f"s{s}"), 100.0))

    def forbidden(self, point):
        raise AssertionError("replica scan called MBR.mindist")

    monkeypatch.setattr(MBR, "mindist", forbidden)
    assert mgr.new_candidates(sub_of(np.zeros(4), 5.0), now=0.0)


def test_copy_at_exactly_radius_plus_tolerance_matches(mgr):
    radius = 0.5
    edge = radius + 1e-12
    beyond = float(np.nextafter(edge, np.inf))
    # Query at the origin, boxes offset along the first axis only:
    # MINDIST is sqrt(x * x) == x exactly.
    for sid, x in (("at-edge", edge), ("beyond", beyond)):
        box = MBR(low=[x, -1.0], high=[x + 1.0, 1.0], stream_id=sid)
        assert box.mindist(np.zeros(2)) == x
        mgr.install_replica(replica(box, 100.0))
    got = assert_scan_matches_reference(mgr, sub_of([0.0, 0.0], radius), now=0.0)
    assert got == [("at-edge", edge)]


def test_mixed_dimensionalities_fall_back_to_scalar(mgr):
    mgr.install_replica(replica(MBR(low=[0.0, 0.0], high=[0.1, 0.1], stream_id="a"), 100.0))
    mgr.install_replica(replica(MBR(low=[0.0] * 3, high=[0.1] * 3, stream_id="b"), 100.0))
    mgr.install_replica(replica(MBR(low=[1.0, 1.0], high=[2.0, 2.0], stream_id="c"), 100.0))
    # the 3-d stream is skipped before any distance is computed
    got = assert_scan_matches_reference(mgr, sub_of([0.0, 0.0], 2.0, {"b"}), now=0.0)
    assert [sid for sid, _ in got] == ["a", "c"]
    assert mgr.store._stack is None  # never stacked
    # unskipped, the mismatched broadcast raises in both implementations
    with pytest.raises(ValueError):
        scalar_replica_scan(mgr.store, sub_of([0.0, 0.0], 2.0), now=0.0)
    with pytest.raises(ValueError):
        mgr.new_candidates(sub_of([0.0, 0.0], 2.0), now=0.0)


def test_every_store_mutation_keeps_the_layout_exact(mgr):
    """After each install_replica / install_handoff / purge the warm
    layout scans exactly like the scalar loop."""
    rng = RngRegistry(seed=3).get("replica-scan-mutations")
    q = rng.uniform(-1.0, 1.0, 4)
    for step in range(80):
        box = random_box(rng, f"s{step % 6}")
        expires = float(rng.uniform(50, 150))
        op = step % 4
        if op == 0:
            mgr.install_replica(replica(box, expires))
        elif op == 1:
            mgr.install_handoff(handoff(mgr, box, expires), origin=1)
        elif op == 2 and mgr.store:
            # re-install an already held version: updates owner only
            held = next(iter(mgr.store.values()))[0]
            mgr.install_replica(replica(held.mbr, held.expires, owner_id=2))
        elif op == 3:
            mgr.purge(float(rng.uniform(0, 60)))
        stack = mgr.store._stack
        if stack is not None:  # still warm: rows mirror the entries
            rows = sum(len(entries) for entries in mgr.store.values())
            assert len(stack[3]) == rows
        assert_scan_matches_reference(mgr, sub_of(q, 1.2), now=25.0)
    assert mgr.store  # the sequence left copies to scan


def test_purge_drops_layout_only_when_a_copy_expires(mgr):
    for s in range(3):
        mgr.install_replica(
            replica(MBR(low=[0.0, 0.0], high=[1.0, 1.0], stream_id=f"s{s}"), 100.0 + s)
        )
    mgr.new_candidates(sub_of([0.0, 0.0], 1.0), now=0.0)
    stack = mgr.store._stack
    assert stack is not None
    mgr.purge(50.0)
    assert mgr.store._stack is stack
    mgr.purge(100.5)
    assert mgr.store._stack is None
    assert list(mgr.store) == ["s1", "s2"]
