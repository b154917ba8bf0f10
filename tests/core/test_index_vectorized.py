"""Vectorised candidate scans must match the scalar MINDIST loop exactly."""

import math

import numpy as np
import pytest

from repro.core import MBR, LocalIndex
from repro.core.index import StoredSimilaritySub
from repro.core.protocol import SimilaritySubscribe
from repro.sim.rng import RngRegistry


def scalar_scan(index, feature, radius, now, skip=None):
    """The pre-vectorisation reference implementation, verbatim."""
    out = []
    for stream_id, entries in index._mbrs.items():
        if skip is not None and stream_id in skip:
            continue
        best = None
        for e in entries:
            if e.expires <= now:
                continue
            d = e.mbr.mindist(feature)
            if d <= radius and (best is None or d < best):
                best = d
        if best is not None:
            out.append((stream_id, float(best)))
    return out


def random_index(rng, n_streams=12, boxes_per_stream=5, dims=4):
    idx = LocalIndex()
    for s in range(n_streams):
        for b in range(boxes_per_stream):
            lo = rng.uniform(-1, 1, dims)
            hi = lo + rng.uniform(0, 0.5, dims)
            idx.add_mbr(
                MBR(low=lo, high=hi, stream_id=f"s{s}"),
                expires=float(rng.uniform(50, 150)),
            )
    return idx


def test_probe_equals_scalar_reference_exactly():
    rng = RngRegistry(seed=42).get("index-prop")
    for trial in range(20):
        idx = random_index(rng)
        q = rng.uniform(-1.5, 1.5, 4)
        radius = float(rng.uniform(0.05, 1.5))
        now = float(rng.uniform(0, 200))
        got = idx.probe(q, radius, now)
        want = scalar_scan(idx, q, radius, now)
        assert len(got) == len(want), trial
        for (gs, gd), (ws, wd) in zip(got, want):
            assert gs == ws
            assert gd == wd  # bit-identical, not merely isclose
            assert math.isclose(gd, wd, rel_tol=0.0, abs_tol=0.0)


def test_scan_reuses_stack_until_store_changes():
    rng = RngRegistry(seed=7).get("index-stack")
    idx = random_index(rng, n_streams=3, boxes_per_stream=2)
    q = np.zeros(4)
    idx.probe(q, 10.0, now=0.0)
    stack = idx._mbrs._stack
    assert stack is not None
    idx.probe(q, 10.0, now=0.0)
    assert idx._mbrs._stack is stack  # unchanged store: no rebuild

    idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id="s0"), expires=99.0)
    assert idx._mbrs._stack is None  # append invalidates
    idx.probe(q, 10.0, now=0.0)
    rebuilt = idx._mbrs._stack
    assert rebuilt is not None and rebuilt is not stack

    # purge with no expiries keeps the stack; with drops it invalidates
    idx.purge(now=0.0)
    assert idx._mbrs._stack is rebuilt
    idx.purge(now=1_000.0)
    assert idx._mbrs._stack is None


def test_end_of_layout_insert_appends_without_rebuild():
    rng = RngRegistry(seed=13).get("index-append")
    idx = random_index(rng, n_streams=3, boxes_per_stream=2)
    q = np.zeros(4)
    idx.probe(q, 10.0, now=0.0)
    before = idx._mbrs._stack
    assert before is not None
    # The last stream in layout order ("s2") owns the final block: its
    # insert extends the stack in place.
    idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id="s2"), expires=99.0)
    assert idx._mbrs._stack is not None
    assert len(idx._mbrs._stack[3]) == len(before[3]) + 1
    # A brand-new stream also lands at the end of the layout.
    idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id="fresh"), expires=99.0)
    assert idx._mbrs._stack is not None
    assert idx._mbrs._stack[0]["fresh"] == (7, 8)
    # A mid-layout stream cannot append: the stack goes stale.
    idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id="s0"), expires=99.0)
    assert idx._mbrs._stack is None


def test_incremental_append_matches_full_rebuild_exactly():
    """Warm-stack appends produce the same scans as a cold rebuild."""
    rng = RngRegistry(seed=3).get("index-append-eq")
    warm = LocalIndex()
    cold = LocalIndex()
    q = rng.uniform(-1.0, 1.0, 4)
    warm.probe(q, 10.0, now=0.0)  # keep the warm index's stack live
    for step in range(60):
        lo = rng.uniform(-1, 1, 4)
        hi = lo + rng.uniform(0, 0.5, 4)
        mbr = MBR(low=lo, high=hi, stream_id=f"s{step % 5}")
        expires = float(rng.uniform(50, 150))
        warm.add_mbr(mbr, expires)
        cold.add_mbr(mbr, expires)
        got = warm.probe(q, 1.2, now=25.0)
        cold._mbrs._stack = None  # force the rebuild path every time
        want = cold.probe(q, 1.2, now=25.0)
        assert got == want  # same streams, same order, bit-identical dists


def test_ragged_dimensionalities_fall_back_to_scalar():
    """A mixed-dims store cannot stack; behavior matches the scalar loop."""
    idx = LocalIndex()
    idx.add_mbr(MBR(low=np.zeros(2), high=np.ones(2), stream_id="a"), expires=100.0)
    idx.add_mbr(MBR(low=np.zeros(3), high=np.ones(3), stream_id="b"), expires=100.0)
    # Same-dims query: the scalar reference raises on the mismatched
    # stream's broadcast, and the fallback must do exactly the same.
    with pytest.raises(ValueError):
        scalar_scan(idx, np.zeros(2), 5.0, now=0.0)
    with pytest.raises(ValueError):
        idx.probe(np.zeros(2), 5.0, now=0.0)
    assert idx._mbrs._stack is None  # never stacked


def test_new_candidates_marks_reported_and_skips():
    idx = LocalIndex()
    idx.add_mbr(MBR(low=[0.0, 0.0], high=[0.1, 0.1], stream_id="s1"), expires=100.0)
    idx.add_mbr(MBR(low=[5.0, 5.0], high=[6.0, 6.0], stream_id="s2"), expires=100.0)
    sub = SimilaritySubscribe(
        query_id=1,
        client_id=7,
        feature=np.zeros(2),
        radius=0.5,
        low_key=0,
        high_key=10,
        middle_key=5,
        lifespan_ms=1000.0,
    )
    stored = StoredSimilaritySub(sub, expires=1_000.0)
    first = idx.new_candidates(stored, now=0.0)
    assert [sid for sid, _ in first] == ["s1"]
    assert stored.reported == {"s1"}
    # second scan: s1 skipped via the reported set
    assert idx.new_candidates(stored, now=0.0) == []
