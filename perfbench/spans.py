"""Spans around each layer's entry points, for the traced run only.

:meth:`Tracer.install` replaces the entry points listed in :data:`ENTRY_POINTS`
with wrappers that record a span (name, start, end, parent) per call and
keep self time (span time minus child-span time) per span name.
Garbage collection passes become spans too, through ``gc.callbacks``, so
the self times of all spans plus the time outside every span (``other``)
add up to the traced wall time.  Spans stay in memory (the first
:data:`SPAN_CAP` of them) and are written out by :meth:`Tracer.dump`.

Only traced runs call :meth:`Tracer.install`; timed runs run the
program's own functions.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: (module, owner class, attribute, span name).  An owner of None means a
#: module function, replaced also where :data:`ALSO_IN` says it is bound.
ENTRY_POINTS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.sim.engine", "Simulator", "run", "sim.engine"),
    ("repro.sim.network", "Network", "hop", "sim.network.hop"),
    ("repro.sim.network", "Network", "local", "sim.network.local"),
    ("repro.sim.network", "Network", "record_delivery", "sim.network.delivery"),
    ("repro.sim.faults", "FaultInjector", "judge", "sim.faults"),
    ("repro.chord.routing", None, "next_hop", "chord.routing"),
    ("repro.chord.dht", "DhtOverlay", "route", "chord.dht.route"),
    ("repro.chord.dht", "DhtOverlay", "send_direct", "chord.dht.send"),
    ("repro.chord.dht", "DhtOverlay", "send_to_successor", "chord.dht.send"),
    ("repro.chord.dht", "DhtOverlay", "send_to_predecessor", "chord.dht.send"),
    # the stabilizer has no public per-round entry; _maintain is the round
    ("repro.chord.stabilize", "Stabilizer", "_maintain", "chord.stabilize.round"),
    ("repro.chord.stabilize", "Stabilizer", "join_physical", "chord.stabilize.membership"),
    ("repro.chord.stabilize", "Stabilizer", "fail_physical", "chord.stabilize.membership"),
    ("repro.core.runtime", "NodeRuntime", "deliver", "core.runtime.deliver"),
    ("repro.core.runtime", "NodeRuntime", "on_notification_tick", "core.runtime.tick"),
    ("repro.core.runtime", "NodeRuntime", "on_refresh_tick", "core.runtime.tick"),
    ("repro.core.runtime", "NodeRuntime", "reliable_route", "core.runtime.send"),
    ("repro.core.runtime", "NodeRuntime", "reliable_disseminate", "core.runtime.send"),
    ("repro.core.runtime", "NodeRuntime", "send_response", "core.runtime.send"),
    ("repro.core.roles.source", "SourceService", "on_stream_value", "core.source.value"),
    ("repro.core.roles.source", "SourceService", "publish_mbr", "core.source.publish"),
    ("repro.core.roles.source", "SourceService", "on_refresh_tick", "core.source.refresh"),
    ("repro.streams.features", "IncrementalFeatureExtractor", "push", "streams.features"),
    ("repro.core.roles.holder", "IndexHolderService", "on_mbr", "core.holder.mbr"),
    ("repro.core.roles.holder", "IndexHolderService", "on_similarity_subscribe", "core.holder.subscribe"),
    ("repro.core.roles.holder", "IndexHolderService", "on_notification_tick", "core.holder.tick"),
    ("repro.core.index", "LocalIndex", "add_mbr", "core.index.add"),
    ("repro.core.index", "LocalIndex", "new_candidates", "core.index.scan"),
    ("repro.core.index", "LocalIndex", "probe", "core.index.scan"),
    ("repro.core.index", "LocalIndex", "purge", "core.index.purge"),
    ("repro.core.mbr", "MBR", "mindist", "core.mbr.mindist"),
    ("repro.core.mbr", "MBRBatcher", "add", "core.mbr.batch"),
    ("repro.core.multicast", "RangeMulticast", "disseminate", "core.multicast"),
    ("repro.core.multicast", "RangeMulticast", "continue_span", "core.multicast"),
    ("repro.core.roles.aggregator", "AggregatorService", "on_similarity_report", "core.aggregator.report"),
    ("repro.core.roles.aggregator", "AggregatorService", "on_notification_tick", "core.aggregator.tick"),
    ("repro.core.roles.client", "ClientService", "post_similarity_query", "core.client"),
    ("repro.core.roles.client", "ClientService", "on_response", "core.client"),
    ("repro.core.reliable", "ReliableSender", "track", "core.reliable"),
    ("repro.core.reliable", "ReliableSender", "on_ack", "core.reliable"),
    ("repro.core.reliable", "ReliableSender", "settle", "core.reliable"),
    ("repro.core.reliable", "ReliableSender", "cancel_all", "core.reliable"),
    ("repro.core.replication", "ReplicationManager", "note_primary", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "install_replica", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "on_ack", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "serve_pull", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "install_handoff", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "on_round", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "purge", "core.replication"),
    ("repro.core.replication", "ReplicationManager", "new_candidates", "core.replication"),
    ("repro.net.wire", None, "encode_frame", "net.wire.encode"),
    ("repro.net.wire", None, "encode_message", "net.wire.encode"),
    ("repro.net.wire", None, "decode_message", "net.wire.decode"),
    ("repro.net.wire", "FrameDecoder", "feed", "net.wire.decode"),
    # the RPC handler is the peer's only per-request entry point
    ("repro.net.peer", "PeerNode", "_client_rpc", "net.peer.rpc"),
    ("repro.net.peer", "PeerNode", "send_message", "net.peer.send"),
    ("repro.net.peer", "PeerNode", "send_control", "net.peer.send"),
]

#: modules that bind a wrapped module function under its own name
ALSO_IN = {"next_hop": ["repro.chord.dht"]}

GC_SPAN = "python.gc"

#: spans kept for the written trace; later spans still count in the totals
SPAN_CAP = 1_000_000


class Tracer:
    """Span store plus per-name self time and call counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.root_s = 0.0
        #: open spans: [child time, span id]
        self.stack: List[list] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._gc_frame: Optional[list] = None
        self._gc_start = 0.0
        self.started = 0.0
        self.stopped = 0.0
        self.active = False

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return idx

    def _open(self) -> list:
        sid = len(self.span_start)
        self.spans_total += 1
        if sid < SPAN_CAP:
            # reserve the slot so children can name this span as parent
            self.span_name.append(0)
            self.span_parent.append(self.stack[-1][1] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            sid = -1
        frame = [0.0, sid]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, idx: int, start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        dur = end - start
        self.self_s[idx] += dur - frame[0]
        self.calls[idx] += 1
        if stack:
            stack[-1][0] += dur
        else:
            self.root_s += dur
        sid = frame[1]
        if sid >= 0:
            self.span_name[sid] = idx
            self.span_start[sid] = start
            self.span_end[sid] = end

    def wrap(self, fn, name: str):
        idx = self.name_id(name)
        clock = time.perf_counter
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = open_()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, idx, start, clock())

        return traced

    def _on_gc(self, phase: str, _info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_frame = self._open()
            self._gc_start = time.perf_counter()
        elif self._gc_frame is not None and self.stack and self.stack[-1] is self._gc_frame:
            self._close(self._gc_frame, self.name_id(GC_SPAN), self._gc_start, time.perf_counter())
            self._gc_frame = None

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point; spans are recorded only between start and stop.

        Install before the system is built: role services bind their
        message handlers when they are constructed.
        """
        for module_name, owner_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, span)
            self._replace(owner, attr, original, wrapped)
            for other in ALSO_IN.get(attr, ()) if owner_name is None else ():
                mod = importlib.import_module(other)
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, original, wrapped)
        self.name_id(GC_SPAN)
        gc.callbacks.append(self._on_gc)
        return self

    def start(self) -> None:
        self.active = True
        self.started = time.perf_counter()

    def stop(self) -> None:
        self.stopped = time.perf_counter()
        self.active = False

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (handlers bound earlier keep a passive wrapper)."""
        self.active = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.stopped - self.started

    @property
    def other_s(self) -> float:
        """Traced wall time outside every span."""
        return self.wall_s - self.root_s

    def self_of(self, prefix: str) -> float:
        """Self time of every span name equal to or under ``prefix``."""
        return sum(
            s for n, s in zip(self.names, self.self_s)
            if n == prefix or n.startswith(prefix + ".")
        )

    def calls_of(self, name: str) -> int:
        idx = self._index.get(name)
        return self.calls[idx] if idx is not None else 0

    def dump(self, path: Path) -> None:
        """Write the recorded spans and the per-name totals (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            self_s=np.array(self.self_s),
            calls=np.array(self.calls),
            wall_s=self.wall_s,
            other_s=self.other_s,
            spans_total=self.spans_total,
            span_name=np.frombuffer(self.span_name, dtype=np.uint16),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_start=np.frombuffer(self.span_start) - self.started,
            span_end=np.frombuffer(self.span_end) - self.started,
        )
