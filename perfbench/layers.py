"""Traced runs: the per-layer metrics of one workload.

A traced run measures the workload twice in one process, first untraced
and then with :class:`spans.Tracer` wrappers installed (and the
program's own op counters, :mod:`repro.perf.counters`, switched on), on
a freshly built system with the same seed.  It reports self time and
work counts per layer, the time outside every span (``trace.other_s``)
and the tracing overhead: traced over untraced wall time of the timed
interval.  On net_loopback the wrappers sit in the serving process,
which hosts the peers.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from spans import Tracer

Metric = Tuple[float, str]


def _self_times(t: Tracer) -> Dict[str, Metric]:
    s = lambda prefix: (t.self_of(prefix), "s")
    return {
        "sim.engine.self_s": s("sim.engine"),
        "sim.network.self_s": s("sim.network"),
        "sim.faults.self_s": s("sim.faults"),
        "chord.routing.self_s": s("chord.routing"),
        "chord.dht.self_s": s("chord.dht"),
        "chord.stabilize.self_s": s("chord.stabilize"),
        "core.runtime.self_s": s("core.runtime"),
        "core.source.self_s": s("core.source"),
        "streams.features.self_s": s("streams.features"),
        "core.holder.self_s": s("core.holder"),
        "core.index.add_s": s("core.index.add"),
        "core.index.scan_s": s("core.index.scan"),
        "core.index.purge_s": s("core.index.purge"),
        "core.mbr.self_s": s("core.mbr"),
        "core.multicast.self_s": s("core.multicast"),
        "core.aggregator.self_s": s("core.aggregator"),
        "core.client.self_s": s("core.client"),
        "core.reliable.self_s": s("core.reliable"),
        "core.replication.self_s": s("core.replication"),
        "net.wire.encode_s": s("net.wire.encode"),
        "net.wire.decode_s": s("net.wire.decode"),
        "net.peer.rpc_s": s("net.peer.rpc"),
        "net.peer.self_s": s("net.peer"),
        "python.gc_s": s("python.gc"),
        "trace.wall_s": (t.wall_s, "s"),
        "trace.other_s": (t.other_s, "s"),
    }


def _calls(t: Tracer) -> Dict[str, Metric]:
    c = lambda name: (t.calls_of(name), "count")
    return {
        "sim.network.hops": (t.calls_of("sim.network.hop"), "count"),
        "chord.routing.next_hop_calls": c("chord.routing"),
        "chord.dht.routes": (t.calls_of("chord.dht.route"), "count"),
        "chord.stabilize.rounds": (t.calls_of("chord.stabilize.round"), "count"),
        "core.runtime.deliveries": (t.calls_of("core.runtime.deliver"), "count"),
        "core.source.mbrs_published": (t.calls_of("core.source.publish"), "count"),
        "core.holder.mbrs_received": (t.calls_of("core.holder.mbr"), "count"),
        "core.mbr.mindist_calls": c("core.mbr.mindist"),
        "core.aggregator.reports": (t.calls_of("core.aggregator.report"), "count"),
        "python.gc_collections": c("python.gc"),
    }


def _stat_deltas(before: dict, after: dict) -> Dict[str, Metric]:
    d = lambda key: (after[key] - before[key], "count")
    return {
        "sim.network.drops": d("drops"),
        "core.runtime.dedup_suppressed": d("dedup"),
        "core.multicast.span_msgs": d("span"),
        "core.reliable.retransmissions": d("retx"),
        "core.reliable.dead_letters": d("dead"),
        "core.replication.pushes": d("replica"),
    }


def _stats_counts(stats) -> dict:
    sends = stats.sends_by_kind
    return {
        "drops": stats.total_drops(),
        "dedup": sum(stats.duplicates_suppressed.values()),
        "span": sum(v for k, v in sends.items() if k.endswith("_span")),
        "retx": sum(stats.retransmissions.values()),
        "dead": sum(stats.dead_letters.values()),
        "replica": sends.get("replica", 0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _net_zero() -> Dict[str, Metric]:
    return {
        "net.wire.bytes": (0, "bytes"),
        "net.wire.bytes_per_msg": (0.0, "bytes/message"),
        "net.peer.outbox_peak": (0, "frames"),
        "net.peer.outbox_wait_ms_p50": (0.0, "ms"),
    }


def _sim_zero() -> Dict[str, Metric]:
    return {
        "sim.engine.events": (0, "count"),
        "sim.engine.pending_peak": (0, "events"),
        "chord.routing.memo_hit_ratio": (0.0, "ratio"),
        "core.index.rows_scanned": (0, "count"),
        "core.index.exact_ratio": (0.0, "ratio"),
        "core.index.live_rows_peak": (0, "rows"),
    }


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def _run_sim(name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    import simrun
    from repro.perf import counters

    w = simrun.WORKLOADS[name]
    timed_ms = w.sim_ms_per_s * seconds / w.timed_repeats
    bench, _ = simrun.build(w, seed, timed_ms)
    untraced = simrun.SimRun(bench, seed, timed_ms).measure()["wall_s"]
    bench = None
    tracer = Tracer().install()
    bench, _ = simrun.build(w, seed, timed_ms)
    system = bench.system
    peaks = {"pending": 0, "rows": 0}

    def sample(system) -> None:
        peaks["pending"] = max(peaks["pending"], system.sim.pending_events)
        rows = sum(a.index.mbr_count() for a in system.all_apps if a.node.alive)
        peaks["rows"] = max(peaks["rows"], rows)

    run = simrun.SimRun(bench, seed, timed_ms, sampler=sample)
    before = _stats_counts(system.network.stats)
    events0 = system.sim.events_processed
    ops = counters.install()
    tracer.start()
    try:
        traced = run.measure()["wall_s"]
    finally:
        tracer.stop()
        tracer.uninstall()
        counters.uninstall()
    run.finish_probes()
    errors = run.check()
    tracer.dump(out_dir / f"spans-{name}-{seed}.npz")
    hits, misses = ops.get("route.cache_hits"), ops.get("route.cache_misses")
    metrics: Dict[str, Metric] = {}
    metrics.update(_self_times(tracer))
    metrics.update(_calls(tracer))
    metrics.update(_stat_deltas(before, _stats_counts(system.network.stats)))
    metrics.update(_net_zero())
    metrics.update({
        "sim.engine.events": (system.sim.events_processed - events0, "count"),
        "sim.engine.pending_peak": (peaks["pending"], "events"),
        "chord.routing.memo_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "core.index.rows_scanned": (ops.get("index.rows_scanned"), "count"),
        "core.index.exact_ratio": (
            _ratio(ops.get("index.rows_exact"), ops.get("index.rows_scanned")), "ratio"
        ),
        "core.index.live_rows_peak": (peaks["rows"], "rows"),
        "trace.overhead_pct": ((traced / untraced - 1.0) * 100.0, "%"),
    })
    return {"metrics": metrics, "attempted": run.attempted, "errors": errors,
            "notes": {"untraced_wall_s": untraced, "traced_wall_s": traced,
                      "spans": tracer.spans_total, "dismissed": run.dismissed,
                      "isolated": [a.node.name for a in run.isolated]}}


# ----------------------------------------------------------------------
# loopback cluster
# ----------------------------------------------------------------------
class PeerTracer(Tracer):
    """The serving process's tracer: spans plus socket bytes and outbox waits."""

    def __init__(self) -> None:
        super().__init__()
        self.frame_bytes = 0
        self.frames = 0
        self.outbox_peak = 0
        self.outbox_waits = []

    def watch_outbox(self, peer) -> None:
        """Time each frame from enqueue to the sender taking it."""
        import asyncio
        from collections import deque

        tracer = self
        stamps = deque()

        class TimedQueue(asyncio.Queue):
            def put_nowait(self, item):
                super().put_nowait(item)
                stamps.append(time.perf_counter())
                if tracer.active:
                    tracer.outbox_peak = max(tracer.outbox_peak, self.qsize())

            def get_nowait(self):
                item = super().get_nowait()
                waited = time.perf_counter() - stamps.popleft()
                if tracer.active:
                    tracer.outbox_waits.append(waited * 1000.0)
                return item

        peer._outbox = TimedQueue()

    def install(self) -> "PeerTracer":
        from repro.net import wire

        super().install()
        encode = wire.encode_frame

        def counted(obj):
            data = encode(obj)
            if self.active:
                self.frame_bytes += len(data)
                self.frames += 1
            return data

        self._replace(wire, "encode_frame", encode, counted)
        return self

    def start(self) -> None:
        from repro.perf import counters

        self.ops = counters.install()
        super().start()

    def stop(self) -> None:
        from repro.perf import counters

        super().stop()
        counters.uninstall()

    def metrics(self, peers) -> dict:
        metrics = {}
        metrics.update(_self_times(self))
        metrics.update(_calls(self))
        metrics.update(_sim_zero())
        ops = self.ops
        metrics.update({
            "core.index.rows_scanned": (ops.get("index.rows_scanned"), "count"),
            "core.index.exact_ratio": (
                _ratio(ops.get("index.rows_exact"), ops.get("index.rows_scanned")), "ratio"
            ),
            "sim.network.drops": (0, "count"),
            "core.runtime.dedup_suppressed": (
                sum(sum(p.transport.stats.duplicates_suppressed.values()) for p in peers), "count"
            ),
            "core.multicast.span_msgs": (
                sum(v for p in peers for k, v in p.transport.stats.sends_by_kind.items()
                    if k.endswith("_span")), "count"
            ),
            "core.reliable.retransmissions": (0, "count"),
            "core.reliable.dead_letters": (0, "count"),
            "core.replication.pushes": (0, "count"),
            "net.wire.bytes": (self.frame_bytes, "bytes"),
            "net.wire.bytes_per_msg": (_ratio(self.frame_bytes, self.frames), "bytes/message"),
            "net.peer.outbox_peak": (self.outbox_peak, "frames"),
            "net.peer.outbox_wait_ms_p50": (
                float(np.median(self.outbox_waits)) if self.outbox_waits else 0.0, "ms"
            ),
        })
        return {k: list(v) for k, v in metrics.items()}


def _run_net(seed: int, seconds: float, out_dir: Path) -> dict:
    import loopback

    seconds /= loopback.REPEATS
    _, _, untraced, _ = loopback.drive_once(seed, seconds)
    path = out_dir / f"spans-net_loopback-{seed}.npz"
    bench, _, traced, doc = loopback.drive_once(seed, seconds, trace_path=str(path))
    bench.check(doc)
    metrics = {k: tuple(v) for k, v in doc["layers"].items()}
    metrics["trace.overhead_pct"] = ((sum(traced) / sum(untraced) - 1.0) * 100.0, "%")
    return {"metrics": metrics,
            "attempted": len(bench.publish_ms) + len(bench.probes),
            "errors": bench.errors,
            "notes": {"untraced_wall_s": sum(untraced), "traced_wall_s": sum(traced)}}


def run(name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    if name == "net_loopback":
        return _run_net(seed, seconds, out_dir)
    return _run_sim(name, seed, seconds, out_dir)
