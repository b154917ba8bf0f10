"""The net_loopback workload: a socket cluster on 127.0.0.1.

The benchmark process starts this file as a second process
(``--serve``), which runs ``PEERS`` :class:`~repro.net.peer.PeerNode`
peers on one asyncio loop, joined into one cluster, and prints their
ports.  The benchmark process is one closed-loop client: over at most
``nproc`` persistent connections it sends ``publish`` RPC frames, each
carrying the next values of one stream, and after each round over all
streams two ``query`` RPCs whose patterns are windows the cluster already
holds.  When the client stops, the serving process waits until every
message frame sent has been received, prints what the peers hold, sent
and answered, and exits.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np

import oracle
from repro.core import MiddlewareConfig, WorkloadConfig
from repro.net import wire

PEERS = 8
STREAMS = 32
WINDOW, BATCH, VALUES_PER_RPC = 32, 4, 16
RADIUS = 0.1
M_BITS = 32
NPER_MS = 1_000.0
PROBE_LIFE_MS = 3_000.0
PROBES_PER_ROUND = 2
#: rounds (one publish per stream, then the probes) per ``--seconds``
ROUNDS_PER_S = 12
#: the wall time of each slice of this many rounds is the least over the
#: repetitions (see ``run``)
SLICE_ROUNDS = 4
#: clusters started and driven per run, each with the same inputs
REPEATS = 3
START_TIMEOUT_S = 30.0
QUIET_POLLS = 200


def net_config() -> MiddlewareConfig:
    # MBRs outlive the run, so every published window stays queryable
    return MiddlewareConfig(
        m=M_BITS,
        window_size=WINDOW,
        batch_size=BATCH,
        workload=WorkloadConfig(nper_ms=NPER_MS, bspan_ms=600_000.0),
    )


# ----------------------------------------------------------------------
# serving process
# ----------------------------------------------------------------------
class _Count:
    """Counts calls of a wire function (the frame conservation check)."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


async def _serve(seed: int, trace_path: str) -> None:
    from repro.net.peer import PeerNode

    tracer = None
    if trace_path:
        import layers

        tracer = layers.PeerTracer().install()
    encoded = wire.encode_message = _Count(wire.encode_message)
    decoded = wire.decode_message = _Count(wire.decode_message)
    loop = asyncio.get_running_loop()
    peers: List[PeerNode] = []
    for i in range(PEERS):
        peer = PeerNode(f"dc-{i}", "127.0.0.1", 0, net_config(), seed=seed)
        peer.log = lambda line: None
        if tracer is not None:
            tracer.watch_outbox(peer)
        await peer.start(None if i == 0 else ("127.0.0.1", peers[0].port))
        peers.append(peer)
    while any(len(p.members) < PEERS for p in peers):
        await asyncio.sleep(0.005)
    if tracer is not None:
        tracer.start()
    stop = asyncio.Event()
    loop.add_reader(sys.stdin.fileno(), stop.set)
    print(json.dumps({"ports": [p.port for p in peers]}), flush=True)
    await stop.wait()
    loop.remove_reader(sys.stdin.fileno())
    sent = lambda: sum(sum(p.transport.stats.sends_by_kind.values()) for p in peers)
    deadline = loop.time() + 5.0
    while decoded.calls < encoded.calls and loop.time() < deadline:
        await asyncio.sleep(0.005)
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        tracer.dump(Path(trace_path))
    now = loop.time() * 1000.0
    doc = {
        "sent": sent(),
        "encoded": encoded.calls,
        "decoded": decoded.calls,
        "mbr_hops": [
            sum(p.transport.stats.hops_by_kind.get("mbr", [0, 0])[j] for p in peers)
            for j in (0, 1)
        ],
        "held": [
            [
                [e.mbr.stream_id, *e.mbr.first_coordinate_interval]
                for e in p.app.index.live_mbrs(now)
            ]
            for p in peers
        ],
        "answers": {
            str(qid): [[m.stream_id, m.distance_bound, m.time] for m in matches]
            for p in peers
            for qid, matches in p.app.similarity_results.items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics(peers) if tracer is not None else {},
    }
    for peer in peers:
        await peer.stop(announce=False)
    print(json.dumps(doc), flush=True)


# ----------------------------------------------------------------------
# benchmark process (client)
# ----------------------------------------------------------------------
class Conn:
    """A persistent blocking connection speaking the peer's RPC frames."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = wire.FrameDecoder()

    def call(self, obj: dict) -> dict:
        self.sock.sendall(wire.encode_frame(obj))
        while True:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("peer closed the connection")
            frames = self.decoder.feed(data)
            if frames:
                return frames[0]

    def close(self) -> None:
        self.sock.close()


class Cluster:
    """The serving process, from start to a stopped and reaped process."""

    def __init__(self, seed: int, trace_path: str = "") -> None:
        t = time.perf_counter()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--serve", str(seed)]
        if trace_path:
            cmd.append(trace_path)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._readline(START_TIMEOUT_S)
            self.ports = json.loads(line)["ports"]
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t

    def _readline(self, timeout: float) -> str:
        import selectors

        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise TimeoutError("cluster did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise ConnectionError("cluster process exited")
        return line

    def finish(self) -> dict:
        """Ask the peers to settle and report; wait for the process to end."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            out, _ = self.proc.communicate(timeout=60.0)
        except BaseException:
            self.kill()
            raise
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _status_all(ports: List[int]) -> list:
    held = []
    for port in ports:
        conn = Conn(port)
        try:
            held.append(conn.call({"t": "status"})["held"])
        finally:
            conn.close()
    return held


class LoopbackRun:
    """Drive one cluster; keep what the oracles need."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 1])
        self.rng = np.random.default_rng([seed, 3])
        self.rounds = max(1, int(round(ROUNDS_PER_S * seconds)))
        per_stream = self.rounds * VALUES_PER_RPC
        self.values = [
            np.cumsum(rng.standard_normal(per_stream)) for _ in range(STREAMS)
        ]
        self.publish_ms: List[float] = []
        self.probes: List[Tuple[int, float, np.ndarray, int]] = []
        self.errors: List[str] = []

    def drive(self, cluster: Cluster) -> List[float]:
        """The timed interval: publish rounds until the cluster is quiet.

        Returns the wall time of each slice of ``SLICE_ROUNDS`` rounds;
        the last slice runs on until two rounds of ``status`` RPCs find
        every peer holding the same streams.  At most ``nproc``
        connections are open at any time.
        """
        n_conn = min(os.cpu_count() or 1, PEERS)
        conns = [Conn(port) for port in cluster.ports[:n_conn]]
        marks = [time.perf_counter()]
        try:
            for r in range(self.rounds):
                if r and r % SLICE_ROUNDS == 0:
                    marks.append(time.perf_counter())
                lo, hi = r * VALUES_PER_RPC, (r + 1) * VALUES_PER_RPC
                for s in range(STREAMS):
                    frame = {
                        "t": "publish",
                        "stream_id": f"s{s}",
                        "values": self.values[s][lo:hi].tolist(),
                    }
                    t = time.perf_counter()
                    reply = conns[s % n_conn].call(frame)
                    self.publish_ms.append((time.perf_counter() - t) * 1000.0)
                    if reply.get("t") != "ok":
                        self.errors.append(f"publish s{s}: {reply}")
                if hi >= WINDOW + BATCH - 1:
                    for i in range(PROBES_PER_ROUND):
                        self._probe(conns[(r + i) % n_conn], hi)
        finally:
            for conn in conns:
                conn.close()
        held = _status_all(cluster.ports)
        for _ in range(QUIET_POLLS):
            again = _status_all(cluster.ports)
            if again == held:
                break
            held = again
        else:
            self.errors.append(f"cluster still busy after {QUIET_POLLS} status polls")
        marks.append(time.perf_counter())
        # answers take up to two notification ticks
        time.sleep(2.5 * NPER_MS / 1000.0)
        return list(np.diff(marks))

    def _probe(self, conn: Conn, n_values: int) -> None:
        s = int(self.rng.integers(STREAMS))
        n_boxes = (n_values - WINDOW + 1) // BATCH
        k = int(self.rng.integers(n_boxes))
        end = WINDOW - 1 + k * BATCH + int(self.rng.integers(BATCH))
        pattern = self.values[s][end - WINDOW + 1: end + 1]
        posted = time.monotonic() * 1000.0
        reply = conn.call({
            "t": "query",
            "pattern": pattern.tolist(),
            "radius": RADIUS,
            "lifespan_ms": PROBE_LIFE_MS,
        })
        if reply.get("t") != "ok":
            self.errors.append(f"query: {reply}")
            return
        self.probes.append((int(reply["query_id"]), posted, pattern, n_values))

    # ------------------------------------------------------------------
    def check(self, doc: dict) -> Tuple[List[float], float]:
        """Run the oracles over the served report; returns answer delays."""
        errors = self.errors
        ring = oracle.Ring([oracle.node_id(f"dc-{i}", M_BITS) for i in range(PEERS)], M_BITS)
        for i, held in enumerate(doc["held"]):
            me = oracle.node_id(f"dc-{i}", M_BITS)
            for sid, vlow, vhigh in held:
                klow, khigh = oracle.key_of(vlow, M_BITS), oracle.key_of(vhigh, M_BITS)
                if not ring.covers(me, klow, khigh):
                    errors.append(f"{sid}: box for keys [{klow}, {khigh}] held by dc-{i}")
        if not (doc["sent"] == doc["encoded"] == doc["decoded"]):
            errors.append(
                f"frames not conserved: {doc['sent']} sent, {doc['encoded']} "
                f"encoded, {doc['decoded']} received"
            )
        hop_sum, delivered = doc["mbr_hops"]
        hops_mean = hop_sum / delivered if delivered else float("nan")
        if not hops_mean <= math.log2(PEERS):
            errors.append(f"hops_mean {hops_mean:.3f} > log2 N")
        answers = []
        self.truth_total = 0
        total = self.rounds * VALUES_PER_RPC
        views = [oracle.znorm_rows(oracle.sliding(vals, WINDOW)) for vals in self.values]
        for qid, posted, pattern, n_values in self.probes:
            truth, limits = [], {}
            q = oracle.znorm_rows(pattern[None, :])[0]
            before = (n_values - WINDOW + 1) // BATCH
            for s, z in enumerate(views):
                dists = np.sqrt(((z - q) ** 2).sum(axis=1))
                box_min = oracle.box_min_distances(dists, WINDOW, BATCH, total)
                limits[f"s{s}"] = float(box_min.max())
                if (box_min[:before] <= RADIUS).any():
                    truth.append(f"s{s}")
            self.truth_total += len(truth)
            matches = doc["answers"].get(str(qid), [])
            reported: Dict[str, List[float]] = {}
            for sid, bound, _t in matches:
                reported.setdefault(sid, []).append(bound)
            for err in oracle.check_probe(truth, reported, limits, RADIUS):
                errors.append(f"probe {qid}: {err}")
            if matches:
                answers.append(min(t for _s, _b, t in matches) - posted)
        return answers, hops_mean


def drive_once(seed: int, seconds: float, trace_path: str = "") -> Tuple[LoopbackRun, Cluster, List[float], dict]:
    """Start a cluster, drive it, stop it; the served report comes back."""
    cluster = Cluster(seed, trace_path)
    bench = LoopbackRun(seed, seconds)
    try:
        slices = bench.drive(cluster)
    except BaseException:
        cluster.kill()
        raise
    return bench, cluster, slices, cluster.finish()


def run(seed: int, seconds: float) -> Dict[str, object]:
    """Run net_loopback; returns metrics, counts and failures.

    ``REPEATS`` clusters are started and driven one after another with
    the same inputs, each for a third of ``--seconds``.  ``setup_s`` is
    the median start-up time.  The wall time of each slice of rounds is
    the least over the repetitions (the host's speed drifts; the least
    time of the same work is the part the program accounts for), and the
    latencies are pooled.  Every repetition is checked.
    """
    setups, slices, publish, answers, sent, hops, rss = [], [], [], [], [], [], []
    errors: List[str] = []
    attempted = 0
    for _ in range(REPEATS):
        bench, cluster, rep_slices, doc = drive_once(seed, seconds / REPEATS)
        setups.append(cluster.setup_s)
        slices.append(rep_slices)
        rep_answers, hops_mean = bench.check(doc)
        errors += bench.errors
        attempted += len(bench.publish_ms) + len(bench.probes)
        publish += bench.publish_ms
        answers += rep_answers
        sent.append(doc["sent"])
        hops.append(hops_mean)
        rss.append(doc["peak_rss_mb"])
    values = bench.rounds * STREAMS * VALUES_PER_RPC
    best = np.min(np.array(slices), axis=0)
    if not answers:
        errors.append("no probe was answered")
        answers = [0.0]
    q = lambda samples, p: oracle.quantiles(samples, p)[0]
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "values_per_s": (values / float(best.sum()), "values/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "msgs_per_value": (float(np.median(sent)) / values, "messages/value"),
        "hops_mean": (float(np.median(hops)), "hops"),
        "answer_ms_p50": (q(answers, 0.5), "ms"),
        "answer_ms_p90": (q(answers, 0.9), "ms"),
        "publish_ms_p50": (q(publish, 0.5), "ms"),
        "publish_ms_p90": (q(publish, 0.9), "ms"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "errors": errors,
        "notes": {
            "answered": len(answers),
            "truth_streams": bench.truth_total,
            "frames": doc["decoded"],
            "wall_s": [float(np.sum(x)) for x in slices],
            "best_wall_s": float(best.sum()),
        },
    }


if __name__ == "__main__" and sys.argv[1:2] == ["--serve"]:
    asyncio.run(_serve(int(sys.argv[2]), sys.argv[3] if len(sys.argv) > 3 else ""))
