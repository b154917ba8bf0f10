"""The simulator workloads: paper_n500, scale_ring and churn_lossy.

Each run builds a :class:`~repro.core.system.StreamIndexSystem` through
its public API, feeds it the benchmark's own seeded inputs, times a fixed
simulated interval, and then checks the outputs against
:mod:`oracle`:

* every stream is a random walk drawn here and attached with
  ``attach_stream`` at a period and phase drawn here, so the benchmark
  knows which value each window holds and when each MBR was published;
* similarity queries arrive as a Poisson process through
  ``post_similarity_query``, each with the latest window of a random
  stream as its pattern;
* probe queries, posted when the timed interval starts (on churn_lossy
  once churn has stopped and the ring has healed), take their pattern
  from a window that a stream publishes shortly after, inside a span of
  time in which every published box is certain to be stored and live
  when the probe's holders scan; every stream with a window of such a
  box within ε of the probe must be reported (on churn_lossy's lossy
  fabric a miss is counted, not failed: see README);
* on churn_lossy, nodes fail and join as Poisson processes through
  ``fail_node`` / ``join_node``.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import oracle
from repro.core import MiddlewareConfig, SimilarityQuery, StreamIndexSystem, WorkloadConfig

#: Table I (the paper's workload parameters)
PMIN_MS, PMAX_MS, BSPAN_MS, NPER_MS = 150.0, 250.0, 5_000.0, 2_000.0
QMIN_MS, QMAX_MS = 20_000.0, 100_000.0
HOP_MS = 50.0
M_BITS = 32
#: probe queries per timed interval
PROBES = 20
#: how long the probe's truth boxes may be published after it is posted
TRUTH_SPAN_MS = 500.0
#: the timed interval is cut into slices this long (simulated); each slice's
#: wall time is the least over the repetitions (see ``run``)
CHUNK_MS = 500.0
#: stabilization time (four rounds) between the last churn event and the probes
HEAL_MS = 2_000.0


@dataclass(frozen=True)
class SimWorkload:
    name: str
    n_nodes: int
    window: int
    batch: int
    radius: float
    query_rate_per_s: float
    #: simulated ms timed per ``--seconds`` (about one wall second each
    #: on the reference host, see README)
    sim_ms_per_s: float
    #: identical set-ups per run (same seed, same work); setup_s is their median
    setups: int = 3
    #: how many of the set-ups get a timed interval (see ``run``)
    timed_repeats: int = 3
    lossy: bool = False
    churn_rate_per_s: float = 0.0
    #: churn stops this long before the end of the timed interval so the
    #: ring heals and the probes run on a settled ring
    churn_quiet_ms: float = 0.0

    def config(self) -> MiddlewareConfig:
        kw = dict(
            m=M_BITS,
            window_size=self.window,
            batch_size=self.batch,
            hop_delay_ms=HOP_MS,
            workload=WorkloadConfig(
                pmin_ms=PMIN_MS, pmax_ms=PMAX_MS, bspan_ms=BSPAN_MS, nper_ms=NPER_MS
            ),
        )
        if self.lossy:
            kw.update(
                reliable_delivery=True,
                refresh_period_ms=2_000.0,
                loss_rate=0.05,
                duplicate_rate=0.01,
                replication_factor=3,
            )
        return MiddlewareConfig(**kw)


WORKLOADS: Dict[str, SimWorkload] = {
    w.name: w
    for w in (
        SimWorkload("paper_n500", 500, 128, 10, 0.1, 26.0, 1_300.0),
        SimWorkload("scale_ring", 1_000, 16, 1, 0.02, 26.0, 1_300.0),
        SimWorkload(
            # its set-up takes ~0.2 s, so it needs more of them for a
            # steady median
            "churn_lossy", 40, 32, 2, 0.1, 6.0, 7_000.0, setups=9, timed_repeats=1,
            lossy=True, churn_rate_per_s=0.2, churn_quiet_ms=6_000.0,
        ),
    )
}


class Stream:
    """A random walk fed to one data center, with its arrival schedule."""

    __slots__ = ("sid", "app", "period", "phase", "values", "n")

    def __init__(self, sid: str, app, period: float, phase: float, values: np.ndarray) -> None:
        self.sid = sid
        self.app = app
        self.period = period
        self.phase = phase
        self.values = values.tolist()
        self.n = 0

    def next_value(self) -> float:
        v = self.values[self.n]
        self.n += 1
        return v

    def time_of(self, index) -> np.ndarray:
        """Simulated arrival time of value ``index`` (attached at time 0)."""
        return self.phase + np.asarray(index, dtype=np.float64) * self.period


class Bench:
    """One built system plus everything the benchmark fed it."""

    def __init__(self, w: SimWorkload, seed: int, horizon_ms: float) -> None:
        self.w = w
        self.system = StreamIndexSystem(
            w.n_nodes, w.config(), seed=seed, with_stabilizer=w.churn_rate_per_s > 0
        )
        rng = np.random.default_rng([seed, 1])
        self.streams: List[Stream] = []
        for idx, app in enumerate(self.system.all_apps):
            period = float(rng.uniform(PMIN_MS, PMAX_MS))
            phase = float(rng.uniform(0.0, period))
            count = int(horizon_ms / period) + 2
            steps = np.random.default_rng([seed, 2, idx]).standard_normal(count)
            stream = Stream(f"s{idx}", app, period, phase, np.cumsum(steps))
            self.system.attach_stream(
                app, stream.sid, stream.next_value, period_ms=period, start_ms=phase
            )
            self.streams.append(stream)
        self.by_sid = {s.sid: s for s in self.streams}
        self.system.warmup(extra_ms=PMAX_MS)

    def values_fed(self) -> int:
        return sum(s.n for s in self.streams)


def _sends(stats) -> int:
    return sum(stats.sends_by_kind.values())


def _span_max(ring: oracle.Ring, radius: float) -> int:
    """Most ring nodes a key range of ``radius`` of the circle can touch."""
    width = int(radius * ring.size)
    ids = ring.ids + [i + ring.size for i in ring.ids]
    best, j = 0, 0
    for i in range(len(ring.ids)):
        while j < len(ids) and ids[j] <= ids[i] + width:
            j += 1
        best = max(best, j - i)
    return best + 2


class SimRun:
    """One timed interval on a built :class:`Bench`, then the checks."""

    def __init__(self, bench: Bench, seed: int, timed_ms: float, sampler=None) -> None:
        self.b = bench
        self.w = bench.w
        self.rng = np.random.default_rng([seed, 3])
        self.timed_ms = timed_ms
        self.sampler = sampler
        self.errors: List[str] = []
        self.failed_nodes: set = set()
        self.queries: List[Tuple[int, object, float]] = []
        self.probes: List[Tuple[int, object, np.ndarray]] = []
        self.joins = 0
        self.attempted = 0
        self.truth_total = 0
        self.dismissed = 0
        self.isolated: List[object] = []

    # ------------------------------------------------------------------
    def _events(self) -> List[Tuple[float, str]]:
        """Query and churn arrivals: Poisson processes given their counts.

        Each count is its expectation, rounded, and the arrival times are
        then uniform order statistics, as in a Poisson process with that
        many arrivals; fixing the count keeps the work of a run from
        varying by the Poisson count's own spread.
        """
        w = self.w
        events = [(t, "tick") for t in np.arange(CHUNK_MS, self.timed_ms, CHUNK_MS)]
        churn_end = self.timed_ms - w.churn_quiet_ms
        for kind, rate, until in (
            ("query", w.query_rate_per_s, self.timed_ms),
            ("fail", w.churn_rate_per_s, churn_end),
            ("join", w.churn_rate_per_s, churn_end),
        ):
            count = int(round(rate * until / 1000.0))
            events += [(float(t), kind) for t in np.sort(self.rng.uniform(0.0, until, count))]
        return events

    def _clients(self) -> List[object]:
        """Apps that post queries; under churn they never fail."""
        apps = self.b.system.all_apps
        return apps[:4] if self.w.churn_rate_per_s > 0 else apps

    def _live_streams(self) -> List[Stream]:
        return [s for s in self.b.streams if s.app.node_id not in self.failed_nodes]

    def _post(self, client, pattern: np.ndarray, lifespan_ms: float) -> int:
        query = SimilarityQuery(pattern=pattern, radius=self.w.radius, lifespan_ms=lifespan_ms)
        return client.post_similarity_query(query)

    def _post_query(self) -> None:
        clients = self._clients()
        client = clients[int(self.rng.integers(len(clients)))]
        live = self._live_streams()
        stream = live[int(self.rng.integers(len(live)))]
        pattern = np.array(stream.values[stream.n - self.w.window: stream.n])
        life = float(self.rng.uniform(QMIN_MS, QMAX_MS))
        qid = self._post(client, pattern, life)
        self.queries.append((qid, client, self.b.system.sim.now))

    def _churn(self, kind: str) -> None:
        system = self.b.system
        if kind == "join":
            self.joins += 1
            system.join_node(f"joiner-{self.joins}")
            return
        protected = {a.node_id for a in self._clients()}
        victims = [
            a for a in system.all_apps
            if a.node.alive and a.node_id not in protected
        ]
        if len(victims) > system.n_nodes // 2:
            victim = victims[int(self.rng.integers(len(victims)))]
            self.failed_nodes.add(victim.node_id)
            system.fail_node(victim)

    # ------------------------------------------------------------------
    def _truth_window(self) -> Tuple[float, float, float]:
        """When a probe's truth boxes are published, and when it is answered.

        A box published after the probe's subscription reached all its
        holders is scanned at the next notification tick; one published
        earlier must still be live at that tick.  ``spread_ms`` bounds
        how long a message takes to reach every node of a key range as
        wide as ε (a greedy route of at most 2·log2 N hops, then a walk
        over every node of the widest such range); it bounds both the
        subscription and a truth box.  Reports and the answer each take
        one more route and wait for one more tick.  Returns the window
        start and end and the answer deadline, relative to the posting.
        """
        w = self.w
        ring = oracle.Ring([a.node_id for a in self.b.system.all_apps], M_BITS)
        route = 2 * math.ceil(math.log2(max(2, w.n_nodes)))
        spread_ms = (route + _span_max(ring, w.radius)) * HOP_MS
        route_ms = route * HOP_MS
        if w.lossy:
            # two lost legs per message, retried after 400 ms and then 800 ms
            spread_ms += 3_000.0
            route_ms += 3_000.0
        start = max(0.0, spread_ms + NPER_MS - BSPAN_MS) + 250.0
        end = start + TRUTH_SPAN_MS
        return start, end, end + spread_ms + 2 * (NPER_MS + route_ms) + 500.0

    def _post_probes(self, t0: float) -> None:
        self.probe_time = t0
        lo, hi, answered = self._truth_window()
        self.truth_lo, self.truth_hi = t0 + lo, t0 + hi
        self.probe_deadline = t0 + answered
        w = self.w
        clients = self._clients()
        candidates = [
            (stream, int(k))
            for stream in self._live_streams()
            for k in self._boxes_published(stream, self.truth_lo, self.truth_hi)
        ]
        picks = self.rng.choice(len(candidates), size=min(PROBES, len(candidates)), replace=False)
        for i in sorted(picks):
            stream, k = candidates[i]
            end = w.window - 1 + k * w.batch + int(self.rng.integers(w.batch))
            pattern = np.array(stream.values[end - w.window + 1: end + 1])
            client = clients[int(self.rng.integers(len(clients)))]
            qid = self._post(client, pattern, answered + BSPAN_MS)
            self.probes.append((qid, client, pattern))

    def _boxes_published(self, stream: Stream, lo: float, hi: float) -> np.ndarray:
        """Indices of ``stream``'s boxes published within [lo, hi]."""
        w = self.w
        k = np.arange((len(stream.values) - w.window + 1) // w.batch)
        t = stream.time_of(oracle.box_publish_index(k, w.window, w.batch))
        return k[(t >= lo) & (t <= hi)]

    # ------------------------------------------------------------------
    def measure(self) -> Dict[str, float]:
        system = self.b.system
        stats = system.network.stats
        start = system.sim.now
        values0 = self.b.values_fed()
        sends0 = _sends(stats)
        hops0 = list(stats.hops_by_kind.get("mbr", [0, 0]))
        # under churn the probes wait for the ring to heal
        heal = self.timed_ms - self.w.churn_quiet_ms + HEAL_MS if self.w.churn_rate_per_s else 0.0
        events = sorted(self._events() + [(heal, "probe")])
        t_wall = time.perf_counter()
        marks = [t_wall]
        for t, kind in events:
            system.run(start + t - system.sim.now)
            if kind == "tick":
                marks.append(time.perf_counter())
            elif kind == "query":
                self._post_query()
            elif kind == "probe":
                self._post_probes(system.sim.now)
            else:
                self._churn(kind)
            if self.sampler is not None:
                self.sampler(system)
        system.run(start + self.timed_ms - system.sim.now)
        marks.append(time.perf_counter())
        self.start = start
        values = self.b.values_fed() - values0
        hops1 = stats.hops_by_kind.get("mbr", [0, 0])
        delivered = hops1[1] - hops0[1]
        self.hops_mean = (hops1[0] - hops0[0]) / delivered if delivered else float("nan")
        self.attempted = (
            values + len(self.queries) + len(self.probes) + self.joins + len(self.failed_nodes)
        )
        return {
            "wall_s": marks[-1] - t_wall,
            "slice_s": np.diff(marks),
            "values": values,
            "msgs_per_value": (_sends(stats) - sends0) / values,
            "hops_mean": self.hops_mean,
            "publish_ms": self.publish_ms(),
        }

    def finish_probes(self) -> None:
        """Run on (untimed) until every probe has had time to be answered."""
        system = self.b.system
        system.run(max(0.0, self.probe_deadline - system.sim.now))

    # ------------------------------------------------------------------
    def answer_ms(self) -> List[float]:
        """First-answer delay of every answered Poisson query (system clock)."""
        out = []
        for qid, client, posted in self.queries:
            matches = client.similarity_results.get(qid, [])
            if matches:
                out.append(min(m.time for m in matches) - posted)
        return out

    def publish_ms(self) -> List[float]:
        """Each stream's mean publish-to-placement delay (system clock).

        Taken over every copy of its boxes stored during the timed
        interval.  Per-stream means, not single placements: on a fabric
        with a fixed hop delay single placements take whole multiples of
        it, and their quantiles would not resolve small changes.
        """
        now = self.b.system.sim.now
        delays: Dict[str, List[float]] = {}
        for app in self.b.system.all_apps:
            if not app.node.alive:
                continue
            for entry in app.index.live_mbrs(now):
                arrived = entry.expires - BSPAN_MS
                stream = self.b.by_sid.get(entry.mbr.stream_id)
                if stream is None or arrived < self.start:
                    continue
                published = entry.mbr.created + (self.w.batch - 1) * stream.period
                delays.setdefault(stream.sid, []).append(arrived - published)
        self.placements = sum(len(v) for v in delays.values())
        return [float(np.mean(v)) for v in delays.values()]

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Run every oracle; returns the failures."""
        system = self.b.system
        live = [a for a in system.all_apps if a.node.alive]
        # A joiner whose only successor fails before its first
        # stabilization round keeps no live reference and stays alone for
        # good (a fault of the program, see README); such nodes are left
        # out of the ring and placement checks and counted instead.
        self.isolated = []
        if self.w.churn_rate_per_s > 0 and len(live) > 1:
            self.isolated = [a for a in live if a.node.first_live_successor() in (None, a.node)]
        ring = oracle.Ring([a.node_id for a in live if a not in self.isolated], M_BITS)
        errors = self.errors
        # node ids are SHA-1 of the names (joiners salted only on collision)
        for app in system.all_apps:
            if oracle.node_id(app.node.name, M_BITS) != app.node_id:
                errors.append(f"{app.node.name}: id {app.node_id} is not SHA-1 of its name")
        if self.w.churn_rate_per_s > 0:
            for app in live:
                if app not in self.isolated:
                    succ = app.node.first_live_successor()
                    want = ring.successor(app.node_id)
                    if succ is None or succ.node_id != want:
                        errors.append(f"{app.node.name}: successor is not {want}")
        self._check_placement(ring)
        stats = system.network.stats
        if not oracle.conserved(
            sum(stats.sends_by_kind.values()),
            sum(stats.duplicates_by_kind.values()),
            sum(stats.receives.values()),
            stats.total_drops(),
            system.network.in_flight,
        ):
            errors.append("message conservation violated")
        if not self.hops_mean <= math.log2(len(live)):
            errors.append(f"hops_mean {self.hops_mean:.3f} > log2 N")
        self._check_probes()
        return errors

    def _check_placement(self, ring: oracle.Ring) -> None:
        """Each box stored after the ring settled sits on an owner of its range."""
        settled = self.probe_time if self.w.churn_rate_per_s > 0 else 0.0
        now = self.b.system.sim.now
        for app in self.b.system.all_apps:
            if not app.node.alive or app in self.isolated:
                continue
            for entry in app.index.live_mbrs(now):
                if entry.expires - BSPAN_MS < settled:
                    continue
                vlow, vhigh = entry.mbr.first_coordinate_interval
                klow, khigh = oracle.key_of(vlow, M_BITS), oracle.key_of(vhigh, M_BITS)
                if not ring.covers(app.node_id, klow, khigh):
                    self.errors.append(
                        f"{entry.mbr.stream_id}: box for keys [{klow}, {khigh}] "
                        f"held by {app.node.name}, which owns none of them"
                    )

    def _check_probes(self) -> None:
        w = self.w
        live = self._live_streams()
        # per stream: window distances over every box that could be reported
        first = self.start - BSPAN_MS - 1_000.0
        for qid, client, pattern in self.probes:
            truth, limits = [], {}
            for s in live:
                lo_k = max(0, int(((first - s.phase) / s.period - w.window + 1) // w.batch))
                hi_k = (s.n - w.window + 1) // w.batch
                if hi_k <= lo_k:
                    continue
                a = w.window - 1 + lo_k * w.batch
                b = w.window - 1 + hi_k * w.batch
                vals = np.asarray(s.values[a - w.window + 1: b])
                dists = oracle.window_distances(vals, w.window, pattern)
                box_min = dists.reshape(hi_k - lo_k, w.batch).min(axis=1)
                limits[s.sid] = float(box_min.max())
                k = np.arange(lo_k, hi_k)
                t = s.time_of(oracle.box_publish_index(k, w.window, w.batch))
                inside = (t >= self.truth_lo) & (t <= self.truth_hi)
                if (box_min[inside] <= w.radius).any():
                    truth.append(s.sid)
            reported: Dict[str, List[float]] = {}
            for m in client.similarity_results.get(qid, []):
                reported.setdefault(m.stream_id, []).append(m.distance_bound)
            self.truth_total += len(truth)
            missed = oracle.dismissals(truth, reported)
            if w.lossy:
                # only the entry leg of a range multicast is retried, and the
                # refresh re-offers only the freshest box, so on a lossy
                # fabric a box lost on a later leg is gone (see README): the
                # misses depend on the seed and are counted, not failed
                self.dismissed += len(missed)
                missed = []
            for err in missed + oracle.unsound_bounds(reported, limits, w.radius):
                self.errors.append(f"probe {qid}: {err}")


# ----------------------------------------------------------------------
def _percentile(samples: List[float], q: float) -> float:
    return oracle.quantiles(samples, q)[0] if samples else float("nan")


def build(w: SimWorkload, seed: int, timed_ms: float) -> Tuple[Bench, float]:
    """Set up one system; returns it and the set-up time."""
    # values for set-up, the timed interval and the untimed wait for the probes
    horizon = (w.window + w.batch + 2) * PMAX_MS + timed_ms + 30_000.0
    gc.collect()
    t = time.perf_counter()
    bench = Bench(w, seed, horizon)
    return bench, time.perf_counter() - t


def run(name: str, seed: int, seconds: float) -> Dict[str, object]:
    """Run one workload; returns metrics, counts and failures.

    The system is set up ``w.setups`` times with the same seed, and
    ``setup_s`` is the median set-up time.  The last ``timed_repeats`` of
    them each run the same timed interval, ``--seconds`` split between
    them.  The wall time of each slice of the interval is the least over
    these repetitions: the host shares its cores with other tenants and
    its speed drifts, and the least time of identical work is the part
    the program accounts for.  Simulated quantities are the same in
    every repetition; the last one is checked.  churn_lossy times one
    long interval instead: its figures vary more from seed to seed (which
    nodes fail, which messages are lost) than with the host, and a longer
    interval averages more of that.
    """
    w = WORKLOADS[name]
    timed_ms = w.sim_ms_per_s * seconds / w.timed_repeats
    setups, slices = [], []
    for rep in range(w.setups):
        sim_run = bench = None
        bench, setup_s = build(w, seed, timed_ms)
        setups.append(setup_s)
        if rep < w.setups - w.timed_repeats:
            continue
        sim_run = SimRun(bench, seed, timed_ms)
        m = sim_run.measure()
        slices.append(m["slice_s"])
    best = np.min(np.array(slices), axis=0)
    sim_run.finish_probes()
    answers = sim_run.answer_ms()
    published = m["publish_ms"]
    errors = sim_run.check()
    metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "values_per_s": (m["values"] / float(best.sum()), "values/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "msgs_per_value": (m["msgs_per_value"], "messages/value"),
        "hops_mean": (m["hops_mean"], "hops"),
        "answer_ms_p50": (_percentile(answers, 0.5), "ms"),
        "answer_ms_p90": (_percentile(answers, 0.9), "ms"),
        "publish_ms_p50": (_percentile(published, 0.5), "ms"),
        "publish_ms_p90": (_percentile(published, 0.9), "ms"),
    }
    return {
        "metrics": metrics,
        "attempted": sim_run.attempted,
        "errors": errors,
        "notes": {
            "answered": len(answers),
            "queries": len(sim_run.queries),
            "probes": len(sim_run.probes),
            "truth_streams": sim_run.truth_total,
            "dismissed": sim_run.dismissed,
            "isolated": [a.node.name for a in sim_run.isolated],
            "placements": sim_run.placements,
            "wall_s": [float(np.sum(x)) for x in slices],
            "best_wall_s": float(best.sum()),
            "sim_ms": timed_ms,
        },
    }
