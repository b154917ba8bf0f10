"""The per-data-center index structure.

Every data center stores (Sec. IV / Fig. 5):

* the **MBR store** — summaries routed to it by content, each with an
  expiry (BSPAN) after which it is dropped to avoid stale responses;
* **similarity subscriptions** — patterns whose key range covers this
  node, with their ε, aggregation point, and expiry;
* **inner-product subscriptions** — queries this node serves as the
  *source* of the queried stream;
* the **location registry** — ``stream_id → source node`` entries this
  node holds as part of the ``h2`` location service.

All lookups purge expired entries lazily; a periodic sweep bounds
memory between lookups.

Vectorised matching
-------------------
Candidate scans are the hottest computation in the simulator: every
NPER tick, every node with subscriptions recomputes MINDIST from each
query point to each stored box.  Instead of calling
:meth:`~repro.core.mbr.MBR.mindist` per entry, a :class:`BoxStore`
keeps a lazily rebuilt *block layout* — all boxes stacked into
``lows`` / ``highs`` / ``expires`` arrays, one contiguous row-range per
stream — so a scan is two broadcast ``np.maximum`` calls plus a row-max
prefilter.  Rows whose largest clipped-distance component already
exceeds ε cannot intersect the ball (the Euclidean norm of a
non-negative vector is at least its max component); only surviving
rows get the exact per-row ``sqrt(dot(d, d))``, which is bit-identical
to the scalar ``MBR.mindist`` path — so vectorisation cannot change
which candidates match, nor the reported distances (see
PERFORMANCE.md).  Both MBR stores of a data center are a
:class:`BoxStore`: the primary store here and the replica store of
:class:`~repro.core.replication.ReplicationManager` (DESIGN.md §10),
so both share one scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from ..perf import counters as _opc
from .mbr import MBR
from .protocol import InnerProductSubscribe, SimilaritySubscribe

__all__ = [
    "StoredMBR",
    "StoredSimilaritySub",
    "StoredInnerProductSub",
    "BoxStore",
    "LocalIndex",
]


@dataclass(slots=True)
class StoredMBR:
    """An MBR held by a data center until ``expires``.

    ``source_id`` remembers the publishing node so a later adaptive
    migration (DESIGN.md §13) can keep replication ownership attributed
    to the stream's source; ``-1`` for entries installed through paths
    that don't carry it.
    """

    mbr: MBR
    expires: float
    source_id: int = -1


@dataclass(slots=True)
class StoredSimilaritySub:
    """A similarity subscription installed at a range node."""

    sub: SimilaritySubscribe
    expires: float
    #: stream_ids already reported for this query by *this* node, to
    #: avoid re-reporting the same match every NPER tick
    reported: set = field(default_factory=set)


@dataclass(slots=True)
class StoredInnerProductSub:
    """An inner-product subscription installed at the stream's source."""

    sub: InnerProductSubscribe
    expires: float


#: an entry of a :class:`BoxStore`: anything with ``mbr`` and ``expires``
_E = TypeVar("_E")

#: the block layout: (ranges, lows, highs, expires), where ranges maps a
#: stream_id to its contiguous [start, stop) row range
_Stack = Tuple[Dict[str, Tuple[int, int]], np.ndarray, np.ndarray, np.ndarray]


class BoxStore(Generic[_E]):
    """Stream-keyed MBR entries with a lazily built block layout.

    Entries are any objects with ``mbr`` and ``expires`` attributes,
    kept per stream in insertion order.  Reads go through the mapping
    methods (``get``, ``items``, ``values``, ``keys``, ``in``, ``len``);
    writes go through :meth:`add`, :meth:`purge`, :meth:`take` and
    :meth:`clear`, each of which keeps the layout valid or drops it, so
    callers must not mutate the per-stream lists they read.
    """

    __slots__ = ("_entries", "_stack", "_stack_buf")

    def __init__(self) -> None:
        self._entries: Dict[str, List[_E]] = {}
        # Block layout over the entries (see module docstring), rebuilt
        # lazily after a structural mutation; None when stale or when
        # the store holds mixed dimensionalities (scalar fallback).
        # Inserts that land at the end of the layout (a new stream, or
        # the stream already holding the last block) are appended in
        # place instead of invalidating — the common case under steady
        # publishing, where full rebuilds otherwise dominate the ingest
        # path.
        self._stack: Optional[_Stack] = None
        # Backing buffers for the append path: exact-size views of these
        # become the stack arrays; capacity doubles on overflow so an
        # append is O(1) amortised instead of an O(store) rebuild.
        self._stack_buf: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    def __getitem__(self, stream_id: str) -> List[_E]:
        return self._entries[stream_id]

    def __contains__(self, stream_id: object) -> bool:
        return stream_id in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, stream_id: str, default=None):
        return self._entries.get(stream_id, default)

    def keys(self):
        return self._entries.keys()

    def values(self):
        return self._entries.values()

    def items(self):
        return self._entries.items()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, entry: _E) -> None:
        """Append ``entry`` to its stream's list.

        Keeps the block layout warm when the insert lands at its end
        (see :meth:`_append_to_stack`); otherwise the layout goes stale
        and the next scan rebuilds it — producing bit-identical arrays
        either way, since both paths write the same rows in the same
        iteration order.
        """
        sid = entry.mbr.stream_id
        entries = self._entries.get(sid)
        is_new_stream = entries is None
        if is_new_stream:
            entries = self._entries[sid] = []
        entries.append(entry)
        if self._stack is not None and not self._append_to_stack(
            entry, is_new_stream
        ):
            self._stack = None

    def _append_to_stack(self, entry: _E, is_new_stream: bool) -> bool:
        """Extend the block layout in place for an end-of-layout insert.

        Possible exactly when a rebuild would put the new row last: the
        stream is new (``dict`` insertion order appends its block), or
        it already owns the final block.  Returns ``False`` when the
        insert lands mid-layout (or changes dimensionality) and a full
        rebuild is required.
        """
        ranges, lows, highs, exp = self._stack
        mbr = entry.mbr
        n = len(exp)
        if len(mbr.low) != lows.shape[1]:
            return False
        rng = ranges.get(mbr.stream_id)
        if rng is None:
            if not is_new_stream:  # pre-existing mid-layout stream
                return False
            start = n
        elif rng[1] == n:
            start = rng[0]
        else:
            return False
        buf = self._stack_buf
        if buf is None or len(buf[2]) < n + 1:
            cap = max(2 * n, 64)
            grown_lows = np.empty((cap, lows.shape[1]), dtype=np.float64)
            grown_highs = np.empty((cap, lows.shape[1]), dtype=np.float64)
            grown_exp = np.empty(cap, dtype=np.float64)
            grown_lows[:n] = lows
            grown_highs[:n] = highs
            grown_exp[:n] = exp
            buf = self._stack_buf = (grown_lows, grown_highs, grown_exp)
        buf[0][n] = mbr.low
        buf[1][n] = mbr.high
        buf[2][n] = entry.expires
        ranges[mbr.stream_id] = (start, n + 1)
        self._stack = (ranges, buf[0][: n + 1], buf[1][: n + 1], buf[2][: n + 1])
        c = _opc.ACTIVE
        if c is not None:
            c.inc("index.stack_appends")
        return True

    def purge(self, now: float) -> int:
        """Drop entries expired at ``now``; return how many went."""
        dropped = 0
        for sid in list(self._entries):
            entries = self._entries[sid]
            kept = [e for e in entries if e.expires > now]
            if len(kept) != len(entries):
                dropped += len(entries) - len(kept)
                self._stack = None
                if kept:
                    self._entries[sid] = kept
                else:
                    del self._entries[sid]
        return dropped

    def take(self, predicate: Callable[[_E], bool]) -> List[_E]:
        """Remove and return the entries matching ``predicate(entry)``,
        in store order; the layout is dropped only if one went."""
        taken: List[_E] = []
        for sid in list(self._entries):
            kept: List[_E] = []
            for e in self._entries[sid]:
                (taken if predicate(e) else kept).append(e)
            if len(kept) != len(self._entries[sid]):
                self._stack = None
                if kept:
                    self._entries[sid] = kept
                else:
                    del self._entries[sid]
        return taken

    def clear(self) -> None:
        """Drop every entry and the layout."""
        self._entries.clear()
        self._stack = None
        self._stack_buf = None

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _build_stack(self) -> Optional[_Stack]:
        """(Re)build the block layout; ``None`` for empty/ragged stores."""
        # The append buffers only mirror the *current* layout; a rebuild
        # starts from fresh arrays, so any old buffer is stale garbage.
        self._stack_buf = None
        if not self._entries:
            return None
        c = _opc.ACTIVE
        if c is not None:
            c.inc("index.stack_rebuilds")
        dims = None
        total = 0
        for entries in self._entries.values():
            for e in entries:
                k = len(e.mbr.low)
                if dims is None:
                    dims = k
                elif k != dims:
                    return None  # mixed dimensionalities: scalar fallback
            total += len(entries)
        ranges: Dict[str, Tuple[int, int]] = {}
        lows = np.empty((total, dims), dtype=np.float64)
        highs = np.empty((total, dims), dtype=np.float64)
        expires = np.empty(total, dtype=np.float64)
        row = 0
        for stream_id, entries in self._entries.items():
            start = row
            for e in entries:
                lows[row] = e.mbr.low
                highs[row] = e.mbr.high
                expires[row] = e.expires
                row += 1
            ranges[stream_id] = (start, row)
        return ranges, lows, highs, expires

    def scan(
        self,
        feature: np.ndarray,
        radius: float,
        now: float,
        skip: Optional[set],
    ) -> List[Tuple[str, float]]:
        """Best live MINDIST ``<= radius`` per stream not in ``skip``.

        Vectorised (see module docstring), yet produces exactly what the
        scalar loop over ``MBR.mindist`` would: the clipped-distance
        matrix is the same elementwise arithmetic, the row-max prefilter
        only discards rows whose distance provably exceeds ``radius``,
        and survivors get the identical per-row ``sqrt(dot(d, d))``.
        """
        stack = self._stack
        if stack is None:
            if not self._entries:
                return []
            stack = self._stack = self._build_stack()
        out: List[Tuple[str, float]] = []
        if stack is None:
            # Ragged store: scalar fallback, the original loop verbatim.
            for stream_id, entries in self._entries.items():
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
        ranges, lows, highs, expires = stack
        q = np.asarray(feature, dtype=np.float64)
        delta = np.maximum(lows - q, 0.0)
        delta += np.maximum(q - highs, 0.0)
        c = _opc.ACTIVE
        if c is not None:
            c.inc("index.rows_scanned", len(delta))
        # Prefilter: ||d|| >= max(d) for the non-negative clipped vector,
        # so rows whose max component clears radius (with a small margin
        # absorbing dot/sqrt rounding) cannot match.
        candidate = (delta.max(axis=1) <= radius + 1e-9) & (expires > now)
        if not candidate.any():
            return out
        for stream_id, (start, stop) in ranges.items():
            if skip is not None and stream_id in skip:
                continue
            best = None
            for row in range(start, stop):
                if not candidate[row]:
                    continue
                dr = delta[row]
                d = float(np.sqrt(np.dot(dr, dr)))
                if c is not None:
                    c.inc("index.rows_exact")
                if d <= radius and (best is None or d < best):
                    best = d
            if best is not None:
                out.append((stream_id, best))
        return out


class LocalIndex:
    """All query-relevant state of one data center."""

    def __init__(self) -> None:
        self._mbrs: BoxStore[StoredMBR] = BoxStore()
        self.similarity_subs: Dict[int, StoredSimilaritySub] = {}
        self.inner_product_subs: Dict[int, StoredInnerProductSub] = {}
        self.registry: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # MBR store
    # ------------------------------------------------------------------
    def add_mbr(self, mbr: MBR, expires: float, source_id: int = -1) -> None:
        """Store a summary MBR until its lifespan ends."""
        self._mbrs.add(StoredMBR(mbr, expires, source_id))

    def take_mbrs(self, predicate) -> List[StoredMBR]:
        """Remove and return stored MBRs matching ``predicate(entry)``.

        Used by adaptive remapping (DESIGN.md §13): after a quantile
        refit, entries whose key range moved off this holder's arc are
        taken out of the store and re-disseminated as ``MbrMigrate``
        payloads toward their new holders.  Entries the predicate
        rejects stay untouched.
        """
        return self._mbrs.take(predicate)

    def mbr_count(self, now: Optional[float] = None) -> int:
        """Number of stored (live, if ``now`` given) MBRs."""
        if now is None:
            return sum(len(v) for v in self._mbrs.values())
        return sum(1 for _ in self.live_mbrs(now))

    def live_mbrs(self, now: float) -> Iterator[StoredMBR]:
        """Iterate non-expired MBRs (does not purge)."""
        for entries in self._mbrs.values():
            for e in entries:
                if e.expires > now:
                    yield e

    def purge(self, now: float) -> int:
        """Drop expired MBRs and subscriptions; return how many went."""
        dropped = self._mbrs.purge(now)
        for qid in list(self.similarity_subs):
            if self.similarity_subs[qid].expires <= now:
                del self.similarity_subs[qid]
                dropped += 1
        for qid in list(self.inner_product_subs):
            if self.inner_product_subs[qid].expires <= now:
                del self.inner_product_subs[qid]
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def add_similarity_sub(self, sub: SimilaritySubscribe, expires: float) -> None:
        """Install (or refresh) a similarity subscription.

        A refresh keeps the ``reported`` bookkeeping (so soft-state
        re-disseminations don't cause re-reports of known matches) and
        never shortens the remaining lifetime.
        """
        cur = self.similarity_subs.get(sub.query_id)
        if cur is not None:
            cur.sub = sub
            cur.expires = max(cur.expires, expires)
            return
        self.similarity_subs[sub.query_id] = StoredSimilaritySub(sub, expires)

    def add_inner_product_sub(self, sub: InnerProductSubscribe, expires: float) -> None:
        """Install an inner-product subscription at the source node."""
        self.inner_product_subs[sub.query.query_id] = StoredInnerProductSub(sub, expires)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def new_candidates(
        self, stored: StoredSimilaritySub, now: float
    ) -> List[Tuple[str, float]]:
        """Streams whose stored MBRs intersect the query ball, not yet reported.

        Returns ``(stream_id, mindist)`` pairs and marks them reported
        so each (node, query, stream) match is forwarded at most once —
        matching the paper's "detected similarities" semantics where the
        middle node aggregates distinct candidates.
        """
        out = self._mbrs.scan(
            stored.sub.feature, stored.sub.radius, now, stored.reported
        )
        for stream_id, _ in out:
            stored.reported.add(stream_id)
        return out

    def probe(self, feature: np.ndarray, radius: float, now: float) -> List[Tuple[str, float]]:
        """One-shot candidate scan (no reported-set bookkeeping)."""
        return self._mbrs.scan(feature, radius, now, None)
