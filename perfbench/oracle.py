"""Checks the benchmark makes apart from the program.

Nothing here imports ``repro``.  Node identifiers come from ``hashlib``
SHA-1 of the node names, keys from the paper's Eq. 6 written out again,
and window distances from numpy over the raw values the benchmark fed.
The program's answers are then compared against these.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def node_id(name: str, m: int) -> int:
    """Chord identifier of a node: the top ``m`` bits of SHA-1(name)."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") >> (160 - m)


def key_of(value: float, m: int) -> int:
    """Eq. 6: map a feature value in [-1, 1] linearly onto the key circle."""
    size = 1 << m
    v = min(max(float(value), -1.0), 1.0)
    return min(int(math.floor((v + 1.0) / 2.0 * size)), size - 1)


class Ring:
    """The sorted-identifier ring of the live members."""

    def __init__(self, ids: Iterable[int], m: int) -> None:
        self.ids = sorted(set(ids))
        self.size = 1 << m

    def successor(self, node: int) -> int:
        i = bisect.bisect_right(self.ids, node)
        return self.ids[i % len(self.ids)]

    def covers(self, node: int, low_key: int, high_key: int) -> bool:
        """Whether ``node``'s arc (predecessor, node] meets [low_key, high_key]."""
        if len(self.ids) == 1:
            return True
        i = bisect.bisect_left(self.ids, node)
        pred = self.ids[i - 1]
        if pred < node:
            return max(pred + 1, low_key) <= min(node, high_key)
        # the arc wraps past zero: (pred, size) and [0, node]
        return high_key > pred or low_key <= node


def znorm_rows(windows: np.ndarray) -> np.ndarray:
    """Eq. 1 per row: zero mean, unit L2 norm; constant rows become zero."""
    w = np.asarray(windows, dtype=np.float64)
    n = w.shape[-1]
    mu = w.mean(axis=-1, keepdims=True)
    sigma = w.std(axis=-1, keepdims=True)
    safe = np.where(sigma < 1e-12, 1.0, sigma)
    out = (w - mu) / (safe * math.sqrt(n))
    return np.where(sigma < 1e-12, 0.0, out)


def sliding(values: np.ndarray, window: int) -> np.ndarray:
    """Every window of ``values``; row ``j`` ends at value index ``j + window - 1``."""
    return np.lib.stride_tricks.sliding_window_view(np.asarray(values, dtype=np.float64), window)


def window_distances(values: np.ndarray, window: int, probe: np.ndarray) -> np.ndarray:
    """Distance from the z-normalized probe to every z-normalized window."""
    q = znorm_rows(np.asarray(probe, dtype=np.float64)[None, :])[0]
    return np.sqrt(((znorm_rows(sliding(values, window)) - q) ** 2).sum(axis=1))


def box_min_distances(
    dists: np.ndarray, window: int, batch: int, n_values: int
) -> np.ndarray:
    """Smallest window distance inside each complete box of ``batch`` windows.

    Box ``k`` holds the windows ending at value indices
    ``window - 1 + k*batch`` .. ``window - 1 + (k+1)*batch - 1``; only
    boxes whose last window arrived within the first ``n_values`` values
    were published.
    """
    n_boxes = max(0, (n_values - window + 1) // batch)
    return dists[: n_boxes * batch].reshape(n_boxes, batch).min(axis=1)


def box_publish_index(k: np.ndarray, window: int, batch: int) -> np.ndarray:
    """Value index whose arrival completes (and publishes) box ``k``."""
    return window - 1 + (np.asarray(k) + 1) * batch - 1


def check_probe(
    truth: Sequence[str],
    reported: Dict[str, List[float]],
    bound_limit: Dict[str, float],
    radius: float,
) -> List[str]:
    """Failures of one probe: dismissed truth streams and unsound bounds.

    ``truth`` are the streams with a published, still-live window within
    ``radius`` of the probe.  ``bound_limit[s]`` is the largest value a
    sound distance bound for ``s`` can take (the largest per-box minimum
    window distance over the boxes that could have been reported).
    """
    return dismissals(truth, reported) + unsound_bounds(reported, bound_limit, radius)


def dismissals(truth: Sequence[str], reported: Dict[str, List[float]]) -> List[str]:
    """Truth streams the probe did not report."""
    return [f"false dismissal of {s}" for s in truth if s not in reported]


def unsound_bounds(
    reported: Dict[str, List[float]], bound_limit: Dict[str, float], radius: float
) -> List[str]:
    """Reported distance bounds above what the stream's windows allow."""
    errors = []
    for sid, bounds in reported.items():
        limit = bound_limit.get(sid)
        if limit is None:
            continue
        worst = max(bounds)
        if worst > limit + 1e-9 or worst > radius + 1e-9:
            errors.append(f"{sid}: bound {worst:.6g} exceeds {min(limit, radius):.6g}")
    return errors


def conserved(sends: int, duplicates: int, receives: int, drops: int, in_flight: int) -> bool:
    """Every physical transmission is received, dropped or still travelling."""
    return sends + duplicates == receives + drops + in_flight


def quantiles(samples: Sequence[float], *qs: float) -> Tuple[float, ...]:
    """Sample quantiles (numpy's default linear interpolation)."""
    arr = np.asarray(samples, dtype=np.float64)
    return tuple(float(np.quantile(arr, q)) for q in qs)
