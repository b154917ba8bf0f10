"""Network fault injection: loss, jitter, duplication, outages.

The seed reproduction's network was a perfect fabric — every hop took a
constant 50 ms and every message arrived exactly once.  Real
content-routed overlays must survive loss, delay variance, duplication
and partitions, so this module makes the fabric *faulty* in a fully
deterministic, seedable way:

* a :class:`FaultPlan` declares the fault model — global and per-link
  message-loss probabilities, a pluggable :class:`DelayModel` (constant,
  jittered, or heavy-tailed hop delays), a duplication probability, and
  timed :class:`LinkOutage` windows;
* a :class:`FaultInjector` executes the plan against an RNG substream
  (from :class:`repro.sim.rng.RngRegistry`), judging every physical hop:
  drop it (and why), delay it (by how much), or deliver it twice.

:class:`repro.sim.network.Network` consults the injector on every
:meth:`~repro.sim.network.Network.hop`; drops and duplicates are
recorded per message kind in
:class:`~repro.sim.network.MessageStats`.  Because the injector draws
from a named substream of the root seed, two runs with the same seed
inject byte-identical fault sequences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "JitteredDelay",
    "HeavyTailDelay",
    "LinkOutage",
    "FaultPlan",
    "HopVerdict",
    "FaultInjector",
    "DROP_LOSS",
    "DROP_LINK_LOSS",
    "DROP_OUTAGE",
    "DROP_DEAD_DEST",
]

#: drop-reason tags recorded alongside the message kind
DROP_LOSS = "loss"
DROP_LINK_LOSS = "link_loss"
DROP_OUTAGE = "outage"
DROP_DEAD_DEST = "dead_dest"


class DelayModel:
    """Per-hop delay distribution; subclasses implement :meth:`sample`."""

    def sample(self, rng: np.random.Generator) -> float:
        """One hop delay in ms (non-negative)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """The paper's model: every hop takes exactly ``delay_ms``."""

    delay_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        return self.delay_ms


@dataclass(frozen=True)
class JitteredDelay(DelayModel):
    """Uniform jitter around a base delay: ``base ± jitter`` (clamped at 0)."""

    base_ms: float = 50.0
    jitter_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ValueError("base_ms and jitter_ms must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        return max(0.0, self.base_ms + float(rng.uniform(-self.jitter_ms, self.jitter_ms)))


@dataclass(frozen=True)
class HeavyTailDelay(DelayModel):
    """Base delay plus a capped Pareto tail — occasional very slow hops.

    The tail term is ``scale_ms * Pareto(alpha)``, truncated at
    ``cap_ms`` so a single unlucky draw cannot stall a bounded
    simulation indefinitely.
    """

    base_ms: float = 50.0
    alpha: float = 2.5
    scale_ms: float = 10.0
    cap_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.scale_ms < 0:
            raise ValueError("base_ms and scale_ms must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cap_ms < 0:
            raise ValueError("cap_ms must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        tail = min(self.cap_ms, self.scale_ms * float(rng.pareto(self.alpha)))
        return self.base_ms + tail


@dataclass(frozen=True)
class LinkOutage:
    """A timed outage window; ``src``/``dst`` of ``None`` match any node.

    An outage with both endpoints wildcarded is a global blackout; with
    only ``dst`` set it isolates one node's inbound links (a one-sided
    partition), etc.  Messages judged during ``[start_ms, end_ms)`` on a
    matching link are dropped with reason :data:`DROP_OUTAGE`.
    """

    start_ms: float
    end_ms: float
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError("outage must end after it starts")

    def covers(self, now: float, src: int, dst: int) -> bool:
        """Whether the outage blackholes a ``src -> dst`` hop at ``now``."""
        if not (self.start_ms <= now < self.end_ms):
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the network's fault model.

    Attributes
    ----------
    loss_rate:
        Probability in ``[0, 1)`` that any hop silently loses its message.
    duplicate_rate:
        Probability that a delivered hop spawns a second, independently
        delayed copy of the message.
    link_loss:
        Extra per-link loss probabilities keyed by ``(src, dst)`` node
        id; applied on top of (before) the global rate.
    delay_model:
        Hop delay distribution; ``None`` keeps the network's constant
        default.
    outages:
        Timed link/partition outage windows.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    link_loss: Dict[Tuple[int, int], float] = field(default_factory=dict)
    delay_model: Optional[DelayModel] = None
    outages: Sequence[LinkOutage] = ()

    def __post_init__(self) -> None:
        for name, rate in (("loss_rate", self.loss_rate),
                           ("duplicate_rate", self.duplicate_rate)):
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        for link, rate in self.link_loss.items():
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"link_loss[{link!r}] must be in [0, 1]")

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects nothing and keeps the default delay."""
        return (
            self.loss_rate == 0.0
            and self.duplicate_rate == 0.0
            and not self.link_loss
            and self.delay_model is None
            and not self.outages
        )


@dataclass(slots=True)
class HopVerdict:
    """The injector's decision for one physical hop."""

    #: empty string = deliver; otherwise the drop reason tag
    drop_reason: str = ""
    #: delay of the primary copy (ms); unused when dropped
    delay_ms: float = 0.0
    #: delay of the duplicate copy, or ``None`` when not duplicated
    duplicate_delay_ms: Optional[float] = None

    @property
    def dropped(self) -> bool:
        return bool(self.drop_reason)


class FaultInjector:
    """Executes a :class:`FaultPlan` against a deterministic RNG stream.

    Parameters
    ----------
    plan:
        The fault model to apply.
    rng:
        A dedicated generator (use a named
        :class:`~repro.sim.rng.RngRegistry` substream so fault decisions
        do not perturb workload randomness).
    default_delay_ms:
        Hop delay used when the plan supplies no :class:`DelayModel`.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        *,
        default_delay_ms: float = 50.0,
    ) -> None:
        self.plan = plan
        self.rng = rng
        #: ``rng.random`` bound once: ``judge`` draws it on every hop
        self._random = rng.random
        self.delay_model: DelayModel = (
            plan.delay_model if plan.delay_model is not None
            else ConstantDelay(default_delay_ms)
        )
        #: injected events by (kind, what) for debugging/tests
        self.injected: Counter[Tuple[str, str]] = Counter()

    # ------------------------------------------------------------------
    def judge(self, src: int, dst: int, kind: str, now: float) -> HopVerdict:
        """Decide the fate of one ``src -> dst`` hop of a ``kind`` message.

        Checks, in order: outage windows (deterministic, no RNG draw),
        per-link loss, global loss; surviving messages get a sampled
        delay and possibly a duplicate with its own sampled delay.  An
        empty outage list or link-loss map costs nothing, and the RNG
        draws come in the same order either way.
        """
        plan = self.plan
        if plan.outages:
            for outage in plan.outages:
                if outage.covers(now, src, dst):
                    self.injected[(kind, DROP_OUTAGE)] += 1
                    return HopVerdict(drop_reason=DROP_OUTAGE)
        if plan.link_loss:
            link_rate = plan.link_loss.get((src, dst), 0.0)
            if link_rate > 0.0 and self._random() < link_rate:
                self.injected[(kind, DROP_LINK_LOSS)] += 1
                return HopVerdict(drop_reason=DROP_LINK_LOSS)
        loss_rate = plan.loss_rate
        if loss_rate > 0.0 and self._random() < loss_rate:
            self.injected[(kind, DROP_LOSS)] += 1
            return HopVerdict(drop_reason=DROP_LOSS)
        verdict = HopVerdict(delay_ms=self.delay_model.sample(self.rng))
        dup_rate = plan.duplicate_rate
        if dup_rate > 0.0 and self._random() < dup_rate:
            self.injected[(kind, "duplicate")] += 1
            verdict.duplicate_delay_ms = self.delay_model.sample(self.rng)
        return verdict
