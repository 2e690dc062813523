"""Message kinds and traffic accounting.

The paper's two overhead metrics are ratios of control traffic over real data
traffic (Section 5.3):

* *control overhead* — buffer-map exchange bits / data bits transferred, and
* *pre-fetch overhead* — (DHT routing message bits + pre-fetched data bits)
  / data bits transferred by the normal scheduling path.

The :class:`MessageLedger` accumulates bits per message kind so the metrics
can be computed exactly as defined, per round and cumulatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

#: Size of one DHT routing message (Section 5.4.3: "each routing message
#: costs 10 bytes, i.e. 80 bits").
ROUTING_MESSAGE_BITS = 80

#: Size of a PING/PONG probe used during join (same order as a routing msg).
PING_MESSAGE_BITS = 80


class MessageKind(Enum):
    """Categories of simulated traffic, used for overhead accounting."""

    #: Buffer-map exchange between connected neighbours (control traffic).
    BUFFER_MAP = "buffer_map"
    #: Data segments delivered by the gossip data-scheduling path.
    DATA_SCHEDULED = "data_scheduled"
    #: Data segments delivered by the on-demand (pre-fetch) path.
    DATA_PREFETCH = "data_prefetch"
    #: DHT routing/lookup messages issued by the on-demand retrieval.
    DHT_ROUTING = "dht_routing"
    #: Membership traffic: PING/PONG during join, RP contact, handover notices.
    MEMBERSHIP = "membership"


@dataclass
class MessageLedger:
    """Accumulates traffic volume (bits) and message counts per kind."""

    bits: Dict[MessageKind, float] = field(
        default_factory=lambda: {kind: 0.0 for kind in MessageKind}
    )
    counts: Dict[MessageKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in MessageKind}
    )

    def record(self, kind: MessageKind, size_bits: float, count: int = 1) -> None:
        """Record ``count`` messages of ``kind`` totalling ``size_bits`` bits."""
        if size_bits < 0 or count < 0:
            raise ValueError("size_bits and count must be non-negative")
        self.bits[kind] += float(size_bits)
        self.counts[kind] += int(count)

    def bits_of(self, kind: MessageKind) -> float:
        """Total bits recorded under ``kind``."""
        return self.bits[kind]

    def count_of(self, kind: MessageKind) -> int:
        """Total messages recorded under ``kind``."""
        return self.counts[kind]

    def data_bits(self) -> float:
        """Bits of real data-segment transfer on the scheduling path."""
        return self.bits[MessageKind.DATA_SCHEDULED]

    def control_overhead(self) -> float:
        """Control overhead = buffer-map bits / scheduled-data bits."""
        data = self.data_bits()
        if data <= 0:
            return 0.0
        return self.bits[MessageKind.BUFFER_MAP] / data

    def prefetch_overhead(self) -> float:
        """Pre-fetch overhead = (DHT routing + pre-fetched data) / scheduled data."""
        data = self.data_bits()
        if data <= 0:
            return 0.0
        extra = self.bits[MessageKind.DHT_ROUTING] + self.bits[MessageKind.DATA_PREFETCH]
        return extra / data

    def total_bits(self) -> float:
        """Total bits recorded across every message kind."""
        return float(sum(self.bits.values()))

    def total_count(self) -> int:
        """Total messages recorded across every message kind."""
        return int(sum(self.counts.values()))

    def merge(self, other: "MessageLedger") -> None:
        """Fold another ledger's counters into this one.

        This is how concurrently accumulated per-peer ledgers (one per
        :class:`~repro.runtime.peer.LivePeer`, no shared mutable state) are
        reduced into a swarm-wide ledger: merging is commutative and
        associative, so the reduction order never changes the totals.
        """
        for kind in MessageKind:
            self.bits[kind] += other.bits[kind]
            self.counts[kind] += other.counts[kind]

    @classmethod
    def merged(cls, ledgers: "list[MessageLedger] | tuple[MessageLedger, ...]") -> "MessageLedger":
        """A fresh ledger holding the sum of ``ledgers`` (inputs untouched)."""
        total = cls()
        for ledger in ledgers:
            total.merge(ledger)
        return total

    def snapshot(self) -> "MessageLedger":
        """Deep copy of the current counters.

        The snapshot is detached: later :meth:`record` calls on the live
        ledger never show through, so a collector can difference or merge
        snapshots while the owning peer keeps recording.
        """
        clone = MessageLedger()
        clone.bits = dict(self.bits)
        clone.counts = dict(self.counts)
        return clone

    def reset(self) -> None:
        """Zero every counter."""
        for kind in MessageKind:
            self.bits[kind] = 0.0
            self.counts[kind] = 0


@dataclass
class RoundTrafficLog:
    """Per-round ledgers, for time-series overhead metrics (Figures 9-11)."""

    rounds: List[MessageLedger] = field(default_factory=list)
    times: List[float] = field(default_factory=list)

    def append(self, time: float, ledger: MessageLedger) -> None:
        """Record the traffic of one round."""
        self.times.append(float(time))
        self.rounds.append(ledger)

    def control_overhead_series(self) -> List[float]:
        """Per-round control overhead values."""
        return [ledger.control_overhead() for ledger in self.rounds]

    def prefetch_overhead_series(self) -> List[float]:
        """Per-round pre-fetch overhead values."""
        return [ledger.prefetch_overhead() for ledger in self.rounds]

    def cumulative(self) -> MessageLedger:
        """Sum of every recorded round."""
        total = MessageLedger()
        for ledger in self.rounds:
            total.merge(ledger)
        return total
