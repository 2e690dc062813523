"""Bounded, backpressured peer transports for the live runtime.

PR 3's runtime shipped every frame into an *unbounded* ``asyncio.Queue``
per peer.  That can neither deadlock nor drop — but it also means an
overloaded swarm silently buffers without limit, and the throughput
numbers in ``BENCH_runtime.json`` measure a regime no real deployment
allows.  This module replaces that queue with explicit flow control:

* :class:`TransportConfig` — the knobs: the per-peer inbox watermark, the
  per-link DATA credit window and the sender-side pending limit;
* :class:`BoundedInbox` — a two-lane bounded receive queue, drained by a
  callback its owner schedules once per burst.  **Control
  frames (buffer maps, requests, PING/PONG, DHT, credits) ride a priority
  lane** that is always drained before segment data, so the gossip and
  membership planes never starve behind bulk transfer — the classic
  head-of-line separation streaming flow-control analyses call out;
* :class:`TransportStats` / :class:`TransportSummary` — per-peer and
  swarm-wide observability: queue high-watermarks, send stalls, overflow
  drops and credits granted, surfaced through
  :class:`~repro.runtime.swarm.RuntimeResult` and the runtime CLI.

The credit protocol itself lives in :mod:`repro.runtime.peer`: a sender
may have at most ``data_window`` unconsumed :class:`~repro.runtime.wire.
SegmentData` frames outstanding per link; the receiver returns credits in
batches with :class:`~repro.runtime.wire.CreditGrant` control frames as it
consumes (or sheds) data.  A sender out of credit queues the segment in a
*bounded* per-link pending buffer instead of flooding the wire — so every
queue in the system has a configurable ceiling and an overflow policy,
and total buffered frames are bounded regardless of swarm size or load.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Tuple


@dataclass(frozen=True)
class TransportConfig:
    """Flow-control knobs of the runtime's peer transports.

    Attributes:
        inbox_watermark: max frames queued per inbox *lane* (control and
            data each); an arriving frame finding its lane full is shed
            and counted, never buffered without bound.
        data_window: per-link credit window — the max un-consumed
            ``SegmentData`` frames a sender may have outstanding towards
            one receiver before it must wait for a ``CreditGrant``.
        pending_limit: max segments a sender queues per link while waiting
            for credit; beyond it the oldest pending segment is shed (the
            requester's NACK/rescue machinery re-requests if it still
            matters).
    """

    inbox_watermark: int = 512
    data_window: int = 16
    pending_limit: int = 64

    def __post_init__(self) -> None:
        if self.inbox_watermark < 1:
            raise ValueError("inbox_watermark must be >= 1")
        if self.data_window < 1:
            raise ValueError("data_window must be >= 1")
        if self.pending_limit < 1:
            raise ValueError("pending_limit must be >= 1")

    @property
    def credit_batch(self) -> int:
        """Consumed frames per :class:`~repro.runtime.wire.CreditGrant`.

        Half the window: small enough that the sender's pipeline never
        drains dry waiting for the first grant, large enough that credit
        traffic stays a small fraction of data traffic.
        """
        return max(1, self.data_window // 2)


@dataclass
class TransportStats:
    """One peer's transport counters (collected into the run summary)."""

    #: Peak total frames queued in the inbox (both lanes) at once.
    inbox_high_watermark: int = 0
    #: Data frames shed because the inbox data lane was full.
    inbox_dropped_data: int = 0
    #: Control frames shed because the inbox control lane was full.
    inbox_dropped_control: int = 0
    #: Times a segment send had to queue for lack of link credit.
    send_stalls: int = 0
    #: Segments shed from a full sender-side pending queue.
    pending_shed: int = 0
    #: Peak segments queued towards a single link awaiting credit.
    pending_high_watermark: int = 0
    #: CreditGrant frames this peer issued to its senders.
    credits_granted: int = 0
    #: Credit-gated links forcibly reset (peer departures and cluster
    #: socket drops) — each reset refunds the link's in-flight credits.
    link_resets: int = 0
    #: Physical bytes of buffer-map gossip this peer sent (full maps and
    #: deltas, as actually encoded).
    gossip_bytes: int = 0
    #: What the same gossip would have cost had every map shipped full —
    #: the baseline the delta savings are measured against.
    gossip_bytes_full: int = 0
    #: Buffer maps this peer shipped as deltas / as full maps.
    map_deltas_sent: int = 0
    map_fulls_sent: int = 0
    #: Incoming deltas dropped for a missing or out-of-sequence base map
    #: (each triggers a PING resync towards the sender).
    map_desyncs: int = 0


@dataclass(frozen=True)
class TransportSummary:
    """Swarm-wide aggregate of every peer's :class:`TransportStats`.

    Sums across peers, except the high-watermarks which take the max —
    "the fullest any queue ever got" is the capacity-planning number.
    """

    inbox_high_watermark: int = 0
    inbox_dropped_data: int = 0
    inbox_dropped_control: int = 0
    send_stalls: int = 0
    pending_shed: int = 0
    pending_high_watermark: int = 0
    credits_granted: int = 0
    link_resets: int = 0
    gossip_bytes: int = 0
    gossip_bytes_full: int = 0
    map_deltas_sent: int = 0
    map_fulls_sent: int = 0
    map_desyncs: int = 0

    #: Fields aggregated as maxima rather than sums (peak queue depths).
    _MAX_FIELDS = frozenset({"inbox_high_watermark", "pending_high_watermark"})

    @classmethod
    def aggregate(cls, stats: Iterable[TransportStats]) -> "TransportSummary":
        values = {f.name: 0 for f in dataclasses.fields(cls)}
        for entry in stats:
            for name in values:
                if name in cls._MAX_FIELDS:
                    values[name] = max(values[name], getattr(entry, name))
                else:
                    values[name] += getattr(entry, name)
        return cls(**values)

    def to_dict(self) -> Dict[str, int]:
        """Flat dict form (for summaries and benchmark artifacts)."""
        return dataclasses.asdict(self)

    def formatted(self) -> str:
        """One human-readable line (the runtime CLI's transport row)."""
        return (
            f"inbox high-watermark {self.inbox_high_watermark}, "
            f"send stalls {self.send_stalls}, "
            f"shed {self.inbox_dropped_data}+{self.pending_shed} data / "
            f"{self.inbox_dropped_control} control, "
            f"credits granted {self.credits_granted}, "
            f"map desyncs {self.map_desyncs}"
        )


class BoundedInbox:
    """A bounded, two-lane receive queue with control priority.

    Frames arrive tagged ``control`` or ``data``; :meth:`take_batch`
    always drains the control lane first, so buffer maps, credits and
    membership probes cross the swarm even when bulk segment data has
    filled the data lane.  Each lane holds at most ``watermark`` frames —
    an arriving frame finding its lane full is *shed* (``put`` returns
    ``False``) rather than queued, which together with the sender-side
    credit window bounds the whole swarm's buffered memory.

    The consumer is a callback, not a task: the owner binds ``on_ready``
    (:meth:`bind_ready`) and :meth:`put` calls it once per burst — when a
    frame is queued and no drain is pending — so the owner can schedule
    one ``loop.call_soon`` drain that empties the inbox with
    :meth:`take_batch`.  Frames landing while that drain is pending ride
    along with it; the next burst after the drain fires the callback
    again.
    """

    def __init__(self, watermark: int, stats: TransportStats) -> None:
        if watermark < 1:
            raise ValueError("watermark must be >= 1")
        self.watermark = watermark
        self.stats = stats
        #: (sender id, frame bytes, weight) per lane.  The weight is the
        #: number of logical frames the entry carries (> 1 for a
        #: :class:`~repro.runtime.wire.FrameBatch`), so a batched burst
        #: counts against the watermark exactly like its loose frames.
        self._control: Deque[Tuple[int, bytes, int]] = deque()
        self._data: Deque[Tuple[int, bytes, int]] = deque()
        self._control_depth = 0
        self._data_depth = 0
        self._on_ready: Optional[Callable[[], Any]] = None
        #: ``on_ready`` has fired and :meth:`take_batch` has not run yet.
        self._drain_pending = False

    def __len__(self) -> int:
        return self._control_depth + self._data_depth

    def bind_ready(self, on_ready: Callable[[], Any]) -> None:
        """Install the burst callback (fired at once if frames already wait)."""
        self._on_ready = on_ready
        if len(self) and not self._drain_pending:
            self._drain_pending = True
            on_ready()

    def put(self, src: int, frame: bytes, control: bool, weight: int = 1) -> bool:
        """Enqueue one frame; returns ``False`` if the lane shed it.

        ``weight`` is the logical frame count of the entry (a batch of
        *k* frames fills *k* watermark slots).
        """
        stats = self.stats
        if control:
            if self._control_depth >= self.watermark:
                stats.inbox_dropped_control += weight
                return False
            self._control.append((src, frame, weight))
            self._control_depth += weight
        else:
            if self._data_depth >= self.watermark:
                stats.inbox_dropped_data += weight
                return False
            self._data.append((src, frame, weight))
            self._data_depth += weight
        depth = self._control_depth + self._data_depth
        if depth > stats.inbox_high_watermark:
            stats.inbox_high_watermark = depth
        if not self._drain_pending and self._on_ready is not None:
            self._drain_pending = True
            self._on_ready()
        return True

    def take_batch(self) -> "list[Tuple[int, bytes, bool]]":
        """Dequeue everything queued right now as ``(src, frame,
        was_control)``, control lane first, and re-arm ``on_ready``."""
        self._drain_pending = False
        batch = [(src, frame, True) for src, frame, _ in self._control]
        self._control.clear()
        self._control_depth = 0
        batch.extend((src, frame, False) for src, frame, _ in self._data)
        self._data.clear()
        self._data_depth = 0
        return batch


class CreditedLink:
    """Sender-side state of one credit-gated link (towards one receiver)."""

    __slots__ = ("credits", "pending")

    def __init__(self, window: int) -> None:
        self.credits = window
        self.pending: Deque[Any] = deque()


class SendWindowSet:
    """Every credit-gated outbound link of one peer.

    The gate only applies to segment data; control frames always pass.
    ``acquire`` spends a credit (or queues the item), ``grant`` returns
    credits and releases queued items in FIFO order.  Items are opaque to
    the window (the peer queues ``(frame, ledger entry)`` pairs so shed
    segments are never charged to the traffic ledger).
    """

    def __init__(self, config: TransportConfig, stats: TransportStats) -> None:
        self.config = config
        self.stats = stats
        self._links: Dict[int, CreditedLink] = {}

    def link(self, dst: int) -> CreditedLink:
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = CreditedLink(self.config.data_window)
        return link

    def acquire(self, dst: int, item: Any) -> bool:
        """Try to spend one credit towards ``dst``.

        Returns ``True`` when the item may ship now.  Otherwise the item
        is queued (bounded; the oldest pending item is shed past
        ``pending_limit``) and ``False`` is returned — the caller must not
        send it; :meth:`grant` will release it later.
        """
        link = self.link(dst)
        if link.credits > 0 and not link.pending:
            link.credits -= 1
            return True
        self.stats.send_stalls += 1
        if len(link.pending) >= self.config.pending_limit:
            link.pending.popleft()
            self.stats.pending_shed += 1
        link.pending.append(item)
        if len(link.pending) > self.stats.pending_high_watermark:
            self.stats.pending_high_watermark = len(link.pending)
        return False

    def grant(self, dst: int, credits: int) -> "list[Any]":
        """Credit ``dst``'s link and return the pending items now clear
        to ship (already debited).

        Incoming credits release pending items one-for-one first; only
        the residual tops the free window back up (capped there), so a
        grant larger than the free window never loses credits to the cap
        while items are waiting.
        """
        link = self.link(dst)
        released: list[Any] = []
        while credits > 0 and link.pending:
            credits -= 1
            released.append(link.pending.popleft())
        link.credits = min(self.config.data_window, link.credits + credits)
        return released

    def reset(self, dst: int) -> None:
        """Forget the link to ``dst`` entirely (fresh window on next use).

        Called when ``dst`` leaves the swarm — or, in the cluster runtime,
        when the socket link to ``dst``'s shard drops: credits spent on
        frames the network dropped at the dead peer (or lost with the
        connection) can never be granted back, and a joiner later admitted
        under a recycled ring id must meet a full window, not the corpse's
        exhausted one.  Counted in ``stats.link_resets`` when flow-control
        state actually existed.
        """
        if self._links.pop(dst, None) is not None:
            self.stats.link_resets += 1

    def pending_count(self) -> int:
        """Total frames queued across links (for tests/diagnostics)."""
        return sum(len(link.pending) for link in self._links.values())


@dataclass
class CreditLedger:
    """Receiver-side tally of consumed-but-not-yet-granted data frames."""

    batch: int
    owed: Dict[int, int] = field(default_factory=dict)

    def consume(self, src: int) -> bool:
        """Count one consumed/shed data frame from ``src``; ``True`` when
        a grant is due (owed reached the batch size)."""
        owed = self.owed.get(src, 0) + 1
        self.owed[src] = owed
        return owed >= self.batch

    def take(self, src: int) -> int:
        """Collect (and reset) the credits owed to ``src``."""
        return self.owed.pop(src, 0)

    def drain(self) -> Dict[int, int]:
        """Collect (and reset) every non-zero owed balance."""
        owed, self.owed = self.owed, {}
        return owed
