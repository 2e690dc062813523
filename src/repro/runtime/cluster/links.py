"""Interchangeable peer-to-peer links: in-process loopback and real TCP.

Every frame a :class:`~repro.runtime.peer.LivePeer` ships leaves through a
*link* chosen by its swarm — the peer itself never knows (or cares) which
implementation carries the frame:

* :class:`LoopbackLink` — the in-process path, hoisted out of
  ``swarm.py``: model latency injected per pair, scenario ``loss_rate``
  applied to data frames, bounded-inbox delivery with credit refunds for
  shed or lost frames.  A one-shard :class:`~repro.runtime.swarm.
  LiveSwarm` uses it for every pair; a cluster shard uses it for
  intra-shard pairs *and* as the local tail of every cross-shard
  delivery, so the delay/loss injection exists exactly once.
* :class:`SocketLink` — one TCP stream to a peer shard, multiplexing
  :class:`~repro.runtime.wire.RoutedFrame` envelopes over the standard
  length-prefixed codec (``asyncio.open_connection`` streams fed through
  :class:`~repro.runtime.wire.FrameDecoder`).  The link is *bounded*
  (an outbound queue past its watermark sheds data frames, refunding
  their credits) and *self-healing*: a dropped connection immediately
  refunds every in-flight DATA credit towards the remote shard
  (``host.on_link_interrupted`` → ``SendWindowSet.reset``), then the
  dialing side redials with backoff while the accepting side waits for
  the redial; a link that stays down past its budget declares the shard
  lost (``host.on_link_lost``) so the survivors reroute around it —
  PR 4's "credits always come home" invariant, extended across a real
  socket drop.

The first frame on every cluster TCP stream is a
:class:`~repro.runtime.wire.ShardHello` carrying the coordinator's run
token and the shared overlay facts; a stream from a different run or a
differently built cluster is rejected before any peer traffic flows.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Protocol, Tuple

from collections import deque

from repro.runtime import wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.swarm import LiveSwarm


class Link(Protocol):
    """What a swarm needs from anything that carries frames to a peer."""

    def send(self, src: int, dst: int, frame: bytes, data: bool = False) -> None:
        """Ship one encoded frame from ``src`` towards ``dst``."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Tear the link down (idempotent)."""
        ...  # pragma: no cover - protocol


_BATCH_KIND = int(wire.WireKind.BATCH)


class LoopbackLink:
    """Delivers frames to peers hosted in this process.

    The single implementation of the runtime's delay/loss injection: the
    pairwise one-way latency of the scenario's
    :class:`~repro.net.latency.LatencyModel` (scaled by ``time_scale``)
    is applied per frame, a configured ``loss_rate`` drops *data* frames
    at random (control traffic never — matching
    :class:`~repro.scenarios.phases.LossyNetworkPhase` semantics), and
    flow-control state always survives a drop: a lost or shed data
    frame's credit flows back to its sender, a shed one-shot control
    frame is applied as if delivered.

    With the host's ``batching`` flag on, frames towards the same
    ``(src, dst, lane)`` that would flush in the same instant coalesce
    into one :class:`~repro.runtime.wire.FrameBatch` delivery: on the
    virtual clock only frames born at the same loop time join a group
    (the batch's deadline is then bit-identical to every member's
    unbatched deadline, keeping parity runs exact); on the wall clock a
    frame joins any still-pending group for its key (bounded early
    delivery — real transports coalesce the same way).  Loss draws stay
    per *logical* frame, before grouping, so the loss stream is
    identical with batching on or off.

    ``host`` is the owning swarm; the link reads its peer table, latency
    model, loss stream and drop counters directly — it is the swarm's
    delivery path, packaged so local and TCP links are interchangeable.
    """

    def __init__(self, host: "LiveSwarm") -> None:
        self.host = host
        #: Pending coalescing groups keyed by ``(src, dst, data)``: the
        #: loop time the group was born at and its frames so far.
        self._groups: Dict[Tuple[int, int, bool], Tuple[float, List[bytes]]] = {}

    def send(self, src: int, dst: int, frame: bytes, data: bool = False) -> None:
        """Ship one frame with link latency (and loss, for data frames)."""
        host = self.host
        is_batch = len(frame) > 4 and frame[4] == _BATCH_KIND
        if data and host.loss_rng is not None and host.spec.loss_rate > 0.0:
            if is_batch:
                # A routed batch from a peer shard: the network loses
                # *inner* frames independently, exactly as if they
                # travelled loose.
                frame = self._lose_from_batch(src, dst, frame)
                if frame is None:
                    return
                is_batch = frame[4] == _BATCH_KIND
            elif host.loss_rng.random() < host.spec.loss_rate:
                host.messages_dropped += 1
                self._refund_lost(src, dst)
                return
        peer = host.peers.get(dst)
        if peer is None or peer.stopped or not peer.node.alive:
            host.messages_dropped += 1
            return
        loop = host.loop
        if host.batching and not is_batch:
            now = loop.time()
            key = (src, dst, data)
            group = self._groups.get(key)
            if group is not None and (group[0] == now or host.clock != "virtual"):
                group[1].append(frame)
                return
            group = self._groups[key] = (now, [frame])
            delivery = (self._flush_group, key, group)
        else:
            delivery = (self._deliver_now, src, dst, frame, data)
        delay = host.manager.latency_ms(src, dst) / 1000.0 * host.time_scale
        loop.call_later(delay, *delivery)

    def _flush_group(
        self, key: Tuple[int, int, bool], group: Tuple[float, List[bytes]]
    ) -> None:
        if self._groups.get(key) is group:
            del self._groups[key]
        src, dst, data = key
        for chunk in wire.encode_batch(group[1]):
            self._deliver_now(src, dst, chunk, data)

    def _deliver_now(self, src: int, dst: int, frame: bytes, data: bool) -> None:
        host = self.host
        count = wire.frame_count(frame)
        peer = host.peers.get(dst)
        if peer is None or peer.stopped or not peer.node.alive:
            host.messages_dropped += count
            return
        host.bytes_on_wire += len(frame)
        flows = host._flows
        if flows is not None:
            # Charged beside bytes_on_wire so the shard-pair matrix
            # reconciles with the physical byte counter by construction.
            flows.record_physical(host.shard_of(src), host.shard_of(dst), len(frame), count)
        if not peer.inbox.put(src, frame, control=not data, weight=count):
            # The bounded lane shed the frame.  Flow-control state must
            # survive the shed either way: a data frame's spent credit
            # comes home (the receiver counts it as consumed), and a shed
            # credit grant is applied as if delivered — otherwise the
            # link's window would wedge permanently short.
            host.messages_dropped += count
            if data:
                peer.note_shed_data(src, count)
            else:
                peer.absorb_shed_control(frame)

    def _lose_from_batch(
        self, src: int, dst: int, frame: bytes
    ) -> Optional[bytes]:
        """Apply per-frame loss inside a routed data batch.

        Returns the (possibly re-batched) survivors, or ``None`` when
        the network ate every inner frame.  Each loss refunds its own
        credit, exactly like a loose frame's loss would.
        """
        host = self.host
        survivors = []
        for inner in wire.decode(frame)[0].frames:
            if host.loss_rng.random() < host.spec.loss_rate:
                host.messages_dropped += 1
                self._refund_lost(src, dst)
            else:
                survivors.append(bytes(inner))
        if not survivors:
            return None
        if len(survivors) == 1:
            return survivors[0]
        return wire.encode(wire.FrameBatch(frames=tuple(survivors)))

    def _refund_lost(self, src: int, dst: int) -> None:
        """Return the credit of a data frame the *network* dropped.

        Loss happens before the receiver exists for this frame, so the
        receiving peer (if still alive) refunds on the network's behalf —
        the loopback stand-in for a transport-level retransmit/ack.
        """
        peer = self.host.peers.get(dst)
        if peer is not None and not peer.stopped and peer.node.alive:
            peer.note_shed_data(src)

    def close(self) -> None:
        """Nothing to tear down: loopback state lives in the peers."""
        self._groups.clear()


@dataclass(frozen=True)
class LinkConfig:
    """Knobs of the cluster's TCP links.

    Attributes:
        queue_limit: max frames queued towards one peer shard awaiting
            the socket; past it *data* frames are shed (their credits
            refunded) while credit grants and handovers — the one-shot
            control state the rest of the transport already refuses to
            lose — are always queued.
        reconnect_attempts: redials the dialing side tries after a drop.
        reconnect_delay_s: base backoff between redials (grows linearly).
        reconnect_grace_s: how long the accepting side waits for the
            dialer to come back before declaring the shard lost.
        handshake_timeout_s: budget for the hello exchange on a fresh
            stream.
    """

    queue_limit: int = 8192
    reconnect_attempts: int = 3
    reconnect_delay_s: float = 0.25
    reconnect_grace_s: float = 2.0
    handshake_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")


#: Inner-frame kind bytes a full socket queue must never shed: losing a
#: credit grant wedges the remote window, losing a handover loses a VoD
#: backup store forever (the sender dies right after shipping it).
_UNSHEDDABLE = (bytes([wire.WireKind.CREDIT]), bytes([wire.WireKind.HANDOVER]))

#: Link lifecycle states.
_CONNECTING, _UP, _DOWN, _DEAD = "connecting", "up", "down", "dead"


class ClusterHost(Protocol):
    """Callbacks a :class:`SocketLink` needs from its owning shard."""

    def receive_routed(self, src: int, dst: int, payload: bytes, data: bool) -> None:
        ...  # pragma: no cover - protocol

    def on_link_interrupted(self, shard: int) -> None:
        ...  # pragma: no cover - protocol

    def on_link_restored(self, shard: int) -> None:
        ...  # pragma: no cover - protocol

    def on_link_lost(self, shard: int) -> None:
        ...  # pragma: no cover - protocol

    def note_undeliverable(self, src: int, dst: int, data: bool) -> None:
        ...  # pragma: no cover - protocol


@dataclass
class SocketLinkStats:
    """One TCP link's counters (merged into the shard's socket summary)."""

    frames_out: int = 0
    frames_in: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    sheds: int = 0
    disconnects: int = 0
    reconnects: int = 0


class SocketLink:
    """One TCP stream to a peer shard, multiplexing routed peer frames.

    The link is created unconnected; the worker's connection machinery
    calls :meth:`attach` once the hello exchange on a fresh stream has
    validated the remote shard (dial side and accept side both land
    here).  ``send`` is synchronous — frames queue in a bounded outbound
    buffer drained by a writer task that honours the kernel's TCP
    backpressure via ``writer.drain()``.
    """

    def __init__(
        self,
        host: ClusterHost,
        shard_index: int,
        config: Optional[LinkConfig] = None,
        dial_address: Optional[Tuple[str, int]] = None,
        hello: Optional[wire.ShardHello] = None,
    ) -> None:
        self.host = host
        self.shard_index = shard_index
        self.config = config if config is not None else LinkConfig()
        #: ``(host, port)`` to redial, or ``None`` on the accepting side.
        self.dial_address = dial_address
        #: The hello this side presents on (re)dial.
        self.hello = hello
        self.stats = SocketLinkStats()
        self.state = _CONNECTING
        #: Coalesce same-pair frames drained in one write-loop pass into
        #: FrameBatch payloads (one RoutedFrame envelope per burst).
        #: Stub hosts in tests carry no flag and default to batching.
        self.batching = bool(getattr(host, "batching", True))
        self._writer: Optional[asyncio.StreamWriter] = None
        self._queue: Deque[Tuple[bytes, int, int, bool]] = deque()
        self._wakeup = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        self._recovery: Optional[asyncio.Task] = None
        self._closing = False

    @property
    def is_up(self) -> bool:
        return self.state == _UP

    # ------------------------------------------------------------------- sending
    def send(self, src: int, dst: int, frame: bytes, data: bool = False) -> None:
        """Queue one peer frame for the remote shard.

        A dead link drops the frame (refunding a data frame's credit via
        the host); a full queue sheds data frames the same way but never
        the one-shot control frames (credits, handovers) whose loss the
        transport cannot repair.  While the link is *down* (recovering),
        only those one-shot frames queue: anything else queued during the
        outage would either go stale or leak its credit — the windows
        towards the remote shard were already reset when the stream
        broke, so a data frame queued now and flushed later would spend a
        credit no receiver accounts for.  Refund immediately instead;
        the requester's NACK/rescue machinery re-pulls what still
        matters once the link heals.
        """
        if self._closing or self.state == _DEAD:
            self.host.note_undeliverable(src, dst, data)
            return
        if self.state == _DOWN and frame[4:5] not in _UNSHEDDABLE:
            self.stats.sheds += 1
            self.host.note_undeliverable(src, dst, data)
            return
        if len(self._queue) >= self.config.queue_limit and frame[4:5] not in _UNSHEDDABLE:
            self.stats.sheds += 1
            self.host.note_undeliverable(src, dst, data)
            return
        self._queue.append((frame, src, dst, data))
        self._wakeup.set()

    #: Headroom a batch chunk leaves under :data:`wire.MAX_FRAME_PAYLOAD`
    #: for the RoutedFrame envelope that will wrap it (flags + ids).
    _ENVELOPE_HEADROOM = 64

    def _drain_envelopes(self) -> List[bytes]:
        """Drain the queue into encoded RoutedFrame envelopes.

        Frames towards the same ``(src, dst, lane)`` drained in one pass
        coalesce into FrameBatch payloads — one envelope per burst
        instead of one per frame — in first-appearance order, so
        per-pair FIFO survives.  With batching off (or a single frame
        per pair) each frame rides its own envelope, byte-identical to
        the unbatched wire format.
        """
        groups: dict = {}
        while self._queue:
            frame, src, dst, data = self._queue.popleft()
            self.stats.frames_out += 1
            groups.setdefault((src, dst, data), []).append(frame)
        envelopes: List[bytes] = []
        limit = wire.MAX_FRAME_PAYLOAD - self._ENVELOPE_HEADROOM
        for (src, dst, data), frames in groups.items():
            chunks = (
                wire.encode_batch(frames, limit=limit) if self.batching else frames
            )
            envelopes.extend(
                wire.encode(
                    wire.RoutedFrame(src=src, dst=dst, payload=chunk, data=data)
                )
                for chunk in chunks
            )
        return envelopes

    async def _write_loop(self) -> None:
        writer = self._writer
        assert writer is not None
        try:
            while True:
                while not self._queue:
                    self._wakeup.clear()
                    await self._wakeup.wait()
                chunk = b"".join(self._drain_envelopes())
                self.stats.bytes_out += len(chunk)
                writer.write(chunk)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            self._handle_disconnect()

    # ----------------------------------------------------------------- receiving
    def _dispatch_incoming(self, msg: wire.WireMessage) -> None:
        if isinstance(msg, wire.RoutedFrame):
            self.stats.frames_in += wire.frame_count(msg.payload)
            self.host.receive_routed(msg.src, msg.dst, msg.payload, msg.data)
        # A late ShardHello (or anything else) is ignored: the handshake
        # happened before attach.

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        decoder: wire.FrameDecoder,
        backlog: Tuple[wire.WireMessage, ...],
    ) -> None:
        try:
            # Frames that coalesced with the handshake reply on the same
            # stream read must be delivered, not dropped — on a mid-run
            # redial the remote side may start routing the instant it
            # attaches.
            for msg in backlog:
                self._dispatch_incoming(msg)
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    self._handle_disconnect()
                    return
                self.stats.bytes_in += len(chunk)
                for msg in decoder.feed(chunk):
                    self._dispatch_incoming(msg)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError, wire.WireError):
            # A poisoned stream is indistinguishable from a broken one.
            self._handle_disconnect()

    # ----------------------------------------------------------------- lifecycle
    def attach(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: Optional[wire.FrameDecoder] = None,
        backlog: Tuple[wire.WireMessage, ...] = (),
    ) -> None:
        """Adopt a freshly handshaken stream (initial connect or redial).

        ``decoder``/``backlog`` carry the handshake's stream state over:
        the decoder holds any partial frame that followed the hello in
        the same read, the backlog any complete ones — both continue on
        the new read loop, so no byte of the stream is ever dropped.
        Frames already queued outbound are *kept*: they are either
        pre-start traffic or the one-shot control frames the down-state
        refuses to shed, and both must flush on the healed stream.
        """
        restored = self.state in (_DOWN,)
        self._teardown_tasks()
        self._writer = writer
        self.state = _UP
        self._wakeup = asyncio.Event()
        if self._queue:
            self._wakeup.set()
        self._tasks = [
            asyncio.create_task(
                self._read_loop(reader, decoder or wire.FrameDecoder(), tuple(backlog))
            ),
            asyncio.create_task(self._write_loop()),
        ]
        if restored:
            self.stats.reconnects += 1
            self.host.on_link_restored(self.shard_index)

    def _teardown_tasks(self) -> None:
        for task in self._tasks:
            if task is not asyncio.current_task():
                task.cancel()
        self._tasks = []
        if self._writer is not None:
            try:
                self._writer.close()
            except RuntimeError:  # pragma: no cover - loop already closing
                pass
            self._writer = None

    def _handle_disconnect(self) -> None:
        """The stream broke: refund in-flight credits, try to recover.

        Every queued frame dies with the connection (that is what a TCP
        reset does to buffered bytes); the host's ``on_link_interrupted``
        resets the local peers' send windows towards the remote shard, so
        credits spent on frames that can no longer be consumed come home
        immediately — the link may heal, but the flow-control state does
        not wait for it.
        """
        if self._closing or self.state != _UP:
            return
        self.state = _DOWN
        self.stats.disconnects += 1
        self._teardown_tasks()
        self._queue.clear()
        self.host.on_link_interrupted(self.shard_index)
        self._recovery = asyncio.create_task(self._recover())

    async def _recover(self) -> None:
        cfg = self.config
        if self.dial_address is not None and self.hello is not None:
            for attempt in range(cfg.reconnect_attempts):
                await asyncio.sleep(cfg.reconnect_delay_s * (attempt + 1))
                if self._closing or self.state != _DOWN:
                    return
                try:
                    reader, writer, decoder, backlog = await dial_shard(
                        self.dial_address,
                        self.hello,
                        expect_shard=self.shard_index,
                        timeout=cfg.handshake_timeout_s,
                    )
                except (ConnectionError, OSError, wire.WireError, asyncio.TimeoutError):
                    continue
                self.attach(reader, writer, decoder, backlog)
                return
        else:
            # Accepting side: the dialer redials on its own schedule; a
            # successful redial re-attaches through the worker's server.
            await asyncio.sleep(cfg.reconnect_grace_s)
            if self._closing or self.state != _DOWN:
                return
        self.state = _DEAD
        self.host.on_link_lost(self.shard_index)

    def close(self) -> None:
        """Final teardown (shutdown barrier): no recovery, no callbacks."""
        self._closing = True
        if self._recovery is not None:
            self._recovery.cancel()
            self._recovery = None
        self._teardown_tasks()
        self._queue.clear()
        self.state = _DEAD


# ================================================================== handshake
async def read_handshake(
    reader: asyncio.StreamReader, timeout: float
) -> Tuple[wire.WireMessage, wire.FrameDecoder, List[wire.WireMessage]]:
    """Read the first wire frame from a fresh stream, preserving the rest.

    Returns ``(first message, decoder, extra messages)``.  The decoder
    holds any partial frame that followed the first one in the same
    read and the extras any complete ones — the caller must hand both to
    :meth:`SocketLink.attach`, because on a mid-run redial the remote
    side may start routing peer frames the instant it attaches, and
    those bytes can coalesce with the hello reply.
    """

    async def _read() -> Tuple[wire.WireMessage, wire.FrameDecoder, List[wire.WireMessage]]:
        decoder = wire.FrameDecoder()
        while True:
            chunk = await reader.read(4096)
            if not chunk:
                raise ConnectionError("stream closed during handshake")
            messages = decoder.feed(chunk)
            if messages:
                return messages[0], decoder, messages[1:]

    return await asyncio.wait_for(_read(), timeout=timeout)


async def dial_shard(
    address: Tuple[str, int],
    hello: wire.ShardHello,
    expect_shard: int,
    timeout: float,
) -> Tuple[
    asyncio.StreamReader,
    asyncio.StreamWriter,
    wire.FrameDecoder,
    List[wire.WireMessage],
]:
    """Open a stream to a peer shard and run the hello exchange.

    Sends our :class:`~repro.runtime.wire.ShardHello`, waits for the
    acceptor's reply, and validates that the far end is the expected
    shard of the same run (token, shard count and ring size all match).
    Returns the stream plus the handshake's residual decoder state and
    any frames that arrived with the reply (pass all of it to
    :meth:`SocketLink.attach`).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*address), timeout=timeout
    )
    try:
        writer.write(wire.encode(hello))
        await writer.drain()
        reply, decoder, extras = await read_handshake(reader, timeout)
        validate_hello(reply, hello, expect_shard=expect_shard)
    except BaseException:
        writer.close()
        raise
    return reader, writer, decoder, extras


def validate_hello(
    msg: wire.WireMessage, ours: wire.ShardHello, expect_shard: Optional[int] = None
) -> wire.ShardHello:
    """Check a received hello against our own run facts.

    Raises :class:`~repro.runtime.wire.WireError` on any mismatch — a
    stream from another run (token), a differently sized cluster or a
    differently built overlay must never carry peer frames.
    """
    if not isinstance(msg, wire.ShardHello):
        raise wire.WireError(f"expected a shard hello, got {type(msg).__name__}")
    if msg.token != ours.token:
        raise wire.WireError("shard hello from a different cluster run (token mismatch)")
    if msg.num_shards != ours.num_shards or msg.ring_size != ours.ring_size:
        raise wire.WireError(
            f"shard hello topology mismatch: {msg.num_shards} shards / ring "
            f"{msg.ring_size} vs ours {ours.num_shards} / {ours.ring_size}"
        )
    if not (0 <= msg.shard_index < msg.num_shards) or msg.shard_index == ours.shard_index:
        raise wire.WireError(f"invalid peer shard index {msg.shard_index}")
    if expect_shard is not None and msg.shard_index != expect_shard:
        raise wire.WireError(
            f"expected shard {expect_shard} on this stream, got {msg.shard_index}"
        )
    return msg
