"""The live runtime's length-prefixed binary wire protocol.

Every message the simulated protocol vocabulary knows — buffer-map
exchanges, segment transfers, DHT routing/lookup traffic, membership
PING/PONG and the graceful-leave backup handover — has a binary frame:

``[u32 length][u8 kind][body]``

with the 4-byte big-endian ``length`` covering the kind byte and the body.
Peers exchange these frames over in-process loopback transports (see
:mod:`repro.runtime.swarm`); nothing in the codec assumes loopback, so the
same frames can later travel over real sockets.

Two sizes exist per message and must not be confused:

* the **physical frame size** (``len(encode(msg))``) — an implementation
  detail of this codec, used only to move bytes;
* the **accounted size** (:func:`ledger_entry`) — the paper's Section 5.4
  costs from :mod:`repro.net.message` (a buffer map costs ``B`` bits plus
  the 20-bit anchor, a DHT routing message 80 bits, a PING 80 bits, a data
  segment its payload bits), which is what the
  :class:`~repro.runtime.message.MessageLedger` records so the control- and
  pre-fetch-overhead metrics stay exactly as defined.

The fast path leans on that separation: :class:`FrameBatch` coalesces many
frames into one length-prefixed write without being charged itself, and
:class:`BufferMapDelta` ships a buffer map as changed-bit runs against the
sender's previous snapshot while the ledger still charges the full
``capacity + 20`` bits — physical bytes shrink, paper accounting does not
move.  Encoding packs each frame's length prefix, kind byte and fixed
header with one precompiled :class:`struct.Struct`; decoding operates on
``memoryview`` slices of the receive buffer so steady-state decode performs
no intermediate payload copies.

Segment payloads are synthetic (the reproduction never ships real media),
so a :class:`SegmentData` frame carries the declared payload size instead
of the payload bytes; the ledger charges the declared size.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Callable, Container, Dict, List, Optional, Sequence, Tuple, Union

from repro.net.message import (
    PING_MESSAGE_BITS,
    ROUTING_MESSAGE_BITS,
    MessageKind,
)
from repro.streaming.buffermap import BufferMap, buffer_map_bits

#: Upper bound on one frame's payload (kind byte + body).  Generously above
#: the largest legal single message (a full 600-slot buffer map is ~90
#: bytes); a bigger length prefix means a corrupt or hostile stream.  Frame
#: batches are split by :func:`encode_batch` to stay under it.
MAX_FRAME_PAYLOAD = 1 << 16

#: Struct of the frame header: payload length (kind byte + body).
_LEN = struct.Struct(">I")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

_U32_MAX = 0xFFFF_FFFF
_U16_MAX = 0xFFFF


class WireError(ValueError):
    """Malformed frame: unknown kind, bad length, out-of-range field."""


class TruncatedFrameError(WireError):
    """The buffer ends before the frame does (wait for more bytes)."""


class WireKind(IntEnum):
    """On-the-wire message kinds (the u8 tag after the length prefix)."""

    BUFFER_MAP = 1
    SEGMENT_REQUEST = 2
    SEGMENT_DATA = 3
    DHT_LOOKUP = 4
    DHT_RESPONSE = 5
    PING = 6
    PONG = 7
    HANDOVER = 8
    SEGMENT_NACK = 9
    CREDIT = 10
    SHARD_HELLO = 11
    ROUTE = 12
    BATCH = 13
    MAP_DELTA = 14
    TELEMETRY = 15


# ===================================================================== messages
#
# Messages are values — nothing mutates one after construction — but they
# are slotted rather than frozen dataclasses: a frozen ``__init__`` stores
# every field through ``object.__setattr__``, and the runtime builds ~3.5
# messages per frame it moves.  Equality is by class and field values, so
# ``Ping(1, 0) != Pong(1, 0)``.
@dataclass(slots=True)
class BufferMapMsg:
    """Periodic buffer-map gossip: window anchor + packed availability bits.

    ``newest_id`` piggybacks the sender's view of the stream's live edge, so
    knowledge of the newest generated segment diffuses with the gossip
    instead of needing a global oracle (``-1`` = no segment seen yet).

    ``seq`` numbers the sender's gossip snapshots so a later
    :class:`BufferMapDelta` can chain off this full map: a delta with
    ``seq = s`` applies to the snapshot advertised with ``seq = s - 1``.
    """

    sender: int
    newest_id: int
    head_id: int
    capacity: int
    bitmap: bytes
    seq: int = 0

    def buffer_map(self) -> BufferMap:
        """Decode the packed bits back into a :class:`BufferMap` snapshot."""
        return BufferMap.from_bytes(self.head_id, self.capacity, self.bitmap)

    @classmethod
    def from_buffer_map(
        cls, sender: int, newest_id: int, bm: BufferMap, seq: int = 0
    ) -> "BufferMapMsg":
        return cls(
            sender=sender,
            newest_id=newest_id,
            head_id=bm.head_id,
            capacity=bm.capacity,
            bitmap=bm.to_bytes(),
            seq=seq,
        )


@dataclass(slots=True)
class BufferMapDelta:
    """Incremental buffer-map gossip: changed-bit runs against a base map.

    ``runs`` is an ascending, disjoint tuple of ``(offset, length)`` pairs —
    offsets are relative to ``head_id`` — whose bits *toggled* between the
    sender's previous snapshot (``seq - 1``) and this one (``seq``).  The
    receiver rebuilds the new map with :meth:`apply`; a receiver whose
    stored snapshot is not at ``seq - 1`` must discard the delta and ask
    for a full map (the runtime pings the sender, whose PING handler
    replies with its current full snapshot).

    Bits of the base map that scrolled out of the new ``[head_id,
    head_id + capacity)`` window are dropped implicitly on both sides —
    runs never reference them.
    """

    sender: int
    seq: int
    newest_id: int
    head_id: int
    capacity: int
    runs: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_maps(
        cls,
        sender: int,
        seq: int,
        newest_id: int,
        new: BufferMap,
        base: BufferMap,
    ) -> "BufferMapDelta":
        """Delta carrying the toggles that turn ``base`` into ``new``."""
        head = new.head_id
        tail = head + new.capacity
        new_in = {s for s in new.present if head <= s < tail}
        base_in = {s for s in base.present if head <= s < tail}
        runs: List[Tuple[int, int]] = []
        run_start = run_end = -1
        for sid in sorted(new_in ^ base_in):
            offset = sid - head
            if offset == run_end:
                run_end += 1
            else:
                if run_start >= 0:
                    runs.append((run_start, run_end - run_start))
                run_start, run_end = offset, offset + 1
        if run_start >= 0:
            runs.append((run_start, run_end - run_start))
        return cls(
            sender=sender,
            seq=seq,
            newest_id=newest_id,
            head_id=head,
            capacity=new.capacity,
            runs=tuple(runs),
        )

    def apply(self, base: BufferMap) -> BufferMap:
        """Rebuild the sender's new map from the receiver's stored ``base``."""
        head = self.head_id
        present = set(base.present)
        present.intersection_update(range(head, head + self.capacity))
        for offset, length in self.runs:
            first = head + offset
            present.symmetric_difference_update(range(first, first + length))
        return BufferMap(head, self.capacity, frozenset(present))


@dataclass(slots=True)
class SegmentRequest:
    """Pull request for one segment (``prefetch`` = on-demand path).

    ``trace_id`` is the observability plane's sampled journey id
    (:mod:`repro.obs`): when non-zero it rides the frame as an 8-byte
    tail behind flag bit 1 and is echoed by the supplier's
    :class:`SegmentData`/:class:`SegmentNack` reply.  A zero trace id
    encodes byte-identically to a pre-obs frame, and the tail is
    physical-only — :func:`ledger_entry` never charges it.
    """

    sender: int
    segment_id: int
    prefetch: bool = False
    trace_id: int = 0


@dataclass(slots=True)
class SegmentData:
    """One delivered segment; the payload is represented by its size."""

    sender: int
    segment_id: int
    size_bits: int
    prefetch: bool = False
    trace_id: int = 0


@dataclass(slots=True)
class SegmentNack:
    """Refusal of a :class:`SegmentRequest` (uplink saturated or no data).

    Lets the requester retry with a fallback supplier inside the same
    period — the wire analogue of the simulator's within-round rerouting
    when the chosen uplink's per-period budget is spent.
    """

    sender: int
    segment_id: int
    prefetch: bool = False
    trace_id: int = 0


@dataclass(slots=True)
class DhtLookup:
    """A DHT routing message walking greedily towards ``target_key``.

    ``path`` accumulates the nodes visited so far (the origin first), which
    both terminates routing loops and feeds the overhearing-based peer-table
    maintenance at every hop.
    """

    origin: int
    target_key: int
    segment_id: int
    path: Tuple[int, ...]


@dataclass(slots=True)
class DhtResponse:
    """The terminal node's reply, sent directly back to the lookup origin."""

    responder: int
    origin: int
    target_key: int
    segment_id: int
    has_data: bool
    rate: float
    path: Tuple[int, ...]


@dataclass(slots=True)
class Ping:
    """Membership probe (join-time neighbour contact)."""

    sender: int
    nonce: int = 0


@dataclass(slots=True)
class Pong:
    """Reply to a :class:`Ping` (echoes the nonce)."""

    sender: int
    nonce: int = 0


@dataclass(slots=True)
class Handover:
    """Graceful-leave handover of a VoD backup store to the successor."""

    sender: int
    segment_bits: int
    segment_ids: Tuple[int, ...]


@dataclass(slots=True)
class CreditGrant:
    """Flow-control credit return: the receiver has consumed ``credits``
    data frames from this link, the sender may put that many more in
    flight (see :mod:`repro.runtime.transport`).

    Rides the control lane so a saturated data path can never starve the
    very frames that would un-saturate it.
    """

    sender: int
    credits: int


@dataclass(slots=True)
class ShardHello:
    """Shard-to-shard handshake, the first frame on a cluster TCP stream.

    Identifies the dialing (and, in the reply, the accepting) shard and
    carries enough shared-construction facts — shard count, ring size and
    the coordinator's per-run ``token`` — for the acceptor to reject a
    stream from a different run or a differently built cluster before any
    peer traffic flows (see :mod:`repro.runtime.cluster`).
    """

    shard_index: int
    num_shards: int
    token: int
    ring_size: int


@dataclass(slots=True)
class RoutedFrame:
    """One peer-to-peer frame in transit between shards.

    ``payload`` is the complete encoded inner frame (length prefix
    included), opaque to the carrying link: the receiving shard drops it
    straight into the destination peer's inbox, so a peer never knows
    whether its partner's frame crossed a socket or stayed in-process.
    ``data`` tags the inbox lane exactly like the loopback transport's
    ``data`` flag (segment data vs control priority).

    On the wire, ``src`` is elided whenever the inner frame's first body
    field already spells it (every peer frame leads with its sender id
    except forwarded DHT hops) — the codec detects the match at encode
    time, sets a flag bit and re-reads the id from the payload on decode,
    saving four bytes on the vast majority of routed traffic.
    """

    src: int
    dst: int
    payload: bytes
    data: bool = False


@dataclass(slots=True)
class FrameBatch:
    """Several complete frames coalesced into one physical frame.

    ``frames`` holds fully encoded frames (length prefix included); on the
    wire each entry is re-framed with a two-byte length, so a batch of *n*
    frames costs ``7 + sum(len(frame) - 2)`` bytes — cheaper than the loose
    frames from the second entry on.  Batches must not nest (encode and
    decode both reject an inner ``BATCH`` kind), and the envelope itself is
    never ledger-charged: inner frames were charged at their origin,
    exactly like :class:`RoutedFrame` payloads.
    """

    frames: Tuple[bytes, ...]


@dataclass(slots=True)
class TelemetryFrame:
    """One shard's live-telemetry push (observability plane, uncharged).

    ``payload`` is an opaque UTF-8 JSON body — incremental metric
    counters, gauge levels, per-period continuity and flight-recorder
    deltas (see ``docs/observability.md`` → *Live telemetry & SLOs*).
    The codec does not interpret it: the schema belongs to the obs
    plane and may grow without a wire change.  Telemetry frames ride
    the cluster control seam from each :class:`ShardWorker` to the
    coordinator's :class:`~repro.obs.health.HealthEngine`; like every
    observability byte they are physical-only and never touch the
    paper-facing ledger (:func:`ledger_entry` returns ``None``).
    """

    shard: int
    period: int
    payload: bytes

    def body(self) -> dict:
        """Decode the JSON payload (the telemetry frame body dict)."""
        return json.loads(self.payload.decode("utf-8"))

    @classmethod
    def from_body(cls, shard: int, period: int, body: dict) -> "TelemetryFrame":
        return cls(
            shard=shard,
            period=period,
            payload=json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8"),
        )


WireMessage = Union[
    BufferMapMsg,
    BufferMapDelta,
    SegmentRequest,
    SegmentData,
    SegmentNack,
    DhtLookup,
    DhtResponse,
    Ping,
    Pong,
    Handover,
    CreditGrant,
    ShardHello,
    RoutedFrame,
    FrameBatch,
    TelemetryFrame,
]


# ====================================================================== encoding
#
# One precompiled Struct per kind packs the length prefix, kind byte and
# fixed header in a single call; out-of-range fields surface as
# ``struct.error``, which :func:`encode` re-raises as :class:`WireError`
# (one translation for every kind).  Variable tails
# (bitmaps, paths, batch entries) are appended with cached per-count
# Structs (:func:`_ids_struct` / :func:`_u16s_struct`).

_BM_FRAME = struct.Struct(">IBIiIHI")  # len, kind, sender, newest, head, cap, seq
_BM_BODY = struct.Struct(">IiIHI")
_MD_FRAME = struct.Struct(">IBIIiIHH")  # len, kind, sender, seq, newest, head, cap, n
_MD_BODY = struct.Struct(">IIiIHH")
_REQ_FRAME = struct.Struct(">IBIIB")  # len, kind, sender, segment, flags
_REQ_BODY = struct.Struct(">IIB")
_DATA_FRAME = struct.Struct(">IBIIIB")
_DATA_BODY = struct.Struct(">IIIB")
#: Optional 8-byte trace-id tail on segment request/data/nack frames
#: (flag bit 1).  Physical-only: absent when the trace id is zero, never
#: ledger-charged (:mod:`repro.obs` segment-journey tracing).
_TRACE_TAIL = struct.Struct(">Q")
_TRACED_FLAG = 0x2
_LOOKUP_FRAME = struct.Struct(">IBIIIH")
_LOOKUP_BODY = struct.Struct(">IIIH")
_RESP_FRAME = struct.Struct(">IBIIIIBfH")
_RESP_BODY = struct.Struct(">IIIIBfH")
_PINGPONG_FRAME = struct.Struct(">IBII")
_PINGPONG_BODY = struct.Struct(">II")
_HANDOVER_FRAME = struct.Struct(">IBIIH")
_HANDOVER_BODY = struct.Struct(">IIH")
_CREDIT_FRAME = struct.Struct(">IBIH")
_CREDIT_BODY = struct.Struct(">IH")
_HELLO_FRAME = struct.Struct(">IBHHII")
_HELLO_BODY = struct.Struct(">HHII")
_ROUTE_FRAME = struct.Struct(">IBBII")  # len, kind, flags, src, dst
_ROUTE_E_FRAME = struct.Struct(">IBBI")  # len, kind, flags, dst (src in payload)
_ROUTE_IDS = struct.Struct(">II")
_BATCH_FRAME = struct.Struct(">IBH")  # len, kind, count
_TELEM_FRAME = struct.Struct(">IBHI")  # len, kind, shard, period
_TELEM_BODY = struct.Struct(">HI")

#: RoutedFrame flag bits.
_RF_DATA = 0x01
_RF_SRC_ELIDED = 0x02


@lru_cache(maxsize=512)
def _ids_struct(count: int) -> struct.Struct:
    """Cached ``>{count}I`` Struct (paths, handover id lists)."""
    return struct.Struct(f">{count}I")


@lru_cache(maxsize=512)
def _u16s_struct(count: int) -> struct.Struct:
    """Cached ``>{count}H`` Struct (delta run pairs)."""
    return struct.Struct(f">{count}H")


def _check_runs(runs: Tuple[Tuple[int, int], ...], capacity: int) -> None:
    """Runs must be ascending, disjoint, non-empty and inside the window."""
    prev_end = 0
    for start, length in runs:
        if length < 1:
            raise WireError("delta run length must be >= 1")
        if start < prev_end:
            raise WireError("delta runs must be ascending and disjoint")
        prev_end = start + length
    if prev_end > capacity:
        raise WireError(
            f"delta run ends at offset {prev_end}, past capacity {capacity}"
        )


def _enc_buffer_map(msg: BufferMapMsg) -> bytes:
    if not (-1 <= msg.newest_id <= 0x7FFF_FFFF):
        raise WireError(f"newest_id out of range: {msg.newest_id}")
    if msg.capacity < 1:
        raise WireError("capacity must be >= 1")
    nbytes = (msg.capacity + 7) // 8
    if len(msg.bitmap) != nbytes:
        raise WireError(
            f"bitmap of capacity {msg.capacity} needs {nbytes} bytes, "
            f"got {len(msg.bitmap)}"
        )
    head = _BM_FRAME.pack(
        1 + _BM_BODY.size + nbytes,
        WireKind.BUFFER_MAP,
        msg.sender,
        msg.newest_id,
        msg.head_id,
        msg.capacity,
        msg.seq,
    )
    return head + msg.bitmap


def _enc_map_delta(msg: BufferMapDelta) -> bytes:
    if not (-1 <= msg.newest_id <= 0x7FFF_FFFF):
        raise WireError(f"newest_id out of range: {msg.newest_id}")
    if msg.capacity < 1:
        raise WireError("capacity must be >= 1")
    _check_runs(msg.runs, msg.capacity)
    flat: List[int] = []
    for start, length in msg.runs:
        flat.append(start)
        flat.append(length)
    head = _MD_FRAME.pack(
        1 + _MD_BODY.size + 4 * len(msg.runs),
        WireKind.MAP_DELTA,
        msg.sender,
        msg.seq,
        msg.newest_id,
        msg.head_id,
        msg.capacity,
        len(msg.runs),
    )
    return head + _u16s_struct(len(flat)).pack(*flat)


def _pull_encoder(kind: WireKind) -> Callable[..., bytes]:
    """Encoder of a request-shaped frame (``SegmentRequest`` / ``SegmentNack``)."""

    def encode_pull(msg: Union[SegmentRequest, SegmentNack]) -> bytes:
        if not msg.trace_id:
            return _REQ_FRAME.pack(
                1 + _REQ_BODY.size, kind, msg.sender, msg.segment_id, 1 if msg.prefetch else 0
            )
        head = _REQ_FRAME.pack(
            1 + _REQ_BODY.size + _TRACE_TAIL.size,
            kind,
            msg.sender,
            msg.segment_id,
            (1 if msg.prefetch else 0) | _TRACED_FLAG,
        )
        return head + _TRACE_TAIL.pack(msg.trace_id)

    return encode_pull


def _enc_data(msg: SegmentData) -> bytes:
    if not msg.trace_id:
        return _DATA_FRAME.pack(
            1 + _DATA_BODY.size,
            WireKind.SEGMENT_DATA,
            msg.sender,
            msg.segment_id,
            msg.size_bits,
            1 if msg.prefetch else 0,
        )
    head = _DATA_FRAME.pack(
        1 + _DATA_BODY.size + _TRACE_TAIL.size,
        WireKind.SEGMENT_DATA,
        msg.sender,
        msg.segment_id,
        msg.size_bits,
        (1 if msg.prefetch else 0) | _TRACED_FLAG,
    )
    return head + _TRACE_TAIL.pack(msg.trace_id)


def _enc_lookup(msg: DhtLookup) -> bytes:
    count = len(msg.path)
    head = _LOOKUP_FRAME.pack(
        1 + _LOOKUP_BODY.size + 4 * count,
        WireKind.DHT_LOOKUP,
        msg.origin,
        msg.target_key,
        msg.segment_id,
        count,
    )
    return head + _ids_struct(count).pack(*msg.path)


def _enc_response(msg: DhtResponse) -> bytes:
    count = len(msg.path)
    head = _RESP_FRAME.pack(
        1 + _RESP_BODY.size + 4 * count,
        WireKind.DHT_RESPONSE,
        msg.responder,
        msg.origin,
        msg.target_key,
        msg.segment_id,
        1 if msg.has_data else 0,
        float(msg.rate),
        count,
    )
    return head + _ids_struct(count).pack(*msg.path)


def _probe_encoder(kind: WireKind) -> Callable[..., bytes]:
    def encode_probe(msg: Union[Ping, Pong]) -> bytes:
        return _PINGPONG_FRAME.pack(1 + _PINGPONG_BODY.size, kind, msg.sender, msg.nonce)

    return encode_probe


def _enc_handover(msg: Handover) -> bytes:
    count = len(msg.segment_ids)
    head = _HANDOVER_FRAME.pack(
        1 + _HANDOVER_BODY.size + 4 * count,
        WireKind.HANDOVER,
        msg.sender,
        msg.segment_bits,
        count,
    )
    return head + _ids_struct(count).pack(*msg.segment_ids)


def _enc_credit(msg: CreditGrant) -> bytes:
    if msg.credits < 1:
        raise WireError(f"credit grant must carry >= 1 credit, got {msg.credits}")
    return _CREDIT_FRAME.pack(
        1 + _CREDIT_BODY.size, WireKind.CREDIT, msg.sender, msg.credits
    )


def _enc_hello(msg: ShardHello) -> bytes:
    if msg.num_shards < 1:
        raise WireError(f"num_shards must be >= 1, got {msg.num_shards}")
    return _HELLO_FRAME.pack(
        1 + _HELLO_BODY.size,
        WireKind.SHARD_HELLO,
        msg.shard_index,
        msg.num_shards,
        msg.token,
        msg.ring_size,
    )


def _enc_route(msg: RoutedFrame) -> bytes:
    payload = msg.payload
    flags = _RF_DATA if msg.data else 0
    if len(payload) >= 9 and payload[5:9] == _U32.pack(msg.src):
        head = _ROUTE_E_FRAME.pack(
            6 + len(payload), WireKind.ROUTE, flags | _RF_SRC_ELIDED, msg.dst
        )
    else:
        head = _ROUTE_FRAME.pack(
            10 + len(payload), WireKind.ROUTE, flags, msg.src, msg.dst
        )
    return head + payload


def _pack_batch(frames: Sequence[bytes]) -> bytes:
    """One BATCH frame around already-encoded ``frames`` (each validated)."""
    if not frames:
        raise WireError("a frame batch must hold at least one frame")
    length = 3  # kind byte counted by the prefix + u16 count
    parts: List[bytes] = []
    for frame in frames:
        payload_len = len(frame) - _LEN.size
        if payload_len < 1:
            raise WireError("batch entry is not a complete frame")
        if _LEN.unpack_from(frame, 0)[0] != payload_len:
            raise WireError("batch entry length prefix mismatch")
        if frame[4] == WireKind.BATCH:
            raise WireError("frame batches must not nest")
        if payload_len > _U16_MAX:
            raise WireError(f"batch entry too large: {payload_len}")
        # The entry's u16 length is the low half of the frame's own u32
        # prefix (just checked equal, and <= 0xFFFF): one slice, no repack.
        parts.append(frame[2:])
        length += 2 + payload_len
    try:
        head = _BATCH_FRAME.pack(length, WireKind.BATCH, len(frames))
    except struct.error as exc:
        raise WireError(f"too many frames in one batch: {len(frames)}") from exc
    if length > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload too large: {length}")
    return head + b"".join(parts)


def _enc_batch(msg: FrameBatch) -> bytes:
    return _pack_batch(msg.frames)


def _enc_telemetry(msg: TelemetryFrame) -> bytes:
    head = _TELEM_FRAME.pack(
        1 + _TELEM_BODY.size + len(msg.payload),
        WireKind.TELEMETRY,
        msg.shard,
        msg.period,
    )
    return head + msg.payload


_ENCODERS: Dict[type, Callable[..., bytes]] = {
    BufferMapMsg: _enc_buffer_map,
    BufferMapDelta: _enc_map_delta,
    SegmentRequest: _pull_encoder(WireKind.SEGMENT_REQUEST),
    SegmentNack: _pull_encoder(WireKind.SEGMENT_NACK),
    SegmentData: _enc_data,
    DhtLookup: _enc_lookup,
    DhtResponse: _enc_response,
    Ping: _probe_encoder(WireKind.PING),
    Pong: _probe_encoder(WireKind.PONG),
    Handover: _enc_handover,
    CreditGrant: _enc_credit,
    ShardHello: _enc_hello,
    RoutedFrame: _enc_route,
    FrameBatch: _enc_batch,
    TelemetryFrame: _enc_telemetry,
}


def encode(msg: WireMessage) -> bytes:
    """Serialise one message into a length-prefixed frame."""
    encoder = _ENCODERS.get(type(msg))
    if encoder is None:
        raise WireError(f"cannot encode {type(msg).__name__}")
    try:
        frame = encoder(msg)
    except struct.error as exc:
        raise WireError(f"{type(msg).__name__} field out of range: {exc}") from exc
    if len(frame) - _LEN.size > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload too large: {len(frame) - _LEN.size}")
    return frame


def encode_batch(
    frames: Sequence[bytes], limit: int = MAX_FRAME_PAYLOAD
) -> List[bytes]:
    """Coalesce already-encoded frames into as few physical frames as
    possible.

    Runs of batchable frames become :class:`FrameBatch` envelopes (split
    so no envelope's payload exceeds ``limit``, default
    :data:`MAX_FRAME_PAYLOAD` — a carrier wrapping the result in a
    further envelope passes a smaller limit to reserve headroom); a lone
    frame, an oversized frame or one that is itself a batch passes
    through untouched.  Frame order is preserved.
    """
    if len(frames) <= 1:
        return list(frames)
    out: List[bytes] = []
    group: List[bytes] = []
    group_len = 3

    def _flush() -> None:
        nonlocal group, group_len
        if len(group) == 1:
            out.append(group[0])
        elif group:
            out.append(_pack_batch(group))
        group = []
        group_len = 3

    for frame in frames:
        payload_len = len(frame) - _LEN.size
        if payload_len > _U16_MAX or (len(frame) > 4 and frame[4] == WireKind.BATCH):
            _flush()
            out.append(frame)
            continue
        if group_len + 2 + payload_len > limit:
            _flush()
        group.append(frame)
        group_len += 2 + payload_len
    _flush()
    return out


def frame_count(frame: Union[bytes, bytearray, memoryview]) -> int:
    """Logical frames carried by one physical frame (batch count, else 1)."""
    if len(frame) >= 7 and frame[4] == WireKind.BATCH:
        return _U16.unpack_from(frame, 5)[0]
    return 1


# ====================================================================== decoding
def _dec_buffer_map(view: memoryview, start: int, end: int) -> BufferMapMsg:
    if end - start < _BM_BODY.size:
        raise WireError("buffer-map body too short")
    sender, newest, head, capacity, seq = _BM_BODY.unpack_from(view, start)
    if capacity < 1:
        raise WireError("capacity must be >= 1")
    nbytes = (capacity + 7) // 8
    if end - start - _BM_BODY.size != nbytes:
        raise WireError(
            f"bitmap of capacity {capacity} needs {nbytes} bytes, "
            f"got {end - start - _BM_BODY.size}"
        )
    return BufferMapMsg(
        sender, newest, head, capacity, bytes(view[start + _BM_BODY.size : end]), seq
    )


def _dec_map_delta(view: memoryview, start: int, end: int) -> BufferMapDelta:
    if end - start < _MD_BODY.size:
        raise WireError("map-delta body too short")
    sender, seq, newest, head, capacity, count = _MD_BODY.unpack_from(view, start)
    if capacity < 1:
        raise WireError("capacity must be >= 1")
    if end - start - _MD_BODY.size != 4 * count:
        raise WireError(
            f"map-delta with {count} runs needs {4 * count} run bytes, "
            f"got {end - start - _MD_BODY.size}"
        )
    flat = _u16s_struct(2 * count).unpack_from(view, start + _MD_BODY.size)
    runs = tuple(zip(flat[::2], flat[1::2]))
    _check_runs(runs, capacity)
    return BufferMapDelta(sender, seq, newest, head, capacity, runs)


def _trace_tail(
    view: memoryview, start: int, end: int, body_size: int, flags: int, what: str
) -> int:
    """Validate the body length against flag bit 1, return the trace id."""
    if not flags & _TRACED_FLAG:
        if end - start != body_size:
            raise WireError(f"{what} body size mismatch")
        return 0
    if end - start != body_size + _TRACE_TAIL.size:
        raise WireError(f"{what} body size mismatch")
    return _TRACE_TAIL.unpack_from(view, start + body_size)[0]


def _pull_decoder(cls: type, what: str) -> Callable[[memoryview, int, int], WireMessage]:
    def decode_pull(view: memoryview, start: int, end: int) -> WireMessage:
        if end - start < _REQ_BODY.size:
            raise WireError(f"{what} body size mismatch")
        sender, segment_id, flags = _REQ_BODY.unpack_from(view, start)
        trace_id = _trace_tail(view, start, end, _REQ_BODY.size, flags, what)
        return cls(sender, segment_id, bool(flags & 1), trace_id)

    return decode_pull


def _dec_data(view: memoryview, start: int, end: int) -> SegmentData:
    if end - start < _DATA_BODY.size:
        raise WireError("segment-data body size mismatch")
    sender, segment_id, size_bits, flags = _DATA_BODY.unpack_from(view, start)
    trace_id = _trace_tail(view, start, end, _DATA_BODY.size, flags, "segment-data")
    return SegmentData(sender, segment_id, size_bits, bool(flags & 1), trace_id)


def _dec_ids(
    view: memoryview, offset: int, end: int, count: int, what: str
) -> Tuple[int, ...]:
    if end - offset != 4 * count:
        raise WireError(
            f"{what}: expected {4 * count} bytes of ids, got {end - offset}"
        )
    return _ids_struct(count).unpack_from(view, offset)


def _dec_lookup(view: memoryview, start: int, end: int) -> DhtLookup:
    if end - start < _LOOKUP_BODY.size:
        raise WireError("dht-lookup body too short")
    origin, key, segment_id, count = _LOOKUP_BODY.unpack_from(view, start)
    path = _dec_ids(view, start + _LOOKUP_BODY.size, end, count, "dht-lookup path")
    return DhtLookup(origin, key, segment_id, path)


def _dec_response(view: memoryview, start: int, end: int) -> DhtResponse:
    if end - start < _RESP_BODY.size:
        raise WireError("dht-response body too short")
    responder, origin, key, segment_id, flags, rate, count = _RESP_BODY.unpack_from(
        view, start
    )
    path = _dec_ids(view, start + _RESP_BODY.size, end, count, "dht-response path")
    return DhtResponse(responder, origin, key, segment_id, bool(flags & 1), rate, path)


def _probe_decoder(cls: type) -> Callable[[memoryview, int, int], WireMessage]:
    def decode_probe(view: memoryview, start: int, end: int) -> WireMessage:
        if end - start != _PINGPONG_BODY.size:
            raise WireError("ping/pong body size mismatch")
        sender, nonce = _PINGPONG_BODY.unpack_from(view, start)
        return cls(sender, nonce)

    return decode_probe


def _dec_handover(view: memoryview, start: int, end: int) -> Handover:
    if end - start < _HANDOVER_BODY.size:
        raise WireError("handover body too short")
    sender, segment_bits, count = _HANDOVER_BODY.unpack_from(view, start)
    ids = _dec_ids(view, start + _HANDOVER_BODY.size, end, count, "handover ids")
    return Handover(sender=sender, segment_bits=segment_bits, segment_ids=ids)


def _dec_credit(view: memoryview, start: int, end: int) -> CreditGrant:
    if end - start != _CREDIT_BODY.size:
        raise WireError("credit-grant body size mismatch")
    sender, credits = _CREDIT_BODY.unpack_from(view, start)
    if credits < 1:
        raise WireError("credit grant must carry >= 1 credit")
    return CreditGrant(sender, credits)


def _dec_hello(view: memoryview, start: int, end: int) -> ShardHello:
    if end - start != _HELLO_BODY.size:
        raise WireError("shard-hello body size mismatch")
    shard_index, num_shards, token, ring_size = _HELLO_BODY.unpack_from(view, start)
    if num_shards < 1:
        raise WireError("num_shards must be >= 1")
    return ShardHello(
        shard_index=shard_index,
        num_shards=num_shards,
        token=token,
        ring_size=ring_size,
    )


def _dec_route(view: memoryview, start: int, end: int) -> RoutedFrame:
    if end - start < 5:
        raise WireError("routed-frame body too short")
    flags = view[start]
    if flags & _RF_SRC_ELIDED:
        (dst,) = _U32.unpack_from(view, start + 1)
        payload_start = start + 5
        if end - payload_start < 9:
            raise WireError("src-elided routed frame needs >= 9 payload bytes")
        (src,) = _U32.unpack_from(view, payload_start + 5)
    else:
        if end - start < 9:
            raise WireError("routed-frame body too short")
        src, dst = _ROUTE_IDS.unpack_from(view, start + 1)
        payload_start = start + 9
    return RoutedFrame(
        src=src,
        dst=dst,
        payload=bytes(view[payload_start:end]),
        data=bool(flags & _RF_DATA),
    )


def _batch_spans(view: memoryview, start: int, end: int) -> List[Tuple[int, int]]:
    """Validate a whole batch body; return each entry's ``(start, end)``.

    The spans cover kind byte + body of every inner frame, in order.
    Nothing is decoded (or dispatched) from a malformed envelope: entry
    headers, sizes, nesting and trailing bytes are all checked first.
    """
    if end - start < 2:
        raise WireError("frame-batch body too short")
    (count,) = _U16.unpack_from(view, start)
    if count < 1:
        raise WireError("a frame batch must hold at least one frame")
    pos = start + 2
    spans: List[Tuple[int, int]] = []
    unpack_len = _U16.unpack_from
    for _ in range(count):
        if end - pos < 2:
            raise WireError("frame-batch entry header truncated")
        (entry_len,) = unpack_len(view, pos)
        pos += 2
        if entry_len < 1:
            raise WireError("frame-batch entry must hold a kind byte")
        if end - pos < entry_len:
            raise WireError("frame-batch entry truncated")
        if view[pos] == WireKind.BATCH:
            raise WireError("frame batches must not nest")
        spans.append((pos, pos + entry_len))
        pos += entry_len
    if pos != end:
        raise WireError("frame batch has trailing bytes")
    return spans


def _dec_batch(view: memoryview, start: int, end: int) -> FrameBatch:
    pack_len = _LEN.pack
    return FrameBatch(
        tuple(
            pack_len(stop - first) + bytes(view[first:stop])
            for first, stop in _batch_spans(view, start, end)
        )
    )


def _dec_telemetry(view: memoryview, start: int, end: int) -> TelemetryFrame:
    if end - start < _TELEM_BODY.size:
        raise WireError("telemetry body too short")
    shard, period = _TELEM_BODY.unpack_from(view, start)
    return TelemetryFrame(
        shard=shard,
        period=period,
        payload=bytes(view[start + _TELEM_BODY.size : end]),
    )


_DECODERS: Dict[int, Callable[[memoryview, int, int], WireMessage]] = {
    WireKind.BUFFER_MAP: _dec_buffer_map,
    WireKind.SEGMENT_REQUEST: _pull_decoder(SegmentRequest, "segment-request"),
    WireKind.SEGMENT_DATA: _dec_data,
    WireKind.DHT_LOOKUP: _dec_lookup,
    WireKind.DHT_RESPONSE: _dec_response,
    WireKind.PING: _probe_decoder(Ping),
    WireKind.PONG: _probe_decoder(Pong),
    WireKind.HANDOVER: _dec_handover,
    WireKind.SEGMENT_NACK: _pull_decoder(SegmentNack, "segment-nack"),
    WireKind.CREDIT: _dec_credit,
    WireKind.SHARD_HELLO: _dec_hello,
    WireKind.ROUTE: _dec_route,
    WireKind.BATCH: _dec_batch,
    WireKind.MAP_DELTA: _dec_map_delta,
    WireKind.TELEMETRY: _dec_telemetry,
}
_DECODERS = {int(kind): fn for kind, fn in _DECODERS.items()}


def _frame_decoder(
    view: memoryview, offset: int
) -> Tuple[Callable[[memoryview, int, int], WireMessage], int, int]:
    """Check the frame prologue at ``offset`` (length prefix, size bound,
    completeness, kind); return its decoder and body ``(start, end)``."""
    total = len(view)
    if total - offset < _LEN.size:
        raise TruncatedFrameError("incomplete length prefix")
    (length,) = _LEN.unpack_from(view, offset)
    if length < 1:
        raise WireError("frame payload must hold at least the kind byte")
    if length > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload too large: {length}")
    start = offset + _LEN.size
    if total - start < length:
        raise TruncatedFrameError(
            f"frame needs {length} payload bytes, have {total - start}"
        )
    decoder = _DECODERS.get(view[start])
    if decoder is None:
        raise WireError(f"unknown wire kind {view[start]}")
    return decoder, start + 1, start + length


def decode(
    buffer: Union[bytes, bytearray, memoryview], offset: int = 0
) -> Tuple[WireMessage, int]:
    """Decode one frame starting at ``offset``.

    Returns ``(message, next_offset)``.  Operates on a ``memoryview`` of
    ``buffer``: fixed fields are unpacked in place and only final field
    values (a bitmap, a routed payload) are materialised as ``bytes``.

    Raises:
        TruncatedFrameError: the buffer ends mid-frame (feed more bytes).
        WireError: the frame is malformed (unknown kind, bad sizes).
    """
    view = buffer if type(buffer) is memoryview else memoryview(buffer)
    decoder, start, end = _frame_decoder(view, offset)
    return decoder(view, start, end), end


def decode_batch(
    frame: Union[bytes, bytearray, memoryview], only: Optional[Container[int]] = None
) -> List[WireMessage]:
    """Decode every inner message of one :class:`FrameBatch` frame, in order.

    The receive path's unwrap.  ``frame`` must be exactly one complete
    BATCH frame (what a link delivers); its envelope is validated whole,
    then the inner frames are decoded straight out of the same memory —
    no :class:`FrameBatch` object, no per-entry ``bytes`` copy, no
    length-prefix check per entry.  All or nothing: a malformed envelope
    *or* inner frame raises :class:`WireError` before any message is
    returned, so a caller dispatches none of a bad batch.  With ``only``
    (wire kind numbers), entries of any other kind are skipped undecoded.
    """
    view = frame if type(frame) is memoryview else memoryview(frame)
    decoder, start, end = _frame_decoder(view, 0)
    if decoder is not _dec_batch or end != len(view):
        raise WireError("decode_batch needs exactly one complete frame-batch frame")
    messages: List[WireMessage] = []
    for first, stop in _batch_spans(view, start, end):
        if only is not None and view[first] not in only:
            continue
        decoder = _DECODERS.get(view[first])
        if decoder is None:
            raise WireError(f"unknown wire kind {view[first]}")
        messages.append(decoder(view, first + 1, stop))
    return messages


class FrameDecoder:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed arbitrary chunks (frames may arrive split or coalesced, exactly as
    on a TCP stream); complete messages come back in order, partial bytes
    are buffered until the rest arrives.  A malformed frame raises
    :class:`WireError` and poisons the stream (a real transport would close
    the connection).

    Consumed bytes are tracked as an *offset* into the receive buffer and
    the buffer is compacted only when the dead prefix passes
    ``_COMPACT_AT`` (or everything was consumed) — feeding a fragmented
    stream is linear, not quadratic in the number of chunks.
    """

    #: Dead-prefix size that triggers compaction of the receive buffer.
    _COMPACT_AT = 1 << 16

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offset = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer) - self._offset

    def feed(self, chunk: bytes) -> List[WireMessage]:
        """Absorb ``chunk`` and return every now-complete message."""
        buffer = self._buffer
        buffer += chunk
        offset = self._offset
        available = len(buffer)
        messages: List[WireMessage] = []
        # Peek the length prefix so the common "buffer drained" exit is a
        # cheap comparison rather than a raised TruncatedFrameError.
        while available - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(buffer, offset)
            if length <= MAX_FRAME_PAYLOAD and available - offset - _LEN.size < length:
                break
            msg, offset = decode(buffer, offset)
            messages.append(msg)
        if offset == available:
            del buffer[:]
            offset = 0
        elif offset >= self._COMPACT_AT:
            del buffer[:offset]
            offset = 0
        self._offset = offset
        return messages


# ================================================================== accounting
def ledger_entry(msg: WireMessage) -> Optional[Tuple[MessageKind, float]]:
    """The ``(kind, bits)`` a :class:`MessageLedger` must record for ``msg``.

    Sizes reconcile against :mod:`repro.net.message` / Section 5.4 of the
    paper — NOT against the physical frame length:

    * buffer map — ``capacity + 20`` anchor bits (:func:`buffer_map_bits`),
      **whether shipped full or as a delta**: the paper's accounting knows
      one buffer-map exchange cost, so a :class:`BufferMapDelta` charges
      exactly what the full map it replaces would have (the physical
      savings surface in the transport's ``bytes_on_wire`` counters, not in
      the overhead metrics);
    * data segment — the declared payload size (``segment_bits``), under
      ``DATA_PREFETCH`` or ``DATA_SCHEDULED`` per the delivery path;
    * DHT lookup hop / response — ``ROUTING_MESSAGE_BITS`` (80) each;
    * PING / PONG / handover notice — ``PING_MESSAGE_BITS`` (80) each,
      under ``MEMBERSHIP``.

    Returns ``None`` for messages the paper's overhead metrics do not
    count (pull requests and transport-level credit grants are treated as
    free control signalling — the simulator has no analogue of either and
    the paper's Section 5.4 accounting does not define them).  Cluster
    transport frames (shard handshakes and routed-frame envelopes) are
    likewise uncharged, and so is a :class:`FrameBatch` envelope: the
    *inner* frames were each charged once, at their originating peer,
    exactly as on the loopback transport.  An 8-byte observability trace
    tail (:mod:`repro.obs`) on a segment frame is physical-only too: a
    traced :class:`SegmentData` still charges its declared ``size_bits``,
    and a :class:`TelemetryFrame` — pure observability, no protocol
    effect — is never charged at all.
    """
    kind = type(msg)
    if kind is SegmentData:
        return (
            MessageKind.DATA_PREFETCH if msg.prefetch else MessageKind.DATA_SCHEDULED,
            float(msg.size_bits),
        )
    if kind is BufferMapMsg or kind is BufferMapDelta:
        return (MessageKind.BUFFER_MAP, float(buffer_map_bits(msg.capacity)))
    try:
        return _FIXED_LEDGER_ENTRIES[kind]
    except KeyError:
        raise WireError(f"no ledger rule for {kind.__name__}") from None


_ROUTING_ENTRY = (MessageKind.DHT_ROUTING, float(ROUTING_MESSAGE_BITS))
_MEMBERSHIP_ENTRY = (MessageKind.MEMBERSHIP, float(PING_MESSAGE_BITS))

#: :func:`ledger_entry` of every kind whose charge does not depend on the
#: message's fields (``None`` = free signalling / uncharged envelope).
_FIXED_LEDGER_ENTRIES: Dict[type, Optional[Tuple[MessageKind, float]]] = {
    DhtLookup: _ROUTING_ENTRY,
    DhtResponse: _ROUTING_ENTRY,
    Ping: _MEMBERSHIP_ENTRY,
    Pong: _MEMBERSHIP_ENTRY,
    Handover: _MEMBERSHIP_ENTRY,
    SegmentRequest: None,
    SegmentNack: None,
    CreditGrant: None,
    ShardHello: None,
    RoutedFrame: None,
    FrameBatch: None,
    TelemetryFrame: None,
}
