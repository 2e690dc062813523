"""The live runtime's length-prefixed binary wire protocol.

Every message the simulated protocol vocabulary knows — buffer-map
exchanges, segment transfers, DHT routing/lookup traffic, membership
PING/PONG and the graceful-leave backup handover — has a binary frame:

``[varint length][u8 kind][body]``

with ``length`` covering the kind byte and the body.  Every length and
every count on the wire is a minimal unsigned LEB128 *varint* — seven bits
per byte, low bits first, bit 7 set on every byte but the last — of at most
:data:`MAX_PREFIX` bytes: a frame prefix is one byte below 128, two below
16 384.  A varint with a superfluous zero byte, or longer than three bytes,
is a :class:`WireError`, so every message has exactly one encoding.
A peer message whose integers all fit 16 bits ships *narrow*: bit 7 of
the kind byte (:data:`NARROW`) set, ids and segment numbers in 16 bits
(see *encoding* below).  Peers exchange these frames over in-process
loopback transports (see :mod:`repro.runtime.swarm`); nothing in the codec
assumes loopback, so the same frames can later travel over real sockets.

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
move.  Encoding packs a short frame's one-byte length prefix, kind byte and
fixed header with one precompiled :class:`struct.Struct`; decoding operates
on ``memoryview`` slices of the receive buffer so steady-state decode
performs no intermediate payload copies.  Every reader of the layout finds
the kind byte through one helper, :func:`prologue`.

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
from repro.streaming.buffer import realign
from repro.streaming.buffermap import BufferMap, buffer_map_bits

#: Upper bound on one frame's payload (kind byte + body).  Generously above
#: the largest legal single message (a full 600-slot buffer map is ~90
#: bytes); a bigger length prefix means a corrupt or hostile stream.  Frame
#: batches are split by :func:`encode_batch` to stay under it.
MAX_FRAME_PAYLOAD = 1 << 16

#: Longest varint on the wire (a length prefix, a count, a delta run):
#: three bytes spell up to ``2**21 - 1``, past :data:`MAX_FRAME_PAYLOAD`.
MAX_PREFIX = 3

_U32 = struct.Struct(">I")


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

    On the wire the runs follow the header as a varint run count and one
    varint pair per run: the gap since the previous run's end (since
    offset 0 for the first run) and the length.  Most runs are one bit
    long and close to the previous one, so a run usually costs two bytes.
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
        toggled = new.bits ^ realign(base.bits, base.head_id - new.head_id, new.capacity)
        runs: List[Tuple[int, int]] = []
        offset = 0
        while toggled:
            skip = (toggled & -toggled).bit_length() - 1
            toggled >>= skip
            # ``x ^ (x + 1)`` spans the low run of ones plus one bit.
            length = (toggled ^ (toggled + 1)).bit_length() - 1
            runs.append((offset + skip, length))
            toggled >>= length
            offset += skip + length
        return cls(
            sender=sender,
            seq=seq,
            newest_id=newest_id,
            head_id=new.head_id,
            capacity=new.capacity,
            runs=tuple(runs),
        )

    def apply(self, base: BufferMap) -> BufferMap:
        """Rebuild the sender's new map from the receiver's stored ``base``."""
        bits = realign(base.bits, base.head_id - self.head_id, self.capacity)
        for offset, length in self.runs:
            bits ^= ((1 << length) - 1) << offset
        return BufferMap(self.head_id, self.capacity, bits)


@dataclass(slots=True)
class SegmentRequest:
    """Pull request for one or more segments from one supplier
    (``prefetch`` = on-demand path).

    ``segment_id`` is the first segment pulled; ``more`` holds the
    further ``(segment_id, trace_id)`` pairs, in the order the supplier
    must handle them (the live peer sends everything one pass pulls from
    one supplier in one frame); :meth:`pulls` lists them all.  On the wire a
    non-empty ``more`` sets flag bit 2 and follows the header as a varint
    count plus the further ids at the frame's width; a one-segment
    request encodes exactly as before lists existed.

    ``trace_id`` is the observability plane's sampled journey id
    (:mod:`repro.obs`) of the first segment.  When any pulled segment
    is traced, the frame carries one u64 trace id per segment behind
    flag bit 1, echoed by the supplier's :class:`SegmentData` /
    :class:`SegmentNack` replies.  An untraced request encodes
    byte-identically to a pre-obs frame, and the tail is physical-only —
    :func:`ledger_entry` never charges it.
    """

    sender: int
    segment_id: int
    prefetch: bool = False
    trace_id: int = 0
    more: Tuple[Tuple[int, int], ...] = ()

    def pulls(self) -> Tuple[Tuple[int, int], ...]:
        """Every ``(segment_id, trace_id)`` this frame pulls, in order."""
        return ((self.segment_id, self.trace_id),) + self.more


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
    """Refusal of the segments of one :class:`SegmentRequest` that the
    supplier could not serve (uplink saturated or no data).

    Lets the requester retry each with a fallback supplier inside the
    same period — the wire analogue of the simulator's within-round
    rerouting when the chosen uplink's per-period budget is spent.  The
    refused ``(segment_id, trace_id)`` pairs are :meth:`pulls`, in the
    request's order, with the frame layout of :class:`SegmentRequest`.
    """

    sender: int
    segment_id: int
    prefetch: bool = False
    trace_id: int = 0
    more: Tuple[Tuple[int, int], ...] = ()

    def pulls(self) -> Tuple[Tuple[int, int], ...]:
        """Every ``(segment_id, trace_id)`` this frame refuses, in order."""
        return ((self.segment_id, self.trace_id),) + self.more


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
    time, sets a flag bit and re-reads the id from the payload on decode:
    after the payload's own length prefix and kind byte (found by
    :func:`prologue`), at the width the inner kind byte declares (16 bits
    for a narrow inner frame), saving four bytes on the vast majority of
    routed traffic.
    """

    src: int
    dst: int
    payload: bytes
    data: bool = False


@dataclass(slots=True)
class FrameBatch:
    """Several complete frames coalesced into one physical frame.

    ``frames`` holds fully encoded frames (length prefix included), and the
    wire carries them verbatim: ``[varint length][BATCH][varint count]``
    followed by the entries, each behind its own varint prefix — one
    framing rule for loose and batched frames.  A batch costs its entries
    plus a three-byte head (prefix, kind, count) while it stays under 128
    bytes, a byte more per further varint byte: it saves deliveries, not
    bytes.  Batches must not nest (encode and
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
# One precompiled Struct per kind and width packs a one-byte length
# prefix, the kind byte and the fixed header in a single call; out-of-range
# fields surface as ``struct.error``, which :func:`encode` re-raises as
# :class:`WireError` (one translation for every kind).  Variable tails
# (bitmaps, paths, run lists, batch entries) are appended with cached
# per-count Structs (:data:`_IDS`) behind a varint count.  A frame whose
# payload reaches 128 bytes is packed the same way and re-prefixed
# (:func:`_long_frame`); no fixed-size frame ever does.
#
# Every peer message has two widths: the *narrow* layout spells ids,
# segment numbers, ``seq``, ``newest_id``/``head_id``, sizes and id lists in
# 16 bits and sets :data:`NARROW` in the kind byte, the *wide* one in 32.
# :func:`encode` packs narrow first and falls back to wide on
# ``struct.error``, so a frame is narrow exactly when every integer fits.
# Each coder is built per width by a factory over ``narrow`` (0 or 1).  A
# narrow ``newest_id`` rides as ``newest_id + 1`` so the fresh-stream -1
# fits.  Widths and varints move byte counts only; the one choice that
# reads a frame's length is the live peer's delta-or-full gossip, whose
# receiver rebuilds the same map either way.

#: Kind-byte bit of a narrow frame (every :class:`WireKind` is below it).
NARROW = 0x80
#: The batch kind as a plain int and as bytes (an enum member costs an
#: attribute lookup per comparison on the hot paths).
_BATCH = int(WireKind.BATCH)
_BATCH_BYTE = bytes([_BATCH])


def _varint(value: int) -> bytes:
    """The minimal varint of ``value`` (at most :data:`MAX_PREFIX` bytes)."""
    if 0 <= value < 0x80:
        return bytes((value,))
    if not 0 <= value < 1 << (7 * MAX_PREFIX):
        raise WireError(f"varint out of range: {value}")
    if value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))
    return bytes((value & 0x7F | 0x80, value >> 7 & 0x7F | 0x80, value >> 14))


def _long_frame(length: int, head: bytes, tail: bytes) -> bytes:
    """A frame of payload ``length`` >= 128: ``head`` was packed behind a
    one-byte placeholder prefix, which the real varint prefix replaces."""
    if length > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload too large: {length}")
    return b"".join((_varint(length), head[1:], tail))


def _respell(head: bytes, length: int, count: int, tail: bytes) -> bytes:
    """A frame whose ``head`` ends in a one-byte placeholder for ``count``
    and whose ``length`` assumed it, once either outgrows one byte."""
    count_varint = _varint(count)
    return _long_frame(length + len(count_varint) - 1, head[:-1], count_varint + tail)


def _layouts(wide: str, narrow: str) -> Tuple[tuple, tuple]:
    """A kind's frame Structs and body Structs, each pair indexed by
    ``narrow``; a frame Struct leads with a one-byte length and the kind
    byte."""
    bodies = (struct.Struct(">" + wide), struct.Struct(">" + narrow))
    return tuple(struct.Struct(">BB" + body.format[1:]) for body in bodies), bodies


# A header ending in a count packs the count's first varint byte: the
# whole count below 128, a placeholder re-spelled by :func:`_respell` above.
_BM_FRAME, _BM_BODY = _layouts("IiIHI", "HHHHH")  # sender, newest, head, cap, seq
_MD_FRAME, _MD_BODY = _layouts("IIiIH", "HHHHH")  # sender, seq, newest, head, cap
_PULL_FRAME, _PULL_BODY = _layouts("IIB", "HHB")  # sender, segment, flags
_DATA_FRAME, _DATA_BODY = _layouts("IIIB", "HHHB")  # sender, segment, size_bits, flags
_LOOKUP_FRAME, _LOOKUP_BODY = _layouts("IIIB", "HHHB")  # origin, key, segment, path len
# responder, origin, key, segment, flags, rate, path len
_RESP_FRAME, _RESP_BODY = _layouts("IIIIBfB", "HHHHBfB")
_PROBE_FRAME, _PROBE_BODY = _layouts("II", "HH")  # sender, nonce
_HANDOVER_FRAME, _HANDOVER_BODY = _layouts("IIB", "HHB")  # sender, segment_bits, count
_CREDIT_FRAME, _CREDIT_BODY = _layouts("IH", "HH")  # sender, credits
#: Optional trace-id tail on segment request/data/nack frames (flag bit
#: 1): one u64 per segment the frame carries.  Physical-only: absent when
#: no trace id is set, never ledger-charged (:mod:`repro.obs`
#: segment-journey tracing).
_TRACE_TAIL = struct.Struct(">Q")
_TRACED_FLAG = 0x2
#: Flag bit 2 of a request/nack frame: a varint count and the further
#: segment ids (at the frame's width) follow the header.
_LIST_FLAG = 0x4
_HELLO_FRAME = struct.Struct(">BBHHII")
_HELLO_BODY = struct.Struct(">HHII")
_ROUTE_FRAME = struct.Struct(">BBBII")  # len, kind, flags, src, dst
_ROUTE_E_FRAME = struct.Struct(">BBBI")  # len, kind, flags, dst (src in payload)
_ROUTE_IDS = struct.Struct(">II")
_TELEM_FRAME = struct.Struct(">BBHI")  # len, kind, shard, period
_TELEM_BODY = struct.Struct(">HI")

#: How far under :data:`MAX_FRAME_PAYLOAD` a frame's payload must stay for
#: a :class:`RoutedFrame` to carry the frame: the envelope's kind, flags
#: and ids, plus the carried frame's own longest prefix.
ROUTE_HEADROOM = _ROUTE_FRAME.size - 1 + MAX_PREFIX

#: RoutedFrame flag bits.
_RF_DATA = 0x01
_RF_SRC_ELIDED = 0x02


@lru_cache(maxsize=512)
def _ids_struct(count: int) -> struct.Struct:
    """Cached ``>{count}I`` Struct (wide paths, handover and pull id lists)."""
    return struct.Struct(f">{count}I")


@lru_cache(maxsize=64)
def _traces_struct(count: int) -> struct.Struct:
    """Cached ``>{count}Q`` Struct (the trace tail of a pull list)."""
    return struct.Struct(f">{count}Q")


@lru_cache(maxsize=512)
def _u16s_struct(count: int) -> struct.Struct:
    """Cached ``>{count}H`` Struct (narrow id lists)."""
    return struct.Struct(f">{count}H")


#: The per-count Struct of a path / handover / pull id list, by width.
_IDS = (_ids_struct, _u16s_struct)


def _packer(frames: tuple, kind: int, narrow: int) -> Tuple[Callable[..., bytes], int, int]:
    """What a per-width encoder closes over: its frame Struct's ``pack``,
    the fixed payload length (kind byte + header) and the kind byte."""
    return frames[narrow].pack, frames[narrow].size - 1, kind | NARROW * narrow


def _run_varints(runs: Tuple[Tuple[int, int], ...], capacity: int) -> bytes:
    """A delta's run list: the varint count, then (gap since the previous
    run's end, length) per run.  Runs must be ascending, disjoint,
    non-empty and inside the window."""
    out = bytearray(_varint(len(runs)))
    append = out.append
    end = 0
    for start, length in runs:
        if start < end or length < 1:
            raise WireError("delta runs must be non-empty, ascending and disjoint")
        gap = start - end
        if gap < 0x80 and length < 0x80:  # one byte each: most runs
            append(gap)
            append(length)
        else:
            out += _varint(gap)
            out += _varint(length)
        end = start + length
    if end > capacity:
        raise WireError(f"delta run ends at offset {end}, past capacity {capacity}")
    return bytes(out)


def _map_encoder(narrow: int) -> Callable[[BufferMapMsg], bytes]:
    pack, fixed, kind = _packer(_BM_FRAME, WireKind.BUFFER_MAP, narrow)

    def encode_map(msg: BufferMapMsg) -> bytes:
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
        length = fixed + nbytes
        head = pack(
            length & 0x7F, kind, msg.sender, msg.newest_id + narrow, msg.head_id, msg.capacity,
            msg.seq,
        )
        return head + msg.bitmap if length < 0x80 else _long_frame(length, head, msg.bitmap)

    return encode_map


def _delta_encoder(narrow: int) -> Callable[[BufferMapDelta], bytes]:
    pack, fixed, kind = _packer(_MD_FRAME, WireKind.MAP_DELTA, narrow)

    def encode_delta(msg: BufferMapDelta) -> bytes:
        if not (-1 <= msg.newest_id <= 0x7FFF_FFFF):
            raise WireError(f"newest_id out of range: {msg.newest_id}")
        if msg.capacity < 1:
            raise WireError("capacity must be >= 1")
        tail = _run_varints(msg.runs, msg.capacity)
        length = fixed + len(tail)
        head = pack(
            length & 0x7F, kind, msg.sender, msg.seq, msg.newest_id + narrow, msg.head_id,
            msg.capacity,
        )
        return head + tail if length < 0x80 else _long_frame(length, head, tail)

    return encode_delta


def _pull_encoder(kind: WireKind, narrow: int) -> Callable[..., bytes]:
    """Encoder of a request-shaped frame (``SegmentRequest`` / ``SegmentNack``)."""
    pack, fixed, kind = _packer(_PULL_FRAME, kind, narrow)
    ids_struct = _IDS[narrow]

    def encode_pull(msg: Union[SegmentRequest, SegmentNack]) -> bytes:
        more = msg.more
        if not (more or msg.trace_id):
            return pack(fixed, kind, msg.sender, msg.segment_id, 1 if msg.prefetch else 0)
        flags = 1 if msg.prefetch else 0
        tail = b""
        traces = (msg.trace_id,)
        if more:
            ids, more_traces = zip(*more)
            flags |= _LIST_FLAG
            tail = _varint(len(ids)) + ids_struct(len(ids)).pack(*ids)
            traces += more_traces
        if any(traces):
            flags |= _TRACED_FLAG
            tail += _traces_struct(len(traces)).pack(*traces)
        length = fixed + len(tail)
        head = pack(length & 0x7F, kind, msg.sender, msg.segment_id, flags)
        return head + tail if length < 0x80 else _long_frame(length, head, tail)

    return encode_pull


def _data_encoder(narrow: int) -> Callable[[SegmentData], bytes]:
    pack, fixed, kind = _packer(_DATA_FRAME, WireKind.SEGMENT_DATA, narrow)

    def encode_data(msg: SegmentData) -> bytes:
        if not msg.trace_id:
            return pack(
                fixed, kind, msg.sender, msg.segment_id, msg.size_bits, 1 if msg.prefetch else 0
            )
        head = pack(
            fixed + _TRACE_TAIL.size, kind, msg.sender, msg.segment_id, msg.size_bits,
            (1 if msg.prefetch else 0) | _TRACED_FLAG,
        )
        return head + _TRACE_TAIL.pack(msg.trace_id)

    return encode_data


def _lookup_encoder(narrow: int) -> Callable[[DhtLookup], bytes]:
    pack, fixed, kind = _packer(_LOOKUP_FRAME, WireKind.DHT_LOOKUP, narrow)
    ids_struct = _IDS[narrow]

    def encode_lookup(msg: DhtLookup) -> bytes:
        count = len(msg.path)
        ids = ids_struct(count)
        length = fixed + ids.size
        head = pack(
            length & 0x7F, kind, msg.origin, msg.target_key, msg.segment_id, count & 0x7F
        )
        if length < 0x80:
            return head + ids.pack(*msg.path)
        return _respell(head, length, count, ids.pack(*msg.path))

    return encode_lookup


def _response_encoder(narrow: int) -> Callable[[DhtResponse], bytes]:
    pack, fixed, kind = _packer(_RESP_FRAME, WireKind.DHT_RESPONSE, narrow)
    ids_struct = _IDS[narrow]

    def encode_response(msg: DhtResponse) -> bytes:
        count = len(msg.path)
        ids = ids_struct(count)
        length = fixed + ids.size
        head = pack(
            length & 0x7F, kind, msg.responder, msg.origin, msg.target_key, msg.segment_id,
            1 if msg.has_data else 0, float(msg.rate), count & 0x7F,
        )
        if length < 0x80:
            return head + ids.pack(*msg.path)
        return _respell(head, length, count, ids.pack(*msg.path))

    return encode_response


def _probe_encoder(kind: WireKind, narrow: int) -> Callable[..., bytes]:
    pack, fixed, kind = _packer(_PROBE_FRAME, kind, narrow)

    def encode_probe(msg: Union[Ping, Pong]) -> bytes:
        return pack(fixed, kind, msg.sender, msg.nonce)

    return encode_probe


def _handover_encoder(narrow: int) -> Callable[[Handover], bytes]:
    pack, fixed, kind = _packer(_HANDOVER_FRAME, WireKind.HANDOVER, narrow)
    ids_struct = _IDS[narrow]

    def encode_handover(msg: Handover) -> bytes:
        count = len(msg.segment_ids)
        ids = ids_struct(count)
        length = fixed + ids.size
        head = pack(length & 0x7F, kind, msg.sender, msg.segment_bits, count & 0x7F)
        if length < 0x80:
            return head + ids.pack(*msg.segment_ids)
        return _respell(head, length, count, ids.pack(*msg.segment_ids))

    return encode_handover


def _credit_encoder(narrow: int) -> Callable[[CreditGrant], bytes]:
    pack, fixed, kind = _packer(_CREDIT_FRAME, WireKind.CREDIT, narrow)

    def encode_credit(msg: CreditGrant) -> bytes:
        if msg.credits < 1:
            raise WireError(f"credit grant must carry >= 1 credit, got {msg.credits}")
        return pack(fixed, kind, msg.sender, msg.credits)

    return encode_credit


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


def _sender_span(payload: Union[bytes, memoryview]) -> Optional[Tuple[int, int]]:
    """Where an inner frame's first body field sits: ``(offset, end)``
    behind its prologue, at the width its kind byte declares; ``None``
    when ``payload`` does not start with a valid prefix or is too short."""
    try:
        kind_at = prologue(payload)[0]
    except WireError:
        return None
    if len(payload) <= kind_at:
        return None
    stop = kind_at + (3 if payload[kind_at] & NARROW else 5)
    return (kind_at + 1, stop) if len(payload) >= stop else None


def _enc_route(msg: RoutedFrame) -> bytes:
    payload = msg.payload
    flags = _RF_DATA if msg.data else 0
    span = _sender_span(payload)
    if span is not None and int.from_bytes(payload[span[0]:span[1]], "big") == msg.src:
        length = 6 + len(payload)
        head = _ROUTE_E_FRAME.pack(
            length & 0x7F, WireKind.ROUTE, flags | _RF_SRC_ELIDED, msg.dst
        )
    else:
        length = 10 + len(payload)
        head = _ROUTE_FRAME.pack(length & 0x7F, WireKind.ROUTE, flags, msg.src, msg.dst)
    return head + payload if length < 0x80 else _long_frame(length, head, payload)


def _pack_batch(frames: Sequence[bytes]) -> bytes:
    """One BATCH frame around already-encoded ``frames`` (each validated),
    which it carries verbatim."""
    if not frames:
        raise WireError("a frame batch must hold at least one frame")
    size = 0
    for frame in frames:
        first = frame[0] if frame else 0
        kind_at, payload_len = (1, first) if 0 < first < 0x80 else prologue(frame)
        if kind_at + payload_len != len(frame):
            raise WireError("batch entry length prefix mismatch")
        if frame[kind_at] == _BATCH:
            raise WireError("frame batches must not nest")
        size += len(frame)
    length = 2 + size  # the kind byte and a one-byte count
    if length < 0x80:
        head = bytes((length, _BATCH, len(frames)))
    else:
        count = _varint(len(frames))
        length += len(count) - 1
        if length > MAX_FRAME_PAYLOAD:
            raise WireError(f"frame payload too large: {length}")
        head = _varint(length) + _BATCH_BYTE + count
    return b"".join((head, *frames))


def _enc_batch(msg: FrameBatch) -> bytes:
    return _pack_batch(msg.frames)


def _enc_telemetry(msg: TelemetryFrame) -> bytes:
    length = 1 + _TELEM_BODY.size + len(msg.payload)
    head = _TELEM_FRAME.pack(length & 0x7F, WireKind.TELEMETRY, msg.shard, msg.period)
    return head + msg.payload if length < 0x80 else _long_frame(length, head, msg.payload)


def _widths(factory: Callable[..., Callable], *args) -> Tuple[Callable, Callable]:
    """The ``(wide, narrow)`` pair of coders a factory builds."""
    return factory(*args, 0), factory(*args, 1)


_ENCODERS: Dict[type, Tuple[Callable[..., bytes], Callable[..., bytes]]] = {
    BufferMapMsg: _widths(_map_encoder),
    BufferMapDelta: _widths(_delta_encoder),
    SegmentRequest: _widths(_pull_encoder, WireKind.SEGMENT_REQUEST),
    SegmentNack: _widths(_pull_encoder, WireKind.SEGMENT_NACK),
    SegmentData: _widths(_data_encoder),
    DhtLookup: _widths(_lookup_encoder),
    DhtResponse: _widths(_response_encoder),
    Ping: _widths(_probe_encoder, WireKind.PING),
    Pong: _widths(_probe_encoder, WireKind.PONG),
    Handover: _widths(_handover_encoder),
    CreditGrant: _widths(_credit_encoder),
    ShardHello: (_enc_hello,) * 2,
    RoutedFrame: (_enc_route,) * 2,
    FrameBatch: (_enc_batch,) * 2,
    TelemetryFrame: (_enc_telemetry,) * 2,
}


def encode(msg: WireMessage) -> bytes:
    """Serialise one message into a length-prefixed frame, narrow when
    every integer field fits 16 bits, else wide."""
    encoders = _ENCODERS.get(type(msg))
    if encoders is None:
        raise WireError(f"cannot encode {type(msg).__name__}")
    try:
        return encoders[1](msg)
    except struct.error:
        try:
            return encoders[0](msg)
        except struct.error as exc:
            raise WireError(f"{type(msg).__name__} field out of range: {exc}") from exc


#: A batch's payload beyond its entries, at most: the kind byte and the
#: longest count varint.
_BATCH_HEAD = 1 + MAX_PREFIX


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
    group_len = _BATCH_HEAD

    def _flush() -> None:
        nonlocal group, group_len
        if len(group) == 1:
            out.append(group[0])
        elif group:
            out.append(_pack_batch(group))
        group = []
        group_len = _BATCH_HEAD

    for frame in frames:
        size = len(frame)
        kind_at = 1 if frame[0] < 0x80 else prologue(frame)[0]  # an encoded frame
        if size + _BATCH_HEAD > limit or frame[kind_at] == _BATCH:
            _flush()
            out.append(frame)
            continue
        if group_len + size > limit:
            _flush()
        group.append(frame)
        group_len += size
    _flush()
    return out


def prologue(
    frame: Union[bytes, bytearray, memoryview], offset: int = 0
) -> Tuple[int, int]:
    """Read the length prefix of the frame at ``offset``: ``(start,
    length)`` of its payload, the kind byte first.

    The one parser of the frame layout: the stream decoder, batch entries,
    :func:`is_batch`, :func:`is_one_shot`, :func:`frame_count` and routed
    source elision all find the kind byte through it.  Whether the payload
    is all there is the caller's check.

    Raises:
        TruncatedFrameError: the buffer ends inside the prefix.
        WireError: the prefix is not minimal, is longer than
            :data:`MAX_PREFIX` bytes, or announces an empty payload or one
            past :data:`MAX_FRAME_PAYLOAD`.
    """
    end = len(frame)
    if offset < end:
        length = frame[offset]
        if 0 < length < 0x80:
            return offset + 1, length
    # A prefix ends at its first byte below 0x80.
    head = frame[offset:offset + MAX_PREFIX]
    if len(head) < MAX_PREFIX and all(byte & 0x80 for byte in head):
        raise TruncatedFrameError("incomplete length prefix")
    length, start = _varint_at(frame, offset, end, "length prefix")
    if length < 1:
        raise WireError("frame payload must hold at least the kind byte")
    if length > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload too large: {length}")
    return start, length


# The frame helpers below run once per frame a link moves: each reads the
# kind byte behind a one-byte prefix inline and calls :func:`prologue`
# only for a longer one.  A frame without a valid prefix and kind byte is
# none of the things they test for.
def frame_count(frame: Union[bytes, bytearray, memoryview]) -> int:
    """Logical frames carried by one physical frame (batch count, else 1)."""
    try:
        kind_at = 1 if 0 < frame[0] < 0x80 else prologue(frame)[0]
        if frame[kind_at] != _BATCH:
            return 1
    except (IndexError, WireError):
        return 1
    return _varint_at(frame, kind_at + 1, len(frame), "frame-batch count")[0]


def is_batch(frame: Union[bytes, bytearray, memoryview]) -> bool:
    """Whether one frame is a :class:`FrameBatch` envelope."""
    try:
        return (frame[1] if 0 < frame[0] < 0x80 else frame[prologue(frame)[0]]) == _BATCH
    except (IndexError, WireError):
        return False


#: Control kinds whose loss nothing repairs: a credit grant (the granting
#: side already reset its owed balance, so the window would stay short)
#: and a graceful-leave handover (the sender stops right after shipping
#: it).  A socket link never sheds them.
ONE_SHOT_KINDS = frozenset({WireKind.CREDIT, WireKind.HANDOVER})

#: The kinds a peer applies even from a frame its inbox shed: the one-shot
#: kinds plus buffer-map gossip.  Delta gossip is stateful — a full map
#: anchors the chain, each delta links it — so losing either leaves the
#: receiver's view of the sender a desync round-trip stale.
ABSORBED_KINDS = ONE_SHOT_KINDS | {WireKind.BUFFER_MAP, WireKind.MAP_DELTA}


def is_one_shot(frame: Union[bytes, bytearray, memoryview]) -> bool:
    """Whether one frame is of a :data:`ONE_SHOT_KINDS` kind, at either width."""
    try:
        kind = frame[1] if 0 < frame[0] < 0x80 else frame[prologue(frame)[0]]
    except (IndexError, WireError):
        return False
    return kind & ~NARROW in ONE_SHOT_KINDS


# ====================================================================== decoding
#
# Each peer kind's decoder is built per width, like its encoder, and
# registered under both kind bytes.  Every decoder checks the body length
# exactly, so a narrow kind byte on a wide-length body is a WireError.
def _varint_at(
    buf: Union[bytes, bytearray, memoryview], pos: int, end: int, what: str
) -> Tuple[int, int]:
    """The varint at ``pos`` and the position after it; it must be
    minimal, at most :data:`MAX_PREFIX` bytes and end before ``end``."""
    value = shift = 0
    while pos < end:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if shift and not byte:
                raise WireError(f"{what} is not a minimal varint")
            return value, pos
        shift += 7
        if shift == 7 * MAX_PREFIX:
            raise WireError(f"{what} is longer than {MAX_PREFIX} bytes")
    raise WireError(f"{what} truncated")


def _varints(raw: bytes, what: str) -> List[int]:
    """Every varint in ``raw``, which must end with one: the rules of
    :func:`_varint_at` in one pass (a delta's run list, read whole)."""
    values: List[int] = []
    append = values.append
    value = shift = 0
    for byte in raw:
        if not shift and byte < 0x80:  # a one-byte varint: most of them
            append(byte)
        elif byte & 0x80:
            value |= (byte & 0x7F) << shift
            shift += 7
            if shift == 7 * MAX_PREFIX:
                raise WireError(f"{what} is longer than {MAX_PREFIX} bytes")
        else:
            if not byte:
                raise WireError(f"{what} is not a minimal varint")
            append(value | byte << shift)
            value = shift = 0
    if shift:
        raise WireError(f"{what} truncated")
    return values


def _unpacker(bodies: tuple, narrow: int) -> Tuple[Callable[..., tuple], int]:
    """What a per-width decoder closes over: its body Struct's
    ``unpack_from`` and the body header size."""
    return bodies[narrow].unpack_from, bodies[narrow].size


def _map_decoder(narrow: int) -> Callable[[memoryview, int, int], BufferMapMsg]:
    unpack, size = _unpacker(_BM_BODY, narrow)

    def decode_map(view: memoryview, start: int, end: int) -> BufferMapMsg:
        if end - start < size:
            raise WireError("buffer-map body too short")
        sender, newest, head, capacity, seq = unpack(view, start)
        if capacity < 1:
            raise WireError("capacity must be >= 1")
        nbytes = (capacity + 7) // 8
        if end - start - size != nbytes:
            raise WireError(
                f"bitmap of capacity {capacity} needs {nbytes} bytes, "
                f"got {end - start - size}"
            )
        return BufferMapMsg(
            sender, newest - narrow, head, capacity, bytes(view[start + size : end]), seq
        )

    return decode_map


def _delta_decoder(narrow: int) -> Callable[[memoryview, int, int], BufferMapDelta]:
    unpack, size = _unpacker(_MD_BODY, narrow)

    def decode_delta(view: memoryview, start: int, end: int) -> BufferMapDelta:
        if end - start <= size:
            raise WireError("map-delta body too short")
        sender, seq, newest, head, capacity = unpack(view, start)
        if capacity < 1:
            raise WireError("capacity must be >= 1")
        values = bytes(view[start + size : end])
        if not values.isascii():  # some varint is longer than one byte
            values = _varints(values, "map-delta run")
        count = values[0]
        if len(values) != 1 + 2 * count:
            raise WireError(
                f"map-delta with {count} runs needs {2 * count} run varints, "
                f"got {len(values) - 1}"
            )
        runs = []
        offset = 0
        for gap, length in zip(values[1::2], values[2::2]):
            if length < 1:
                raise WireError("delta run length must be >= 1")
            offset += gap
            runs.append((offset, length))
            offset += length
        if offset > capacity:
            raise WireError(f"delta run ends at offset {offset}, past capacity {capacity}")
        return BufferMapDelta(sender, seq, newest - narrow, head, capacity, tuple(runs))

    return decode_delta


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


def _pull_decoder(
    cls: type, what: str, narrow: int
) -> Callable[[memoryview, int, int], WireMessage]:
    (unpack, size), ids_struct = _unpacker(_PULL_BODY, narrow), _IDS[narrow]
    id_size = ids_struct(1).size
    count_what = what + " id count"

    def decode_pull(view: memoryview, start: int, end: int) -> WireMessage:
        if end - start < size:
            raise WireError(f"{what} body size mismatch")
        sender, segment_id, flags = unpack(view, start)
        if not flags & (_TRACED_FLAG | _LIST_FLAG):  # one untraced segment: most pulls
            if end - start != size:
                raise WireError(f"{what} body size mismatch")
            return cls(sender, segment_id, bool(flags & 1))
        if not flags & _LIST_FLAG:
            trace_id = _trace_tail(view, start, end, size, flags, what)
            return cls(sender, segment_id, bool(flags & 1), trace_id)
        pos = start + size
        count = view[pos] if pos < end else 0x80
        if count < 0x80:
            pos += 1
        else:
            count, pos = _varint_at(view, pos, end, count_what)
        if count < 1:
            raise WireError(f"{what} id list must hold at least one further id")
        tail = _TRACE_TAIL.size * (count + 1) if flags & _TRACED_FLAG else 0
        if end - pos != count * id_size + tail:
            raise WireError(f"{what} body size mismatch")
        more_ids = ids_struct(count).unpack_from(view, pos)
        trace_ids = (
            _traces_struct(count + 1).unpack_from(view, pos + count * id_size)
            if tail
            else (0,) * (count + 1)
        )
        return cls(
            sender, segment_id, bool(flags & 1), trace_ids[0], tuple(zip(more_ids, trace_ids[1:]))
        )

    return decode_pull


def _data_decoder(narrow: int) -> Callable[[memoryview, int, int], SegmentData]:
    unpack, size = _unpacker(_DATA_BODY, narrow)

    def decode_data(view: memoryview, start: int, end: int) -> SegmentData:
        if end - start < size:
            raise WireError("segment-data body size mismatch")
        sender, segment_id, size_bits, flags = unpack(view, start)
        trace_id = _trace_tail(view, start, end, size, flags, "segment-data")
        return SegmentData(sender, segment_id, size_bits, bool(flags & 1), trace_id)

    return decode_data


def _dec_ids(
    view: memoryview, pos: int, end: int, count: int, narrow: int, what: str
) -> Tuple[int, ...]:
    """Exactly ``count`` ids from ``pos`` to ``end``.  ``count`` is the
    header's last byte; from 128 on it begins a longer varint, read here."""
    if count >= 0x80:
        count, pos = _varint_at(view, pos - 1, end, what + " length")
    need = count * (4 - 2 * narrow)
    if end - pos != need:
        raise WireError(f"{what}: {count} ids need {need} bytes, got {end - pos}")
    return _IDS[narrow](count).unpack_from(view, pos)


def _lookup_decoder(narrow: int) -> Callable[[memoryview, int, int], DhtLookup]:
    unpack, size = _unpacker(_LOOKUP_BODY, narrow)

    def decode_lookup(view: memoryview, start: int, end: int) -> DhtLookup:
        if end - start < size:
            raise WireError("dht-lookup body too short")
        origin, key, segment_id, count = unpack(view, start)
        path = _dec_ids(view, start + size, end, count, narrow, "dht-lookup path")
        return DhtLookup(origin, key, segment_id, path)

    return decode_lookup


def _response_decoder(narrow: int) -> Callable[[memoryview, int, int], DhtResponse]:
    unpack, size = _unpacker(_RESP_BODY, narrow)

    def decode_response(view: memoryview, start: int, end: int) -> DhtResponse:
        if end - start < size:
            raise WireError("dht-response body too short")
        responder, origin, key, segment_id, flags, rate, count = unpack(view, start)
        path = _dec_ids(view, start + size, end, count, narrow, "dht-response path")
        return DhtResponse(responder, origin, key, segment_id, bool(flags & 1), rate, path)

    return decode_response


def _probe_decoder(cls: type, narrow: int) -> Callable[[memoryview, int, int], WireMessage]:
    unpack, size = _unpacker(_PROBE_BODY, narrow)

    def decode_probe(view: memoryview, start: int, end: int) -> WireMessage:
        if end - start != size:
            raise WireError("ping/pong body size mismatch")
        sender, nonce = unpack(view, start)
        return cls(sender, nonce)

    return decode_probe


def _handover_decoder(narrow: int) -> Callable[[memoryview, int, int], Handover]:
    unpack, size = _unpacker(_HANDOVER_BODY, narrow)

    def decode_handover(view: memoryview, start: int, end: int) -> Handover:
        if end - start < size:
            raise WireError("handover body too short")
        sender, segment_bits, count = unpack(view, start)
        ids = _dec_ids(view, start + size, end, count, narrow, "handover ids")
        return Handover(sender=sender, segment_bits=segment_bits, segment_ids=ids)

    return decode_handover


def _credit_decoder(narrow: int) -> Callable[[memoryview, int, int], CreditGrant]:
    unpack, size = _unpacker(_CREDIT_BODY, narrow)

    def decode_credit(view: memoryview, start: int, end: int) -> CreditGrant:
        if end - start != size:
            raise WireError("credit-grant body size mismatch")
        sender, credits = unpack(view, start)
        if credits < 1:
            raise WireError("credit grant must carry >= 1 credit")
        return CreditGrant(sender, credits)

    return decode_credit


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
        span = _sender_span(view[payload_start:end])
        if span is None:
            raise WireError("src-elided routed frame needs a payload that spells its sender")
        src = int.from_bytes(view[payload_start + span[0] : payload_start + span[1]], "big")
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


def _batch_spans(view: memoryview, start: int, end: int) -> List[Tuple[int, int, int]]:
    """Validate a whole batch body; return each entry's ``(start,
    kind_at, end)``: where its prefix, its kind byte and the entry end.

    Entries are parsed with :func:`prologue`, exactly like loose frames.
    Nothing is decoded (or dispatched) from a malformed envelope: entry
    prefixes, sizes, nesting and trailing bytes are all checked first.
    """
    if start < end and view[start] < 0x80:
        count, pos = view[start], start + 1
    else:
        count, pos = _varint_at(view, start, end, "frame-batch count")
    if count < 1:
        raise WireError("a frame batch must hold at least one frame")
    if end != len(view):
        view = view[:end]  # an entry's prefix must not run past the batch
    spans: List[Tuple[int, int, int]] = []
    for _ in range(count):
        if pos == end:
            raise WireError("frame-batch entry header truncated")
        length = view[pos]
        if 0 < length < 0x80:
            kind_at = pos + 1
        else:
            try:
                kind_at, length = prologue(view, pos)
            except TruncatedFrameError:
                raise WireError("frame-batch entry header truncated") from None
        stop = kind_at + length
        if stop > end:
            raise WireError("frame-batch entry truncated")
        if view[kind_at] == _BATCH:
            raise WireError("frame batches must not nest")
        spans.append((pos, kind_at, stop))
        pos = stop
    if pos != end:
        raise WireError("frame batch has trailing bytes")
    return spans


def _dec_batch(view: memoryview, start: int, end: int) -> FrameBatch:
    spans = _batch_spans(view, start, end)
    return FrameBatch(tuple(bytes(view[first:stop]) for first, _, stop in spans))


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
    WireKind.SHARD_HELLO: _dec_hello,
    WireKind.ROUTE: _dec_route,
    WireKind.BATCH: _dec_batch,
    WireKind.TELEMETRY: _dec_telemetry,
}
_DECODERS.update(
    (kind | NARROW * narrow, decoder)
    for kind, coders in {
        WireKind.BUFFER_MAP: _widths(_map_decoder),
        WireKind.SEGMENT_REQUEST: _widths(_pull_decoder, SegmentRequest, "segment-request"),
        WireKind.SEGMENT_DATA: _widths(_data_decoder),
        WireKind.DHT_LOOKUP: _widths(_lookup_decoder),
        WireKind.DHT_RESPONSE: _widths(_response_decoder),
        WireKind.PING: _widths(_probe_decoder, Ping),
        WireKind.PONG: _widths(_probe_decoder, Pong),
        WireKind.HANDOVER: _widths(_handover_decoder),
        WireKind.SEGMENT_NACK: _widths(_pull_decoder, SegmentNack, "segment-nack"),
        WireKind.CREDIT: _widths(_credit_decoder),
        WireKind.MAP_DELTA: _widths(_delta_decoder),
    }.items()
    for narrow, decoder in enumerate(coders)
)
_DECODERS = {int(kind): fn for kind, fn in _DECODERS.items()}


def _frame_decoder(
    view: memoryview, offset: int
) -> Tuple[Callable[[memoryview, int, int], WireMessage], int, int]:
    """Check the frame prologue at ``offset`` (length prefix, size bound,
    completeness, kind); return its decoder and body ``(start, end)``."""
    total = len(view)
    length = view[offset] if offset < total else 0
    if 0 < length < 0x80:  # a one-byte prefix: almost every frame
        start = offset + 1
    else:
        start, length = prologue(view, offset)
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


def decode_frame(
    frame: Union[bytes, bytearray, memoryview], only: Optional[Container[int]] = None
) -> Sequence[WireMessage]:
    """Every message one complete frame carries, in order: a
    :class:`FrameBatch`'s inner messages, or the frame's own.

    The receive path's unwrap: callers never read the kind byte.  ``frame``
    must be exactly one complete frame (what a link delivers).  A batch
    envelope is validated whole, then the inner frames are decoded
    straight out of the same memory — no :class:`FrameBatch` object, no
    per-entry ``bytes`` copy.  All or nothing: a malformed envelope *or*
    inner frame raises :class:`WireError` before any message is returned,
    so a caller dispatches none of a bad batch.  With ``only``
    (:class:`WireKind` numbers), messages of any other kind are skipped
    undecoded.
    """
    view = frame if type(frame) is memoryview else memoryview(frame)
    decoder, start, end = _frame_decoder(view, 0)
    if end != len(view):
        raise WireError("decode_frame needs exactly one complete frame")
    if decoder is not _dec_batch:
        if only is not None and view[start - 1] & ~NARROW not in only:
            return ()
        return (decoder(view, start, end),)
    messages: List[WireMessage] = []
    for _, kind_at, stop in _batch_spans(view, start, end):
        kind = view[kind_at]
        if only is not None and kind & ~NARROW not in only:
            continue
        decoder = _DECODERS.get(kind)
        if decoder is None:
            raise WireError(f"unknown wire kind {kind}")
        messages.append(decoder(view, kind_at + 1, stop))
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
        # Peek the length prefix so a partial frame at the end is a cheap
        # comparison rather than a raised TruncatedFrameError.
        while offset < available:
            length = buffer[offset]
            if 0 < length < 0x80:
                if available - offset <= length:
                    break
            else:
                try:
                    start, length = prologue(buffer, offset)
                except TruncatedFrameError:
                    break
                if available - start < length:
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
    exactly as on the loopback transport.  The observability trace tail
    (:mod:`repro.obs`) of a segment frame is physical-only too: a
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
