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
(see *encoding* below).  A sender encodes every message once; a receiver
in the same process is handed the message itself and charged the frame's
bytes, and only a frame that crossed a socket (:mod:`repro.runtime.cluster`)
is decoded.  The one field a frame stores with less precision than the
message, :class:`DhtResponse` ``rate``, is built already rounded
(:func:`f32`), so both receivers read the same value.

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
move.  Each frame kind's layout is one row of a table (*the table* below)
from which both its encoder and its decoder are built, so both sides read
one field order, one set of flag bits and one range check per field type.
Decoding refuses what encoding cannot write: a flag bit the kind does not
define (a *reserved* bit) or a field below its type's range is a
:class:`WireError`, so ``encode(decode(f)) == f`` for every frame that
decodes, save two spellings the encoder never writes and the decoder still
reads: a wide frame whose fields would all fit narrow, and a routed frame
that spells a source its payload already leads with.  Decoding operates
on ``memoryview`` slices of the receive buffer so steady-state decode
performs no intermediate payload copies.  Every reader of the layout finds
the kind byte through one helper, :func:`prologue`.

A segment is its id (the reproduction never ships real media), so a
:class:`SegmentData` frame carries the run's ``segment_bits`` instead of
payload bytes; the ledger charges that size.  A :class:`Handover` frame
carries only ids: its receiver knows every segment is ``segment_bits``
long.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import lru_cache, partial
from operator import attrgetter, itemgetter
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

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


_FLOAT = struct.Struct(">f")


def f32(value: float) -> float:
    """``value`` as a frame carries it: rounded to an f32, the width of
    :class:`DhtResponse` ``rate``.  A peer builds the message with it, so
    a receiver in its own process reads what a socket's decoder would."""
    return _FLOAT.unpack(_FLOAT.pack(value))[0]


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
]


# ====================================================================== encoding
#
# A kind's layout is its row in *the table* below, which builds the kind's
# encoder per width; the envelopes are packed by hand.
#
# Every peer message has two widths: the *narrow* layout spells ids,
# segment numbers, ``seq``, ``newest_id``/``head_id``, sizes and id lists in
# 16 bits and sets :data:`NARROW` in the kind byte, the *wide* one in 32.
# :func:`encode` packs narrow first and falls back to wide on
# ``struct.error``, so a frame is narrow exactly when every integer fits.
# A narrow ``newest_id`` rides as ``newest_id + 1`` so the fresh-stream -1
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


#: Optional trace-id tail on segment request/data/nack frames (flag bit
#: 1): one u64 per segment the frame carries.  Physical-only: absent when
#: no trace id is set, never ledger-charged (:mod:`repro.obs`
#: segment-journey tracing).
_TRACE_TAIL = struct.Struct(">Q")
_TRACED_FLAG = 0x2
#: Flag bit 2 of a request/nack frame: a varint count and the further
#: segment ids (at the frame's width) follow the header.
_LIST_FLAG = 0x4
_ROUTE_FRAME = struct.Struct(">BBBII")  # len, kind, flags, src, dst
_ROUTE_E_FRAME = struct.Struct(">BBBI")  # len, kind, flags, dst (src in payload)
_ROUTE_IDS = struct.Struct(">II")

#: How far under :data:`MAX_FRAME_PAYLOAD` a frame's payload must stay for
#: a :class:`RoutedFrame` to carry the frame: the envelope's kind, flags
#: and ids, plus the carried frame's own longest prefix.
ROUTE_HEADROOM = _ROUTE_FRAME.size - 1 + MAX_PREFIX

#: RoutedFrame flag bits.
_RF_DATA = 0x01
_RF_SRC_ELIDED = 0x02


def _counted(code: str, size: int) -> Callable[[int], struct.Struct]:
    """A cache of ``>{count}{code}`` Structs by count."""
    return lru_cache(maxsize=size)(lambda count: struct.Struct(f">{count}{code}"))


#: The per-count Struct of a path / handover / pull id list, by width, and
#: of a pull list's trace ids.
_IDS = (_counted("I", 512), _counted("H", 512))
_traces_struct = _counted("Q", 64)
#: The ``pack`` of a one-byte count and that many ids, by width and count,
#: with the count bound: the id list of almost every frame, packed in one
#: call that allocates nothing but the result.
_LISTS = tuple(
    tuple(partial(struct.Struct(f">B{count}{code}").pack, count) for count in range(0x80))
    for code in "IH"
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
    return b"".join((_batch_head(len(frames), size), *frames))


def _batch_head(count: int, size: int) -> bytes:
    """What a batch of ``count`` entries, ``size`` bytes in all, puts
    before them: its length prefix, kind byte and count."""
    length = 2 + size  # the kind byte and a one-byte count
    if length < 0x80:
        return bytes((length, _BATCH, count))
    varint = _varint(count)
    length += len(varint) - 1
    if length > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload too large: {length}")
    return _varint(length) + _BATCH_BYTE + varint


def _enc_batch(msg: FrameBatch) -> bytes:
    return _pack_batch(msg.frames)


def encode(msg: WireMessage) -> bytes:
    """Serialise one message into a length-prefixed frame, narrow when
    every integer field fits 16 bits, else wide."""
    try:
        encoder = _NARROW[type(msg)]
    except KeyError:
        raise WireError(f"cannot encode {type(msg).__name__}") from None
    try:
        return encoder(msg)
    except struct.error:
        try:
            return _ENCODE[type(msg)][0](msg)
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


def batch_size(count: int, payload: int) -> Optional[int]:
    """Bytes of the one envelope :func:`encode_batch` makes of ``count``
    (> 1) loose frames of ``payload`` bytes in all, or ``None`` when they
    need more than one — what a link charges for frames it hands over
    unbatched.  (Every frame fits when all of them do.)"""
    if payload + _BATCH_HEAD > MAX_FRAME_PAYLOAD:
        return None
    return len(_batch_head(count, payload)) + payload


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


def _dec_route(view: memoryview, start: int, end: int) -> RoutedFrame:
    if end - start < 5:
        raise WireError("routed-frame body too short")
    flags = view[start]
    if flags & ~(_RF_DATA | _RF_SRC_ELIDED):
        raise WireError(f"RoutedFrame sets undefined flag bits {flags:#04x}")
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


# ===================================================================== the table
#
# A frame kind's layout is its row of :data:`_ROWS`: the kind byte and the
# message class, the header fields in wire order with their types, the flag
# bits the kind defines and the shape of its tail.  A :class:`_Layout` reads
# one row at one width, and the row's tail shape in :data:`_TAILS` builds
# the encoder and the decoder from that one reading, so both sides read one
# field order, one set of flag bits and one range check per field type.  A
# new kind is one row plus its golden vectors at both widths.


class _Type(NamedTuple):
    """A header field's type: its Struct code wide and narrow, what a
    narrow frame adds, and the least legal value the code does not bound."""

    wide: str
    narrow: str
    bias: int = 0
    low: Optional[int] = None


#: Ids, segment numbers, sequence numbers, sizes and nonces.
_ID = _Type("I", "H")
#: The live edge: ``-1`` until a segment is seen, so a narrow frame
#: carries ``newest_id + 1``.
_NEWEST = _Type("i", "H", bias=1, low=-1)
#: A buffer window's slot count, which its tail checks: at least one slot,
#: and a bitmap or delta runs inside the window.
_CAPACITY = _Type("H", "H")
#: Credits and a cluster's shard count.
_POSITIVE = _Type("H", "H", low=1)
#: A shard index.
_U16 = _Type("H", "H")
#: Bit 0 of the kind's flags byte (pre-fetch, has-data): ``?`` packs any
#: value as 0 or 1 and unpacks a bool.
_FLAG = _Type("?", "?")
#: A DHT holder's upload rate.
_F32 = _Type("f", "f")

_FLAG_BIT = 0x1  # the row's _FLAG field in its flags byte


class _Row(NamedTuple):
    """One frame kind's layout (see the section comment).

    ``header`` hands a message's header fields to ``pack`` in wire order,
    as plain attribute reads (the field names are read off it too, see
    :class:`_Names`); ``types`` gives each field's :class:`_Type`.
    ``tail`` names the shape behind the header in :data:`_TAILS`, which
    spells the message fields ``tail_fields``: ``None``; ``"bytes"`` (the
    rest of the frame: a window's packed bits, sized by its capacity, or
    an opaque payload); ``"runs"`` (a delta's varint run list); ``"ids"``
    (a varint count and the ids at the frame's width); ``"pulls"``
    (``trace_id`` and, where the row defines flag bit 2, ``more``: flag bit
    1 adds one u64 trace id per segment, flag bit 2 a varint count and the
    further segment ids), whose flags byte ends the header.  ``widths = 1``
    ships the wide layout only."""

    kind: WireKind
    cls: type
    header: Callable[[Callable[..., Any], Any], Any]
    types: Tuple[_Type, ...]
    flags: int = 0
    tail: Optional[str] = None
    tail_fields: Tuple[str, ...] = ()
    widths: int = 2


_PULL_FLAGS = _FLAG_BIT | _TRACED_FLAG | _LIST_FLAG

_ROWS = (
    _Row(WireKind.BUFFER_MAP, BufferMapMsg,
         lambda pack, m: pack(m.sender, m.newest_id, m.head_id, m.capacity, m.seq),
         (_ID, _NEWEST, _ID, _CAPACITY, _ID), tail="bytes", tail_fields=("bitmap",)),
    _Row(WireKind.MAP_DELTA, BufferMapDelta,
         lambda pack, m: pack(m.sender, m.seq, m.newest_id, m.head_id, m.capacity),
         (_ID, _ID, _NEWEST, _ID, _CAPACITY), tail="runs", tail_fields=("runs",)),
    _Row(WireKind.SEGMENT_REQUEST, SegmentRequest,
         lambda pack, m: pack(m.sender, m.segment_id, m.prefetch),
         (_ID, _ID, _FLAG), _PULL_FLAGS, "pulls", ("trace_id", "more")),
    _Row(WireKind.SEGMENT_NACK, SegmentNack,
         lambda pack, m: pack(m.sender, m.segment_id, m.prefetch),
         (_ID, _ID, _FLAG), _PULL_FLAGS, "pulls", ("trace_id", "more")),
    _Row(WireKind.SEGMENT_DATA, SegmentData,
         lambda pack, m: pack(m.sender, m.segment_id, m.size_bits, m.prefetch),
         (_ID, _ID, _ID, _FLAG), _FLAG_BIT | _TRACED_FLAG, "pulls", ("trace_id",)),
    _Row(WireKind.DHT_LOOKUP, DhtLookup,
         lambda pack, m: pack(m.origin, m.target_key, m.segment_id),
         (_ID, _ID, _ID), tail="ids", tail_fields=("path",)),
    _Row(WireKind.DHT_RESPONSE, DhtResponse,
         lambda pack, m: pack(
             m.responder, m.origin, m.target_key, m.segment_id, m.has_data, m.rate),
         (_ID, _ID, _ID, _ID, _FLAG, _F32), _FLAG_BIT, "ids", ("path",)),
    _Row(WireKind.PING, Ping, lambda pack, m: pack(m.sender, m.nonce), (_ID, _ID)),
    _Row(WireKind.PONG, Pong, lambda pack, m: pack(m.sender, m.nonce), (_ID, _ID)),
    _Row(WireKind.HANDOVER, Handover, lambda pack, m: pack(m.sender), (_ID,),
         tail="ids", tail_fields=("segment_ids",)),
    _Row(WireKind.CREDIT, CreditGrant, lambda pack, m: pack(m.sender, m.credits), (_ID, _POSITIVE)),
    _Row(WireKind.SHARD_HELLO, ShardHello,
         lambda pack, m: pack(m.shard_index, m.num_shards, m.token, m.ring_size),
         (_U16, _POSITIVE, _ID, _ID), widths=1),
)


class _Names:
    """Stands in for a message so a row's ``header`` spells the names of
    the fields it reads: the field order is written once, in the row."""

    def __getattr__(self, name: str) -> str:
        return name


def _spread(*values: Any) -> tuple:
    """A ``pack`` for a row's ``header`` that returns what it is given."""
    return values


class _Layout:
    """One row at one width, read once for both of its coders: the header
    field ``names``, Struct ``codes`` and ``size``, the constructor over
    wire-order values, the capacity field's index, and the offset of the
    flags byte whose bits outside ``row.flags`` (``undefined``) decode
    refuses."""

    def __init__(self, row: _Row, narrow: int) -> None:
        self.row, self.narrow, self.kind = row, narrow, row.kind | NARROW * narrow
        self.names: Tuple[str, ...] = row.header(_spread, _Names())
        if len(self.names) != len(row.types):
            raise TypeError(f"the {row.cls.__name__} row needs one type per header field")
        self.codes = "".join(kind.narrow if narrow else kind.wide for kind in row.types)
        self.size = struct.calcsize(">" + self.codes)
        self.make = _maker(row, [*self.names, *row.tail_fields])
        self.bound_at = next((at for at, kind in enumerate(row.types) if kind is _CAPACITY), None)
        flagged = _FLAG in row.types
        self.flag_at = struct.calcsize(">" + self.codes[:self.codes.index("?")]) if flagged else 0
        self.undefined = 0xFF & ~row.flags if flagged else 0


def _maker(row: _Row, wire_order: List[str]) -> Callable[..., Any]:
    """``row``'s constructor over its wire-order values (header, then tail)."""
    names = [field.name for field in fields(row.cls)]
    if sorted(wire_order) != sorted(names):
        raise TypeError(f"the {row.cls.__name__} row must name each field once")
    if wire_order == names:
        return row.cls
    pick = itemgetter(*(wire_order.index(name) for name in names))
    return lambda *values: row.cls(*pick(values))


def _fixer(lay: _Layout, to_wire: bool) -> Optional[Callable[[Sequence], Sequence]]:
    """Check each header value against its type's ``low``, then shift it by
    the width's bias onto the wire (``to_wire``) or off it; ``None`` where
    no type asks for either."""
    narrow, what = lay.narrow, lay.row.cls.__name__
    # A narrow newest_id rides as newest_id + 1: its unsigned code is the check.
    lows = tuple((at, kind.low + (0 if to_wire else kind.bias * narrow), name)
                 for at, (name, kind) in enumerate(zip(lay.names, lay.row.types))
                 if kind.low is not None and kind.low + kind.bias * narrow)
    shifts = tuple((at, kind.bias if to_wire else -kind.bias)
                   for at, kind in enumerate(lay.row.types) if kind.bias * narrow)
    if not (lows or shifts):
        return None

    def fix(values: Sequence) -> Sequence:
        for at, low, name in lows:
            if values[at] < low:
                raise WireError(f"{what}.{name} out of range: {values[at]}")
        if shifts:
            values = list(values)
            for at, shift in shifts:
                values[at] += shift
        return values

    return fix


def _packs(lay: _Layout, codes: str = "") -> List[Callable[..., bytes]]:
    """The header's ``pack`` behind a one-byte prefix and the kind byte, by
    payload length (the prefix is a placeholder past 127, re-spelled by
    :func:`_long_frame`), checking the header values first."""
    pack, fix = struct.Struct(">BB" + (codes or lay.codes)).pack, _fixer(lay, True)
    packs = [partial(pack, length, lay.kind) for length in range(0x80)]
    return packs if fix is None else [_behind(fix, then) for then in packs]


def _behind(fix: Callable[[Sequence], Sequence], then: Callable[..., Any]) -> Callable[..., Any]:
    """``then`` over the values ``fix`` returns for the ones it is given."""
    return lambda *values: then(*fix(values))


# Each tail shape builds a row's encoder and decoder from its layout.  An
# encoder has the row's ``header`` pack the header with one Struct; a value
# past its code raises ``struct.error``, the cue for :func:`encode` to try
# the wide layout.  The hot encoders allocate their frame's parts and
# nothing else: no argument tuples or lists, no varargs call.  A decoder
# checks the body length exactly (a narrow kind byte on a wide-length body
# is a :class:`WireError`) and refuses flag bits the row does not define.
def _fixed_encoder(lay: _Layout) -> Callable[[Any], bytes]:
    return partial(lay.row.header, _packs(lay)[1 + lay.size])


def _tailed_encoder(write: Callable[[Any, Optional[int], int], bytes], lay: _Layout) -> Callable:
    """``lay``'s encoder for a tail written by ``write(value, capacity,
    narrow)``; ``capacity`` is the header's (``None`` where the row has
    none)."""
    put, packs, fixed, narrow = lay.row.header, _packs(lay), 1 + lay.size, lay.narrow
    tail_of = attrgetter(*lay.row.tail_fields)
    capacity_of = attrgetter(lay.names[lay.bound_at]) if lay.bound_at is not None else None

    def encode(msg: Any) -> bytes:
        tail = write(tail_of(msg), capacity_of(msg) if capacity_of else None, narrow)
        length = fixed + len(tail)
        head = put(packs[length & 0x7F], msg)
        return head + tail if length < 0x80 else _long_frame(length, head, tail)

    return encode


def _ids_encoder(lay: _Layout) -> Callable[[Any], bytes]:
    """The ``"ids"`` shape's encoder: :func:`_tailed_encoder` with
    :func:`_write_ids` inline, which the two most frequent routing kinds
    ride on."""
    put, packs, narrow = lay.row.header, _packs(lay), lay.narrow
    ids_of, lists, width = attrgetter(*lay.row.tail_fields), _LISTS[narrow], 4 - 2 * narrow
    fixed = 2 + lay.size  # the kind byte, the header and a one-byte count

    def encode(msg: Any) -> bytes:
        ids = ids_of(msg)
        count = len(ids)
        length = fixed + count * width
        if length < 0x80:  # a one-byte count too: most lists
            return put(packs[length], msg) + lists[count](*ids)
        tail = _write_ids(ids, None, narrow)
        length += len(tail) - 1 - count * width
        return _long_frame(length, put(packs[length & 0x7F], msg), tail)

    return encode


def _decoder(read: Optional[Callable[..., Any]], lay: _Layout) -> Callable[..., Any]:
    """``lay``'s decoder for a tail read by ``read(view, pos, end,
    capacity, narrow)`` (``None``: the header is the whole body)."""
    unpack, fix, make = struct.Struct(">" + lay.codes).unpack_from, _fixer(lay, False), lay.make
    size, what, narrow, bound_at = lay.size, lay.row.cls.__name__, lay.narrow, lay.bound_at
    flag_at, undefined = lay.flag_at, lay.undefined

    def decode(view: memoryview, start: int, end: int) -> Any:
        if end - start < size or read is None and end - start != size:
            raise WireError(f"{what} body size mismatch")
        if view[start + flag_at] & undefined:
            raise WireError(f"{what} sets undefined flag bits {view[start + flag_at]:#04x}")
        values = unpack(view, start)
        if fix is not None:
            values = fix(values)
        if read is None:
            return make(*values)
        bound = None if bound_at is None else values[bound_at]
        return make(*values, read(view, start + size, end, bound, narrow))

    return decode


def _window(capacity: int, end: int = 0) -> int:
    """A buffer window's ``capacity``, which must hold a slot and a delta
    run ending at ``end``."""
    if capacity < 1:
        raise WireError(f"capacity out of range: {capacity}")
    if end > capacity:
        raise WireError(f"delta run ends at offset {end}, past capacity {capacity}")
    return capacity


def _bitmap_size(capacity: Optional[int], size: int) -> None:
    """A window's packed bits fill ``(capacity + 7) // 8`` bytes; an opaque
    payload (no capacity) any size."""
    if capacity is not None and size != (_window(capacity) + 7) // 8:
        raise WireError(
            f"bitmap of capacity {capacity} needs {(capacity + 7) // 8} bytes, got {size}"
        )


def _write_bytes(payload: bytes, capacity: Optional[int], narrow: int) -> bytes:
    _bitmap_size(capacity, len(payload))
    return payload


def _read_bytes(
    view: memoryview, pos: int, end: int, capacity: Optional[int], narrow: int
) -> bytes:
    _bitmap_size(capacity, end - pos)
    return bytes(view[pos:end])


def _write_runs(runs: Tuple[Tuple[int, int], ...], capacity: int, narrow: int) -> bytes:
    """The varint run count, then (gap since the previous run's end,
    length) per run; runs must be ascending, disjoint and non-empty."""
    count = len(runs)
    out = bytearray((count,) if count < 0x80 else _varint(count))
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
    _window(capacity, end)
    return bytes(out)


def _read_runs(
    view: memoryview, pos: int, end: int, capacity: int, narrow: int
) -> Tuple[Tuple[int, int], ...]:
    values: Sequence[int] = bytes(view[pos:end])
    if not values.isascii():  # some varint is longer than one byte
        values = []
        while pos < end:
            value, pos = _varint_at(view, pos, end, "map-delta run")
            values.append(value)
    if len(values) != 1 + 2 * (values[0] if values else 0):
        raise WireError(f"map-delta runs: {len(values)} varints are not a count and its pairs")
    runs = []
    offset = 0
    for gap, length in zip(values[1::2], values[2::2]):
        if length < 1:
            raise WireError("delta run length must be >= 1")
        offset += gap
        runs.append((offset, length))
        offset += length
    _window(capacity, offset)
    return tuple(runs)


def _write_ids(ids: Sequence[int], capacity: Optional[int], narrow: int) -> bytes:
    count = len(ids)
    if count < 0x80:
        return _LISTS[narrow][count](*ids)
    return _varint(count) + _IDS[narrow](count).pack(*ids)


def _read_ids(
    view: memoryview, pos: int, end: int, capacity: Optional[int], narrow: int
) -> Tuple[int, ...]:
    count = view[pos] if pos < end else 0x80
    if count < 0x80:
        pos += 1
    else:
        count, pos = _varint_at(view, pos, end, "id count")
    if end - pos != count * (4 - 2 * narrow):
        raise WireError(f"{count} ids do not fill {end - pos} bytes")
    return _IDS[narrow](count).unpack_from(view, pos)


def _pulls_encoder(lay: _Layout) -> Callable[[Any], bytes]:
    put, narrow, lists, fixed = lay.row.header, lay.narrow, lay.row.flags & _LIST_FLAG, 1 + lay.size
    pack = _packs(lay)[fixed]
    flagged = _packs(lay, lay.codes.replace("?", "B"))  # the flags byte whole

    def encode(msg: Any) -> bytes:
        if not (lists and msg.more or msg.trace_id):  # one untraced segment: most pulls
            return put(pack, msg)
        trace_id, more = msg.trace_id, msg.more if lists else ()
        *values, flag = put(_spread, msg)
        flags, tail, traces = 1 if flag else 0, b"", (trace_id,)
        if more:
            ids, more_traces = zip(*more)
            tail, traces = _write_ids(ids, None, narrow), traces + more_traces
            flags |= _LIST_FLAG
        if any(traces):
            flags |= _TRACED_FLAG
            tail += _traces_struct(len(traces)).pack(*traces)
        length = fixed + len(tail)
        head = flagged[length & 0x7F](*values, flags)
        return head + tail if length < 0x80 else _long_frame(length, head, tail)

    return encode


def _pulls_decoder(lay: _Layout) -> Callable[[memoryview, int, int], Any]:
    unpack, make = struct.Struct(">" + lay.codes).unpack_from, lay.make
    before_flags = struct.Struct(">" + lay.codes[:-1]).unpack_from  # a pull's flags byte ends it
    size, what, narrow, flag_at = lay.size, lay.row.cls.__name__, lay.narrow, lay.flag_at
    undefined, lists, width = lay.undefined, lay.row.flags & _LIST_FLAG, 4 - 2 * lay.narrow

    def decode(view: memoryview, start: int, end: int) -> Any:
        if end - start < size:
            raise WireError(f"{what} body size mismatch")
        flags = view[start + flag_at]
        if flags & undefined:
            raise WireError(f"{what} sets undefined flag bits {flags:#04x}")
        if not flags & (_TRACED_FLAG | _LIST_FLAG):  # one untraced segment: most pulls
            if end - start != size:
                raise WireError(f"{what} body size mismatch")
            return make(*unpack(view, start))  # the flag field reads flags == 1
        pos, count = start + size, 0
        if flags & _LIST_FLAG:
            count = view[pos] if pos < end else 0
            if count < 0x80:
                pos += 1
            else:
                count, pos = _varint_at(view, pos, end, f"{what} id count")
            if count < 1:
                raise WireError(f"{what} id list must hold at least one further id")
        traces = _TRACE_TAIL.size * (count + 1) if flags & _TRACED_FLAG else 0
        if end - pos != count * width + traces:
            raise WireError(f"{what} body size mismatch")
        trace_ids = (
            _traces_struct(count + 1).unpack_from(view, end - traces)
            if traces else (0,) * (count + 1)
        )
        prefetch = flags & _FLAG_BIT == _FLAG_BIT
        if not lists:
            return make(*before_flags(view, start), prefetch, trace_ids[0])
        more = tuple(zip(_IDS[narrow](count).unpack_from(view, pos), trace_ids[1:]))
        return make(*before_flags(view, start), prefetch, trace_ids[0], more)

    return decode


#: Each tail shape's encoder and decoder builders.
_TAILS: Dict[Optional[str], Tuple[Callable[[_Layout], Callable], Callable[[_Layout], Callable]]] = {
    None: (_fixed_encoder, partial(_decoder, None)),
    "bytes": (partial(_tailed_encoder, _write_bytes), partial(_decoder, _read_bytes)),
    "runs": (partial(_tailed_encoder, _write_runs), partial(_decoder, _read_runs)),
    "ids": (_ids_encoder, partial(_decoder, _read_ids)),
    "pulls": (_pulls_encoder, _pulls_decoder),
}

_LAYOUTS = [[_Layout(row, narrow) for narrow in range(row.widths)] for row in _ROWS]
#: Each class's ``(wide, narrow)`` encoders and each kind byte's decoder.
_ENCODE: Dict[type, Tuple[Callable[[Any], bytes], ...]] = {
    RoutedFrame: (_enc_route,) * 2,
    FrameBatch: (_enc_batch,) * 2,
    **{lays[0].row.cls: tuple(_TAILS[lay.row.tail][0](lay) for lay in (lays[0], lays[-1]))
       for lays in _LAYOUTS},
}
_NARROW = {cls: encoders[1] for cls, encoders in _ENCODE.items()}
#: The message classes of :data:`ABSORBED_KINDS`.
ABSORBED_TYPES = frozenset(row.cls for row in _ROWS if row.kind in ABSORBED_KINDS)
_DECODE: Dict[int, Callable[[memoryview, int, int], WireMessage]] = {
    int(WireKind.ROUTE): _dec_route,
    _BATCH: _dec_batch,
    **{lay.kind: _TAILS[lay.row.tail][1](lay) for lays in _LAYOUTS for lay in lays},
}


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
    total = len(view)
    length = view[offset] if offset < total else 0
    if 0 < length < 0x80:  # a one-byte prefix: almost every frame
        start = offset + 1
    else:
        start, length = prologue(view, offset)
    if total - start < length:
        raise TruncatedFrameError(f"frame needs {length} payload bytes, have {total - start}")
    decoder = _DECODE.get(view[start])
    if decoder is None:
        raise WireError(f"unknown wire kind {view[start]}")
    end = start + length
    return decoder(view, start + 1, end), end


def decode_frame(frame: Union[bytes, bytearray, memoryview]) -> Sequence[WireMessage]:
    """Every message one complete frame carries, in order: a
    :class:`FrameBatch`'s inner messages, or the frame's own.

    The socket receive path's unwrap: callers never read the kind byte.
    ``frame`` must be exactly one complete frame (what a link delivers).  A
    batch envelope is validated whole, then the inner frames are decoded
    straight out of the same memory — no :class:`FrameBatch` object, no
    per-entry ``bytes`` copy.  All or nothing: a malformed envelope *or*
    inner frame raises :class:`WireError` before any message is returned,
    so a caller dispatches none of a bad batch.
    """
    view = frame if type(frame) is memoryview else memoryview(frame)
    start, length = prologue(view)
    end = start + length
    if end != len(view):
        error = TruncatedFrameError if end > len(view) else WireError
        raise error("decode_frame needs exactly one complete frame")
    decoder = _DECODE.get(view[start])
    if decoder is None:
        raise WireError(f"unknown wire kind {view[start]}")
    if decoder is not _dec_batch:
        return (decoder(view, start + 1, end),)
    messages: List[WireMessage] = []
    for _, kind_at, stop in _batch_spans(view, start + 1, end):
        decoder = _DECODE.get(view[kind_at])
        if decoder is None:
            raise WireError(f"unknown wire kind {view[kind_at]}")
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
    traced :class:`SegmentData` still charges its declared ``size_bits``.
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
}
