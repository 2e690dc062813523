"""In-process frames land as the messages they encode.

A sender encodes every message once, to charge its frame's bytes; a
receiver in the same process is handed the message itself.  That is only
sound under a round-trip law: every message, when it is drained, still
encodes to the frame its sender charged, and decoding that frame gives
back the message — so an in-process receiver reads exactly what a socket
receiver would.  The first half catches a message mutated after it was
sent; the second a field the frame stores with less precision than the
message (``DhtResponse.rate`` is an f32 on the wire).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import ObsConfig
from repro.runtime import LiveSwarm, wire
from repro.runtime.cluster.links import LoopbackLink
from repro.runtime.transport import BoundedInbox
from repro.scenarios import builtin_names, builtin_scenario


def _tap_round_trips(monkeypatch) -> dict:
    """Check the law on every message a drain takes; forbid decoding.

    Returns how many messages were checked and the classes seen.
    """
    decode = wire.decode
    sent = {}  # id(message) -> (message, frame); the message is kept alive
    seen = {"checked": 0, "kinds": set()}
    send = LoopbackLink.send

    def tapped_send(self, src, dst, msg, frame, data=False):
        kept = sent.setdefault(id(msg), (msg, frame))
        assert kept[1] == frame, f"{msg!r} was charged two different frames"
        send(self, src, dst, msg, frame, data)

    take = BoundedInbox.take_batch

    def tapped_take(self):
        batch = take(self)
        for _, messages, _ in batch:
            for msg in messages:
                kept, frame = sent[id(msg)]
                assert kept is msg
                assert wire.encode(msg) == frame, f"{msg!r} changed after it was sent"
                assert decode(frame)[0] == msg, f"{msg!r} is not what its frame decodes to"
                seen["checked"] += 1
                seen["kinds"].add(type(msg))
        return batch

    def no_decode(*args, **kwargs):
        raise AssertionError("an in-process frame was decoded")

    monkeypatch.setattr(LoopbackLink, "send", tapped_send)
    monkeypatch.setattr(BoundedInbox, "take_batch", tapped_take)
    monkeypatch.setattr(wire, "decode", no_decode)
    monkeypatch.setattr(wire, "decode_frame", no_decode)
    return seen


def _spec(name: str):
    # 12 periods so blackout's failure (period 10) fires.
    spec = builtin_scenario(name).scaled(num_nodes=30, rounds=12, seed=0)
    if name == "paper-dynamic":
        spec = dataclasses.replace(spec, loss_rate=0.02)
    return spec


@pytest.mark.parametrize("name", builtin_names())
def test_every_drained_message_round_trips_its_frame(name, monkeypatch):
    seen = _tap_round_trips(monkeypatch)
    result = LiveSwarm(_spec(name), clock="virtual").run()
    # everything but the frames still in flight at the end, or shed
    assert seen["checked"] >= 0.95 * (result.messages_sent - result.messages_dropped)
    assert {wire.BufferMapMsg, wire.SegmentRequest, wire.SegmentData} <= seen["kinds"]


def test_a_fully_traced_run_round_trips_too(monkeypatch):
    seen = _tap_round_trips(monkeypatch)
    LiveSwarm(_spec("static"), clock="virtual", obs=ObsConfig(trace_sample=1)).run()
    # traced pulls carry their trace ids through requests, data and NACKs
    assert wire.DhtResponse in seen["kinds"]
    assert seen["checked"] > 0


def test_a_dht_response_carries_its_rate_as_the_wire_does():
    """``wire.f32`` is the frame's rounding: a rate built with it encodes
    and decodes to itself; one built without it need not."""
    rate = 1.0 / 3.0
    msg = wire.DhtResponse(1, 2, 3, 4, True, wire.f32(rate), (1, 2))
    assert wire.decode(wire.encode(msg))[0] == msg
    raw = dataclasses.replace(msg, rate=rate)
    assert wire.decode(wire.encode(raw))[0] != raw
