"""Streaming substrate: buffers, buffer-maps, source, playback.

The media stream is modelled as a sequence of fixed-size data segments
(30 Kbit each at a 300 Kbps default stream rate, i.e. ``p = 10`` segments per
second of playback).  A segment is its integer id; its size is the run's
``segment_bits``.  Every node keeps a FIFO buffer of ``B`` segments
(default 600, i.e. 60 seconds of media) and periodically exchanges a compact
buffer-map — 600 availability bits plus a 20-bit anchor id — with its
connected neighbours.
"""

from repro.streaming.buffer import SegmentBuffer
from repro.streaming.buffermap import BufferMap, BUFFER_MAP_BITS
from repro.streaming.playback import PlaybackState, ContinuityTracker
from repro.streaming.source import MediaSource

__all__ = [
    "SegmentBuffer",
    "BufferMap",
    "BUFFER_MAP_BITS",
    "MediaSource",
    "PlaybackState",
    "ContinuityTracker",
]
