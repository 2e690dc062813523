"""Data segments of the media stream.

A segment is its id: a monotonically increasing integer.  The source emits
``p`` segments per second, so segment ``i`` corresponds to playback instant
``i / p`` seconds after the stream origin.  Every segment has the same size,
the run's ``segment_bits``, which only the overhead accounting reads; the
payload is never materialised.
"""

#: Default segment payload size used for overhead accounting (Section 5.2):
#: the stream is 300 Kbps and each segment holds 30 Kbit of media.
DEFAULT_SEGMENT_BITS = 30 * 1024
