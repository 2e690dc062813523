"""The live asyncio runtime: real concurrent peers over a wire protocol.

Where :mod:`repro.core.system` clocks the protocol in lock-step rounds on
a discrete-event engine, this package runs the same protocol logic as a
swarm of independent asyncio tasks exchanging length-prefixed binary
frames over in-process loopback transports:

* :mod:`repro.runtime.wire` — the codec for the full message vocabulary
  (buffer maps, segment transfers, DHT routing/lookup, membership
  PING/PONG and backup handover), with ledger accounting reconciled
  against the paper's Section 5.4 message sizes;
* :mod:`repro.runtime.peer` — :class:`~repro.runtime.peer.LivePeer`, the
  actor adapting :class:`~repro.core.node.StreamingNode` to an
  event-driven inbox with per-link latency and send-budget pacing;
* :mod:`repro.runtime.swarm` — :class:`~repro.runtime.swarm.LiveSwarm`,
  the one swarm class (booting a scenario's peers, driving live churn,
  collecting continuity/overhead metrics), the
  :class:`~repro.runtime.swarm.RunOptions` record every run option is
  declared in, and :func:`~repro.runtime.swarm.run`, the single entry;
* :mod:`repro.runtime.slim` — the array-backed statistical tier a
  hybrid-fidelity swarm holds around its live core;
* :mod:`repro.runtime.parity` — the sim-vs-runtime parity harness.

Deployment at scale lives in :mod:`repro.runtime.cluster`: the same
swarm sharded across worker processes, cross-shard links on real TCP
sockets behind the same codec (``docs/cluster.md``); see
``docs/runtime.md`` for the single-process runtime.
"""

from repro.runtime.clock import VirtualClockEventLoop, run_on_virtual_clock
from repro.runtime.cluster import ClusterCoordinator, LinkConfig, run_cluster
from repro.runtime.parity import (
    PARITY_TOLERANCE,
    ParityMatrix,
    ParityReport,
    run_parity,
    run_parity_matrix,
)
from repro.runtime.slim import SlimTier, default_core_peers
from repro.runtime.swarm import (
    CLOCKS,
    DEFAULT_TIME_SCALE,
    LiveSwarm,
    RunOptions,
    RuntimeResult,
    ShardResult,
    merge_results,
    run,
)
from repro.runtime.transport import (
    BoundedInbox,
    TransportConfig,
    TransportStats,
    TransportSummary,
)
from repro.runtime.wire import (
    BufferMapDelta,
    BufferMapMsg,
    CreditGrant,
    DhtLookup,
    DhtResponse,
    FrameBatch,
    FrameDecoder,
    Handover,
    Ping,
    Pong,
    SegmentData,
    SegmentRequest,
    TruncatedFrameError,
    WireError,
    WireKind,
    decode,
    encode,
    encode_batch,
    frame_count,
    ledger_entry,
)

__all__ = [
    "BoundedInbox",
    "BufferMapDelta",
    "BufferMapMsg",
    "CLOCKS",
    "ClusterCoordinator",
    "CreditGrant",
    "LinkConfig",
    "run_cluster",
    "DEFAULT_TIME_SCALE",
    "DhtLookup",
    "DhtResponse",
    "FrameBatch",
    "FrameDecoder",
    "Handover",
    "LiveSwarm",
    "PARITY_TOLERANCE",
    "ParityMatrix",
    "ParityReport",
    "Ping",
    "Pong",
    "RunOptions",
    "RuntimeResult",
    "SegmentData",
    "SegmentRequest",
    "ShardResult",
    "SlimTier",
    "TransportConfig",
    "TransportStats",
    "TransportSummary",
    "TruncatedFrameError",
    "VirtualClockEventLoop",
    "WireError",
    "WireKind",
    "decode",
    "default_core_peers",
    "encode",
    "encode_batch",
    "frame_count",
    "ledger_entry",
    "merge_results",
    "run",
    "run_on_virtual_clock",
    "run_parity",
    "run_parity_matrix",
]
