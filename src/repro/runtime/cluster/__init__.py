"""The cluster runtime: sharded multi-process swarms over real TCP.

One :class:`~repro.runtime.swarm.LiveSwarm`'s peers, hosted as ring-range
shards across worker processes — each shard its own asyncio event loop —
with cross-shard links carried over localhost TCP sockets speaking the
existing length-prefixed :mod:`repro.runtime.wire` codec (plus the
shard-handshake and routed-frame envelopes, kinds 11/12).  A peer never
knows whether its partner is local or remote, and there is no shard
subclass: every worker runs the one swarm class with its placement
(``shard_index`` of ``options.shards``) and a ``links`` dict filled in.

* :mod:`~repro.runtime.cluster.links` — the two interchangeable links:
  the in-process :class:`LoopbackLink` (the single home of delay/loss
  injection, used by every swarm) and the reconnecting,
  credit-refunding :class:`SocketLink`;
* :mod:`~repro.runtime.cluster.worker` — the shard worker process;
* :mod:`~repro.runtime.cluster.coordinator` —
  :class:`ClusterCoordinator`, the control plane (spawn, start/stop
  barriers, the per-boundary lateness relay for coherent cross-process
  overload dilation) behind :func:`repro.runtime.run` for
  ``shards > 1``; :func:`run_cluster` is that entry with a 2-shard
  default.

The options record (:class:`~repro.runtime.swarm.RunOptions`), the
partial/merge pair (:class:`~repro.runtime.swarm.ShardResult`,
:func:`~repro.runtime.swarm.merge_results`) and the placement function
(:func:`~repro.runtime.swarm.shard_of`) live with the swarm, because an
in-process run is the one-shard case of the same code.  See
``docs/cluster.md`` for the shard topology, socket framing, the
coordinator lifecycle and the failure semantics.
"""

from repro.runtime.cluster.links import (
    LinkConfig,
    LoopbackLink,
    SocketLink,
    SocketLinkStats,
)

__all__ = [
    "ClusterCoordinator",
    "LinkConfig",
    "LoopbackLink",
    "ShardWorker",
    "SocketLink",
    "SocketLinkStats",
    "run_cluster",
]

#: Names resolved lazily: the coordinator/worker modules import the swarm,
#: which imports this package for the links — eager imports here would
#: close that cycle during ``repro.runtime.swarm``'s own import.
_LAZY = {
    "ClusterCoordinator": "repro.runtime.cluster.coordinator",
    "run_cluster": "repro.runtime.cluster.coordinator",
    "ShardWorker": "repro.runtime.cluster.worker",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
