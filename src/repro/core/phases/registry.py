"""Protocol registration: a name → (node factory, default pipeline) map.

A *protocol* bundles the two things that distinguish one streaming system
from another in this reproduction:

* how its nodes are built (:meth:`StreamingProtocol.make_node`), and
* which phases its rounds run (:meth:`StreamingProtocol.build_pipeline`).

Protocols self-register with the :class:`ProtocolRegistry` through the
:meth:`ProtocolRegistry.register` class decorator, so a new variant — say a
no-prefetch ablation — lives in one file and never touches
:mod:`repro.core.system`::

    @ProtocolRegistry.register("noprefetch")
    class NoPrefetchProtocol(ContinuStreamingProtocol):
        def build_pipeline(self):
            return tuple(
                phase for phase in super().build_pipeline()
                if phase.name not in ("urgent-line-prediction", "on-demand-retrieval")
            )

    StreamingSystem(config, system="noprefetch").run()

The two systems evaluated by the paper are registered below.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Tuple, Type

from repro.core.continu import ContinuStreamingNode
from repro.core.node import StreamingNode
from repro.core.phases.base import Phase
from repro.core.phases.churn import ChurnMaintenancePhase
from repro.core.phases.gossip import BufferMapGossipPhase
from repro.core.phases.ondemand import OnDemandRetrievalPhase
from repro.core.phases.playback import PlaybackPhase
from repro.core.phases.prediction import UrgentLinePredictionPhase
from repro.core.phases.scheduling import DataSchedulingPhase
from repro.core.phases.source import SourceGenerationPhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.overlay import OverlayManager


class StreamingProtocol(abc.ABC):
    """One streaming system: a node factory plus a default round pipeline."""

    #: Registry key; set by :meth:`ProtocolRegistry.register`.
    name: str = ""

    @abc.abstractmethod
    def make_node(self, env: "OverlayManager", ring_id: int) -> StreamingNode:
        """Build this protocol's node for ``ring_id`` in the given overlay."""

    @abc.abstractmethod
    def build_pipeline(self) -> Tuple[Phase, ...]:
        """The default phase sequence of one scheduling period."""


class ProtocolRegistry:
    """Class-level registry of the known streaming protocols."""

    _protocols: Dict[str, StreamingProtocol] = {}

    @classmethod
    def register(cls, name: str):
        """Class decorator: instantiate and register a protocol under ``name``."""

        def decorator(protocol_cls: Type[StreamingProtocol]) -> Type[StreamingProtocol]:
            instance = protocol_cls()
            # Set on the instance, not the class: registering one class under
            # two names (aliases) must not relabel earlier registrations.
            instance.name = name
            cls._protocols[name] = instance
            return protocol_cls

        return decorator

    @classmethod
    def get(cls, name: str) -> StreamingProtocol:
        """The protocol registered under ``name``.

        Raises:
            ValueError: for unknown names (lists the registered ones).
        """
        protocol = cls._protocols.get(name)
        if protocol is None:
            raise ValueError(
                f"unknown system {name!r}; expected one of {cls.names()}"
            )
        return protocol

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """Registered protocol names, in registration order."""
        return tuple(cls._protocols)

    @classmethod
    def known(cls, name: str) -> bool:
        """Whether ``name`` is registered."""
        return name in cls._protocols


@ProtocolRegistry.register("continustreaming")
class ContinuStreamingProtocol(StreamingProtocol):
    """The paper's system: urgency+rarity gossip plus DHT-assisted pre-fetch."""

    def make_node(self, env: "OverlayManager", ring_id: int) -> StreamingNode:
        cfg = env.config
        capacity = env.bandwidth.of(ring_id)
        return ContinuStreamingNode(
            ring_id,
            env.ring,
            buffer_capacity=cfg.buffer_capacity,
            playback_rate=cfg.playback_rate,
            period=cfg.scheduling_period,
            inbound_rate=capacity.inbound,
            outbound_rate=capacity.outbound,
            backup_replicas=cfg.backup_replicas,
            prefetch_limit=cfg.prefetch_limit,
            hop_latency=env.hop_latency_s,
            fetch_time=env.fetch_time_s,
            max_neighbors=cfg.connected_neighbors,
            overheard_capacity=cfg.overheard_capacity,
            playback_lag=cfg.playback_lag_segments,
            stall_on_miss=cfg.stall_on_miss,
            is_source=ring_id == env.source_id,
        )

    def build_pipeline(self) -> Tuple[Phase, ...]:
        return (
            SourceGenerationPhase(),
            BufferMapGossipPhase(),
            UrgentLinePredictionPhase(),
            DataSchedulingPhase(),
            OnDemandRetrievalPhase(),
            PlaybackPhase(),
            ChurnMaintenancePhase(),
        )


@ProtocolRegistry.register("coolstreaming")
class CoolStreamingProtocol(StreamingProtocol):
    """The rarest-first pull-gossip baseline (no prediction, no DHT)."""

    def make_node(self, env: "OverlayManager", ring_id: int) -> StreamingNode:
        cfg = env.config
        capacity = env.bandwidth.of(ring_id)
        return StreamingNode(
            ring_id,
            env.ring,
            buffer_capacity=cfg.buffer_capacity,
            playback_rate=cfg.playback_rate,
            period=cfg.scheduling_period,
            inbound_rate=capacity.inbound,
            outbound_rate=capacity.outbound,
            max_neighbors=cfg.connected_neighbors,
            overheard_capacity=cfg.overheard_capacity,
            playback_lag=cfg.playback_lag_segments,
            stall_on_miss=cfg.stall_on_miss,
            policy="rarest_first",
            is_source=ring_id == env.source_id,
        )

    def build_pipeline(self) -> Tuple[Phase, ...]:
        return (
            SourceGenerationPhase(),
            BufferMapGossipPhase(),
            DataSchedulingPhase(),
            PlaybackPhase(),
            ChurnMaintenancePhase(),
        )
