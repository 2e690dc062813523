"""A segment is its id: the source hands out ids and keeps none, and a
graceful leave hands the VoD backup over as ids in both drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.continu import ContinuStreamingNode
from repro.runtime import LiveSwarm, wire
from repro.scenarios import builtin_scenario
from repro.streaming.source import MediaSource


def _built_system(num_nodes: int = 30):
    spec = builtin_scenario("static").scaled(num_nodes, 2, 0, "continustreaming")
    return spec.build_system().build()


def _leaver_and_heir(manager):
    leaver = next(
        nid for nid in sorted(manager.nodes) if nid != manager.source_id
    )
    return leaver, manager.counter_clockwise_closest(leaver)


class TestSource:
    def test_generation_keeps_no_per_segment_state(self):
        source = MediaSource(playback_rate=10)
        before = dict(vars(source))
        assert source.generate_until(100.0) == list(range(1001))
        after = vars(source)
        assert after.keys() == before.keys()
        assert all(isinstance(value, (int, float)) for value in after.values())
        assert source.newest_segment_id == 1000


class TestSimulatorHandover:
    def test_graceful_leave_hands_ids_counter_clockwise(self):
        manager = _built_system().manager
        leaver, heir = _leaver_and_heir(manager)
        manager.nodes[leaver].absorb_handover([41, 7, 19])
        manager.remove_node(leaver, np.random.default_rng(0), graceful=True)
        heir_node = manager.nodes[heir]
        assert isinstance(heir_node, ContinuStreamingNode)
        assert {7, 19, 41} <= heir_node.backup.store
        assert all(heir_node.serves_segment(sid) for sid in (7, 19, 41))

    @pytest.mark.parametrize(
        "graceful, handover", [(False, True), (True, False)], ids=["abrupt", "wire-path"]
    )
    def test_no_in_memory_handover(self, graceful, handover):
        """An abrupt leave hands nothing over, and the runtime's removal
        (``handover=False``) leaves the handover to the wire."""
        manager = _built_system().manager
        leaver, heir = _leaver_and_heir(manager)
        manager.nodes[leaver].absorb_handover([100_001])
        manager.remove_node(
            leaver, np.random.default_rng(0), graceful=graceful, handover=handover
        )
        assert 100_001 not in manager.nodes[heir].backup


class TestLiveHandover:
    @staticmethod
    def _swarm():
        return LiveSwarm(
            builtin_scenario("static").scaled(num_nodes=12, rounds=2), clock="virtual"
        ).build()

    def test_leaver_ships_its_sorted_backup_ids(self, monkeypatch):
        swarm = self._swarm()
        peer = next(p for p in swarm.peers.values() if not p.is_source)
        peer.node.absorb_handover([9, 3, 7])
        sent = []
        monkeypatch.setattr(peer, "_send", lambda dst, msg: sent.append((dst, msg)))
        peer.send_handover()
        assert sent == [
            (
                swarm.successor_of(peer.peer_id),
                wire.Handover(
                    sender=peer.peer_id,
                    segment_ids=tuple(sorted(peer.node.backup.store)),
                ),
            )
        ]
        assert {3, 7, 9} <= set(sent[0][1].segment_ids)

    @pytest.mark.parametrize("ids", [(70_001, 70_002), (70_003,)])
    def test_receiver_absorbs_the_ids(self, ids):
        """The frame carries ids only; every segment is the run's
        ``segment_bits`` long, so the receiver keeps the ids alone."""
        swarm = self._swarm()
        peer = next(p for p in swarm.peers.values() if not p.is_source)
        peer._on_handover(wire.Handover(sender=0, segment_ids=ids))
        assert set(ids) <= peer.node.backup.store
