"""Backup-key placement.

Equation (5) of the paper: node ``n`` must store in its VoD backup every
received segment whose id satisfies ``hash(id * i) % N ∈ [n, n1)`` for some
``i = 1..k``, where ``n1`` is ``n``'s clockwise-closest DHT peer.  Using
``id * i`` (rather than ``id + i``) hashes consecutive segment ids to
dispersed ring positions, balancing backup load across nodes.

``hash()`` can be any common hash function; we use a 64-bit splitmix-style
integer mix, which is deterministic across Python processes (unlike the
built-in ``hash``) and fast enough to be called millions of times per run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple


def _mix64(value: int) -> int:
    """SplitMix64 finaliser — a well-distributed, deterministic 64-bit mix."""
    value &= 0xFFFF_FFFF_FFFF_FFFF
    value = (value + 0x9E37_79B9_7F4A_7C15) & 0xFFFF_FFFF_FFFF_FFFF
    value ^= value >> 30
    value = (value * 0xBF58_476D_1CE4_E5B9) & 0xFFFF_FFFF_FFFF_FFFF
    value ^= value >> 27
    value = (value * 0x94D0_49BB_1331_11EB) & 0xFFFF_FFFF_FFFF_FFFF
    value ^= value >> 31
    return value


def segment_hash(value: int, id_space: int) -> int:
    """``hash(value) % N`` with the deterministic 64-bit mix."""
    if id_space < 2:
        raise ValueError("id_space must be >= 2")
    return _mix64(int(value)) % int(id_space)


@lru_cache(maxsize=4096)
def backup_keys(segment_id: int, replicas: int, id_space: int) -> Tuple[int, ...]:
    """The ``k`` ring keys where ``segment_id`` must be backed up.

    Key ``i`` (1-based) is ``hash(segment_id * i) % N``.  Keys may collide for
    small id spaces; callers that need distinct holders should deduplicate.
    Memoised: every node asks for the keys of the same few hundred live
    segments, and the bound keeps a long run from growing the cache.
    """
    if segment_id < 0:
        raise ValueError("segment_id must be >= 0")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    return tuple(segment_hash(segment_id * i, id_space) for i in range(1, replicas + 1))


def is_backup_responsible(
    segment_id: int,
    replicas: int,
    id_space: int,
    node_id: int,
    successor_id: int,
) -> bool:
    """Equation (5): must the node owning ``[node_id, successor_id)`` back up the segment?

    ``successor_id`` is the node's clockwise-closest DHT peer (``n1`` in the
    paper).  When a node is alone on the ring (``node_id == successor_id``)
    it owns everything.  This is the only implementation of the rule;
    :meth:`repro.core.backup.VodBackupStore.is_responsible` calls it.
    """
    span = (successor_id - node_id) % id_space
    if span == 0:
        return True
    for key in backup_keys(segment_id, replicas, id_space):
        if (key - node_id) % id_space < span:
            return True
    return False
