"""DHT substrate.

ContinuStreaming's structured overlay is a *loosely organised* ring DHT: node
``n`` keeps ``log N`` "DHT peers", where the level-``i`` peer may be any node
whose id falls inside ``[n + 2^(i-1), n + 2^i)`` (all arithmetic modulo the
ID-space size ``N``).  Routing towards a key is greedy: each intermediate
node forwards to the clockwise-closest peer to the destination until no
closer peer exists; the node counter-clockwise closest to the key is
responsible for it.  The appendix proves an upper bound of
``log N / log(4/3) ≈ 2.41 · log N`` hops per lookup.

Every data segment ``id`` is backed up at the ``k`` nodes responsible for the
keys ``hash(id · i) % N`` for ``i = 1..k`` (equation (5)); multiplying rather
than adding spreads consecutive ids across the ring to balance load.
"""

from repro.dht.hashing import backup_keys, segment_hash
from repro.dht.network import DhtNetwork, LookupResult
from repro.dht.peer_table import DhtPeerEntry, NeighborEntry, PeerTable
from repro.dht.ring import IdRing
from repro.dht.routing import GreedyRouter, RouteOutcome

__all__ = [
    "IdRing",
    "segment_hash",
    "backup_keys",
    "PeerTable",
    "NeighborEntry",
    "DhtPeerEntry",
    "GreedyRouter",
    "RouteOutcome",
    "DhtNetwork",
    "LookupResult",
]
