"""Membership substrate: bootstrap and overhearing-based maintenance.

A new node contacts the Rendezvous Point (RP) server, which assigns it a
unique ring id and returns a short list of existing nodes with close ids.
The joiner pings them, adopts the nearest alive node's Peer Table as the base
of its own, notifies the alive nodes of its arrival, and reports any dead
node back to the RP.  After joining, peer-table maintenance is driven almost
entirely by *overhearing* routing messages that pass through the node.
"""

from repro.membership.overhearing import OverhearingService
from repro.membership.rendezvous import RendezvousPoint

__all__ = ["RendezvousPoint", "OverhearingService"]
