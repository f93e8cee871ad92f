"""Real TCP implementation of the Kascade protocol, runnable on localhost.

Every pipeline node is a thread with its own listening socket; the wire
protocol of the paper (GET/PGET/FORGET/DATA/END/QUIT/REPORT/PASSED plus
PING/PONG liveness probes) runs byte-for-byte over real TCP connections.

Three layers: a *node* is one chain instance (:mod:`.node`, or its
event-loop twin :mod:`.evloop`); a *host* is the ``k`` nodes one machine
runs, one per stripe (:class:`HostChains`, :mod:`.host`); a *broadcast*
is every host of one schedule on localhost (:class:`LocalBroadcast`).
"""

from .cluster import BroadcastResult, CrashPlan, LocalBroadcast
from .host import HostChains, check_head_failover
from .node import HeadNode, NodeOutcome, ReceiverNode
from .registry import Registry
from .transport import Address, Listener, SocketStream, WriteStalled, connect

__all__ = [
    "BroadcastResult",
    "CrashPlan",
    "LocalBroadcast",
    "HostChains",
    "check_head_failover",
    "HeadNode",
    "ReceiverNode",
    "NodeOutcome",
    "Registry",
    "Address",
    "Listener",
    "SocketStream",
    "WriteStalled",
    "connect",
]
