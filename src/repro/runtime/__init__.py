"""Real TCP implementation of the Kascade protocol, runnable on localhost.

Every pipeline node is a thread with its own listening socket; the wire
protocol of the paper (GET/PGET/FORGET/DATA/END/QUIT/REPORT/PASSED plus
PING/PONG liveness probes) runs byte-for-byte over real TCP connections.

Three layers: a *node* is one chain instance (:mod:`.node`, or its
event-loop twin :mod:`.evloop`); a *host* is the ``k`` nodes one machine
runs, one per stripe (:class:`Host`; :class:`HostChains` on threads,
:mod:`.host`); a *broadcast* is every host of one schedule
(:class:`Broadcast`; :class:`LocalBroadcast` on localhost,
:mod:`.cluster`).  The host and the broadcast are shared with the
simulator's driver (:mod:`repro.protosim.broadcast`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "result": ("BroadcastResult", "CrashPlan", "NodeOutcome",
               "check_head_failover", "check_run"),
    "cluster": ("Broadcast", "LocalBroadcast"),
    "host": ("Host", "HostChains"),
    "node": ("HeadNode", "ReceiverNode"),
    "registry": ("Registry", "Address"),
    "transport": ("Listener", "SocketStream", "WriteStalled", "connect"),
})
