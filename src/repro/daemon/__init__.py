"""Broadcast-as-a-service: a persistent agent fleet running many
concurrent named sessions over one windowed launch.

The one-shot backends pay process launch per broadcast; the daemon pays
it once.  :class:`DaemonServer` owns the fleet and multiplexes sessions
(push chains, cache-served re-broadcasts, late-joiner pull catch-up);
:class:`DaemonClient` talks to a ``kascade serve`` over its submit
socket; :class:`LateJoin` names a node that enters a session mid-flight.

    with DaemonServer(["n1", "n2", "n3"]) as server:
        cold = server.submit(FileSource(path))   # push chain
        warm = server.submit(FileSource(path))   # served from cache

Or across processes::

    kascade serve -n 4 --listen 127.0.0.1:7641
    kascade submit --server 127.0.0.1:7641 -i artifact.tgz
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("DaemonClient", "serve_clients"),
    "server": ("DaemonServer", "LateJoin"),
})
