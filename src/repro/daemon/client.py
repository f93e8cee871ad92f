"""Submit socket for ``kascade serve`` and the matching client.

The server side (:func:`serve_clients`) is a tiny request loop in front
of a running :class:`~repro.daemon.server.DaemonServer`, and it speaks
the deploy control plane's own framing
(:class:`~repro.deploy.protocol.ControlChannel`): one JSON object per
line, at most :data:`~repro.deploy.protocol.MAX_LINE` bytes, its ``op``
naming it — so ``nc HOST PORT`` shows the whole conversation, and
whatever the channel cannot parse is answered, not fatal.  One request
per connection:

=============  ======================================================
``ping``       liveness + fleet census
``submit``     run one session; the reply is the result summary
``shutdown``   graceful fleet teardown, then the server loop exits
=============  ======================================================

Every reply is ``{"op": "reply", "ok": …}``; a refused request's also
carries ``error``.

:class:`DaemonClient` is the programmatic caller ``kascade submit``
wraps; each request opens a fresh connection (submissions are long —
holding one socket per outstanding submit keeps the server loop dumb).
"""

from __future__ import annotations

import socket
import threading
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.errors import KascadeError
from ..deploy.protocol import ControlChannel, DeployError, connect_control

if TYPE_CHECKING:
    from .server import DaemonServer

#: Seconds a client has to send its request once connected.
REQUEST_TIMEOUT = 30.0


def _result_summary(result) -> dict:
    """The JSON-safe slice of a BroadcastResult a submit reply carries."""
    return {
        "ok": result.ok,
        "bytes": result.total_bytes,
        "duration": result.duration,
        "digests": {name: outcome.digest
                    for name, outcome in result.outcomes.items()
                    if outcome.digest},
        "failed": result.failed_nodes,
        "perfstats": dict(result.perfstats),
        "report": result.report.summary(),
    }


def serve_clients(
    server: DaemonServer,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_bound=None,
) -> None:
    """Accept submit/ping/shutdown requests until a shutdown arrives.

    Blocks the calling thread (``kascade serve`` *is* this loop).  Each
    connection is handled on its own thread so long submits do not block
    pings or concurrent submits — concurrent sessions on one fleet is
    the entire point of the daemon.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(16)
    if on_bound is not None:
        on_bound(*sock.getsockname()[:2])
    done = threading.Event()

    def handle(conn: socket.socket) -> None:
        with ControlChannel(conn) as channel:
            try:
                req = channel.recv(timeout=REQUEST_TIMEOUT)
            except (DeployError, TimeoutError) as exc:
                channel.send({"op": "reply", "ok": False,
                              "error": f"bad request: {exc}"})
                return
            if req is not None:
                channel.send({"op": "reply", **_dispatch(server, req, done)})

    try:
        while not done.is_set():
            sock.settimeout(0.25)
            try:
                conn, _peer = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=handle, args=(conn,),
                             name="daemon-client", daemon=True).start()
    finally:
        sock.close()
        server.shutdown()


def _dispatch(server: DaemonServer, req: dict,
              done: threading.Event) -> dict:
    op = req["op"]
    if op == "ping":
        return {
            "ok": True,
            "fleet": list(server.fleet),
            "registered": server.registered,
            "sessions_completed": server.sessions_completed,
        }
    if op == "shutdown":
        done.set()
        return {"ok": True}
    if op == "submit":
        from ..core.sources import FileSource

        try:
            late = [(str(n), int(b)) for n, b in req.get("late_join") or []]
            result = server.submit(
                FileSource(str(req["source"])),
                req.get("receivers"),
                head=req.get("head"),
                output_template=req.get("output_template"),
                late_join=late,
                session=req.get("session"),
                timeout=float(req.get("timeout", 120.0)),
            )
        except (KascadeError, OSError, KeyError, TypeError,
                ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return _result_summary(result)
    return {"ok": False, "error": f"unknown op {op!r}"}


class DaemonClient:
    """Talk to a running ``kascade serve`` over its submit socket."""

    def __init__(self, host: str, port: int, *,
                 connect_timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout

    def _request(self, payload: dict, timeout: Optional[float]) -> dict:
        with connect_control(self.host, self.port,
                             self.connect_timeout) as channel:
            reply = (channel.recv(timeout) if channel.send(payload)
                     else None)
        if reply is None:
            raise KascadeError("server closed without a reply")
        return reply

    def ping(self, timeout: float = 5.0) -> dict:
        return self._request({"op": "ping"}, timeout)

    def shutdown(self, timeout: float = 10.0) -> dict:
        return self._request({"op": "shutdown"}, timeout)

    def submit(
        self,
        source_path: str,
        receivers: Optional[Sequence[str]] = None,
        *,
        head: Optional[str] = None,
        output_template: Optional[str] = None,
        late_join: Sequence = (),
        session: Optional[str] = None,
        timeout: float = 120.0,
    ) -> dict:
        """Submit one session; blocks until the session completes.

        ``late_join`` takes ``(node, after_bytes)`` pairs.  Returns the
        server's result summary (ok / bytes / digests / perfstats).
        """
        payload = {
            "op": "submit",
            "source": source_path,
            "receivers": list(receivers) if receivers is not None else None,
            "head": head,
            "output_template": output_template,
            "late_join": [[n, b] for n, b in late_join],
            "session": session,
            "timeout": timeout,
        }
        # Generous socket timeout: the session itself enforces the real
        # deadline server-side.
        return self._request(payload, timeout + 30.0)
