"""Submit socket for ``kascade serve`` and the matching client.

The server side (:func:`serve_clients`) is a tiny newline-JSON request
loop in front of a running :class:`~repro.daemon.server.DaemonServer` —
deliberately the same boring wire style as the deploy control plane, so
``nc HOST PORT`` shows the whole conversation.  One request per line:

=============  ======================================================
``ping``       liveness + fleet census
``submit``     run one session; the reply is the result summary
``shutdown``   graceful fleet teardown, then the server loop exits
=============  ======================================================

:class:`DaemonClient` is the programmatic caller ``kascade submit``
wraps; each request opens a fresh connection (submissions are long —
holding one socket per outstanding submit keeps the server loop dumb).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Dict, List, Optional, Sequence

from ..core.errors import KascadeError
from ..core.sources import FileSource
from .server import DaemonServer


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
    ready: Optional[threading.Event] = None,
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
    bound = sock.getsockname()[:2]
    if on_bound is not None:
        on_bound(*bound)
    if ready is not None:
        ready.set()
    done = threading.Event()

    def handle(conn: socket.socket) -> None:
        try:
            reader = conn.makefile("rb")
            line = reader.readline()
            if not line:
                return
            try:
                req = json.loads(line)
            except ValueError:
                conn.sendall(b'{"ok":false,"error":"bad request"}\n')
                return
            reply = _dispatch(server, req, done)
            conn.sendall(json.dumps(reply).encode() + b"\n")
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

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
    cmd = req.get("cmd")
    if cmd == "ping":
        return {
            "ok": True,
            "fleet": list(server.fleet),
            "registered": server.registered,
            "sessions_completed": server.sessions_completed,
        }
    if cmd == "shutdown":
        done.set()
        return {"ok": True}
    if cmd == "submit":
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
        except (KascadeError, OSError, KeyError, ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return _result_summary(result)
    return {"ok": False, "error": f"unknown cmd {cmd!r}"}


class DaemonClient:
    """Talk to a running ``kascade serve`` over its submit socket."""

    def __init__(self, host: str, port: int, *,
                 connect_timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout

    def _request(self, payload: dict, timeout: Optional[float]) -> dict:
        try:
            conn = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
        except OSError as exc:
            raise KascadeError(
                f"kascade serve at {self.host}:{self.port} unreachable: "
                f"{exc}") from None
        try:
            conn.settimeout(timeout)
            conn.sendall(json.dumps(payload).encode() + b"\n")
            reader = conn.makefile("rb")
            line = reader.readline()
        finally:
            conn.close()
        if not line:
            raise KascadeError("server closed without a reply")
        return json.loads(line)

    def ping(self, timeout: float = 5.0) -> dict:
        return self._request({"cmd": "ping"}, timeout)

    def shutdown(self, timeout: float = 10.0) -> dict:
        return self._request({"cmd": "shutdown"}, timeout)

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
            "cmd": "submit",
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
