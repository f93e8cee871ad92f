"""Control-plane protocol between the coordinator and its agents.

The data plane speaks the binary Kascade wire protocol
(:mod:`repro.core.framing`); the *control* plane is deliberately boring:
newline-delimited JSON objects over one TCP connection per agent, alive
from registration to exit.  Volume is tiny (a handshake, then per
session an open/ack, a note from a node whose fault fires or a head
passing a join threshold, and one final status), so readability and
debuggability win over compactness — ``nc`` against the coordinator
port shows the whole conversation.

Message vocabulary (``op`` field; every message but ``hello``,
``heartbeat`` and ``quit`` names its ``session``):

========================  =========  =======================================
``hello``                 agent →    registration: name, pid, and the host
                                     its peers dial
``heartbeat``             agent →    liveness tick (a stopped process goes
                                     silent), every :data:`HEARTBEAT_INTERVAL`
``session_open``          → agent    bind one data port per stripe for this
                                     session (+ the artifact identity, on a
                                     fleet with a cache)
``session_ack``           agent →    the bound ports (+ whether the cache
                                     holds the whole artifact)
``session_start``         → agent    the (re-planned) chain plan, every
                                     node's ports, the config, the
                                     stream's size, and this agent's
                                     source/sink spec, crash plan and (a
                                     head's) late-join thresholds, and
                                     whether the session is traced
``note``                  agent →    bytes stored when its crash plan
                                     fired (with the ``mode``; the signal
                                     to itself follows), or when a head
                                     crossed a late-join threshold
``session_status``        agent →    structured final outcome: ok/bytes/
                                     digest/error, the encoded ring report
                                     (head only), perfstats, trace events
                                     (none when untraced)
``failover``              → agent    the head died: detach, keep the sink,
                                     rebind
``failover_ready``        agent →    exact stream offset + the fresh port
``resume``                → agent    the re-rooted plan and the election
                                     watermark to resume from
``session_cancel``        → agent    release a session that will not start
``session_serve_cached``  → agent    replay the artifact from the local
                                     cache (cache only)
``quit``                  → agent    finish what is running, then exit 0
========================  =========  =======================================

Every message is one JSON object terminated by ``\\n``.  A reader that
sees EOF returns ``None``; oversized lines (> :data:`MAX_LINE`) are a
protocol violation, not an allocation.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import TYPE_CHECKING, Optional

from ..core.errors import KascadeError
from ..runtime.registry import dial

if TYPE_CHECKING:
    from ..core.config import KascadeConfig
    from ..core.plan import ChainPlan

#: Ceiling for one control message.  Status messages carry a JSONL trace
#: dump, so this is generous; anything larger is a bug, not a payload.
MAX_LINE = 16 << 20

#: Seconds between an agent's heartbeats, from registration to exit.
HEARTBEAT_INTERVAL = 0.25

#: Seconds one send may block before the peer counts as gone.
SEND_TIMEOUT = 5.0


class DeployError(KascadeError):
    """Deployment-layer failure (control protocol, spawn, supervision)."""


class ControlChannel:
    """One agent↔coordinator control connection, framed as JSON lines.

    Sends are serialised by a lock (the agent's heartbeat thread and its
    node thread share the channel) and bounded by :data:`SEND_TIMEOUT` so
    a wedged peer can never block the data plane; send failures after
    the channel is closed are reported as ``False``, not raised — losing
    a note must not kill an agent.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_buf = bytearray()
        self._closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets in tests
            pass

    # -- sending ---------------------------------------------------------

    def send(self, message: dict) -> bool:
        """Send one message; True on success, False if the peer is gone."""
        data = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        with self._send_lock:
            if self._closed:
                return False
            self._sock.settimeout(SEND_TIMEOUT)
            try:
                self._sock.sendall(data)
                return True
            except (OSError, ValueError):
                return False

    # -- receiving -------------------------------------------------------

    def recv(self, timeout: Optional[float]) -> Optional[dict]:
        """Receive one message.

        Returns ``None`` on EOF (peer closed), raises ``TimeoutError``
        when nothing complete arrives in time (buffered partial bytes are
        kept), and :class:`DeployError` on an undecodable line.
        """
        while True:
            nl = self._recv_buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._recv_buf[:nl])
                del self._recv_buf[: nl + 1]
                if not line.strip():
                    continue
                try:
                    msg = json.loads(line)
                except ValueError as exc:
                    raise DeployError(f"bad control message: {exc}") from None
                if not isinstance(msg, dict) or "op" not in msg:
                    raise DeployError(f"control message without op: {msg!r}")
                return msg
            if len(self._recv_buf) > MAX_LINE:
                raise DeployError(
                    f"control message exceeds {MAX_LINE} bytes"
                )
            try:
                self._sock.settimeout(timeout)  # EBADF once closed: EOF
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise TimeoutError("control read stalled") from None
            except OSError:
                return None
            if not chunk:
                return None
            self._recv_buf += chunk

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ControlChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_control(host: str, port: int, timeout: float) -> ControlChannel:
    """Dial a control port: the coordinator's (agent side) or a
    ``kascade serve`` submit socket (client side)."""
    try:
        sock = dial(host, port, timeout)
    except OSError as exc:
        raise DeployError(f"control port {host}:{port} unreachable: {exc}")
    return ControlChannel(sock)


def config_to_wire(config: KascadeConfig) -> dict:
    """JSON-safe dict for a start-shaped message (supervisor side)."""
    return config._asdict()


def wiring_to_wire(chain_plan: ChainPlan, endpoints: dict,
                   config: KascadeConfig) -> dict:
    """The fields every start-shaped message (``session_start``,
    ``resume``) carries — exactly what the agent's ``_wiring`` reads back.  ``endpoints``
    maps each node of the plan to ``(host, ports)``, one port per
    stripe."""
    return {
        "nodes": [[n, endpoints[n][0], endpoints[n][1][0]]
                  for n in chain_plan.nodes],
        "head": chain_plan.head,
        "plan": chain_plan.to_dict(),
        "ports": {n: list(endpoints[n][1]) for n in chain_plan.nodes},
        "config": config_to_wire(config),
    }
