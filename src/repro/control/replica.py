"""A control-plane replica: acceptor + learner behind a JSON socket.

Each replica owns one :class:`~repro.control.paxos.Acceptor` (the
quorum's memory), one :class:`~repro.control.paxos.Learner`, and one
:class:`~repro.control.state.ControlState` the learner applies into.
It serves the deployment layer's newline-JSON control framing
(:class:`~repro.deploy.protocol.ControlChannel`) so the whole quorum
conversation is readable with ``nc``, exactly like the agent protocol.

Request/response vocabulary (``op`` field):

=============  ======================================================
``prepare``    ``slot``, ``ballot`` → ``promise`` (ok, promised,
               accepted_ballot, accepted_value)
``accept``     ``slot``, ``ballot``, ``value`` → ``accepted``
``learn``      ``slot``, ``value`` → ``learned`` (idempotent)
``read``       → ``state``: applied count, state snapshot, and any
               decided-but-unapplied slots (for proposer catch-up)
``ping``       → ``pong`` (liveness; used by chaos targeting too)
``quit``       → ``bye``, then the server exits
=============  ======================================================

Run modes: in-thread (:meth:`ReplicaServer.start`, used by tests and by
coordinators embedding a local replica) or as a subprocess via
``kascade replica``, which prints ``KASCADE-REPLICA PORT=<n>`` on stdout
once bound so the parent can harvest the port — the same handshake idiom
the launcher uses for agents.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import List, Optional, Tuple

from ..core.errors import KascadeError
from ..deploy.protocol import ControlChannel
from .paxos import Acceptor, Learner
from .state import ControlState

__all__ = ["ReplicaServer", "spawn_replicas"]

logger = logging.getLogger(__name__)

#: Stdout announcement prefix for the subprocess run mode.
ANNOUNCE = "KASCADE-REPLICA"


def _ballot(raw) -> Tuple[int, int]:
    return (int(raw[0]), int(raw[1]))


class ReplicaServer:
    """One quorum member, serving prepare/accept/learn/read over TCP."""

    def __init__(self, *, bind_host: str = "127.0.0.1", port: int = 0,
                 name: str = "replica") -> None:
        self.name = name
        self.acceptor = Acceptor()
        self.state = ControlState()
        self.learner = Learner(lambda _slot, value: self.state.apply(value))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((bind_host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def serve_forever(self) -> None:
        """Blocking run (subprocess mode): serve until a ``quit`` arrives."""
        self.start()
        self._stop.wait()

    def __enter__(self) -> "ReplicaServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- serving ---------------------------------------------------------

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(
                target=self._serve_conn, args=(ControlChannel(conn),),
                name=f"{self.name}-conn", daemon=True,
            )
            t.start()
            self._threads.append(t)

    def _serve_conn(self, chan: ControlChannel) -> None:
        try:
            while not self._stop.is_set():
                try:
                    msg = chan.recv(timeout=0.5)
                except TimeoutError:
                    continue
                except Exception:  # noqa: BLE001 - poisoned line: drop conn
                    return
                if msg is None:
                    return
                reply = self.handle(msg)
                if reply is not None and not chan.send(reply):
                    return
                if msg.get("op") == "quit":
                    self._stop.set()
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    return
        finally:
            chan.close()

    # -- request dispatch (public: tests drive it without sockets) -------

    def handle(self, msg: dict) -> Optional[dict]:
        op = msg.get("op")
        with self._lock:
            if op == "prepare":
                p = self.acceptor.on_prepare(int(msg["slot"]),
                                             _ballot(msg["ballot"]))
                return {
                    "op": "promise", "slot": p.slot, "ok": p.ok,
                    "promised": list(p.promised) if p.promised else None,
                    "accepted_ballot": (list(p.accepted_ballot)
                                        if p.accepted_ballot else None),
                    "accepted_value": p.accepted_value,
                }
            if op == "accept":
                a = self.acceptor.on_accept(int(msg["slot"]),
                                            _ballot(msg["ballot"]),
                                            msg["value"])
                return {
                    "op": "accepted", "slot": a.slot, "ok": a.ok,
                    "promised": list(a.promised) if a.promised else None,
                }
            if op == "learn":
                applied = self.learner.learn(int(msg["slot"]), msg["value"])
                return {"op": "learned", "slot": int(msg["slot"]),
                        "applied": applied}
            if op == "read":
                return {
                    "op": "state",
                    "applied": self.learner.applied,
                    "state": self.state.snapshot(),
                    "chosen": {str(s): v
                               for s, v in self.learner.chosen.items()},
                }
            if op == "ping":
                return {"op": "pong", "name": self.name,
                        "applied": self.learner.applied}
            if op == "quit":
                return {"op": "bye"}
        return {"op": "error", "error": f"unknown op {op!r}"}


def spawn_replicas(count: int, *, python: str, bind_host: str = "127.0.0.1",
                   env: Optional[dict] = None):
    """Start ``count`` replica subprocesses and harvest their addresses.

    Each replica is a ``kascade replica`` process named ``replica:<i>``;
    its bound port is read from the stdout announcement.  On any spawn
    or announce failure every already-started replica is killed before
    the error propagates.  Returns ``(procs, [(host, port), ...])``.
    """
    import subprocess

    procs: List[subprocess.Popen] = []
    addrs: List[Tuple[str, int]] = []
    try:
        for i in range(count):
            cmd = [python, "-m", "repro.cli.kascade", "replica",
                   "--bind", bind_host, "--name", f"replica:{i}"]
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, env=env, text=True,
            )
            procs.append(proc)
            line = proc.stdout.readline().strip()
            if not line.startswith(ANNOUNCE):
                raise KascadeError(
                    f"control replica {i} failed to announce its port "
                    f"(got {line!r})"
                )
            addrs.append((bind_host, int(line.rsplit("PORT=", 1)[1])))
    except BaseException:
        kill_replicas(procs)
        raise
    return procs, addrs


def kill_replicas(procs) -> None:
    """SIGKILL and reap replica subprocesses: none outlives its
    supervisor (the procs coordinator, the daemon server)."""
    import subprocess

    for proc in procs:
        try:
            proc.kill()
        except OSError:
            pass
    for proc in procs:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            pass


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``kascade replica`` subprocess run mode."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(prog="kascade replica")
    parser.add_argument("--bind", default="127.0.0.1",
                        help="address to listen on (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to listen on (default: ephemeral)")
    parser.add_argument("--name", default="replica")
    args = parser.parse_args(argv)

    server = ReplicaServer(bind_host=args.bind, port=args.port,
                           name=args.name)
    host, port = server.start()
    # Announce the bound port on stdout so the parent can harvest it.
    print(f"{ANNOUNCE} PORT={port}", flush=True)
    try:
        server._stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
