"""The agent is one host of the schedule (`HostChains`): its trace
names match the local backend's, a start message that does not say
which chains to run is a refused session — the agent lives on — and a
receiver's output reserves the stream before its first byte."""

import errno
import os
import socket
import threading
from types import SimpleNamespace

from repro import run_broadcast
from repro.core import KascadeConfig
from repro.core.plan import ChainPlan
from repro.core.sources import PatternSource
from repro.daemon.server import DaemonServer
from repro.deploy.agent import (EXIT_OK, _SessionState, config_to_wire,
                                execute_transfer, serve_sessions)
from repro.deploy.protocol import ControlChannel
from repro.runtime.transport import Listener

FAST = KascadeConfig(
    chunk_size=64 * 1024,
    buffer_chunks=8,
    io_timeout=0.5,
    ping_timeout=0.4,
    connect_timeout=1.0,
    report_timeout=6.0,
)


def stripe_tagged(trace):
    return {e.node for e in trace.events() if "@s" in e.node}


class TestStripeTaggedNames:
    def test_procs_trace_names_match_the_local_backends(self):
        """Per-stripe CONNECT/FAILOVER events must be tellable apart on
        every real-I/O backend: ``n3@s1``, not a bare ``n3`` twice."""
        source = PatternSource(1 << 20, seed=2)
        receivers = ["n2", "n3"]
        local = run_broadcast(source, receivers, backend="local",
                              config=FAST, stripes=2, trace=True,
                              timeout=60.0)
        procs = run_broadcast(source, receivers, backend="procs",
                              config=FAST, stripes=2, trace=True,
                              timeout=90.0, startup_timeout=20.0)
        assert local.ok and procs.ok
        expected = {f"{name}@s{j}" for name in ("n1", "n2", "n3")
                    for j in range(2)}
        assert stripe_tagged(local.trace) == expected
        assert stripe_tagged(procs.trace) == expected
        # Nothing a chain instance emits goes out under the bare name.
        assert not {e.node for e in procs.trace.events()} & {"n1", "n2", "n3"}


class TestStartMessageMustCarryTheSchedule:
    def serve_one_session(self, start):
        """A one-connection supervisor: take the hello, open a session,
        answer the ack with ``start(ack)``, keep the status, say quit."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        seen = {}

        def serve():
            conn, _peer = server.accept()
            channel = ControlChannel(conn)
            seen["hello"] = channel.recv(timeout=10.0)
            channel.send({"op": "session_open", "session": "s1",
                          "stripes": 1})
            for key in ("ack", "status"):
                msg = channel.recv(timeout=10.0)
                while msg is not None and msg["op"] == "heartbeat":
                    msg = channel.recv(timeout=10.0)
                seen[key] = msg
                if key == "ack":
                    channel.send(start(msg))
            channel.send({"op": "quit"})
            channel.recv(timeout=10.0)   # EOF ends the visit
            channel.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return server, thread, seen

    def test_no_plan_or_ports_exits_with_a_refused_status(self):
        """``session_ack.ports`` carries the ports, ``session_start.plan``
        + ``.ports`` the schedule; a start without them is answered with
        a refusal (not a crash, not an exit) and the agent drains on
        ``quit`` like any other."""
        def start(ack):
            port = ack["ports"][0]
            return {"op": "session_start", "session": "s1", "head": "n1",
                    "nodes": [["n1", "127.0.0.1", port],
                              ["n2", "127.0.0.1", port]],
                    "config": config_to_wire(FAST)}

        server, thread, seen = self.serve_one_session(start)
        try:
            code = serve_sessions(server.getsockname(), "n2",
                                  start_timeout=10.0)
        finally:
            thread.join(timeout=10.0)
            server.close()
        assert code == EXIT_OK
        # No cache was given: the ack neither knows nor says anything
        # about an artifact.
        assert len(seen["ack"]["ports"]) == 1 and "has_all" not in seen["ack"]
        status = seen["status"]
        assert status["op"] == "session_status" and status["session"] == "s1"
        assert not status["ok"] and not status["crashed"]
        assert "no plan/ports" in status["error"]


class TestFleetReceiversReserve:
    def test_a_refused_reservation_fails_the_session_before_a_byte(
            self, tmp_path, monkeypatch):
        """The supervisor's ``session_start`` carries the source's size,
        and a receiving agent's output reserves it in its first write:
        a full disk fails the session before any byte is stored, and
        the output is removed — not at the end of the stream."""
        size = 1 << 20
        source = tmp_path / "in.bin"
        source.write_bytes(PatternSource(size).expected_bytes(0, size))
        plan = ChainPlan.build("n1", ["n2"], stripes=1)
        listeners = {n: [Listener(host="127.0.0.1", port=0)]
                     for n in plan.nodes}

        # The start messages, exactly as the supervisor sends them.
        sent = {}
        server = DaemonServer(list(plan.nodes), config=FAST)
        server._coordinator = SimpleNamespace(
            agent=lambda name: SimpleNamespace(host="127.0.0.1"),
            send=sent.__setitem__)
        session = SimpleNamespace(
            id="s1", output_template=str(tmp_path / "{node}.out"),
            output_for=lambda name: str(tmp_path / f"{name}.out"),
            faults={}, pending_joins=[],
            ports={n: [ls[0].address.port] for n, ls in listeners.items()})
        server._send_starts(session, "session_start", plan, str(source),
                            run_timeout=30.0)
        assert sent["n2"]["size"] == size

        refused = []

        def full(fd, offset, length):
            refused.append((length, os.fstat(fd).st_size))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        quiet = SimpleNamespace(send=lambda message: True)
        statuses = {}

        def run(name):
            state = _SessionState("s1", quiet, listeners[name])
            statuses[name] = execute_transfer(sent[name], state, name)
            state.close_listeners()

        head = threading.Thread(target=run, args=("n1",), daemon=True)
        head.start()
        run("n2")
        head.join(timeout=30.0)

        n2 = statuses["n2"]
        assert not n2["ok"] and not n2["crashed"]
        assert "sink failure" in n2["error"]
        assert "No space left" in n2["error"]
        assert refused == [(size, 0)]  # reserved before its first byte
        assert not (tmp_path / "n2.out").exists()


class TestOneHasherPerVerifyingReceiver:
    def test_a_one_stripe_receiver_hashes_each_byte_once(
            self, tmp_path, monkeypatch):
        """With ``verify_digest`` a one-stripe receiving agent hashes the
        stream once — its node's hash is its status digest — where it
        used to hash it a second time in a ``HashingSink``."""
        import hashlib

        size = 1 << 20
        source = tmp_path / "in.bin"
        payload = PatternSource(size, seed=7).expected_bytes(0, size)
        source.write_bytes(payload)
        plan = ChainPlan.build("n1", ["n2"], stripes=1)
        listeners = {n: [Listener(host="127.0.0.1", port=0)]
                     for n in plan.nodes}
        sent = {}
        server = DaemonServer(list(plan.nodes),
                              config=FAST.with_(verify_digest=True))
        server._coordinator = SimpleNamespace(
            agent=lambda name: SimpleNamespace(host="127.0.0.1"),
            send=sent.__setitem__)
        session = SimpleNamespace(
            id="s1", output_template=str(tmp_path / "{node}.out"),
            output_for=lambda name: str(tmp_path / f"{name}.out"),
            faults={}, pending_joins=[],
            ports={n: [ls[0].address.port] for n, ls in listeners.items()})
        server._send_starts(session, "session_start", plan, str(source),
                            run_timeout=30.0)

        hashed = []
        real = hashlib.sha256

        class Counting:
            def __init__(self, data=b""):
                self._hash = real(data)

            def update(self, data):
                hashed.append(len(data))
                self._hash.update(data)

            def digest(self):
                return self._hash.digest()

            def hexdigest(self):
                return self._hash.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Counting)
        quiet = SimpleNamespace(send=lambda message: True)
        statuses = {}

        def run(name):
            state = _SessionState("s1", quiet, listeners[name])
            statuses[name] = execute_transfer(sent[name], state, name)
            state.close_listeners()

        head = threading.Thread(target=run, args=("n1",), daemon=True)
        head.start()
        run("n2")
        head.join(timeout=30.0)

        assert statuses["n1"]["ok"] and statuses["n2"]["ok"]
        assert statuses["n2"]["digest"] == real(payload).hexdigest()
        assert (tmp_path / "n2.out").read_bytes() == payload
        # The head's source digest and the receiver's one pass.
        assert sum(hashed) == 2 * size
