"""The deploy agent is one host of the schedule (`HostChains`): its
trace names match the local backend's, and a start message that does
not say which chains to run is a usage error."""

import socket
import threading

from repro import run_broadcast
from repro.core import KascadeConfig
from repro.core.sources import PatternSource
from repro.deploy.agent import EXIT_USAGE, config_to_wire, run_agent
from repro.deploy.protocol import ControlChannel

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
    def serve_one_start(self, start):
        """A one-connection coordinator: take the hello, answer ``start``."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        hellos = []

        def serve():
            conn, _peer = server.accept()
            channel = ControlChannel(conn)
            hello = channel.recv(timeout=10.0)
            hellos.append(hello)
            channel.send(start(hello))
            channel.recv(timeout=10.0)   # EOF (or a status) ends the visit
            channel.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return server, thread, hellos

    def test_no_plan_or_ports_exits_with_usage(self):
        """The single-port start message is gone: ``hello.ports`` carries
        the ports, ``start.plan`` + ``start.ports`` the schedule."""
        def start(hello):
            port = hello["ports"][0]
            return {"op": "start", "head": "n1",
                    "nodes": [["n1", "127.0.0.1", port],
                              ["n2", "127.0.0.1", port]],
                    "config": config_to_wire(FAST)}

        server, thread, hellos = self.serve_one_start(start)
        try:
            code = run_agent(server.getsockname(), "n2", start_timeout=10.0)
        finally:
            thread.join(timeout=10.0)
            server.close()
        assert code == EXIT_USAGE
        assert "port" not in hellos[0] and len(hellos[0]["ports"]) == 1
