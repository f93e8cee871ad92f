"""``Coordinator.close()`` ends the control plane: its listener and
every connection's thread."""

import socket
import threading

import pytest

from repro.deploy.coordinator import Coordinator
from repro.deploy.protocol import ControlChannel


def coord_threads(besides=()):
    return [t.name for t in threading.enumerate()
            if t.name.startswith("coord-") and t not in besides]


def test_close_refuses_connections_and_leaves_no_thread():
    before = set(threading.enumerate())
    coordinator = Coordinator()
    host, port = coordinator.address.host, coordinator.address.port
    # One registered agent and one connection that never says hello.
    agent = ControlChannel(socket.create_connection((host, port), 5.0))
    assert agent.send({"op": "hello", "name": "n2", "host": host, "pid": 1})
    assert coordinator.wait_registered("n2", 5.0)
    silent = socket.create_connection((host, port), 5.0)
    try:
        coordinator.close()
        assert coord_threads(besides=before) == []
        with pytest.raises(OSError):
            socket.create_connection((host, port), 1.0).close()
        assert agent.recv(timeout=5.0) is None  # the coordinator hung up
    finally:
        agent.close()
        silent.close()
