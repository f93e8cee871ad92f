"""The submit socket of ``kascade serve`` (``serve_clients``) and its
client: requests and replies are control-channel messages, so whatever
a connecting peer sends — a line past ``MAX_LINE``, JSON that is not an
object — is answered or cut off, and the loop serves the next one."""

import hashlib
import json
import queue
import socket
import threading
import time

import pytest

from repro.core import KascadeConfig
from repro.daemon import DaemonClient, DaemonServer, serve_clients
from repro.deploy.protocol import MAX_LINE

FAST = KascadeConfig(chunk_size=64 * 1024, io_timeout=0.5, ping_timeout=0.4,
                     connect_timeout=1.0, report_timeout=6.0)


def closed_within(conn: socket.socket, seconds: float) -> bool:
    """Whether the peer closes ``conn`` within ``seconds`` (whatever it
    says first); this end stays open throughout."""
    deadline = time.monotonic() + seconds
    try:
        while time.monotonic() < deadline:
            conn.settimeout(max(0.01, deadline - time.monotonic()))
            if not conn.recv(1 << 16):
                return True
    except socket.timeout:
        return False
    except ConnectionResetError:
        return True
    return False


@pytest.fixture
def serving():
    """A three-agent fleet behind a submit socket: ``(client, loop)``."""
    server = DaemonServer(["n1", "n2", "n3"], config=FAST, cache_bytes=0,
                          startup_timeout=20.0).start()
    bound = queue.Queue()
    loop = threading.Thread(
        target=serve_clients, args=(server,),
        kwargs=dict(on_bound=lambda host, port: bound.put(port)),
        name="submit-socket", daemon=True)
    loop.start()
    try:
        yield DaemonClient("127.0.0.1", bound.get(timeout=10.0)), loop
    finally:
        server.shutdown()


def test_malformed_requests_are_answered_and_the_loop_serves_on(
        serving, tmp_path):
    client, loop = serving
    assert sorted(client.ping()["registered"]) == ["n1", "n2", "n3"]
    payload = bytes(range(256)) * 1024
    path = tmp_path / "in.bin"
    path.write_bytes(payload)
    reply = client.submit(str(path), ["n2", "n3"], timeout=60.0)
    assert reply["ok"], reply
    assert reply["digests"] == dict.fromkeys(
        ("n2", "n3"), hashlib.sha256(payload).hexdigest())

    # A line longer than the channel takes, and no newline: cut off,
    # not read without end, while this end stays open.
    with socket.create_connection(("127.0.0.1", client.port)) as conn:
        try:
            conn.sendall(b"x" * (MAX_LINE + 1))
        except (BrokenPipeError, ConnectionResetError):
            pass  # closed while the line was still going out
        assert closed_within(conn, 5.0)

    # Well-formed JSON that is not an object: an error reply.
    with socket.create_connection(("127.0.0.1", client.port)) as conn:
        conn.settimeout(10.0)
        conn.sendall(b"[]\n")
        answer = json.loads(conn.makefile("rb").readline())
    assert answer["ok"] is False and "error" in answer

    assert client.ping()["sessions_completed"] == 1
    assert client.shutdown()["ok"]
    loop.join(timeout=10.0)
    assert not loop.is_alive()
