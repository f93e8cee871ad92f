"""The fleet agent: one long-lived process, many broadcast sessions.

The one-shot ``kascade agent`` (:mod:`repro.deploy.agent`) lives for
exactly one transfer: register, wait for ``start``, run, report, exit.
A *fleet* agent registers once and then loops, multiplexing named
sessions over the same control connection — the windowed-launch cost
(interpreter start, import, register) is paid once per fleet, not once
per broadcast.  Per session it can play three roles:

``session_start``
    Run the push chain for this session: bind happened at
    ``session_open``, the transfer itself is the shared
    :func:`repro.deploy.agent.execute_transfer` on a worker thread,
    with the process-wide :class:`~repro.core.cache.ChunkCache` tapping
    every received chunk.

``session_serve_cached``
    The re-broadcast short-circuit: every chunk of the artifact is
    already in the local cache, so the agent never touches upstream —
    it replays the cached chunks through a fresh
    :class:`~repro.deploy.agent.DigestSink` into the session's sink and
    reports the same digest-bearing status a wire transfer would.

``session_join``
    Late-joiner catch-up: pull the artifact chunk-by-chunk from
    cache-warm peers' pull servers (§III-D2's PGET, aimed at a peer
    cache instead of an upstream ring) while the push chain — which
    this node is *not* part of — continues undisturbed.

Every fleet agent also runs a :class:`PullServer`: a dumb
request/response loop over its cache (JSON header + raw chunk bytes)
that late joiners — and nothing else — dial.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import tracing
from ..core.cache import ArtifactMeta, ChunkCache
from ..core.perfstats import get_stats
from ..core.sinks import FileSink, NullSink, Sink
from ..core.tracing import TraceCollector
from ..deploy.agent import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    DigestSink,
    TransferSetupError,
    _Heartbeat,
    execute_transfer,
)
from ..deploy.protocol import ControlChannel, DeployError, connect_control
from ..runtime.transport import Listener

#: How long a late joiner keeps retrying a chunk no peer has *yet*
#: before each re-ask (the push chain is still filling peer caches).
PULL_RETRY_S = 0.05


class PullServer:
    """Serve cached chunks to late joiners over a trivial TCP protocol.

    One request per line: ``{"digest": ..., "index": n}``; the reply is
    one JSON header line ``{"n": <len>}`` followed by exactly ``len``
    raw payload bytes — or ``{"n": -1}`` when the chunk is not (yet) in
    the cache, which a joiner treats as "retry, the push is still
    ahead of me".  Connections are persistent: a joiner pulls a whole
    prefix over one socket.
    """

    def __init__(self, cache: ChunkCache, host: str = "127.0.0.1") -> None:
        self._cache = cache
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, 0))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = False
        self._thread = threading.Thread(
            target=self._accept_loop, name="pull-server", daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             name="pull-conn", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("rb")
            for line in reader:
                try:
                    req = json.loads(line)
                    digest = str(req["digest"])
                    index = int(req["index"])
                except (ValueError, KeyError, TypeError):
                    break
                data = self._cache.get(digest, index)
                if data is None:
                    conn.sendall(b'{"n":-1}\n')
                else:
                    conn.sendall(b'{"n":%d}\n' % len(data) + data)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def pull_chunk(
    conn: socket.socket,
    digest: str,
    index: int,
) -> Optional[bytes]:
    """One request/response against an open pull-server connection.

    ``None`` means the peer does not have the chunk yet (the ``n = -1``
    reply); a broken connection raises ``OSError`` so the caller can
    rotate to the next peer.
    """
    conn.sendall(json.dumps({"digest": digest, "index": index}).encode()
                 + b"\n")
    header = b""
    while not header.endswith(b"\n"):
        byte = conn.recv(1)
        if not byte:
            raise OSError("pull peer closed mid-header")
        header += byte
    n = int(json.loads(header)["n"])
    if n < 0:
        return None
    buf = bytearray()
    while len(buf) < n:
        piece = conn.recv(n - len(buf))
        if not piece:
            raise OSError("pull peer closed mid-chunk")
        buf += piece
    return bytes(buf)


def _open_sink(output: Optional[str]) -> Sink:
    return FileSink(output) if output else NullSink()


def serve_from_cache(
    name: str,
    cache: ChunkCache,
    artifact: ArtifactMeta,
    output: Optional[str],
) -> dict:
    """Replay a fully-cached artifact into the session sink; no wire I/O.

    Returns a status payload shaped exactly like
    :func:`~repro.deploy.agent.execute_transfer`'s, with ``bytes = 0``
    (nothing crossed the data plane) and ``from_cache`` carrying the
    replayed byte count — the coordinator's proof that the re-broadcast
    cost zero upstream traffic.
    """
    tracer = TraceCollector()
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()
    digest_sink = DigestSink(_open_sink(output))
    served = 0
    error: Optional[str] = None
    for index in range(artifact.chunks):
        data = cache.get(artifact.digest, index)
        if data is None:
            error = (f"cache lost chunk {index}/{artifact.chunks} of "
                     f"{artifact.digest[:12]} mid-serve")
            break
        digest_sink.write_chunk(data)
        tracer.emit(tracing.CACHE_HIT, name,
                    offset=index * artifact.chunk_size)
        served += len(data)
    if error is None and digest_sink.hexdigest() != artifact.digest:
        error = "cached artifact digest mismatch"
    if error is None:
        digest_sink.finish()
    else:
        digest_sink.abort()
    stats_after = get_stats().snapshot()
    return {
        "name": name,
        "ok": error is None,
        "bytes": 0,
        "crashed": False,
        "error": error,
        "digest": digest_sink.hexdigest(),
        "report": None,
        "failures": [],
        "from_cache": served,
        "perfstats": {k: stats_after[k] - stats_before.get(k, 0)
                      for k in stats_after},
        "trace": tracer.to_jsonl(),
        "trace_epoch": trace_epoch,
    }


def pull_catch_up(
    name: str,
    cache: ChunkCache,
    artifact: ArtifactMeta,
    peers: Sequence[Tuple[str, int]],
    output: Optional[str],
    *,
    progress_send,
    progress_every: int = 1 << 18,
    deadline: Optional[float] = None,
    retry_s: float = PULL_RETRY_S,
) -> dict:
    """Late-joiner pull phase: fetch the artifact prefix from warm peers.

    Chunks are pulled strictly in order (the sink is a stream) from the
    first peer that has them; a ``n = -1`` miss everywhere means the
    push chain has not produced that chunk yet, so the joiner sleeps
    ``retry_s`` and asks again — catch-up converges as the push runs.
    Pulled chunks also land in the *local* cache, so a joiner becomes a
    pull peer for the next joiner.
    """
    tracer = TraceCollector()
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()
    digest_sink = DigestSink(_open_sink(output))
    conns: Dict[int, socket.socket] = {}
    pulled = 0
    last_progress = 0
    error: Optional[str] = None

    def connect(i: int) -> Optional[socket.socket]:
        if i in conns:
            return conns[i]
        host, port = peers[i]
        try:
            conn = socket.create_connection((host, port), timeout=5.0)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            return None
        conns[i] = conn
        return conn

    try:
        for index in range(artifact.chunks):
            data = cache.get(artifact.digest, index)
            while data is None:
                if deadline is not None and time.monotonic() > deadline:
                    error = (f"pull timed out at chunk "
                             f"{index}/{artifact.chunks}")
                    break
                seen_peer = False
                for i in range(len(peers)):
                    conn = connect(i)
                    if conn is None:
                        continue
                    seen_peer = True
                    try:
                        data = pull_chunk(conn, artifact.digest, index)
                    except OSError:
                        conns.pop(i, None)
                        try:
                            conn.close()
                        except OSError:
                            pass
                        continue
                    if data is not None:
                        host, port = peers[i]
                        tracer.emit(tracing.PGET, name,
                                    offset=index * artifact.chunk_size,
                                    peer=f"{host}:{port}")
                        break
                if data is None:
                    if not seen_peer:
                        error = "no pull peer reachable"
                        break
                    time.sleep(retry_s)
            if error is not None:
                break
            digest_sink.write_chunk(data)
            cache.put(artifact.digest, index, data)
            pulled += len(data)
            if pulled - last_progress >= progress_every:
                last_progress = pulled
                progress_send(pulled)
    finally:
        for conn in conns.values():
            try:
                conn.close()
            except OSError:
                pass
    if error is None and digest_sink.hexdigest() != artifact.digest:
        error = "pulled artifact digest mismatch"
    if error is None:
        digest_sink.finish()
    else:
        digest_sink.abort()
    stats_after = get_stats().snapshot()
    return {
        "name": name,
        "ok": error is None,
        "bytes": pulled,
        "crashed": False,
        "error": error,
        "digest": digest_sink.hexdigest(),
        "report": None,
        "failures": [],
        "from_cache": 0,
        "perfstats": {k: stats_after[k] - stats_before.get(k, 0)
                      for k in stats_after},
        "trace": tracer.to_jsonl(),
        "trace_epoch": trace_epoch,
    }


class _SessionState:
    """Agent-side record of one open session."""

    def __init__(self, session: str, listeners: List[Listener],
                 artifact: Optional[ArtifactMeta]) -> None:
        self.session = session
        self.listeners = listeners
        self.artifact = artifact
        self.worker: Optional[threading.Thread] = None

    def close_listeners(self) -> None:
        for listener in self.listeners:
            try:
                listener.close()
            except OSError:
                pass
        self.listeners = []


def run_fleet_agent(
    coordinator: Tuple[str, int],
    name: str,
    *,
    bind: str = "127.0.0.1",
    advertise: Optional[str] = None,
    start_timeout: float = 60.0,
    cache_bytes: int = 0,
    heartbeat_interval: float = 0.5,
) -> int:
    """Run one fleet agent until the server says ``quit``.

    Registers once (``hello`` with ``fleet: true`` and the pull-server
    port), then serves sessions forever: per ``session_open`` it binds
    fresh per-session data-plane listeners and acks with its cache
    state for the artifact; ``session_start`` / ``session_serve_cached``
    / ``session_join`` each run on their own worker thread, so many
    sessions overlap inside one process.  ``quit`` drains: active
    workers finish, then the process exits 0 — ``SIGKILL`` stays the
    server's abort path, not its happy path.
    """
    cache = ChunkCache(cache_bytes, stats=get_stats())
    pull_server = PullServer(cache, host=bind)
    try:
        channel = connect_control(coordinator[0], coordinator[1],
                                  timeout=start_timeout)
    except DeployError:
        pull_server.close()
        return EXIT_USAGE
    advertise_host = advertise or bind
    channel.send({
        "op": "hello",
        "name": name,
        "pid": os.getpid(),
        "host": advertise_host,
        "fleet": True,
        # The fleet agent has no boot-time data port: sessions bind
        # their own.  The registered port is the pull server, which
        # *is* this agent's one stable, always-on data endpoint.
        "ports": [pull_server.port],
        "pull_port": pull_server.port,
    })
    heartbeat = _Heartbeat(channel, heartbeat_interval)
    heartbeat.start()
    sessions: Dict[str, _SessionState] = {}
    lock = threading.Lock()
    exit_code = EXIT_OK

    def session_progress(sid: str) -> Callable[[int], None]:
        return lambda total: channel.send(
            {"op": "progress", "session": sid, "bytes": total})

    def finish_session(state: _SessionState, status: dict) -> None:
        channel.send({"op": "session_status", "session": state.session,
                      **status})
        state.close_listeners()
        if state.artifact is not None:
            cache.unpin_artifact(state.artifact.digest)
        with lock:
            sessions.pop(state.session, None)

    def start_worker(state: _SessionState, fn) -> None:
        def run() -> None:
            try:
                status = fn()
            except Exception as exc:  # a session must never kill the fleet
                # A start message this agent cannot honour is a refusal,
                # not a crash.
                refused = isinstance(exc, TransferSetupError)
                status = {"name": name, "ok": False, "bytes": 0,
                          "crashed": not refused,
                          "error": (str(exc) if refused
                                    else f"{type(exc).__name__}: {exc}"),
                          "digest": None, "report": None, "failures": [],
                          "from_cache": 0, "perfstats": {}, "trace": "",
                          "trace_epoch": time.time()}
            finish_session(state, status)

        state.worker = threading.Thread(
            target=run, name=f"session-{state.session}", daemon=True)
        state.worker.start()

    try:
        while True:
            try:
                msg = channel.recv(timeout=0.5)
            except TimeoutError:
                continue
            except DeployError:
                exit_code = EXIT_FAILED
                break
            if msg is None:
                # Control EOF: the server is gone; drain and exit.
                break
            op = msg.get("op")
            if op == "quit":
                break
            if op == "cancel":
                break

            if op == "session_open":
                session = str(msg["session"])
                stripes = int(msg.get("stripes", 1))
                artifact = (ArtifactMeta.from_wire(msg["artifact"])
                            if msg.get("artifact") else None)
                listeners = [Listener(host=bind, port=0)
                             for _ in range(max(1, stripes))]
                state = _SessionState(session, listeners, artifact)
                with lock:
                    sessions[session] = state
                cached = has_all = 0
                if artifact is not None:
                    # Pin for the session's lifetime: a serve-cached or
                    # pull peer must not lose chunks to LRU mid-session.
                    cache.pin_artifact(artifact.digest)
                    cached = cache.contiguous_chunks(artifact.digest)
                    has_all = cache.has_artifact(artifact.digest,
                                                 artifact.chunks)
                channel.send({
                    "op": "session_ack",
                    "session": session,
                    "name": name,
                    "ports": [ln.address.port for ln in listeners],
                    "cached": int(cached),
                    "has_all": bool(has_all),
                })
                continue

            session = str(msg.get("session", ""))
            with lock:
                state = sessions.get(session)
            if op == "session_start":
                if state is None:
                    continue  # opened elsewhere / cancelled
                run_msg = dict(msg)
                listeners = state.listeners

                start_worker(state, lambda m=run_msg, l=listeners,
                             p=session_progress(session): {
                                 **execute_transfer(m, l, name,
                                                    progress_send=p,
                                                    cache=cache),
                                 "from_cache": 0,
                             })
            elif op == "session_serve_cached":
                if state is None or state.artifact is None:
                    continue
                output = msg.get("output")
                start_worker(state, lambda a=state.artifact, o=output:
                             serve_from_cache(name, cache, a, o))
            elif op == "session_join":
                artifact = (ArtifactMeta.from_wire(msg["artifact"])
                            if msg.get("artifact") else None)
                if artifact is None:
                    continue
                if state is None:
                    # A joiner needs no data-plane listeners, so join is
                    # self-contained: open-on-arrival.
                    state = _SessionState(session, [], artifact)
                    cache.pin_artifact(artifact.digest)
                    with lock:
                        sessions[session] = state
                peers = [(str(h), int(p)) for h, p in msg.get("peers", [])]
                output = msg.get("output")
                every = int(msg.get("progress_every", 1 << 18))
                run_deadline = time.monotonic() + float(
                    msg.get("run_timeout", 600.0))

                start_worker(state, lambda a=artifact, pe=peers, o=output,
                             ev=every, dl=run_deadline,
                             pr=session_progress(session):
                             pull_catch_up(name, cache, a, pe, o,
                                           progress_send=pr,
                                           progress_every=ev, deadline=dl))
            elif op == "session_cancel":
                if state is not None and state.worker is None:
                    state.close_listeners()
                    if state.artifact is not None:
                        cache.unpin_artifact(state.artifact.digest)
                    with lock:
                        sessions.pop(session, None)
            # anything else: ignore — forward compatibility
    finally:
        # Drain: let in-flight sessions finish before exiting cleanly.
        with lock:
            workers = [s.worker for s in sessions.values()
                       if s.worker is not None]
        for worker in workers:
            worker.join(timeout=10.0)
        heartbeat.stop()
        pull_server.close()
        channel.close()
    return exit_code
