"""What an agent does with a cache — loaded only when it was given one.

``kascade agent --cache-bytes N`` (N > 0) keeps a process-wide
:class:`~repro.core.cache.ChunkCache` that every push it receives taps
into, which buys two more ways to take part in a session besides the
push chain (:func:`repro.deploy.agent.execute_transfer`):

``session_serve_cached`` → :func:`serve_from_cache`
    The re-broadcast short-circuit: every chunk of the artifact is
    already in the local cache, so the agent never touches upstream —
    it replays the cached chunks through a fresh
    :class:`~repro.deploy.agent.DigestSink` into the session's sink and
    reports the same digest-bearing status a wire transfer would.

``session_join`` → :func:`pull_catch_up`
    Late-joiner catch-up: pull the artifact chunk-by-chunk from
    cache-warm peers' pull servers (§III-D2's PGET, aimed at a peer
    cache instead of an upstream ring) while the push chain — which
    this node is *not* part of — continues undisturbed.

Such an agent also runs a :class:`PullServer`: a dumb request/response
loop over its cache (JSON header + raw chunk bytes) that late joiners —
and nothing else — dial.  An agent started with ``--cache-bytes 0`` has
none of this and never imports this module.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from ..core import tracing
from ..core.cache import ArtifactMeta, ChunkCache
from ..core.perfstats import get_stats
from ..core.sinks import FileSink, NullSink, Sink
from ..core.tracing import TraceCollector
from ..deploy.agent import DigestSink
from ..runtime.registry import dial

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
            conn = dial(host, port, 5.0)
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
