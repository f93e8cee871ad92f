"""What an agent does with a cache — loaded only when it was given one.

``kascade agent --cache-bytes N`` (N > 0) keeps a process-wide
:class:`~repro.core.cache.ChunkCache` that every push it receives taps
into, which buys one more way to take part in a session besides the
push chain (:func:`repro.deploy.agent.execute_transfer`):
``session_serve_cached`` → :func:`serve_from_cache`, the re-broadcast
short-circuit.  Every chunk of the artifact is already in the local
cache, so the agent never touches upstream — it replays the cached
chunks through a fresh :class:`~repro.core.sinks.HashingSink` into the
session's sink and reports the same digest-bearing status a wire
transfer would.  An agent started with ``--cache-bytes 0`` never
imports this module.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core import tracing
from ..core.cache import ArtifactMeta, ChunkCache
from ..core.perfstats import get_stats
from ..core.sinks import FileSink, HashingSink, NullSink, Sink
from ..core.tracing import NULL_TRACER, TraceCollector


def _open_sink(output: Optional[str]) -> Sink:
    return FileSink(output) if output else NullSink()


def serve_from_cache(
    name: str,
    cache: ChunkCache,
    artifact: ArtifactMeta,
    output: Optional[str],
    trace: bool = False,
) -> dict:
    """Replay a fully-cached artifact into the session sink; no wire I/O.

    Returns a status payload shaped exactly like
    :func:`~repro.deploy.agent.execute_transfer`'s, with ``bytes = 0``
    (nothing crossed the data plane) and ``from_cache`` carrying the
    replayed byte count — the coordinator's proof that the re-broadcast
    cost zero upstream traffic.  Only a traced session (``trace``)
    records a CACHE_HIT per chunk; an untraced one ships ``"trace": ""``,
    as a wire transfer does.
    """
    tracer = TraceCollector() if trace else NULL_TRACER
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()
    digest_sink = HashingSink(_open_sink(output))
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
        "from_cache": served,
        "perfstats": {k: stats_after[k] - stats_before.get(k, 0)
                      for k in stats_after},
        "trace": tracer.to_jsonl() if tracer.enabled else "",
        "trace_epoch": trace_epoch,
    }
