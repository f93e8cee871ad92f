"""The cache-replay path of an agent: ``serve_from_cache`` records a
trace only for a traced session, like a wire transfer."""

import hashlib
import json

import pytest

from repro.core.cache import ArtifactMeta, ChunkCache
from repro.core.perfstats import PerfStats
from repro.core.tracing import CACHE_HIT
from repro.daemon.replay import serve_from_cache

CHUNK = 100


@pytest.fixture
def cached():
    payload = bytes(i % 251 for i in range(3 * CHUNK + 40))
    artifact = ArtifactMeta(hashlib.sha256(payload).hexdigest(),
                            size=len(payload), chunk_size=CHUNK)
    cache = ChunkCache(1 << 20, stats=PerfStats())
    for index in range(artifact.chunks):
        assert cache.put(artifact.digest, index,
                         payload[index * CHUNK:(index + 1) * CHUNK])
    return cache, artifact, payload


def test_untraced_replay_ships_no_trace(cached, tmp_path):
    cache, artifact, payload = cached
    out = tmp_path / "n2.bin"
    status = serve_from_cache("n2", cache, artifact, str(out))
    assert status["ok"] and status["from_cache"] == len(payload)
    assert status["trace"] == ""
    assert out.read_bytes() == payload


def test_traced_replay_ships_one_cache_hit_per_chunk(cached):
    cache, artifact, payload = cached
    status = serve_from_cache("n2", cache, artifact, None, trace=True)
    assert status["ok"] and status["digest"] == artifact.digest
    events = [json.loads(line) for line in status["trace"].splitlines()]
    assert [(e["type"], e["node"], e["offset"]) for e in events] == [
        (CACHE_HIT, "n2", index * CHUNK)
        for index in range(artifact.chunks)]
