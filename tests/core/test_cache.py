"""Unit tests for the content-addressed chunk cache."""

import pytest

from repro.core.cache import ArtifactMeta, CacheTapSink, ChunkCache, chunk_count
from repro.core.errors import KascadeError
from repro.core.perfstats import PerfStats
from repro.core.sinks import BufferSink

DIG_A = "a" * 64
DIG_B = "b" * 64


def make_cache(max_bytes=1024):
    stats = PerfStats()
    return ChunkCache(max_bytes, stats=stats), stats


class TestGeometry:
    def test_chunk_count(self):
        assert chunk_count(0, 16) == 0
        assert chunk_count(1, 16) == 1
        assert chunk_count(16, 16) == 1
        assert chunk_count(17, 16) == 2
        with pytest.raises(KascadeError):
            chunk_count(10, 0)

    def test_artifact_meta_tail_chunk(self):
        art = ArtifactMeta(DIG_A, size=40, chunk_size=16)
        assert art.chunks == 3
        assert [art.chunk_len(i) for i in range(3)] == [16, 16, 8]
        with pytest.raises(KascadeError):
            art.chunk_len(3)
        assert ArtifactMeta.from_wire(art.to_wire()) == art


class TestPutGet:
    def test_round_trip_and_counters(self):
        cache, stats = make_cache()
        assert cache.put(DIG_A, 0, b"hello")
        assert cache.get(DIG_A, 0) == b"hello"
        assert cache.get(DIG_A, 1) is None
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.bytes_from_cache == 5

    def test_content_addressing_is_per_digest(self):
        cache, _ = make_cache()
        cache.put(DIG_A, 0, b"aaaa")
        cache.put(DIG_B, 0, b"bbbb")
        assert cache.get(DIG_A, 0) == b"aaaa"
        assert cache.get(DIG_B, 0) == b"bbbb"

    def test_put_copies_the_callers_buffer(self):
        """Ring-retention safety: the cache must own its memory, because
        the receive buffers a relay hands out are pooled and recycled."""
        cache, _ = make_cache()
        buf = bytearray(b"live-buffer")
        cache.put(DIG_A, 0, memoryview(buf))
        buf[:4] = b"XXXX"  # the pool "recycles" the buffer
        assert cache.get(DIG_A, 0) == b"live-buffer"

    def test_zero_budget_disables_the_cache(self):
        cache, stats = make_cache(max_bytes=0)
        assert not cache.put(DIG_A, 0, b"x")
        assert cache.get(DIG_A, 0) is None
        assert stats.cache_misses == 1


class TestEviction:
    def test_lru_eviction_bounds_bytes(self):
        cache, stats = make_cache(max_bytes=30)
        for i in range(4):  # 4 x 10 bytes > 30-byte budget
            cache.put(DIG_A, i, bytes(10))
        assert cache.bytes_used <= 30
        assert cache.get(DIG_A, 0) is None  # oldest went first
        assert cache.get(DIG_A, 3) is not None
        assert cache.evictions == 1
        assert stats.cache_evictions == 1

    def test_get_refreshes_recency(self):
        cache, _ = make_cache(max_bytes=30)
        for i in range(3):
            cache.put(DIG_A, i, bytes(10))
        assert cache.get(DIG_A, 0) is not None  # touch the oldest
        cache.put(DIG_A, 3, bytes(10))          # forces one eviction
        assert cache.peek(DIG_A, 0)             # survived: it was MRU'd
        assert not cache.peek(DIG_A, 1)

    def test_pinned_artifact_is_never_evicted(self):
        cache, _ = make_cache(max_bytes=30)
        cache.put(DIG_A, 0, bytes(10))
        cache.pin_artifact(DIG_A)
        for i in range(5):
            cache.put(DIG_B, i, bytes(10))
        assert cache.peek(DIG_A, 0)
        cache.unpin_artifact(DIG_A)
        for i in range(5, 10):
            cache.put(DIG_B, i, bytes(10))
        assert not cache.peek(DIG_A, 0)

    def test_put_declined_when_everything_is_pinned(self):
        cache, _ = make_cache(max_bytes=20)
        cache.put(DIG_A, 0, bytes(20))
        cache.pin_artifact(DIG_A)
        assert not cache.put(DIG_B, 0, bytes(10))
        assert cache.peek(DIG_A, 0)

    def test_oversized_chunk_declined_not_raised(self):
        cache, _ = make_cache(max_bytes=8)
        assert not cache.put(DIG_A, 0, bytes(9))
        assert len(cache) == 0


class TestArtifactQueries:
    def test_has_artifact_and_prefix(self):
        cache, _ = make_cache()
        assert cache.has_artifact(DIG_A, 0)          # empty artifact
        cache.put(DIG_A, 0, b"x")
        cache.put(DIG_A, 2, b"z")
        assert not cache.has_artifact(DIG_A, 3)
        cache.put(DIG_A, 1, b"y")
        assert cache.has_artifact(DIG_A, 3)
        assert cache.artifact_chunks(DIG_B) == set()

    def test_eviction_updates_artifact_index(self):
        cache, _ = make_cache(max_bytes=20)
        cache.put(DIG_A, 0, bytes(10))
        cache.put(DIG_A, 1, bytes(10))
        cache.put(DIG_B, 0, bytes(10))  # evicts (A, 0)
        assert cache.artifact_chunks(DIG_A) == {1}
        assert not cache.has_artifact(DIG_A, 2)


class TestCacheTapSink:
    def test_slices_stream_into_chunks(self):
        cache, stats = make_cache(max_bytes=1024)
        art = ArtifactMeta(DIG_A, size=40, chunk_size=16)
        inner = BufferSink()
        tap = CacheTapSink(inner, cache, art)
        payload = bytes(range(40))
        # Deliberately misaligned writes: 10 + 20 + 10 bytes.
        tap.write_chunk(payload[:10])
        tap.write_chunk(payload[10:30])
        tap.write_chunk(payload[30:])
        tap.finish()
        assert inner.getvalue() == payload
        assert cache.has_artifact(DIG_A, 3)
        # Three chunks came over the wire: three misses, no hit yet.
        assert (stats.cache_misses, stats.cache_hits) == (3, 0)
        assert cache.get(DIG_A, 0) == payload[:16]
        assert cache.get(DIG_A, 2) == payload[32:]  # short tail chunk
