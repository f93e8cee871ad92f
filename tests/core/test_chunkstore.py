"""Tests for the recovery ring buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChunkRingBuffer, ChunkStoreError


class TestBasics:
    def test_initial_state(self):
        buf = ChunkRingBuffer(capacity=100)
        assert buf.min_offset == 0
        assert buf.end_offset == 0
        assert len(buf) == 0
        assert buf.covers(0)

    def test_start_offset(self):
        buf = ChunkRingBuffer(capacity=100, start_offset=500)
        assert buf.min_offset == 500
        assert buf.end_offset == 500
        assert not buf.covers(499)
        assert buf.covers(500)

    def test_invalid_construction(self):
        with pytest.raises(ChunkStoreError):
            ChunkRingBuffer(capacity=0)
        with pytest.raises(ChunkStoreError):
            ChunkRingBuffer(capacity=10, start_offset=-1)

    def test_append_and_read(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"hello")
        buf.append(b"world")
        assert buf.end_offset == 10
        assert buf.read_from(0) == b"helloworld"
        assert buf.read_from(3) == b"loworld"
        assert buf.read_from(10) == b""

    def test_read_with_limit(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"abcdefgh")
        assert buf.read_from(2, limit=3) == b"cde"

    def test_empty_append_is_noop(self):
        buf = ChunkRingBuffer(capacity=10)
        buf.append(b"")
        assert buf.end_offset == 0


class TestEviction:
    def test_eviction_advances_min(self):
        buf = ChunkRingBuffer(capacity=10)
        buf.append(b"aaaa")   # [0, 4)
        buf.append(b"bbbb")   # [0, 8)
        buf.append(b"cccc")   # evicts "aaaa" -> [4, 12)
        assert buf.min_offset == 4
        assert buf.end_offset == 12
        assert buf.read_from(4) == b"bbbbcccc"

    def test_read_before_min_raises(self):
        buf = ChunkRingBuffer(capacity=8)
        buf.append(b"aaaa")
        buf.append(b"bbbb")
        buf.append(b"cc")  # evicts aaaa
        with pytest.raises(ChunkStoreError):
            buf.read_from(0)

    def test_read_beyond_end_raises(self):
        buf = ChunkRingBuffer(capacity=8)
        buf.append(b"aa")
        with pytest.raises(ChunkStoreError):
            buf.read_from(3)

    def test_chunk_bigger_than_capacity_rejected(self):
        buf = ChunkRingBuffer(capacity=4)
        with pytest.raises(ChunkStoreError):
            buf.append(b"too-big!")

    def test_whole_chunks_evicted(self):
        # Eviction never splits a chunk: after overflow the window starts
        # at a chunk boundary.
        buf = ChunkRingBuffer(capacity=6)
        buf.append(b"abc")
        buf.append(b"def")
        buf.append(b"g")  # 7 bytes total -> evict "abc" entirely
        assert buf.min_offset == 3
        assert buf.read_from(3) == b"defg"


class TestIterChunks:
    def test_iter_from_boundary(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"abc")
        buf.append(b"defg")
        pieces = list(buf.iter_chunks_from(3))
        assert pieces == [(3, b"defg")]

    def test_iter_from_mid_chunk(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"abc")
        buf.append(b"defg")
        pieces = list(buf.iter_chunks_from(1))
        assert pieces == [(1, b"bc"), (3, b"defg")]

    def test_iter_from_live_edge_is_empty(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"abc")
        assert list(buf.iter_chunks_from(3)) == []

    def test_iter_outside_window_raises(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"abc")
        with pytest.raises(ChunkStoreError):
            list(buf.iter_chunks_from(4))


class TestClear:
    def test_clear_keeps_position(self):
        buf = ChunkRingBuffer(capacity=100)
        buf.append(b"abcdef")
        buf.clear()
        assert buf.min_offset == 6
        assert buf.end_offset == 6
        assert len(buf) == 0
        buf.append(b"gh")
        assert buf.read_from(6) == b"gh"


class TestProperties:
    @given(
        st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=50),
        st.integers(min_value=20, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_matches_stream_suffix(self, chunks, capacity):
        """Whatever was appended, the buffer holds a *contiguous suffix* of
        the stream no larger than capacity, and reads return exactly the
        stream bytes for that window."""
        stream = b"".join(chunks)
        buf = ChunkRingBuffer(capacity=capacity)
        for c in chunks:
            buf.append(c)
        assert buf.end_offset == len(stream)
        assert buf.end_offset - buf.min_offset <= capacity
        window = buf.read_from(buf.min_offset)
        assert window == stream[buf.min_offset:]
        # iter_chunks_from reconstructs the same bytes
        rebuilt = b"".join(d for _, d in buf.iter_chunks_from(buf.min_offset))
        assert rebuilt == window

    @given(
        st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=30),
        st.integers(min_value=16, max_value=64),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_covers_agrees_with_read(self, chunks, capacity, data):
        buf = ChunkRingBuffer(capacity=capacity)
        for c in chunks:
            buf.append(c)
        offset = data.draw(st.integers(min_value=0, max_value=buf.end_offset + 5))
        if buf.covers(offset):
            buf.read_from(offset)  # must not raise
        else:
            with pytest.raises(ChunkStoreError):
                buf.read_from(offset)


def _window(buf):
    """Everything a caller can observe of a ring buffer."""
    low = buf.min_offset
    return (
        low, buf.end_offset, buf.buffered_bytes,
        buf.read_from(low),
        [(off, bytes(piece)) for off, piece in buf.iter_chunks_from(low)],
    )


class TestExtendIsAppends:
    """``extend`` is a run of ``append``s with one eviction pass: no
    observer of the window can tell the two apart."""

    @given(
        st.lists(st.binary(min_size=0, max_size=24), min_size=0, max_size=200),
        st.integers(min_value=16, max_value=120),
        st.lists(st.integers(min_value=0, max_value=40), max_size=12),
        st.integers(min_value=0, max_value=1000),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_window_however_the_chunks_are_grouped(
            self, chunks, capacity, run_lengths, start, data):
        one_by_one = ChunkRingBuffer(capacity, start_offset=start)
        by_runs = ChunkRingBuffer(capacity, start_offset=start)
        pos, runs = 0, iter(run_lengths)
        while pos < len(chunks):
            run = chunks[pos: pos + next(runs, len(chunks))]
            pos += len(run)
            failed = None
            for chunk in run:
                try:
                    one_by_one.append(chunk)
                except ChunkStoreError as exc:
                    failed = str(exc)
                    break
            if failed is None:
                by_runs.extend(run)
            else:
                # Same error, the chunks before the offender stored and
                # none of the ones behind it.
                with pytest.raises(ChunkStoreError) as caught:
                    by_runs.extend(run)
                assert str(caught.value) == failed
            assert _window(by_runs) == _window(one_by_one)
            # Any offset inside the window reads and replays the same.
            offset = data.draw(st.integers(by_runs.min_offset,
                                           by_runs.end_offset))
            assert by_runs.read_from(offset) == one_by_one.read_from(offset)
            assert ([(o, bytes(p)) for o, p in by_runs.iter_chunks_from(offset)]
                    == [(o, bytes(p))
                        for o, p in one_by_one.iter_chunks_from(offset)])

    def test_a_run_longer_than_the_window_keeps_its_tail(self):
        """Eviction runs once, after the whole run: a run that is larger
        than the ring leaves what its last appends would have left."""
        buf = ChunkRingBuffer(capacity=10)
        buf.extend([bytes([i]) * 4 for i in range(200)])  # crosses compaction
        assert (buf.min_offset, buf.end_offset) == (792, 800)
        assert buf.read_from(792) == b"\xc6" * 4 + b"\xc7" * 4

    def test_views_are_kept_by_reference(self):
        backing = bytearray(b"abcdefgh")
        view = memoryview(backing)
        buf = ChunkRingBuffer(capacity=16)
        buf.extend([view[:4], view[4:]])
        backing[0] = ord("X")
        assert buf.read_from(0) == b"Xbcdefgh"

    def test_accepts_any_iterable_once(self):
        buf = ChunkRingBuffer(capacity=16)
        buf.extend(c for c in (b"ab", b"", b"cd"))
        assert [(o, bytes(p)) for o, p in buf.iter_chunks_from(0)] == [
            (0, b"ab"), (2, b"cd")]
