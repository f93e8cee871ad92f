"""Property: a run in the ring is its chunks.

A relay stores a received burst as one :class:`~repro.core.framing.Run`
entry, and a head its source segment; the ring trims such an entry
chunk by chunk as the window moves on.  Whatever the split of the
stream into runs — decoded frames, a segment cut into chunks, or plain
lists as the event loop and the simulator pass them — the ring must
answer exactly as one fed the same chunks one at a time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ChunkRingBuffer,
    ChunkStoreError,
    Data,
    FrameDecoder,
    PerfStats,
    encode_header,
)
from repro.core.framing import Run

#: A run: chunk size, chunk count, and how it reaches the ring.
_RUNS = st.lists(
    st.tuples(st.integers(1, 80), st.integers(1, 12),
              st.sampled_from(["decoded", "segment", "list"])),
    min_size=1, max_size=25,
)


def chunks_of(offset, size, count):
    return [bytes((offset + i * size + j) % 251 for j in range(size))
            for i in range(count)]


def as_run(kind, offset, chunks):
    """The chunks in the shape ``kind`` names."""
    if kind == "list":
        return list(chunks)
    size = len(chunks[0])
    if kind == "segment":
        return Run(memoryview(b"".join(chunks)), 0, size, size, len(chunks))
    dec = FrameDecoder(stats=PerfStats())
    for i, chunk in enumerate(chunks):
        dec.feed(encode_header(Data(offset + i * size, size)) + chunk)
    first, run, _raw = dec.try_pop_run()
    assert first == offset and isinstance(run, Run) and len(run) == len(chunks)
    return run


def pieces(ring, offset):
    return [(o, bytes(p)) for o, p in ring.iter_chunks_from(offset)]


def assert_same(by_run, by_chunk, probes):
    assert by_run.min_offset == by_chunk.min_offset
    assert by_run.end_offset == by_chunk.end_offset
    low, high = by_chunk.min_offset, by_chunk.end_offset
    for offset in {low - 1, low, high, high + 1, *probes}:
        assert by_run.covers(offset) == by_chunk.covers(offset)
        if not by_chunk.covers(offset):
            for ring in (by_run, by_chunk):
                with pytest.raises(ChunkStoreError):
                    ring.read_from(offset)
            continue
        assert pieces(by_run, offset) == pieces(by_chunk, offset)
        assert by_run.read_from(offset) == by_chunk.read_from(offset)
        for limit in (0, 1, 37):
            assert (by_run.read_from(offset, limit)
                    == by_chunk.read_from(offset, limit))


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 400), runs=_RUNS, data=st.data())
def test_a_ring_fed_runs_answers_as_one_fed_chunks(capacity, runs, data):
    by_run, by_chunk = ChunkRingBuffer(capacity), ChunkRingBuffer(capacity)
    offset = 0
    for size, count, kind in runs:
        chunks = chunks_of(offset, size, count)
        run = as_run(kind, offset, chunks)
        if size > capacity:
            # Refused whole, as the first chunk of a list would be.
            with pytest.raises(ChunkStoreError):
                by_run.extend(run)
            with pytest.raises(ChunkStoreError):
                by_chunk.append(chunks[0])
            continue
        by_run.extend(run)
        for chunk in chunks:
            by_chunk.append(chunk)
        offset += size * count
        probes = data.draw(st.lists(
            st.integers(by_chunk.min_offset, by_chunk.end_offset),
            max_size=4))
        assert_same(by_run, by_chunk, probes)


def test_a_run_entry_is_trimmed_by_whole_chunks():
    """An entry loses whole chunks from its front, and pins its buffer
    until the last of them is gone."""
    ring = ChunkRingBuffer(100)
    backing = bytearray(range(120))
    ring.extend(Run(memoryview(backing), 0, 30, 30, 4))  # 120: one chunk out
    assert (ring.min_offset, ring.end_offset) == (30, 120)
    assert [o for o, _p in ring.iter_chunks_from(30)] == [30, 60, 90]
    ring.extend([b"x" * 15])                  # 135: a second chunk out
    assert ring.min_offset == 60
    assert ring.read_from(60) == bytes(range(60, 120)) + b"x" * 15
    with pytest.raises(BufferError):
        backing.append(0)                     # still exported
    ring.extend([b"y" * 60])                  # 195: the run is gone
    assert ring.min_offset == 120
    backing.append(0)                         # ... and so is its view
