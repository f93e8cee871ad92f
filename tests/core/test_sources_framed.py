"""Every source's framed read: a run read straight into its wire layout.

``Source.read_run`` lands each chunk in the payload slot of a ``DATA``
frame and ``frame_run`` packs the headers around them in place.  For
every source the head can stream: the runs read to the end are the
source's bytes, a receiver's decoder takes the headers back to the same
offsets, and a short chunk — the source's last, a pipe's short read —
is the last frame of the same contiguous wire.
"""

import io
import mmap
import os
import threading
import time

import pytest

from repro.core import (BytesSource, FileSource, FrameDecoder, PatternSource,
                        PerfStats, Source, StreamSource)
from repro.core.framing import DATA_HEADER, frame_run
from repro.core.sources import ResumeView
from repro.core.stages import ReadAheadSource
from repro.core.stripes import StripeSource

CHUNK = 1000
COUNT = 4
SIZE = 9 * CHUNK + 123   # two full runs and a short one of 2 chunks


def data(size=SIZE):
    return bytes((i * 13 + 5) % 251 for i in range(size))


def runs_of(source, first=0, chunk=CHUNK, count=COUNT):
    """Read ``source`` to its end in framed runs, checking each wire;
    returns the bytes and the chunk sizes of every run."""
    offset, out, shapes = first, [], []
    while True:
        wire = source.read_run(chunk, count)
        if not wire:
            return b"".join(out), shapes
        chunks, wire = frame_run(wire, offset, chunk)
        sizes = [len(c) for c in chunks]
        # Full chunks, then at most one short one, in one contiguous wire.
        assert 0 < len(sizes) <= count
        assert all(size == chunk for size in sizes[:-1])
        assert 0 < sizes[-1] <= chunk
        assert len(wire) == sum(sizes) + DATA_HEADER * len(sizes)
        assert all(c.obj is wire.obj for c in chunks)
        # A receiver's decoder takes the run back to the same offsets.
        dec = FrameDecoder(stats=PerfStats())
        dec.feed(wire)
        got = []
        while (run := dec.try_pop_run()) is not None:
            first_offset, payloads, _raw = run
            assert first_offset == offset + sum(map(len, got))
            got.extend(bytes(p) for p in payloads)
        assert dec.try_pop() is None
        assert got == [bytes(c) for c in chunks]
        out.append(b"".join(got))
        shapes.append(sizes)
        offset += sum(sizes)


#: The source's last run: two chunks, the second one short.
LAST = [CHUNK, 123]
SHAPES = [[CHUNK] * COUNT, [CHUNK] * COUNT, LAST]


@pytest.fixture
def payload_file(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(data())
    return path


def test_file_source_reads_runs_into_pooled_segments(payload_file):
    src = FileSource(payload_file)
    try:
        wire = src.read_run(CHUNK, COUNT)
        # Read where it is sent from: a pooled map, no heap copy between.
        assert isinstance(wire.obj, mmap.mmap)
        frame_run(wire, 0, CHUNK)
        rest, shapes = runs_of(src, first=COUNT * CHUNK)
        assert bytes(wire[DATA_HEADER: DATA_HEADER + CHUNK]) == data()[:CHUNK]
        assert shapes == SHAPES[1:]
        assert rest == data()[COUNT * CHUNK:]
        # The sequential cursor and positional reads stay apart.
        assert bytes(src.read_range(5, 10)) == data()[5:15]
        assert src.read_run(CHUNK, COUNT) == b""
    finally:
        src.close()


@pytest.mark.parametrize("make", [
    lambda: PatternSource(SIZE, seed=3),
    lambda: BytesSource(data()),
], ids=["pattern", "bytes"])
def test_memory_sources(make):
    got, shapes = runs_of(make())
    src = make()
    want = (src.expected_bytes(0, SIZE) if hasattr(src, "expected_bytes")
            else data())
    assert got == want
    assert shapes == SHAPES


def test_pattern_runs_equal_the_pattern_at_any_chunk_size():
    for chunk in (1, 250, 251, 252, 4096):
        src = PatternSource(3 * 4096 + 7, seed=1)
        got, _shapes = runs_of(src, chunk=chunk, count=5)
        assert got == src.expected_bytes(0, 3 * 4096 + 7)


class _NoRead(io.FileIO):
    """A pipe's read end that has no ``read``: the source must read
    into the slots it is given."""

    def read(self, size=-1):
        raise AssertionError("read() and a copy, instead of readinto")

    readall = read


def test_stream_source_over_a_pipe_with_short_reads():
    """A writer that trickles: runs end wherever the pipe ran dry, and
    the runs are still the stream, frame by frame."""
    r, w = os.pipe()
    payload = data(20000)

    def trickle():
        with os.fdopen(w, "wb", buffering=0) as out:
            for pos in range(0, len(payload), 777):
                out.write(payload[pos: pos + 777])
                time.sleep(0.001)

    writer = threading.Thread(target=trickle)
    writer.start()
    src = StreamSource(_NoRead(r))
    try:
        got, shapes = runs_of(src)
    finally:
        writer.join()
        src.close()
    assert got == payload
    assert sum(map(sum, shapes)) == len(payload)


def test_stream_source_short_read_is_the_runs_last_frame():
    r, w = os.pipe()
    src = StreamSource(_NoRead(r))
    try:
        os.write(w, data(5000))
        wire = src.read_run(CHUNK, 8)
        chunks, wire = frame_run(wire, 0, CHUNK)
        assert [len(c) for c in chunks] == [CHUNK] * 5
        os.write(w, data(1500))
        wire = src.read_run(CHUNK, 8)   # 1000, then a short 500
        chunks, wire = frame_run(wire, 5000, CHUNK)
        assert [len(c) for c in chunks] == [CHUNK, 500]
        assert len(wire) == 1500 + 2 * DATA_HEADER
        os.close(w)
        w = None
        assert src.read_run(CHUNK, 8) == b""
    finally:
        if w is not None:
            os.close(w)
        src.close()


def test_buffered_stream_source_fills_every_slot():
    """A buffered reader fills a slot before it returns: slot by slot,
    a run is full up to the end of the stream."""
    class NoRead(io.BufferedReader):
        def read(self, size=-1):
            raise AssertionError("read() and a copy, instead of readinto")

    src = StreamSource(NoRead(io.BytesIO(data())))
    got, shapes = runs_of(src)
    assert got == data()
    assert shapes == SHAPES


@pytest.mark.parametrize("threaded", [False, True],
                         ids=["inline", "threaded"])
def test_read_ahead_prefetches_framed_runs(payload_file, threaded):
    stats = PerfStats()
    src = ReadAheadSource(FileSource(payload_file), depth=2, stats=stats)
    if threaded:
        src.promote()
    try:
        got, shapes = runs_of(src)
    finally:
        src.close()
    assert got == data()
    assert shapes == SHAPES
    assert stats.readahead_threads == int(threaded)


def test_read_ahead_serves_what_stop_found_queued(payload_file):
    src = ReadAheadSource(FileSource(payload_file), depth=2)
    src.promote()
    try:
        head, _ = frame_run(src.read_run(CHUNK, COUNT), 0, CHUNK)
        src.stop()   # whatever the worker queued is served, in order
        rest, shapes = runs_of(src, first=COUNT * CHUNK)
    finally:
        src.close()
    assert b"".join(map(bytes, head)) + rest == data()
    assert shapes == SHAPES[1:]


@pytest.mark.parametrize("make", [
    lambda path: FileSource(path),
    lambda path: PatternSource(SIZE, seed=3),
], ids=["file", "pattern"])
def test_resume_view_reads_runs_from_its_start(payload_file, make):
    start = 2 * CHUNK + 17
    inner = make(payload_file)
    want = (inner.expected_bytes(0, SIZE) if hasattr(inner, "expected_bytes")
            else data())
    view = ResumeView(inner, start)
    try:
        got, shapes = runs_of(view, first=start)
    finally:
        view.close()
    assert got == want[start:]
    assert shapes == [[CHUNK] * COUNT, [CHUNK] * 3 + [SIZE - start - 7 * CHUNK]]


@pytest.mark.parametrize("make", [
    lambda path: FileSource(path),
    lambda path: PatternSource(SIZE, seed=3),
    lambda path: BytesSource(data()),
], ids=["file", "pattern", "bytes"])
@pytest.mark.parametrize("stripe", [0, 1, 2])
def test_stripe_source_reads_its_chunks_as_runs(payload_file, make, stripe):
    inner = make(payload_file)
    want = (inner.expected_bytes(0, SIZE) if hasattr(inner, "expected_bytes")
            else data())
    own = b"".join(want[i: i + CHUNK] for i in range(0, SIZE, CHUNK)
                   if (i // CHUNK) % 3 == stripe)
    view = StripeSource(inner, stripe, 3, CHUNK, owns_inner=True)
    try:
        got, _shapes = runs_of(view, count=2)
    finally:
        view.close()
    assert got == own


def test_a_source_of_its_own_is_copied_into_the_slots():
    """A source that only has ``read_chunk`` still streams: its blocks
    are copied into the slots."""
    class Chunky(Source):
        def __init__(self):
            self._left = data()

        def read_chunk(self, size):
            piece, self._left = self._left[:size], self._left[size:]
            return piece

    got, shapes = runs_of(Chunky())
    assert got == data()
    assert shapes == SHAPES
