"""Property: a run is the frames.

``FrameDecoder.try_pop_run`` is a second way out of the decoder for the
frames a relay forwards in bulk.  Whatever arrives — any frame mix, any
offsets, a corrupt byte anywhere — and however the bytes are cut up,
mixing the run call with ``try_pop`` must tell the same story as
``try_pop`` alone, and a run's ``raw`` view must be exactly the wire
bytes of the frames it covers.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.core import (
    BufferPool,
    Data,
    End,
    FrameDecoder,
    FramingError,
    Get,
    PerfStats,
    Ping,
    Report,
    encode_header,
)
from repro.core.framing import MAX_RECEIVE_ALLOC

SEGMENT = 256

#: DATA payload sizes from nothing to three pool segments.
_SIZES = st.one_of(
    st.just(0),
    st.integers(1, 40),
    st.integers(SEGMENT - 40, SEGMENT + 40),
    st.integers(0, 3 * SEGMENT),
)

#: How a DATA frame's offset relates to the previous frame's end.
_OFFSET_KINDS = st.sampled_from(
    ["next"] * 6 + ["gap", "repeat"])

_FRAMES = st.lists(
    st.one_of(
        st.tuples(st.just("data"), _OFFSET_KINDS, _SIZES),
        st.tuples(st.just("data"), st.just("next"), st.integers(1, 40)),
        st.tuples(st.just("end"), st.integers(0, 1 << 40)),
        st.tuples(st.just("report"), st.integers(0, 60)),
        st.tuples(st.just("ping"), st.integers(0, 1 << 40)),
        st.tuples(st.just("get"), st.integers(0, 1 << 40)),
    ),
    min_size=1, max_size=40,
)

#: Optional damage: (frame index, what to do to that frame's header).
_DAMAGE = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 39), st.sampled_from(["opcode", "size"])),
)


def build_wire(specs, damage):
    """Frames as ``(message, payload, wire bytes)`` — the last one
    possibly damaged, in which case the list stops there."""
    frames = []
    offset, prev_start, fill = 0, 0, 0
    for index, spec in enumerate(specs):
        if spec[0] == "data":
            _, kind, size = spec
            if kind == "gap":
                offset += 7
            elif kind == "repeat":
                offset = prev_start
            payload = bytes((fill + i) % 251 for i in range(size))
            fill += size + 1
            msg = Data(offset, size)
            prev_start, offset = offset, offset + size
        elif spec[0] == "report":
            payload = bytes((fill + i) % 241 for i in range(spec[1]))
            fill += spec[1] + 1
            msg = Report(len(payload))
        else:
            payload = b""
            msg = {"end": End, "ping": Ping, "get": Get}[spec[0]](spec[1])
        wire = encode_header(msg) + payload
        if damage is not None and damage[0] == index:
            if damage[1] == "size" and isinstance(msg, Data):
                wire = (wire[:9] + struct.pack(">Q", MAX_RECEIVE_ALLOC + 1)
                        + wire[17:])
            else:
                wire = b"\xee" + wire[1:]
            frames.append((None, None, wire))
            return frames
        frames.append((msg, payload, wire))
    return frames


def reference_decode(wire):
    """What ``try_pop`` alone makes of the byte stream."""
    dec = FrameDecoder(pool=BufferPool(SEGMENT, stats=PerfStats()),
                       stats=PerfStats())
    dec.feed(wire)
    out = []
    try:
        for msg, payload in dec:
            out.append((msg, bytes(payload)))
    except FramingError:
        return out, True
    return out, False


class _Mixed:
    """A decoder drained by whichever call the schedule names next."""

    def __init__(self, schedule):
        self.stats = PerfStats()
        self.dec = FrameDecoder(pool=BufferPool(SEGMENT, stats=self.stats),
                                stats=self.stats)
        self.schedule = schedule
        self.step = 0
        self.frames = []      # (message, payload bytes) as decoded
        self.held = []        # (view, bytes it showed when handed out)
        self.runs = []        # (index of first frame, frame count, raw view)
        self.failed = False

    def _take_run(self):
        run = self.dec.try_pop_run()
        if run is None:
            return False
        first, payloads, raw = run
        assert payloads, "a run holds at least one frame"
        assert raw.contiguous and all(p.obj is raw.obj for p in payloads), \
            "a run lies in one receive buffer"
        self.runs.append((len(self.frames), len(payloads), raw))
        self.held.append((raw, bytes(raw)))
        offset = first
        for view in payloads:
            assert len(view) > 0
            self.frames.append((Data(offset, len(view)), bytes(view)))
            self.held.append((view, bytes(view)))
            offset += len(view)
        return True

    def _take_frame(self):
        item = self.dec.try_pop()
        if item is None:
            return False
        msg, payload = item
        self.frames.append((msg, bytes(payload)))
        if isinstance(payload, memoryview):
            self.held.append((payload, bytes(payload)))
        return True

    def drain(self):
        calls = (self._take_run, self._take_frame)
        try:
            while True:
                pick = self.schedule[self.step % len(self.schedule)]
                self.step += 1
                if not calls[pick]() and not calls[1 - pick]():
                    return
        except FramingError:
            self.failed = True

    def deliver(self, piece):
        sent = 0
        while sent < len(piece) and not self.failed:
            view = self.dec.writable()
            take = min(len(view), len(piece) - sent)
            assert take > 0
            view[:take] = piece[sent:sent + take]
            view.release()
            self.dec.bytes_written(take)
            sent += take
            self.drain()


@settings(max_examples=300, deadline=None)
@given(
    specs=_FRAMES,
    damage=_DAMAGE,
    cuts=st.lists(st.integers(1, 700), min_size=1, max_size=12),
    schedule=st.lists(st.integers(0, 1), min_size=1, max_size=9),
)
def test_a_run_is_the_frames(specs, damage, cuts, schedule):
    frames = build_wire(specs, damage)
    wire = b"".join(w for _m, _p, w in frames)
    expected, expect_error = reference_decode(wire)

    mixed = _Mixed(schedule)
    sent = 0
    for i in range(len(wire)):  # bounded: every piece is at least a byte
        if sent >= len(wire) or mixed.failed:
            break
        size = cuts[i % len(cuts)]
        mixed.deliver(wire[sent:sent + size])
        sent += size

    # Same frames, same error at the same frame, exact count.
    assert mixed.frames == expected
    assert mixed.failed == expect_error
    assert mixed.stats.frames_decoded == len(expected)

    # Raw is the wire bytes of exactly the frames the run covered — so
    # no frame with a gap before it, no empty frame, nothing re-encoded.
    for start, count, raw in mixed.runs:
        covered = frames[start:start + count]
        assert all(isinstance(m, Data) and m.size > 0 for m, _p, _w in covered)
        assert bytes(raw) == b"".join(w for _m, _p, w in covered)
        ends = [m.offset + m.size for m, _p, _w in covered]
        assert [m.offset for m, _p, _w in covered[1:]] == ends[:-1]

    # Every view still shows its bytes, pages turned or not.
    for view, seen in mixed.held:
        assert bytes(view) == seen


def test_run_stops_where_try_pop_must_decide():
    """Spot check of the boundaries: END, a gap, an empty DATA frame and
    an incomplete frame each end a run and are left for ``try_pop``."""
    dec = FrameDecoder(stats=PerfStats())
    chunk = b"x" * 10
    dec.feed(encode_header(Data(0, 10)) + chunk
             + encode_header(Data(10, 10)) + chunk
             + encode_header(Data(40, 10)) + chunk      # gap
             + encode_header(Data(50, 0))               # empty
             + encode_header(Data(50, 10)) + chunk
             + encode_header(End(60))
             + encode_header(Data(60, 10)) + chunk[:4])  # incomplete
    first, payloads, raw = dec.try_pop_run()
    assert (first, len(payloads), len(raw)) == (0, 2, 2 * 27)
    first, payloads, _raw = dec.try_pop_run()
    assert (first, len(payloads)) == (40, 1)
    assert dec.try_pop_run() is None
    assert dec.try_pop() == (Data(50, 0), b"")
    first, payloads, _raw = dec.try_pop_run()
    assert (first, len(payloads)) == (50, 1)
    assert dec.try_pop_run() is None
    assert dec.try_pop() == (End(60), b"")
    assert dec.try_pop_run() is None and dec.try_pop() is None
    dec.feed(chunk[4:])
    msg, payload = dec.try_pop()   # the header was already consumed
    assert msg == Data(60, 10) and bytes(payload) == chunk


# ---------------------------------------------------------------------------
# The sending side: ``frame_run`` frames a run in place.
# ---------------------------------------------------------------------------

def framed(first, chunk_size, data):
    """``data`` read into the slots of frames of ``chunk_size`` (the
    last one short if need be) and framed from ``first``, as the head
    does it: ``(chunks, wire)``."""
    from repro.core.framing import (DATA_HEADER, frame_run, frame_slots,
                                    framed_size)

    count = -(-len(data) // chunk_size)
    buf = bytearray(count * (DATA_HEADER + chunk_size))
    pos = 0
    for slot in frame_slots(buf, chunk_size, count):
        piece = data[pos: pos + len(slot)]
        slot[:len(piece)] = piece
        pos += len(piece)
    return frame_run(memoryview(buf)[:framed_size(len(data), chunk_size)],
                     first, chunk_size)


@settings(max_examples=200, deadline=None)
@given(
    first=st.integers(0, 1 << 48),
    chunk_size=st.integers(1, 2 * SEGMENT),
    size=st.integers(1, 40 * SEGMENT),
)
def test_an_encoded_run_is_the_per_frame_encoding(first, chunk_size, size):
    size = min(size, 40 * chunk_size)
    data = bytes((7 * i) % 251 for i in range(size))
    chunks, wire = framed(first, chunk_size, data)
    pieces = [data[pos: pos + chunk_size]
              for pos in range(0, size, chunk_size)]
    offsets = [first + pos for pos in range(0, size, chunk_size)]
    assert bytes(wire) == b"".join(
        encode_header(Data(o, len(c))) + c for o, c in zip(offsets, pieces))
    assert [bytes(c) for c in chunks] == pieces
    # A run of equal chunks is a Run; a short last one makes a list.
    assert isinstance(chunks, list) == bool(size % chunk_size)

    # ...and it is what a receiver takes off the stream as runs again:
    # the same offsets, the same chunks.
    dec = FrameDecoder(stats=PerfStats())
    dec.feed(wire)
    got = []
    while True:
        run = dec.try_pop_run()
        if run is None:
            break
        offset, payloads, _raw = run
        assert offset == first + sum(map(len, got))
        got.extend(bytes(p) for p in payloads)
    assert got == pieces and dec.try_pop() is None


def test_encoded_run_keeps_views_and_one_header_buffer():
    """Headers and chunks share the one buffer the run was read into:
    the chunks are views of it, and the wire is that buffer."""
    data = bytes(range(200)) * 3
    chunks, wire = framed(4096, 256, data)
    assert [len(c) for c in chunks] == [256, 256, 88]
    assert len(wire) == len(data) + 3 * 17
    assert all(c.obj is wire.obj for c in chunks)
    assert [bytes(wire[pos: pos + 17]) for pos in (0, 273, 546)] == [
        encode_header(Data(4096 + 256 * i, n))
        for i, n in enumerate((256, 256, 88))]


def test_encoded_run_past_u64_is_a_framing_error():
    import pytest

    top = (1 << 64) - 10
    assert bytes(framed(top, 9, b"x" * 9)[1]) == (
        encode_header(Data(top, 9)) + b"x" * 9)
    with pytest.raises(FramingError):
        framed(top, 9, b"x" * 19)      # third offset: 2**64 + 8
    with pytest.raises(FramingError):
        framed(top + 5, 9, b"x" * 10)  # the short last one's: 2**64 + 4
    with pytest.raises(FramingError):
        framed(1 << 64, 1, b"x")
    with pytest.raises(FramingError):
        encode_header(Data(1 << 64, 1))               # as per frame
