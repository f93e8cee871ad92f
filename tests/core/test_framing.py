"""Tests for the wire framing: header codec and incremental decoder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Data,
    End,
    Forget,
    FrameDecoder,
    FramingError,
    Get,
    Op,
    PGet,
    Passed,
    Ping,
    Pong,
    Quit,
    Report,
    encode_header,
)
from repro.core.framing import header_size, payload_size

OFFSETS = st.integers(min_value=0, max_value=2**40)
SIZES = st.integers(min_value=0, max_value=1 << 20)


def all_message_strategy():
    """Strategy over every message type with valid fields and payloads."""
    payloads = st.binary(min_size=0, max_size=200)
    return st.one_of(
        st.builds(Get, OFFSETS).map(lambda m: (m, b"")),
        st.tuples(OFFSETS, st.integers(min_value=0, max_value=1000)).map(
            lambda ot: (PGet(ot[0], ot[0] + ot[1]), b"")
        ),
        st.builds(Forget, OFFSETS).map(lambda m: (m, b"")),
        st.tuples(OFFSETS, payloads).map(
            lambda op: (Data(op[0], len(op[1])), op[1])
        ),
        st.builds(End, OFFSETS).map(lambda m: (m, b"")),
        st.just((Quit(), b"")),
        payloads.map(lambda p: (Report(len(p)), p)),
        st.just((Passed(), b"")),
        st.builds(Ping, OFFSETS).map(lambda m: (m, b"")),
        st.builds(Pong, OFFSETS).map(lambda m: (m, b"")),
    )


class TestHeaderCodec:
    @pytest.mark.parametrize("msg", [
        Get(0), Get(2**40), PGet(5, 10), Forget(7), Data(3, 9),
        End(123), Quit(), Report(4), Passed(), Ping(1), Pong(1),
    ])
    def test_roundtrip_single(self, msg):
        dec = FrameDecoder()
        dec.feed(encode_header(msg))
        dec.feed(b"\x00" * payload_size(msg))
        got, payload = dec.try_pop()
        assert got == msg
        assert len(payload) == payload_size(msg)

    def test_header_size_matches_encoding(self):
        for msg in (Get(1), PGet(1, 2), Forget(1), Data(0, 0), End(1),
                    Quit(), Report(0), Passed(), Ping(9), Pong(9)):
            assert len(encode_header(msg)) == header_size(msg.op)

    def test_unknown_opcode_rejected(self):
        dec = FrameDecoder()
        dec.feed(b"\xff")
        with pytest.raises(FramingError):
            dec.try_pop()

    def test_oversized_data_header_rejected(self):
        # Forge a DATA header with an absurd size field.
        import struct
        raw = bytes([Op.DATA]) + struct.pack(">QQ", 0, 1 << 60)
        dec = FrameDecoder()
        dec.feed(raw)
        with pytest.raises(FramingError):
            dec.try_pop()

    def test_reversed_pget_on_wire_rejected(self):
        import struct
        raw = bytes([Op.PGET]) + struct.pack(">QQ", 10, 5)
        dec = FrameDecoder()
        dec.feed(raw)
        with pytest.raises(FramingError):
            dec.try_pop()


class TestFrameDecoder:
    def test_empty_returns_none(self):
        assert FrameDecoder().try_pop() is None

    def test_partial_header_waits(self):
        dec = FrameDecoder()
        raw = encode_header(Get(77))
        dec.feed(raw[:4])
        assert dec.try_pop() is None
        dec.feed(raw[4:])
        assert dec.try_pop() == (Get(77), b"")

    def test_partial_payload_waits(self):
        dec = FrameDecoder()
        payload = b"hello world"
        dec.feed(encode_header(Data(0, len(payload))))
        dec.feed(payload[:5])
        assert dec.try_pop() is None
        dec.feed(payload[5:])
        assert dec.try_pop() == (Data(0, len(payload)), payload)

    def test_multiple_messages_in_one_feed(self):
        dec = FrameDecoder()
        dec.feed(encode_header(Get(0)) + encode_header(Quit()) + encode_header(Passed()))
        msgs = [m for m, _ in iter(dec)]
        assert msgs == [Get(0), Quit(), Passed()]

    def test_iterator_protocol(self):
        dec = FrameDecoder()
        dec.feed(encode_header(End(50)))
        assert list(dec) == [(End(50), b"")]
        assert list(dec) == []

    def test_buffered_property(self):
        dec = FrameDecoder()
        dec.feed(b"\x01")  # GET opcode, header incomplete
        assert dec.buffered == 1

    @given(st.lists(all_message_strategy(), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_split(self, items, split):
        """Any message sequence survives arbitrary re-chunking of the byte
        stream — the core sans-io framing invariant."""
        wire = b"".join(encode_header(m) + p for m, p in items)
        dec = FrameDecoder()
        out = []
        for i in range(0, len(wire), split):
            dec.feed(wire[i: i + split])
            out.extend(iter(dec))
        assert out == items


class TestZeroCopyDecode:
    """The decoder's buffer-ownership contract: payloads come out as
    memoryviews, byte-identical under any split, valid for as long as the
    consumer holds them, and copy-free in the drained steady state."""

    def _frames(self, count=40, size=100):
        items = []
        for i in range(count):
            payload = bytes((i + j) % 251 for j in range(size))
            items.append((Data(i * size, size), payload))
        wire = b"".join(encode_header(m) + p for m, p in items)
        return items, wire

    def test_one_byte_feeds_yield_memoryview_payloads(self):
        items, wire = self._frames(count=10, size=33)
        dec = FrameDecoder()
        out = []
        for i in range(len(wire)):
            dec.feed(wire[i: i + 1])
            out.extend(iter(dec))
        assert len(out) == len(items)
        for (msg, payload), (emsg, epayload) in zip(out, items):
            assert msg == emsg
            assert isinstance(payload, memoryview)
            assert payload == epayload

    @given(st.integers(min_value=1, max_value=600))
    @settings(max_examples=40, deadline=None)
    def test_adversarial_splits_identical_payloads(self, split):
        items, wire = self._frames(count=15, size=120)
        dec = FrameDecoder()
        out = []
        for i in range(0, len(wire), split):
            dec.feed(wire[i: i + split])
            out.extend(iter(dec))
        assert [m for m, _ in out] == [m for m, _ in items]
        for (_, payload), (_, epayload) in zip(out, items):
            assert isinstance(payload, memoryview)
            assert bytes(payload) == epayload

    def test_views_stay_valid_across_buffer_rotation(self):
        # Tiny pool segments force many rotations; earlier payload views
        # must keep their bytes because the pool cannot recycle a buffer
        # that still has live exports.
        from repro.core import BufferPool, PerfStats

        stats = PerfStats()
        pool = BufferPool(512, stats=stats)
        dec = FrameDecoder(pool=pool, stats=stats)
        items, wire = self._frames(count=60, size=200)
        held = []
        for i in range(0, len(wire), 97):
            dec.feed(wire[i: i + 97])
            held.extend(iter(dec))
        for (_, payload), (_, epayload) in zip(held, items):
            assert bytes(payload) == epayload

    def test_writable_path_steady_state_has_zero_payload_copies(self):
        # Whole frames land per "receive" and are fully drained before the
        # next — the backpressured-pipeline steady state.  Rotations then
        # happen only between frames and must copy nothing.
        from repro.core import BufferPool, PerfStats

        stats = PerfStats()
        pool = BufferPool(1024, stats=stats)
        dec = FrameDecoder(pool=pool, stats=stats)
        items, _ = self._frames(count=200, size=300)
        for msg, payload in items:
            frame = encode_header(msg) + payload
            view = dec.writable(len(frame))
            view[: len(frame)] = frame
            view.release()
            dec.bytes_written(len(frame))
            got = dec.try_pop()
            assert got is not None and bytes(got[1]) == payload
            assert dec.try_pop() is None
        assert stats.frames_decoded == len(items)
        assert stats.payload_copy_events == 0
        assert stats.payload_bytes_copied == 0

    def test_partial_payload_carry_is_counted(self):
        # A payload straddling the buffer end is the one copy this data
        # plane makes — and it must be visible in the counters.
        from repro.core import BufferPool, PerfStats

        stats = PerfStats()
        pool = BufferPool(256, stats=stats)
        dec = FrameDecoder(pool=pool, stats=stats)
        # Park the parse position mid-buffer with a few empty frames.
        dec.feed(encode_header(Data(0, 0)) * 5)
        assert len(list(iter(dec))) == 5
        # Header + 50 payload bytes arrive together; the 300-byte payload
        # cannot fit in the 256-byte buffer, so the decoder rotates and
        # must carry (= copy) exactly those 50 received payload bytes.
        payload = bytes(i % 251 for i in range(300))
        dec.feed(encode_header(Data(0, len(payload))) + payload[:50])
        assert dec.try_pop() is None
        assert stats.payload_copy_events == 1
        assert stats.payload_bytes_copied == 50
        dec.feed(payload[50:])
        msg, got = dec.try_pop()
        assert msg == Data(0, len(payload))
        assert bytes(got) == payload
        assert stats.payload_copy_events == 1  # completion copied nothing

    def test_oversized_payload_header_rejected_before_alloc(self):
        from repro.core import MAX_RECEIVE_ALLOC
        import struct

        raw = bytes([Op.REPORT]) + struct.pack(">Q", MAX_RECEIVE_ALLOC + 1)
        dec = FrameDecoder()
        dec.feed(raw)
        with pytest.raises(FramingError):
            dec.try_pop()


class TestBoundedReads:
    """``writable()`` never offers space for bytes the decoder is certain
    to carry.  With frames more than half a buffer long — bulk chunks in
    the segments the pool ratchets to — a sender that always has more to
    give (every view is filled to the brim: the gated bulk path, never
    drained) costs no payload copy once the frame size is known."""

    @staticmethod
    def _blast(dec, wire):
        """Fill every ``writable()`` window completely; pop as we go."""
        out, sent = [], 0
        while sent < len(wire):
            view = dec.writable()
            take = min(len(view), len(wire) - sent)
            view[:take] = wire[sent:sent + take]
            view.release()
            dec.bytes_written(take)
            sent += take
            out.extend((m, bytes(p)) for m, p in iter(dec))
        return out

    @pytest.mark.parametrize("size", [520, 600, 1000, 3000])
    def test_undrained_stream_carries_no_payload(self, size):
        from repro.core import BufferPool, PerfStats

        stats = PerfStats()
        dec = FrameDecoder(pool=BufferPool(1024, stats=stats), stats=stats)
        items = [(Data(i * size, size), bytes((i + j) % 251 for j in range(size)))
                 for i in range(50)]
        wire = b"".join(encode_header(m) + p for m, p in items)
        assert self._blast(dec, wire + encode_header(End(50 * size))) == (
            items + [(End(50 * size), b"")])
        # The first frame is met with no idea of its size: that one may
        # straddle the buffer end.  None after it does.
        assert stats.payload_copy_events <= 1
        assert stats.payload_bytes_copied < size

    def test_page_turns_only_for_a_frame_that_needs_it(self):
        """After a frame that leaves no room for another like it, only
        the next header is read — and a short control frame is decoded
        where it is, without a fresh buffer."""
        from repro.core import BufferPool, PerfStats

        stats = PerfStats()
        dec = FrameDecoder(pool=BufferPool(256, stats=stats), stats=stats)
        payload = bytes(range(150))
        wire = encode_header(Data(0, 150)) + payload
        assert self._blast(dec, wire) == [(Data(0, 150), payload)]
        assert len(dec.writable()) == header_size(Op.DATA)
        assert self._blast(dec, encode_header(End(150))) == [(End(150), b"")]
        assert stats.pool_allocations == 1
        # A second data frame does turn the page, carrying nothing.
        wire = encode_header(Data(150, 150)) + payload
        assert self._blast(dec, wire) == [(Data(150, 150), payload)]
        assert stats.pool_allocations + stats.pool_reuses == 2
        assert stats.payload_copy_events == 0
