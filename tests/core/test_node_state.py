"""Tests for the per-node transfer state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    KascadeConfig,
    OfferKind,
    ProtocolError,
    SourceKind,
    TransferReport,
)
from repro.core.node_state import NodeTransferState, Phase


def make_state(name="n2", chunk=100, bufchunks=3, source_kind=None):
    cfg = KascadeConfig(chunk_size=chunk, buffer_chunks=bufchunks)
    return NodeTransferState(name, cfg, source_kind=source_kind)


class TestDataPlane:
    def test_in_order_data_accepted(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        s.on_data(100, b"b" * 50)
        assert s.offset == 150

    def test_gap_rejected(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        with pytest.raises(ProtocolError):
            s.on_data(200, b"x")

    def test_overlap_rejected(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        with pytest.raises(ProtocolError):
            s.on_data(50, b"x")

    def test_end_matches_offset(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        s.on_end(100)
        assert s.phase is Phase.ENDED
        assert s.complete

    def test_end_wrong_total_rejected(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        with pytest.raises(ProtocolError):
            s.on_end(150)

    def test_data_after_end_rejected(self):
        s = make_state()
        s.on_end(0)
        with pytest.raises(ProtocolError):
            s.on_data(0, b"x")

    def test_duplicate_end_rejected(self):
        s = make_state()
        s.on_end(0)
        with pytest.raises(ProtocolError):
            s.on_end(0)

    def test_quit_aborts(self):
        s = make_state()
        s.on_data(0, b"a" * 10)
        s.on_quit()
        assert s.phase is Phase.ABORTED
        assert not s.complete


class TestHandshakes:
    def test_get_within_buffer(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        offer = s.answer_get(0)
        assert offer.kind is OfferKind.SERVE_FROM_BUFFER
        assert offer.resume_at == 0

    def test_get_at_live_edge(self):
        s = make_state()
        s.on_data(0, b"a" * 100)
        offer = s.answer_get(100)
        assert offer.kind is OfferKind.SERVE_FROM_BUFFER

    def test_get_below_window_on_relay_redirects_to_head(self):
        s = make_state(bufchunks=1)
        s.on_data(0, b"a" * 100)
        s.on_data(100, b"b" * 100)  # evicts [0, 100)
        offer = s.answer_get(0)
        assert offer.kind is OfferKind.NEED_HEAD_RANGE
        assert offer.resume_at == 100

    def test_get_below_window_on_stream_head_forgets(self):
        s = make_state(bufchunks=1, source_kind=SourceKind.STREAM)
        s.on_data(0, b"a" * 100)
        s.on_data(100, b"b" * 100)
        offer = s.answer_get(0)
        assert offer.kind is OfferKind.FORGET
        assert offer.resume_at == 100

    def test_get_below_window_on_file_head_pgets(self):
        # A file-backed head *could* answer directly, but the protocol keeps
        # one path: redirect to PGET, which the head then serves itself.
        s = make_state(bufchunks=1, source_kind=SourceKind.SEEKABLE_FILE)
        s.on_data(0, b"a" * 100)
        s.on_data(100, b"b" * 100)
        assert s.answer_get(0).kind is OfferKind.NEED_HEAD_RANGE

    def test_pget_on_relay_rejected(self):
        s = make_state()
        with pytest.raises(ProtocolError):
            s.answer_pget(0, 10)

    def test_pget_on_file_head_serves(self):
        s = make_state(source_kind=SourceKind.SEEKABLE_FILE)
        s.on_data(0, b"a" * 100)
        offer = s.answer_pget(0, 100)
        assert offer.kind is OfferKind.SERVE_FROM_BUFFER

    def test_pget_beyond_produced_rejected(self):
        s = make_state(source_kind=SourceKind.SEEKABLE_FILE)
        s.on_data(0, b"a" * 100)
        with pytest.raises(ProtocolError):
            s.answer_pget(0, 200)

    def test_pget_on_stream_head_within_buffer(self):
        s = make_state(source_kind=SourceKind.STREAM)
        s.on_data(0, b"a" * 100)
        assert s.answer_pget(0, 100).kind is OfferKind.SERVE_FROM_BUFFER

    def test_pget_on_stream_head_lost(self):
        s = make_state(bufchunks=1, source_kind=SourceKind.STREAM)
        s.on_data(0, b"a" * 100)
        s.on_data(100, b"b" * 100)
        offer = s.answer_pget(0, 100)
        assert offer.kind is OfferKind.FORGET
        assert offer.resume_at == 100


class TestReports:
    def test_record_failure(self):
        s = make_state("n4")
        s.on_data(0, b"a" * 60)
        rec = s.record_failure("n5", "timeout")
        assert rec.detected_by == "n4"
        assert rec.at_offset == 60
        assert s.report.failed_nodes == ["n5"]

    def test_merge_upstream_before_local(self):
        s = make_state("n4")
        s.record_failure("n5", "timeout")
        upstream = TransferReport()
        upstream.add(
            __import__("repro.core", fromlist=["FailureRecord"]).FailureRecord(
                "n2", "n1", 0, "connect-refused"
            )
        )
        s.merge_upstream_report(upstream.encode())
        assert s.report.failed_nodes == ["n2", "n5"]


class TestLifecycle:
    def test_passed_after_end(self):
        s = make_state()
        s.on_end(0)
        s.on_passed()
        assert s.phase is Phase.DONE

    def test_passed_after_abort(self):
        s = make_state()
        s.on_quit()
        s.on_passed()
        assert s.phase is Phase.DONE

    def test_passed_while_streaming_rejected(self):
        s = make_state()
        with pytest.raises(ProtocolError):
            s.on_passed()

    def test_quit_after_done_rejected(self):
        s = make_state()
        s.on_end(0)
        s.on_passed()
        with pytest.raises(ProtocolError):
            s.on_quit()


class TestProperties:
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_offset_tracks_sum(self, sizes):
        s = make_state(chunk=50, bufchunks=4)
        pos = 0
        for n in sizes:
            s.on_data(pos, b"x" * n)
            pos += n
        assert s.offset == pos
        s.on_end(pos)
        assert s.complete

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_answer_get_never_loses_bytes(self, sizes, data):
        """For any request at or below the live edge, the offer either
        serves exactly from the requested offset or redirects with a
        resume point that equals the buffer minimum — no byte in between
        is ever skipped."""
        s = make_state(chunk=40, bufchunks=2)
        pos = 0
        for n in sizes:
            s.on_data(pos, b"x" * n)
            pos += n
        req = data.draw(st.integers(min_value=0, max_value=pos))
        offer = s.answer_get(req)
        if offer.kind is OfferKind.SERVE_FROM_BUFFER:
            assert offer.resume_at == req
        else:
            assert offer.resume_at == s.buffer.min_offset
            assert req < offer.resume_at


class TestRunIsItsChunks:
    """``on_run`` is ``on_data`` per chunk, checked and evicted once."""

    @staticmethod
    def _pair():
        cfg = KascadeConfig(chunk_size=40, buffer_chunks=3, verify_digest=True)
        return NodeTransferState("n2", cfg), NodeTransferState("n2", cfg)

    @given(
        st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=40),
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_digest_offset_and_window(self, chunks, run_lengths):
        by_chunk, by_run = self._pair()
        pos, i = 0, 0
        while i < len(chunks):
            run = chunks[i: i + run_lengths[i % len(run_lengths)]]
            i += len(run)
            by_run.on_run(pos, run)
            for chunk in run:
                by_chunk.on_data(pos, chunk)
                pos += len(chunk)
            assert by_run.offset == by_chunk.offset == pos
            assert by_run.digest == by_chunk.digest
            assert by_run.buffer.min_offset == by_chunk.buffer.min_offset
            assert (by_run.buffer.read_from(by_run.buffer.min_offset)
                    == by_chunk.buffer.read_from(by_chunk.buffer.min_offset))
        by_run.on_end(pos)
        assert by_run.complete

    def test_on_data_is_a_run_of_one(self):
        by_chunk, by_run = self._pair()
        by_chunk.on_data(0, b"abc")
        by_run.on_run(0, [b"abc"])
        assert by_chunk.digest == by_run.digest
        assert by_chunk.offset == by_run.offset == 3

    @pytest.mark.parametrize("offset", [90, 110])
    def test_gap_or_overlap_rejected_with_nothing_stored(self, offset):
        by_chunk, by_run = self._pair()
        for state in (by_chunk, by_run):
            state.on_data(0, b"a" * 100)
        with pytest.raises(ProtocolError) as single:
            by_chunk.on_data(offset, b"b" * 10)
        with pytest.raises(ProtocolError) as run:
            by_run.on_run(offset, [b"b" * 10, b"c" * 10])
        assert str(run.value) == str(single.value)
        assert by_run.offset == 100 and by_run.digest == by_chunk.digest

    @pytest.mark.parametrize("ender", ["on_quit", "end"])
    def test_run_after_stream_end_rejected(self, ender):
        by_chunk, by_run = self._pair()
        for state in (by_chunk, by_run):
            state.on_data(0, b"a" * 10)
            state.on_end(10) if ender == "end" else state.on_quit()
        with pytest.raises(ProtocolError) as single:
            by_chunk.on_data(10, b"b")
        with pytest.raises(ProtocolError) as run:
            by_run.on_run(10, [b"b", b"c"])
        assert str(run.value) == str(single.value)
        assert by_run.offset == 10
