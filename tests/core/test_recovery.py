"""Tests for the recovery decision logic — the heart of §III-D."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    OfferKind,
    SourceKind,
    StripePlan,
    negotiate_offset,
    next_alive,
)


def make_plan(n=10):
    return StripePlan(head="n1", receivers=tuple(f"n{i}" for i in range(2, n + 1)))


class TestNextAlive:
    def test_no_failures(self):
        plan = make_plan()
        assert next_alive(plan, "n1", set()) == "n2"
        assert next_alive(plan, "n5", set()) == "n6"

    def test_single_failure_skipped(self):
        plan = make_plan()
        assert next_alive(plan, "n4", {"n5"}) == "n6"

    def test_adjacent_failures_skipped(self):
        # "in case of multiple adjacent failures nj is not ni+1"
        plan = make_plan()
        assert next_alive(plan, "n4", {"n5", "n6", "n7"}) == "n8"

    def test_tail_returns_none(self):
        plan = make_plan(5)
        assert next_alive(plan, "n5", set()) is None
        assert next_alive(plan, "n3", {"n4", "n5"}) is None

    def test_every_dead_successor_is_stepped_over(self):
        plan = make_plan()
        dead = {f"n{i}" for i in range(2, 10)}
        assert next_alive(plan, "n1", dead) == "n10"


class TestNegotiateOffset:
    def test_request_within_buffer(self):
        offer = negotiate_offset(100, buffer_min=50, buffer_end=200,
                                 source=SourceKind.STREAM)
        assert offer.kind is OfferKind.SERVE_FROM_BUFFER
        assert offer.resume_at == 100

    def test_request_at_live_edge(self):
        offer = negotiate_offset(200, 50, 200, SourceKind.STREAM)
        assert offer.kind is OfferKind.SERVE_FROM_BUFFER
        assert offer.resume_at == 200

    def test_request_at_buffer_min(self):
        offer = negotiate_offset(50, 50, 200, SourceKind.STREAM)
        assert offer.kind is OfferKind.SERVE_FROM_BUFFER

    def test_hole_with_file_source_pgets(self):
        offer = negotiate_offset(10, 50, 200, SourceKind.SEEKABLE_FILE)
        assert offer.kind is OfferKind.NEED_HEAD_RANGE
        assert offer.resume_at == 50  # receiver PGETs [10, 50) from head

    def test_hole_with_stream_source_forgets(self):
        offer = negotiate_offset(10, 50, 200, SourceKind.STREAM)
        assert offer.kind is OfferKind.FORGET
        assert offer.resume_at == 50

    def test_request_beyond_live_edge_rejected(self):
        with pytest.raises(ValueError):
            negotiate_offset(201, 50, 200, SourceKind.STREAM)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            negotiate_offset(-1, 0, 10, SourceKind.STREAM)

    @given(
        requested=st.integers(min_value=0, max_value=1000),
        bmin=st.integers(min_value=0, max_value=1000),
        span=st.integers(min_value=0, max_value=1000),
        source=st.sampled_from(list(SourceKind)),
    )
    @settings(max_examples=100, deadline=None)
    def test_never_skips_bytes(self, requested, bmin, span, source):
        """Whatever the offer, the receiver can always obtain the bytes
        [requested, resume_at) from somewhere or the transfer aborts —
        the offer never silently jumps the stream forward."""
        bend = bmin + span
        if requested > bend:
            with pytest.raises(ValueError):
                negotiate_offset(requested, bmin, bend, source)
            return
        offer = negotiate_offset(requested, bmin, bend, source)
        if offer.kind is OfferKind.SERVE_FROM_BUFFER:
            assert offer.resume_at == requested
            assert bmin <= requested <= bend
        elif offer.kind is OfferKind.NEED_HEAD_RANGE:
            assert source is SourceKind.SEEKABLE_FILE
            assert requested < offer.resume_at == bmin
        else:
            assert source is SourceKind.STREAM
            assert requested < bmin

