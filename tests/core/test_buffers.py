"""Tests for the segment pool: export-probed recycling, the
segment-size ratchet, the idle cap, and the process-wide reserve."""

import mmap
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BufferPool, PerfStats
from repro.core.buffers import (
    DEFAULT_SEGMENT,
    PAGE,
    RESERVE_BYTES,
    _TAKE_PROBES,
    _has_exports,
    drain_reserve,
    reserve_bytes,
)
from repro.core.framing import _MAX_HEADER, FrameDecoder, encode_header
from repro.core.messages import Data
from repro.core.units import MiB


class TestExportProbe:
    def test_no_views_means_no_exports(self):
        assert not _has_exports(bytearray(64))

    def test_live_view_pins(self):
        buf = bytearray(64)
        view = memoryview(buf)
        assert _has_exports(buf)
        view.release()
        assert not _has_exports(buf)

    def test_sliced_view_pins_whole_buffer(self):
        buf = bytearray(64)
        view = memoryview(buf)[10:20]
        assert _has_exports(buf)
        del view
        assert not _has_exports(buf)

    def test_probe_preserves_contents(self):
        buf = bytearray(b"hello world")
        _has_exports(buf)
        assert buf == b"hello world"


class TestBufferPool:
    def test_acquire_allocates_segment_size(self):
        pool = BufferPool(1024, stats=PerfStats())
        assert len(pool.acquire()) == 1024

    def test_default_segment(self):
        assert BufferPool(stats=PerfStats()).segment_size == DEFAULT_SEGMENT

    def test_recycle_then_acquire_reuses(self):
        stats = PerfStats()
        pool = BufferPool(1024, stats=stats)
        buf = pool.acquire()
        pool.recycle(buf)
        again = pool.acquire()
        assert again is buf
        assert stats.pool_reuses == 1
        assert stats.pool_allocations == 1

    def test_pinned_buffer_not_reused(self):
        stats = PerfStats()
        pool = BufferPool(1024, stats=stats)
        buf = pool.acquire()
        view = memoryview(buf)
        pool.recycle(buf)
        other = pool.acquire()
        assert other is not buf
        assert stats.pool_allocations == 2
        # Dropping the view unpins it for the next acquire.
        view.release()
        assert pool.acquire() is buf

    def test_min_size_ratchets_segment(self):
        pool = BufferPool(1024, stats=PerfStats())
        buf = pool.acquire(5000)
        assert len(buf) >= 5000
        assert pool.segment_size >= 5000
        # Pre-ratchet buffers are dropped on recycle, not kept undersized.
        pool.recycle(bytearray(1024))
        assert pool.idle_buffers == 0

    def test_max_idle_cap(self):
        pool = BufferPool(64, max_idle=2, stats=PerfStats())
        for _ in range(5):
            pool.recycle(bytearray(64))
        assert pool.idle_buffers == 2

    def test_undersized_request_served_from_idle(self):
        stats = PerfStats()
        pool = BufferPool(1024, stats=stats)
        buf = pool.acquire()
        pool.recycle(buf)
        assert pool.acquire(100) is buf


# ----------------------------------------------------------------------
# The segment lifecycle: maps, the resize probe, the tight ratchet and
# the process-wide reserve
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: BufferPool(4096, stats=PerfStats()).acquire(),
    lambda: bytearray(4096),
], ids=["map", "bytearray"])
def test_probe_changes_nothing_free_or_pinned(make):
    """The probe answers; contents, length and identity stay as they were
    — on a free segment and on a pinned one."""
    seg = make()
    seg[:11] = b"hello world"
    before = bytes(seg)
    assert not _has_exports(seg)
    assert bytes(seg) == before and len(seg) == 4096
    view = memoryview(seg)[3:9]
    assert _has_exports(seg)
    assert view.obj is seg and bytes(view) == before[3:9]
    assert bytes(memoryview(seg)) == before and len(seg) == 4096
    view.release()
    assert not _has_exports(seg)


def test_segments_are_maps_not_heap_objects():
    assert isinstance(BufferPool(stats=PerfStats()).acquire(), mmap.mmap)


def test_a_one_mib_frame_sizes_the_segment_to_the_frame():
    """The ratchet asks for the frame and the next header, rounded up to
    a page — not the next power of two."""
    stats = PerfStats()
    pool = BufferPool(stats=stats)
    decoder = FrameDecoder(pool=pool, stats=stats)
    payload = bytes(MiB)
    for offset in (0, MiB):
        decoder.feed(encode_header(Data(offset, MiB)))
        for lo in range(0, MiB, 100_000):  # arrives in pieces, as off a socket
            decoder.feed(payload[lo: lo + 100_000])
        msg, got = decoder.try_pop()
        assert msg == Data(offset, MiB) and len(got) == MiB
        del got
    assert MiB < pool.segment_size <= MiB + _MAX_HEADER + PAGE
    assert pool.segment_size % PAGE == 0


class TestReserve:
    def test_a_closed_pool_warms_the_next(self):
        stats = PerfStats()
        first = BufferPool(8192, stats=stats)
        seg = first.acquire()
        first.recycle(seg)
        first.close()
        assert first.idle_buffers == 0 and reserve_bytes() == 8192
        assert BufferPool(8192, stats=stats).acquire() is seg
        assert reserve_bytes() == 0
        assert (stats.pool_allocations, stats.pool_reuses) == (1, 1)
        assert stats.pool_bytes_mapped == 8192

    def test_a_pinned_segment_may_enter_but_not_leave(self):
        stats = PerfStats()
        first = BufferPool(8192, stats=stats)
        seg = first.acquire()
        view = memoryview(seg)[:10]  # a ring outliving its stream
        first.recycle(seg)
        first.close()
        other = BufferPool(8192, stats=stats)
        assert other.acquire() is not seg
        view.release()
        assert other.acquire() is seg

    def test_a_pool_gets_what_it_would_have_mapped(self):
        """A control stream does not walk off with a data stream's
        segment: the reserve serves the size asked for, exactly."""
        stats = PerfStats()
        big = BufferPool(64 * 1024, stats=stats)
        seg = big.acquire()
        big.recycle(seg)
        big.close()
        assert BufferPool(16 * 1024, stats=stats).acquire() is not seg
        assert BufferPool(128 * 1024, stats=stats).acquire() is not seg
        assert BufferPool(60 * 1024, stats=stats).acquire() is not seg
        assert BufferPool(64 * 1024, stats=stats).acquire() is seg

    def test_a_miss_looks_past_a_few_pinned_segments_not_all(self):
        pool = BufferPool(4096, max_idle=0, stats=PerfStats())
        segs = [pool.acquire() for _ in range(_TAKE_PROBES + 1)]
        views = [memoryview(seg) for seg in segs]
        for seg in segs:
            pool.recycle(seg)
        views[-1].release()  # free, but behind _TAKE_PROBES pinned ones
        assert all(pool.acquire() is not seg for seg in segs)
        views[0].release()
        assert pool.acquire() is segs[0]

    def test_overflow_and_undersized_segments_go_to_the_reserve(self):
        pool = BufferPool(4096, max_idle=2, stats=PerfStats())
        small, *segs = [pool.acquire() for _ in range(5)]
        for seg in segs:
            pool.recycle(seg)
        assert pool.idle_buffers == 2 and reserve_bytes() == 2 * 4096
        pool.acquire(10_000)  # ratchet: ``small`` is from before it
        pool.recycle(small)
        assert pool.idle_buffers == 2 and reserve_bytes() == 3 * 4096

    def test_a_pool_that_keeps_nothing_lives_off_the_reserve(self):
        stats = PerfStats()
        pool = BufferPool(4096, max_idle=0, stats=stats)
        seg = pool.acquire()
        pool.recycle(seg)
        assert pool.idle_buffers == 0 and reserve_bytes() == 4096
        assert pool.acquire() is seg

    def test_never_over_the_ceiling_oldest_goes_first(self):
        pool = BufferPool(MiB, max_idle=0, stats=PerfStats())
        segs = [pool.acquire() for _ in range(RESERVE_BYTES // MiB + 3)]
        for seg in segs:
            pool.recycle(seg)
            assert reserve_bytes() <= RESERVE_BYTES
        assert reserve_bytes() == RESERVE_BYTES
        assert pool.acquire() is segs[3]

    def test_eight_threads_opening_and_closing_pools(self):
        """More workers than cores, a short switch interval: no segment
        is ever in two hands, the ceiling holds, nothing raises."""
        held = set()
        lock = threading.Lock()
        errors = []
        deadline = time.monotonic() + 1.0

        def worker(seed):
            rng = random.Random(seed)
            stats = PerfStats()
            try:
                while time.monotonic() < deadline:
                    pool = BufferPool(rng.choice((4096, 8192, 64 * 1024)),
                                      max_idle=rng.choice((0, 2)), stats=stats)
                    mine = [pool.acquire() for _ in range(rng.randint(1, 4))]
                    with lock:
                        for seg in mine:
                            assert id(seg) not in held, "segment in two hands"
                            held.add(id(seg))
                    views = [memoryview(seg)[:8] for seg in mine]
                    for seg, view in zip(mine, views):
                        view[:] = seed.to_bytes(8, "big")
                    for seg, view in zip(mine, views):
                        assert bytes(view) == seed.to_bytes(8, "big")
                        with lock:
                            held.discard(id(seg))
                        if rng.random() < 0.5:
                            view.release()
                        pool.recycle(seg)  # some go back still pinned
                    pool.close()
                    if reserve_bytes() > RESERVE_BYTES:
                        errors.append("reserve over its ceiling")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n + 1,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert reserve_bytes() <= RESERVE_BYTES


# One step of the interleaving below: (operation, which pool, which of
# the segments/views out at that moment).
_STEPS = st.lists(
    st.tuples(st.sampled_from(["acquire", "view", "slice", "release",
                               "recycle", "close", "big"]),
              st.integers(0, 2), st.integers(0, 7)),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(_STEPS)
def test_no_interleaving_hands_out_a_segment_with_a_live_view(steps):
    """Acquire, take views and slices, release some, recycle, close,
    acquire from another pool: whatever comes out of a pool — off its
    idle list or off the reserve — nobody is looking at."""
    drain_reserve()
    stats = PerfStats()
    pools = [BufferPool(4096, max_idle=2, stats=stats) for _ in range(3)]
    out = []      # segments a producer holds, being filled
    views = []    # (segment, view, what it showed) the consumers still hold
    stamp = 0

    def looked_at(seg):
        return any(owner is seg for owner, _, _ in views)

    for op, p, k in steps:
        pool = pools[p]
        if op in ("acquire", "big"):
            seg = pool.acquire(6000 if op == "big" else 0)
            assert not looked_at(seg), "handed out under a live view"
            assert not any(seg is other for other in out), "handed out twice"
            assert len(seg) >= pool.segment_size
            stamp += 1
            seg[:4] = stamp.to_bytes(4, "big")
            out.append(seg)
        elif op == "view" and out:
            seg = out[k % len(out)]
            views.append((seg, memoryview(seg)[:4], seg[:4]))
        elif op == "slice" and views:
            seg, view, shown = views[k % len(views)]
            views.append((seg, view[1:], shown[1:]))
        elif op == "release" and views:
            views.pop(k % len(views))[1].release()
        elif op == "recycle" and out:
            pool.recycle(out.pop(k % len(out)))
        elif op == "close":
            pool.close()
        # What a consumer holds still reads what its producer wrote.
        for _, view, shown in views:
            assert bytes(view) == shown
    assert reserve_bytes() <= RESERVE_BYTES
