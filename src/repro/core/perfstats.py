"""Data-plane performance counters.

The zero-copy data plane (§III-A: a pipelined chain should move data at
near-link speed) is only trustworthy if its copy behaviour is *observable*:
"we believe the relay path doesn't copy" is an assumption, a counter that
tests can assert on is an invariant.  Every component of the runtime data
path (socket streams, frame decoder, buffer pool) increments a
:class:`PerfStats` instance:

* ``payload_copy_events`` / ``payload_bytes_copied`` — each time stream
  payload bytes are memcpy'd in userspace (header bytes are *not*
  counted; neither is the unavoidable kernel↔user transfer of a
  ``recv``/``send``).
* ``syscalls_*`` — socket system calls issued, split by kind.
* ``frames_decoded`` / ``frames_sent`` — wire frames through the decoder
  and the vectored send queue.
* ``pool_*`` — segments the buffer pools mapped afresh
  (``pool_allocations``, ``pool_bytes_mapped`` bytes of them) vs. took
  warm from an idle list or the process-wide reserve (``pool_reuses``).
* ``sink_stall_s`` / ``writeback_queue_hwm`` — time the relay spent
  blocked on a full sink-writeback queue (seconds, a float), and the
  queue's high-water mark in chunks (a maximum, not a sum — deltas
  across runs are only meaningful from a zeroed instance).
* ``readahead_hits`` / ``readahead_misses`` — head-node reads served
  from the prefetch queue vs. reads that had to wait for the source.
* ``writeback_threads`` / ``readahead_threads`` — stage threads started:
  a stage works inline until storage would make its caller wait, so
  these say which stages of a run went threaded.
* ``splice_syscalls`` / ``splice_bytes`` — ``os.splice`` calls issued by
  the event-loop relay's kernel path, and the payload bytes they moved
  (socket→pipe and pipe→socket legs both count; every spliced byte is a
  byte that never entered Python).
* ``reactor_wakeups`` — times the event-loop reactor returned from its
  ``select()`` (readiness or timer) and dispatched tasks.
* ``stripe_merge_hwm`` — high-water mark, in bytes, of the striped
  broadcast's in-order merge buffer (a maximum, not a sum).
* ``evloop_stall_s`` — seconds (a float) the reactor spent blocked in
  ``select()`` with at least one task waiting — idle wire time, the
  event-loop analogue of a blocked thread.
* ``sim_events_processed`` / ``sim_cancelled_skips`` — discrete-event
  engine dispatches, and heap entries popped dead (cancelled before
  their time came).  ``sim_heap_peak`` is the event queue's high-water
  mark (a maximum, not a sum).
* ``solver_rounds`` / ``solver_full_rebuilds`` — fluid max–min solver
  invocations, and how many of them could not reuse the incremental
  problem (topology changed under it).  A healthy large run has many
  rounds and few rebuilds.
* ``cache_hits`` / ``cache_misses`` / ``bytes_from_cache`` /
  ``cache_evictions`` — the content-addressed chunk cache
  (:mod:`repro.core.cache`): chunk lookups served locally vs. not, the
  payload bytes those hits avoided re-fetching over the wire, and
  entries dropped by LRU eviction.  A repeat broadcast of a cached
  artifact should show ``bytes_from_cache`` ≈ stream size per receiver
  and zero data-plane ``bytes_received``.
* ``sessions_active`` — fleets only: high-water mark of concurrently
  running broadcast sessions on one fleet (a maximum, not a sum).
* ``launch_amortized_s`` — fleets only: the fleet's one-time windowed
  launch cost divided by the sessions that have reused it so far
  (seconds, a float; shrinks as the warm fleet amortises startup).

Components default to the module-global :func:`get_stats` instance so
production code needs no plumbing; tests construct a private instance and
pass it down to get isolated, deterministic counts.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

_COUNTERS = (
    "payload_copy_events",
    "payload_bytes_copied",
    "syscalls_recv",
    "syscalls_send",
    "syscalls_sendfile",
    "frames_decoded",
    "frames_sent",
    "bytes_received",
    "bytes_sent",
    "pool_allocations",
    "pool_reuses",
    "pool_bytes_mapped",
    "sink_stall_s",
    "writeback_queue_hwm",
    "readahead_hits",
    "readahead_misses",
    "writeback_threads",
    "readahead_threads",
    "splice_syscalls",
    "splice_bytes",
    "reactor_wakeups",
    "evloop_stall_s",
    "stripe_merge_hwm",
    "sim_events_processed",
    "sim_heap_peak",
    "sim_cancelled_skips",
    "solver_rounds",
    "solver_full_rebuilds",
    "cache_hits",
    "cache_misses",
    "bytes_from_cache",
    "cache_evictions",
    "sessions_active",
    "launch_amortized_s",
)


class PerfStats:
    """Mutable counter set for one data path (or the whole process).

    Plain integer counters; increments are cheap enough for the per-frame
    hot path.  No locking: counter updates are single bytecode-level
    read-modify-writes under the GIL and the tests that assert exact
    values use per-test instances touched by controlled threads.
    """

    __slots__ = _COUNTERS + ("_t0",)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and restart the frames/s clock."""
        for name in _COUNTERS:
            setattr(self, name, 0)
        self._t0 = time.monotonic()

    # -- recording (hot path) -------------------------------------------

    def copied(self, nbytes: int) -> None:
        """Record one userspace copy of ``nbytes`` of *payload* data."""
        self.payload_copy_events += 1
        self.payload_bytes_copied += nbytes

    def recv_syscall(self, nbytes: int) -> None:
        """Record one receive syscall that returned ``nbytes``."""
        self.syscalls_recv += 1
        self.bytes_received += nbytes

    def send_syscall(self, nbytes: int) -> None:
        """Record one send/sendmsg syscall that accepted ``nbytes``."""
        self.syscalls_send += 1
        self.bytes_sent += nbytes

    def sendfile_syscall(self, nbytes: int) -> None:
        """Record one sendfile syscall that moved ``nbytes``."""
        self.syscalls_sendfile += 1
        self.bytes_sent += nbytes

    def sink_stalled(self, seconds: float) -> None:
        """Record time the relay spent blocked on the writeback queue."""
        self.sink_stall_s += seconds

    def stage_threaded(self, counter: str) -> None:
        """Record one stage thread started (``counter``: one of
        ``writeback_threads`` / ``readahead_threads``)."""
        setattr(self, counter, getattr(self, counter) + 1)

    def splice_syscall(self, nbytes: int) -> None:
        """Record one ``os.splice`` call that moved ``nbytes``."""
        self.splice_syscalls += 1
        self.splice_bytes += nbytes

    def note_writeback_depth(self, depth: int) -> None:
        """Track the writeback queue's high-water mark (in chunks)."""
        if depth > self.writeback_queue_hwm:
            self.writeback_queue_hwm = depth

    def note_merge_buffered(self, nbytes: int) -> None:
        """Track the stripe-merge reorder buffer's high-water mark (bytes)."""
        if nbytes > self.stripe_merge_hwm:
            self.stripe_merge_hwm = nbytes

    def sim_ran(self, processed: int, skips: int, heap_peak: int) -> None:
        """Flush one engine run's dispatch counts (called once per
        :meth:`repro.simnet.engine.Engine.run`, not per event)."""
        self.sim_events_processed += processed
        self.sim_cancelled_skips += skips
        if heap_peak > self.sim_heap_peak:
            self.sim_heap_peak = heap_peak

    def solver_solved(self, full_rebuild: bool) -> None:
        """Record one fluid max–min solve."""
        self.solver_rounds += 1
        if full_rebuild:
            self.solver_full_rebuilds += 1

    def cache_hit(self, nbytes: int) -> None:
        """Record one chunk served from the content-addressed cache."""
        self.cache_hits += 1
        self.bytes_from_cache += nbytes

    def note_sessions_active(self, count: int) -> None:
        """Track the concurrent-session high-water mark (a fleet's)."""
        if count > self.sessions_active:
            self.sessions_active = count

    # -- reporting -------------------------------------------------------

    @property
    def syscalls(self) -> int:
        """Total data-moving syscalls across all kinds."""
        return (self.syscalls_recv + self.syscalls_send
                + self.syscalls_sendfile + self.splice_syscalls)

    def frames_per_second(self, now: Optional[float] = None) -> float:
        """Decoded frames per second since construction / :meth:`reset`."""
        elapsed = (now if now is not None else time.monotonic()) - self._t0
        if elapsed <= 0:
            return 0.0
        return self.frames_decoded / elapsed

    def snapshot(self) -> Dict[str, int]:
        """Copy of every counter, for logging or JSON export."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"PerfStats({parts or 'all zero'})"


_GLOBAL = PerfStats()


def get_stats() -> PerfStats:
    """The process-wide default counter set."""
    return _GLOBAL


def reset_stats() -> None:
    """Zero the process-wide counters (benchmark harness hook)."""
    _GLOBAL.reset()
