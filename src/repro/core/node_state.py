"""Per-node transfer state: the sans-io heart of a Kascade node.

A node — head, relay, or tail — tracks one position in the broadcast
stream, keeps the recovery ring buffer, accumulates the failure report,
and answers (re)connection handshakes.  All decisions are pure; the real
TCP runtime (:mod:`repro.runtime`) and unit tests drive this object and
perform the actual I/O.

Protocol rules implemented here (§III-C, §III-D):

* DATA chunks must arrive in stream order; any gap or overlap is a
  protocol error (corrupted pipeline), not silently patched.
* Every received chunk is appended to the ring buffer so the node can
  serve a replacement downstream neighbour after a failure.
* A ``GET(o)`` handshake is answered from the buffer when possible;
  otherwise with ``FORGET(min)`` — on a *relay*, the requester must then
  fetch the hole from the head with ``PGET`` (only the head knows whether
  its source is seekable).
* The failure report merges the upstream report with locally detected
  failures before being forwarded.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Optional

from .chunkstore import ChunkRingBuffer
from .config import KascadeConfig
from .errors import ProtocolError
from .recovery import Offer, OfferKind, SourceKind, negotiate_offset
from .report import FailureRecord, TransferReport


class Phase(enum.Enum):
    """Lifecycle of a node during one broadcast."""

    STREAMING = "streaming"      #: receiving/forwarding DATA
    ENDED = "ended"              #: END seen; report exchange in progress
    ABORTED = "aborted"          #: QUIT seen or unrecoverable loss
    DONE = "done"                #: PASSED exchanged; node may exit


class NodeTransferState:
    """Mutable transfer state of one node in the pipeline."""

    def __init__(
        self,
        name: str,
        config: KascadeConfig,
        *,
        source_kind: Optional[SourceKind] = None,
    ) -> None:
        """``source_kind`` is set on the head node only; relays pass None."""
        self.name = name
        self.config = config
        self.source_kind = source_kind
        self.buffer = ChunkRingBuffer(config.buffer_bytes)
        self.report = TransferReport()
        self.phase = Phase.STREAMING
        self.total_size: Optional[int] = None
        # Integrity mode: hash the stream as it flows (§ verify_digest).
        self._hasher = hashlib.sha256() if config.verify_digest else None

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------

    @property
    def offset(self) -> int:
        """Next stream byte this node expects (== bytes received so far)."""
        return self.buffer.end_offset

    @property
    def is_head(self) -> bool:
        return self.source_kind is not None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def on_data(self, offset: int, payload) -> None:
        """Account for one received (or head-read) chunk at ``offset``:
        :meth:`on_run` with a run of one."""
        self.on_run(offset, (payload,))

    def on_run(self, offset: int, payloads) -> None:
        """Account for a run: consecutive chunks, the first at ``offset``.

        ``payloads`` is a sequence of bytes-like buffers, retained by
        reference in the ring buffer (zero-copy); the runtime's
        buffer-pool discipline guarantees the bytes stay valid while
        buffered.  Phase and offset are checked once, the ring evicts once.

        Raises :class:`ProtocolError` on out-of-order data: a relay that
        tolerated gaps would corrupt every node downstream of it.
        """
        buffer = self.buffer
        if self.phase is not Phase.STREAMING:
            raise ProtocolError(
                f"{self.name}: DATA after stream end (phase={self.phase.value})"
            )
        if offset != buffer.end_offset:
            raise ProtocolError(
                f"{self.name}: DATA at offset {offset}, expected {self.offset}"
            )
        buffer.extend(payloads)
        if self._hasher is not None:
            for payload in payloads:
                self._hasher.update(payload)

    def on_data_spliced(self, offset: int, size: int) -> None:
        """Account for a chunk that was moved entirely in the kernel.

        The event-loop data plane's ``os.splice`` relay moves payload
        bytes predecessor→successor, and a head that keeps nothing
        (:func:`~repro.core.engine.keeps_nothing`) sends them from its
        file, without them ever entering Python, so there is no buffer
        to retain (or hash): the ring window advances empty (see
        :meth:`ChunkRingBuffer.note_advance`).  Callers must not enable
        ``verify_digest`` on such a node — there are no bytes to feed
        the hasher.
        """
        if self.phase is not Phase.STREAMING:
            raise ProtocolError(
                f"{self.name}: DATA after stream end (phase={self.phase.value})"
            )
        if offset != self.offset:
            raise ProtocolError(
                f"{self.name}: DATA at offset {offset}, expected {self.offset}"
            )
        if self._hasher is not None:
            raise ProtocolError(
                f"{self.name}: spliced relay cannot hash the stream "
                f"(verify_digest requires the userspace path)"
            )
        self.buffer.note_advance(size)

    def on_end(self, total: int) -> None:
        """Handle END: the stream is complete at ``total`` bytes."""
        if self.phase is not Phase.STREAMING:
            raise ProtocolError(f"{self.name}: duplicate END")
        if total != self.offset:
            raise ProtocolError(
                f"{self.name}: END claims {total} bytes but received {self.offset}"
            )
        self.total_size = total
        self.phase = Phase.ENDED

    def on_quit(self) -> None:
        """Handle QUIT: anticipated end (user interrupt / upstream abort)."""
        if self.phase in (Phase.DONE,):
            raise ProtocolError(f"{self.name}: QUIT after completion")
        self.phase = Phase.ABORTED

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------

    def record_failure(self, node: str, reason: str) -> FailureRecord:
        """Record that *this* node detected ``node``'s death."""
        rec = FailureRecord(
            node=node, detected_by=self.name, at_offset=self.offset, reason=reason
        )
        self.report.add(rec)
        return rec

    def merge_upstream_report(self, raw: bytes) -> TransferReport:
        """Merge the upstream REPORT payload *before* local records.

        The report travels head→tail, so upstream failures were detected
        earlier in pipeline order; keeping them first preserves the
        narrative order of the final report.  The head's source digest
        (integrity mode) is carried through.
        """
        upstream = TransferReport.decode(raw)
        merged = TransferReport(
            upstream.failures + self.report.failures,
            source_digest=upstream.source_digest or self.report.source_digest,
        )
        self.report = merged
        return merged

    # ------------------------------------------------------------------
    # Integrity (verify_digest mode)
    # ------------------------------------------------------------------

    @property
    def hasher(self):
        """The running SHA-256 of the stream (None unless enabled)."""
        return self._hasher

    @property
    def digest(self) -> Optional[bytes]:
        """SHA-256 of the stream received so far (None unless enabled)."""
        if self._hasher is None:
            return None
        return self._hasher.digest()

    def attach_source_digest(self) -> None:
        """Head-side: publish this node's digest in its report."""
        if self._hasher is not None:
            self.report.source_digest = self.digest

    def verify_against_report(self) -> Optional[bool]:
        """Receiver-side: compare the local digest with the head's.

        Returns ``True``/``False`` for a definite verdict, ``None`` when
        either side did not hash (mode off, or a pre-integrity head).
        """
        if self._hasher is None or self.report.source_digest is None:
            return None
        return self.digest == self.report.source_digest

    # ------------------------------------------------------------------
    # Handshakes (sender side)
    # ------------------------------------------------------------------

    def answer_get(self, requested: int) -> Offer:
        """Answer a downstream ``GET(requested)`` from this node's buffer.

        On the head, the source kind decides between PGET redirection and
        FORGET; on a relay the requester is always redirected to the head
        (``NEED_HEAD_RANGE``) because only the head knows whether the
        missing range can be re-read.
        """
        kind = self.source_kind if self.is_head else SourceKind.SEEKABLE_FILE
        offer = negotiate_offset(
            requested, self.buffer.min_offset, self.buffer.end_offset, kind
        )
        return offer

    def answer_pget(self, offset: int, until: int) -> Offer:
        """Head-only: answer a PGET for ``[offset, until)``.

        Returns SERVE_FROM_BUFFER when the head can re-read the range
        (seekable source — served from the source, not the ring buffer),
        FORGET otherwise.
        """
        if not self.is_head:
            raise ProtocolError(f"{self.name}: PGET received by non-head node")
        if until > self.offset:
            raise ProtocolError(
                f"{self.name}: PGET until {until} beyond produced {self.offset}"
            )
        if self.source_kind is SourceKind.SEEKABLE_FILE:
            return Offer(OfferKind.SERVE_FROM_BUFFER, offset)
        # Stream head: can the ring buffer still cover it?
        if offset >= self.buffer.min_offset:
            return Offer(OfferKind.SERVE_FROM_BUFFER, offset)
        return Offer(OfferKind.FORGET, self.buffer.min_offset)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def on_passed(self) -> None:
        """The report reached the head; this node may exit."""
        if self.phase not in (Phase.ENDED, Phase.ABORTED):
            raise ProtocolError(
                f"{self.name}: PASSED in phase {self.phase.value}"
            )
        self.phase = Phase.DONE

    @property
    def complete(self) -> bool:
        """Whether the node received the entire stream (END seen)."""
        return self.total_size is not None and self.offset == self.total_size
