"""Failure reports (the REPORT message payload).

After the data transfer ends, each node appends the failures *it* detected
to a report that travels down the pipeline; the tail node forwards the
complete report back to the head through the ring-closure connection
(§III-A, Fig. 3).  The head therefore learns exactly which nodes did not
receive the data.

The serialization is a deliberately simple length-prefixed UTF-8 format —
stable, byte-accurate, and independent of Python pickling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from .errors import ProtocolError

_HEADER = struct.Struct(">4sI")  # magic, record count
_MAGIC_V1 = b"KRPT"   # records only
_MAGIC_V2 = b"KRP2"   # records + optional source digest (integrity mode)


@dataclass(frozen=True)
class FailureRecord:
    """One detected node failure.

    Attributes
    ----------
    node:
        Name of the node that failed.
    detected_by:
        Name of the node that detected and routed around the failure.
    at_offset:
        Stream offset at which the detection happened (how much of the
        stream the detector had forwarded when it gave up on the peer).
    reason:
        Free-text cause: ``"timeout"``, ``"connection-reset"``,
        ``"connect-refused"``...
    """

    node: str
    detected_by: str
    at_offset: int
    reason: str

    def encode(self) -> bytes:
        parts = []
        for text in (self.node, self.detected_by, self.reason):
            raw = text.encode("utf-8")
            parts.append(struct.pack(">H", len(raw)) + raw)
        parts.append(struct.pack(">Q", self.at_offset))
        return b"".join(parts)


@dataclass
class TransferReport:
    """Aggregate failure report accumulated along the pipeline.

    In integrity mode (``KascadeConfig.verify_digest``) the head also
    ships ``source_digest`` — the SHA-256 of the whole stream — so every
    receiver can verify its stored copy before acknowledging.
    """

    failures: List[FailureRecord] = field(default_factory=list)
    source_digest: Optional[bytes] = None

    def add(self, record: FailureRecord) -> None:
        """Append one locally detected failure."""
        self.failures.append(record)

    def extend(self, records: Iterable[FailureRecord]) -> None:
        """Append several failure records in order."""
        self.failures.extend(records)

    def merge(self, other: "TransferReport") -> None:
        """Append another report's records (upstream report + local ones).

        The source digest is authoritative from upstream (it originates
        at the head) and is preserved through merges.
        """
        self.failures.extend(other.failures)
        if other.source_digest is not None:
            self.source_digest = other.source_digest

    @property
    def failed_nodes(self) -> List[str]:
        """Names of failed nodes, in detection order, without duplicates."""
        seen = set()
        out = []
        for rec in self.failures:
            if rec.node not in seen:
                seen.add(rec.node)
                out.append(rec.node)
        return out

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to the REPORT payload format.

        V1 (``KRPT``) when no digest is attached — byte-identical to the
        original format; V2 (``KRP2``) prefixes a length-framed digest.
        """
        body = b"".join(rec.encode() for rec in self.failures)
        if self.source_digest is None:
            return _HEADER.pack(_MAGIC_V1, len(self.failures)) + body
        digest = bytes(self.source_digest)
        return (
            _HEADER.pack(_MAGIC_V2, len(self.failures))
            + struct.pack(">H", len(digest)) + digest
            + body
        )

    @classmethod
    def decode(cls, raw) -> "TransferReport":
        """Parse a REPORT payload; raises :class:`ProtocolError` on garbage.

        Accepts any bytes-like payload (the zero-copy decoder hands out
        memoryviews); reports are small, so normalising to ``bytes`` here
        is the cheap way to own the data past buffer recycling.
        """
        if not isinstance(raw, bytes):
            raw = bytes(raw)
        if len(raw) < _HEADER.size:
            raise ProtocolError(f"report too short: {len(raw)} bytes")
        magic, count = _HEADER.unpack_from(raw)
        if magic not in (_MAGIC_V1, _MAGIC_V2):
            raise ProtocolError(f"bad report magic: {magic!r}")
        pos = _HEADER.size
        digest: Optional[bytes] = None
        if magic == _MAGIC_V2:
            if pos + 2 > len(raw):
                raise ProtocolError("truncated report digest length")
            (dlen,) = struct.unpack_from(">H", raw, pos)
            pos += 2
            if pos + dlen > len(raw):
                raise ProtocolError("truncated report digest")
            digest = raw[pos: pos + dlen]
            pos += dlen
        records = []
        for _ in range(count):
            texts = []
            for _f in range(3):
                if pos + 2 > len(raw):
                    raise ProtocolError("truncated report record")
                (tlen,) = struct.unpack_from(">H", raw, pos)
                pos += 2
                if pos + tlen > len(raw):
                    raise ProtocolError("truncated report string")
                texts.append(raw[pos: pos + tlen].decode("utf-8"))
                pos += tlen
            if pos + 8 > len(raw):
                raise ProtocolError("truncated report offset")
            (at_offset,) = struct.unpack_from(">Q", raw, pos)
            pos += 8
            records.append(FailureRecord(texts[0], texts[1], at_offset, texts[2]))
        if pos != len(raw):
            raise ProtocolError(f"{len(raw) - pos} trailing bytes in report")
        return cls(records, source_digest=digest)

    def summary(self) -> str:
        """Human-readable one-line summary for CLI output."""
        if not self.failures:
            return "transfer complete, no failures"
        nodes = ", ".join(self.failed_nodes)
        return f"transfer complete with {len(self.failed_nodes)} failed node(s): {nodes}"


@dataclass
class NodeOutcome:
    """What one node reports after the broadcast (or its own death)."""

    name: str
    ok: bool = False
    bytes_received: int = 0
    crashed: bool = False
    error: Optional[str] = None
    failures_detected: List = field(default_factory=list)
    #: SHA-256 of the payload as stored, when the backend computed one
    #: (the process backend always does; the thread backend only via a
    #: hashing sink the caller supplied).
    digest: Optional[str] = None
