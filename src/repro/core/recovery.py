"""Failure-recovery decision logic (§III-D), shared by runtime and simulator.

These are pure functions over the pipeline plan and transfer positions, so
that the real TCP runtime and the discrete-event simulator take *exactly*
the same decisions — the paper's recovery behaviour lives here:

* after detecting that its downstream neighbour is dead, a sender picks the
  **next alive node** in the original chain order (:func:`next_alive`);
* the replacement receiver announces how far it got via ``GET(offset)``;
  the sender decides among three outcomes (:func:`negotiate_offset`):

  1. serve from its ring buffer (offset still covered),
  2. tell the receiver to fetch the hole from the head via ``PGET``
     (head reads a seekable file),
  3. answer ``FORGET`` — the bytes are gone and the head cannot seek
     (stdin stream), so the receiver and everything after it abort with
     cascading ``QUIT`` while the sender becomes the effective tail.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Optional, Sequence

from .pipeline import PipelinePlan
from .record import Frozen


class SourceKind(enum.Enum):
    """What the head node reads from — decides whether PGET is possible."""

    SEEKABLE_FILE = "file"    #: head can re-read any offset (PGET works)
    STREAM = "stream"         #: stdin/pipe; lost bytes are unrecoverable


class OfferKind(enum.Enum):
    """Sender-side verdict on a reconnecting receiver's GET(offset)."""

    SERVE_FROM_BUFFER = "serve"   #: replay from ring buffer then stream live
    NEED_HEAD_RANGE = "pget"      #: receiver must PGET [offset, buffer_min)
    FORGET = "forget"             #: data unrecoverable; abort downstream


class Offer(Frozen):
    """Outcome of :func:`negotiate_offset`.

    ``resume_at`` is where the sender will start serving:

    * SERVE_FROM_BUFFER — equal to the receiver's requested offset;
    * NEED_HEAD_RANGE — the sender's buffer minimum; the receiver first
      fills ``[requested, resume_at)`` from the head via PGET;
    * FORGET — the sender's buffer minimum (the FORGET(o) value).
    """

    __slots__ = ("kind", "resume_at")

    def __init__(self, kind: OfferKind, resume_at: int) -> None:
        self._init(kind, resume_at)


def next_alive(
    plan: PipelinePlan,
    after: str,
    dead: AbstractSet[str],
    max_skips: Optional[int] = None,
) -> Optional[str]:
    """First node after ``after`` in chain order that is not known dead.

    ``max_skips`` bounds how many dead nodes may be stepped over;
    ``None`` (the default) means unbounded, ``0`` means step over none.
    Returns ``None`` when no alive successor exists within the bound —
    the caller has become the tail of the pipeline.
    """
    skipped = 0
    for node in plan.successors_after(after):
        if node in dead:
            skipped += 1
            if max_skips is not None and skipped > max_skips:
                return None
            continue
        return node
    return None


def negotiate_offset(
    requested: int,
    buffer_min: int,
    buffer_end: int,
    source: SourceKind,
) -> Offer:
    """Decide how to serve a (re)connecting receiver asking for ``requested``.

    Parameters mirror the sender's view: its ring buffer currently covers
    ``[buffer_min, buffer_end]`` of the stream (``buffer_end`` is the live
    edge — the next byte the sender itself will receive or read).

    A request *beyond* the live edge is a protocol violation (the receiver
    claims bytes nobody has produced) and raises ``ValueError``: silent
    clamping would mask stream desynchronisation.
    """
    if requested < 0:
        raise ValueError(f"negative GET offset: {requested}")
    if requested > buffer_end:
        raise ValueError(
            f"receiver requests offset {requested} beyond live edge {buffer_end}"
        )
    if requested >= buffer_min:
        return Offer(OfferKind.SERVE_FROM_BUFFER, requested)
    if source is SourceKind.SEEKABLE_FILE:
        return Offer(OfferKind.NEED_HEAD_RANGE, buffer_min)
    return Offer(OfferKind.FORGET, buffer_min)


def report_route(plan: PipelinePlan, dead: AbstractSet[str]) -> Sequence[str]:
    """Alive nodes in chain order — the path the final report travels.

    The last element is the effective tail, which owns the ring-closure
    connection back to the head.
    """
    return [n for n in plan.chain if n not in dead]
