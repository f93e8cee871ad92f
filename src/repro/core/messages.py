"""Kascade protocol messages (paper Fig. 4).

The protocol runs over a reliable ordered byte stream (TCP).  Each message
is a fixed-layout header, optionally followed by a payload (DATA carries
``size`` bytes of stream data, REPORT carries a serialized failure report).

Message inventory, verbatim from the paper:

========  =====================================================
GET(o)    Request stream data from offset *o*
PGET(o,t) Request stream between offset *o* and offset *t*
FORGET(o) Answer to GET/PGET when the asked part is not
          available anymore (recycled buffer); *o* is the
          minimal available offset
DATA(s)   Answer to GET/PGET, followed by *s* bytes of data
END       Signal the end of stream
QUIT      Signal the anticipated end of stream (user interrupt)
REPORT(s) After END or QUIT, a report of *s* bytes is sent
PASSED    Ack that the report reached the first node
========  =====================================================

Two additional control messages implement the liveness check of §III-D1:
``PING``/``PONG`` are exchanged on a short-lived side connection when a
write stalls, to distinguish a dead peer from mere congestion.
"""

from __future__ import annotations

import enum
from typing import Union

from .record import Frozen


class Op(enum.IntEnum):
    """Wire opcodes.  Values are part of the wire format — never renumber."""

    GET = 1
    PGET = 2
    FORGET = 3
    DATA = 4
    END = 5
    QUIT = 6
    REPORT = 7
    PASSED = 8
    PING = 9
    PONG = 10


class Get(Frozen):
    """Request the stream starting at byte ``offset``."""

    __slots__ = ("offset",)
    op = Op.GET

    def __init__(self, offset: int) -> None:
        self._init(offset)


class PGet(Frozen):
    """Request the half-open byte range ``[offset, until)`` from the head."""

    __slots__ = ("offset", "until")
    op = Op.PGET

    def __init__(self, offset: int, until: int) -> None:
        if until < offset:
            raise ValueError(f"PGET range reversed: [{offset}, {until})")
        self._init(offset, until)

    @property
    def size(self) -> int:
        return self.until - self.offset


class Forget(Frozen):
    """The requested range was recycled; ``min_offset`` is the oldest byte
    still available (the paper's FORGET(o))."""

    __slots__ = ("min_offset",)
    op = Op.FORGET

    def __init__(self, min_offset: int) -> None:
        self._init(min_offset)


class Data:
    """Header announcing ``size`` bytes of stream payload at ``offset``.

    The paper's DATA(s) message carries only the chunk size; receivers track
    the offset implicitly.  We carry the explicit offset as well — it costs
    8 bytes per chunk and turns silent desynchronisation bugs into loud
    protocol errors, which matters for a fault-tolerance tool.

    Unlike its siblings this is not a :class:`~repro.core.record.Frozen`
    record: one is constructed per chunk per hop, and the frozen
    ``object.__setattr__`` constructor is measurably the dearest part of
    that.  repr/eq/hash match its siblings'.
    """

    __slots__ = ("offset", "size")

    op = Op.DATA

    def __init__(self, offset: int, size: int) -> None:
        if size < 0:
            raise ValueError(f"negative DATA size: {size}")
        if offset < 0:
            raise ValueError(f"negative DATA offset: {offset}")
        self.offset = offset
        self.size = size

    def __repr__(self) -> str:
        return f"Data(offset={self.offset!r}, size={self.size!r})"

    def __eq__(self, other: object):
        if other.__class__ is Data:
            return (self.offset, self.size) == (other.offset, other.size)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.offset, self.size))

    @property
    def end(self) -> int:
        return self.offset + self.size


class End(Frozen):
    """Normal end of stream; total length is ``total`` bytes."""

    __slots__ = ("total",)
    op = Op.END

    def __init__(self, total: int) -> None:
        self._init(total)


class Quit(Frozen):
    """Anticipated end of stream (user interruption or unrecoverable loss)."""

    __slots__ = ()
    op = Op.QUIT


class Report(Frozen):
    """Header announcing ``size`` bytes of serialized failure report."""

    __slots__ = ("size",)
    op = Op.REPORT

    def __init__(self, size: int) -> None:
        self._init(size)


class Passed(Frozen):
    """The final report has reached the first node; senders may quit."""

    __slots__ = ()
    op = Op.PASSED


class Ping(Frozen):
    """Liveness probe (sent on a side connection when a write stalls)."""

    __slots__ = ("nonce",)
    op = Op.PING

    def __init__(self, nonce: int) -> None:
        self._init(nonce)


class Pong(Frozen):
    """Answer to a PING, echoing its nonce."""

    __slots__ = ("nonce",)
    op = Op.PONG

    def __init__(self, nonce: int) -> None:
        self._init(nonce)


Message = Union[Get, PGet, Forget, Data, End, Quit, Report, Passed, Ping, Pong]

#: Messages that may legally start a data connection from the receiver side.
HANDSHAKE_OPS = frozenset({Op.GET, Op.PGET, Op.PING})
