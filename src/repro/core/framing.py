"""Binary framing of Kascade protocol messages.

Wire format: every message begins with a one-byte opcode followed by the
fixed-size fields of that message, all big-endian unsigned 64-bit integers.
``DATA`` and ``REPORT`` headers are followed by exactly ``size`` bytes of
payload.

Decoding is incremental (sans-io): feed :class:`FrameDecoder` bytes as
they arrive (or let a socket ``recv_into`` its :meth:`writable` window),
pop complete messages.  The real TCP runtime, the simulator and the unit
tests all decode this way.

Payloads are surfaced separately from headers: decoding yields
``(message, payload)`` pairs where ``payload`` is ``b""`` for payload-less
messages and a **memoryview** into the decoder's receive buffer for
``DATA``/``REPORT``.  Handing out views instead of sliced ``bytes`` is the
heart of the zero-copy data plane: a relay can store the view in its ring
buffer and queue the *same* view for its downstream send without the
payload ever being copied in userspace (see ``docs/PROTOCOL.md``,
"Data path & buffer ownership").

The decoder's buffers are append-only while live: bytes land once (via
``feed`` or ``recv_into``) and are parsed in place.  When a buffer's tail
cannot hold the next frame the decoder *rotates* to a fresh buffer from
its :class:`~repro.core.buffers.BufferPool`, carrying over at most one
partial frame.  :meth:`FrameDecoder.writable` ends a read window short of
bytes that would certainly be carried, so once the frame size is known a
stream of large frames rotates between frames and copies nothing.
"""

from __future__ import annotations

import struct
from collections import deque
from functools import lru_cache
from itertools import repeat
from typing import Iterator, List, Optional, Tuple, Union

from .buffers import BufferPool, Segment
from .errors import FramingError
from .messages import (
    Data,
    End,
    Forget,
    Get,
    Message,
    Op,
    Passed,
    PGet,
    Ping,
    Pong,
    Quit,
    Report,
)
from .perfstats import PerfStats, get_stats

_U64 = struct.Struct(">Q")
_2U64 = struct.Struct(">QQ")

#: Number of u64 fields following the opcode byte, per opcode.
_FIELD_COUNT = {
    Op.GET: 1,
    Op.PGET: 2,
    Op.FORGET: 1,
    Op.DATA: 2,
    Op.END: 1,
    Op.QUIT: 0,
    Op.REPORT: 1,
    Op.PASSED: 0,
    Op.PING: 1,
    Op.PONG: 1,
}

#: One precompiled (opcode + fields) struct per opcode: a header encodes
#: or decodes in a single ``pack``/``unpack_from`` call.
_HEADER_STRUCTS = {
    op: struct.Struct(">B" + "Q" * count) for op, count in _FIELD_COUNT.items()
}

#: Opcodes whose header is followed by a payload of ``size`` bytes.
_PAYLOAD_OPS = frozenset({Op.DATA, Op.REPORT})

MAX_FRAME_PAYLOAD = 1 << 34  # 16 GiB; sanity bound against corrupt headers

#: Largest payload the incremental decoder will buffer contiguously.  A
#: frame must fit in one receive buffer for its payload view to be a
#: single memoryview; headers claiming more than this are treated as
#: corrupt rather than allocating gigabytes eagerly.
MAX_RECEIVE_ALLOC = 1 << 30  # 1 GiB

_MAX_HEADER = 1 + 8 * 2  # largest header on the wire (DATA/PGET)
_DATA_OP = int(Op.DATA)
#: Bytes a ``DATA`` header puts in front of its chunk on the wire.
DATA_HEADER = _HEADER_STRUCTS[Op.DATA].size

#: Buffer payloads handed out by the decoder: zero-copy views.
Payload = Union[bytes, memoryview]


class Run:
    """``count`` chunks of ``size`` bytes, one every ``stride`` bytes of
    ``buf`` from ``start``: the payloads of equal ``DATA`` frames where
    they lie on the wire (``stride`` = header + ``size``) — in a relay's
    receive buffer, or in the segment a head read its source into
    (:func:`frame_run`).

    The run is one value: ``len`` (chunks) and :attr:`nbytes` (payload
    bytes) are arithmetic, and a ring, a sink or a send queue can take
    it whole.  Indexed or iterated, it makes its chunks' views, and only
    then — for what needs the bytes: a trace, a crash gate, a digest, a
    file.  Every view — ``buf`` included — pins the buffer like any
    payload view.
    """

    __slots__ = ("buf", "start", "stride", "size", "count", "nbytes")

    def __init__(self, buf: memoryview, start: int, stride: int, size: int,
                 count: int) -> None:
        self.buf = buf
        self.start = start
        self.stride = stride
        self.size = size
        self.count = count
        self.nbytes = size * count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> memoryview:
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError("run index out of range")
        pos = self.start + index * self.stride
        return self.buf[pos: pos + self.size]

    def __iter__(self) -> Iterator[memoryview]:
        buf, start, stride, size = self.buf, self.start, self.stride, self.size
        return iter([buf[pos: pos + size] for pos in
                     range(start, start + self.count * stride, stride)])

    def tail(self, skip: int) -> "Run":
        """The same run without its first ``skip`` chunks."""
        return Run(self.buf, self.start + skip * self.stride, self.stride,
                   self.size, self.count - skip)


def run_nbytes(chunks) -> int:
    """Payload bytes of a run: a :class:`Run` or a sequence of chunks."""
    if chunks.__class__ is Run:
        return chunks.nbytes
    return sum(map(len, chunks))


#: What :meth:`FrameDecoder.try_pop_run` returns: the stream offset of
#: the run's first chunk, its chunks as one :class:`Run`, and one view
#: over the run's wire bytes (headers included).
DataRun = Tuple[int, Run, memoryview]


@lru_cache(maxsize=64)
def _frame_struct(size: int) -> struct.Struct:
    """A DATA header followed by the ``size`` payload bytes it skips: one
    frame of a run as it lies on the wire, unpacked in place."""
    return struct.Struct(f">BQQ{size}x")


def encode_header(msg: Message) -> bytes:
    """Serialize a message header (opcode + fields), without any payload."""
    op = msg.op
    if op is Op.GET:
        args = (op, msg.offset)
    elif op is Op.PGET:
        args = (op, msg.offset, msg.until)
    elif op is Op.FORGET:
        args = (op, msg.min_offset)
    elif op is Op.DATA:
        args = (op, msg.offset, msg.size)
    elif op is Op.END:
        args = (op, msg.total)
    elif op is Op.REPORT:
        args = (op, msg.size)
    elif op in (Op.PING, Op.PONG):
        args = (op, msg.nonce)
    else:  # QUIT, PASSED
        args = (op,)
    try:
        return _HEADER_STRUCTS[op].pack(*args)
    except struct.error:
        raise FramingError(f"field out of u64 range in {msg!r}") from None


def frame_slots(buf, chunk_size: int, count: int) -> List[memoryview]:
    """The payload slots of ``count`` ``DATA`` frames of ``chunk_size``
    bytes laid out from the start of ``buf`` as they lie on the wire:
    each behind :data:`DATA_HEADER` bytes of header room, one every
    header + chunk bytes.  A source reads a run straight into them."""
    stride = DATA_HEADER + chunk_size
    view = memoryview(buf)
    return [view[pos: pos + chunk_size]
            for pos in range(DATA_HEADER, count * stride, stride)]


def framed_size(nbytes: int, chunk_size: int) -> int:
    """Wire bytes of ``nbytes`` of payload in frames of ``chunk_size``
    (the last one short if need be)."""
    return nbytes + -(-nbytes // chunk_size) * DATA_HEADER


def frame_run(wire: memoryview, first_offset: int, chunk_size: int):
    """Pack the ``DATA`` headers of a run into the header room of
    ``wire``, in place: ``wire`` holds frames of ``chunk_size`` laid out
    by :func:`frame_slots`, the last one possibly short, and ends where
    the last frame does.  Returns the run's chunks — a :class:`Run`, or
    a list of views when the last is short — and ``wire``, now byte for
    byte ``encode_header(Data(offset, len(c))) + c`` per chunk ``c``
    from ``first_offset``: the one buffer a send queue takes whole.
    """
    stride = DATA_HEADER + chunk_size
    count, rest = divmod(len(wire), stride)
    end = first_offset + count * chunk_size
    try:
        # One C-level pass: pack_into over the frames' positions,
        # offsets and sizes, no Python frame per header.
        deque(map(_HEADER_STRUCTS[Op.DATA].pack_into, repeat(wire, count),
                  range(0, count * stride, stride), repeat(_DATA_OP, count),
                  range(first_offset, end, chunk_size),
                  repeat(chunk_size, count)), maxlen=0)
        if rest:
            _HEADER_STRUCTS[Op.DATA].pack_into(
                wire, count * stride, _DATA_OP, end, rest - DATA_HEADER)
    except struct.error:
        raise FramingError(
            f"DATA frame at offset {first_offset} to {end} leaves the "
            "u64 range") from None
    run = Run(wire, DATA_HEADER, stride, chunk_size, count)
    if not rest:
        return run, wire
    return [*run, wire[count * stride + DATA_HEADER:]], wire


def _decode_fields(op: Op, raw, offset: int) -> Message:
    """Decode the fixed fields following the opcode, reading ``raw`` in
    place from ``offset`` (no intermediate slice copies)."""
    if op is Op.GET:
        return Get(_U64.unpack_from(raw, offset)[0])
    if op is Op.PGET:
        o, t = _2U64.unpack_from(raw, offset)
        if t < o:
            raise FramingError(f"PGET range reversed on wire: [{o}, {t})")
        return PGet(o, t)
    if op is Op.FORGET:
        return Forget(_U64.unpack_from(raw, offset)[0])
    if op is Op.DATA:
        o, s = _2U64.unpack_from(raw, offset)
        if s > MAX_FRAME_PAYLOAD:
            raise FramingError(f"DATA payload too large: {s}")
        return Data(o, s)
    if op is Op.END:
        return End(_U64.unpack_from(raw, offset)[0])
    if op is Op.QUIT:
        return Quit()
    if op is Op.REPORT:
        (s,) = _U64.unpack_from(raw, offset)
        if s > MAX_FRAME_PAYLOAD:
            raise FramingError(f"REPORT payload too large: {s}")
        return Report(s)
    if op is Op.PASSED:
        return Passed()
    if op is Op.PING:
        return Ping(_U64.unpack_from(raw, offset)[0])
    if op is Op.PONG:
        return Pong(_U64.unpack_from(raw, offset)[0])
    raise FramingError(f"unhandled opcode {op}")  # pragma: no cover


def header_size(op: Op) -> int:
    """Total header length in bytes for the given opcode."""
    return 1 + 8 * _FIELD_COUNT[op]


def payload_size(msg: Message) -> int:
    """Payload length that must follow this header on the wire."""
    if msg.op in _PAYLOAD_OPS:
        return msg.size
    return 0


class FrameDecoder:
    """Incremental decoder: bytes in, complete ``(message, payload)`` out.

    The decoder is strict: an unknown opcode or an over-large payload
    raises :class:`FramingError` immediately.

    Bytes enter either through :meth:`feed` (sans-io callers: simulator,
    tests) or, copy-free, through the :meth:`writable`/:meth:`bytes_written`
    pair (``sock.recv_into(decoder.writable())``).  Payloads come out as
    memoryviews into the receive buffer; the buffer is recycled through
    the :class:`~repro.core.buffers.BufferPool` only once every view has
    been dropped, so consumers may hold payloads as long as they need.
    """

    def __init__(
        self,
        *,
        pool: Optional[BufferPool] = None,
        stats: Optional[PerfStats] = None,
    ) -> None:
        self._pool = pool
        self._stats = stats if stats is not None else get_stats()
        self._segment = pool.segment_size if pool is not None else 256 * 1024
        self._buf: Optional[Segment] = None
        self._mv: Optional[memoryview] = None  # cached full-buffer view
        self._cap = 0
        self._pos = 0   # parse position
        self._fill = 0  # one past the last valid byte
        self._pending: Optional[Message] = None  # header seen, payload pending
        #: Payload size of the most recent payload-bearing header: what
        #: :meth:`writable` expects of the next frame when it decides
        #: where a read must stop.
        self._last_need = 0

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------

    def _acquire(self, min_size: int) -> Segment:
        if self._pool is not None:
            return self._pool.acquire(min_size)
        return bytearray(max(self._segment, min_size))

    def _release_current(self) -> None:
        if self._mv is not None:
            self._mv.release()
            self._mv = None
        if self._buf is not None and self._pool is not None:
            self._pool.recycle(self._buf)
        self._buf = None

    def _rotate(self, min_size: int) -> None:
        """Switch to a fresh buffer of at least ``min_size`` bytes — the
        unparsed tail included, which is carried over.

        Between frames the tail is empty and nothing is copied.  A
        non-empty tail is either a partial header (not payload,
        not counted) or — when a payload-bearing frame straddles the old
        buffer's end — partial payload bytes, which are the one counted
        copy of this data plane.
        """
        old_buf, tail_lo, tail_hi = self._buf, self._pos, self._fill
        tail = tail_hi - tail_lo
        new = self._acquire(min_size)
        if tail:
            new[:tail] = old_buf[tail_lo:tail_hi]
            if self._pending is not None:
                # The tail is (partially received) payload of the pending
                # frame: this is a real payload copy — count it.
                self._stats.copied(tail)
        self._release_current()
        self._buf = new
        self._cap = len(new)
        self._pos = 0
        self._fill = tail

    def _ensure_room(self, nbytes: int) -> None:
        """Make space to append ``nbytes`` at the fill position."""
        if self._buf is None:
            self._buf = self._acquire(max(nbytes, self._last_need + _MAX_HEADER))
            self._cap = len(self._buf)
            self._pos = self._fill = 0
        elif self._cap - self._fill < nbytes:
            self._rotate(self._fill - self._pos + nbytes)

    def _ensure_payload_room(self, need: int) -> None:
        """Guarantee the pending payload ``[pos, pos+need)`` fits in the
        current buffer, rotating (with partial-payload carry) if not.

        Must be called with ``_pending`` already set: any tail carried by
        the rotation is payload prefix of that frame and must be counted.
        """
        if self._pos + need > self._cap:
            # The frame and the next one's header: a pool sizes its
            # segments to exactly this (what is already here is part of
            # ``need``).
            self._rotate(need + _MAX_HEADER)

    # ------------------------------------------------------------------
    # Byte ingestion
    # ------------------------------------------------------------------

    def feed(self, data) -> None:
        """Append freshly received bytes (bytes-like) to the buffer.

        Sans-io convenience: copies ``data`` in.  Socket readers should
        prefer ``recv_into(decoder.writable())`` + :meth:`bytes_written`,
        which land bytes in the buffer with no userspace copy at all.
        """
        n = len(data)
        if n == 0:
            return
        self._ensure_room(n)
        self._buf[self._fill: self._fill + n] = data
        self._fill += n

    def writable(self, min_size: int = 1) -> memoryview:
        """A view of free buffer space for ``recv_into`` to fill.

        Call :meth:`bytes_written` with the receive count afterwards.  The
        returned view is only valid until the next decoder call; callers
        should release (or drop) it promptly.

        The view is at least ``min_size`` long but may end before the
        buffer does: the decoder offers no room for bytes it would be
        certain to carry into the next buffer.  Past the end of the
        frame in progress (between frames: of one like the last) a read
        only goes on if a further frame of that size fits behind it; and
        when not even that one fits, the window ends after the header,
        which says whether the page must turn (the payload then lands in
        the next buffer whole) or the frame is a short one that fits
        where it is.
        """
        self._ensure_room(min_size)
        if self._mv is None:
            self._mv = memoryview(self._buf)
        pos, limit = self._pos, self._cap
        if self._pending is not None:
            need = self._pending.size
            end = pos + need
        else:
            need = self._last_need
            end = pos + _MAX_HEADER + need
            if end > limit:
                end = pos + _MAX_HEADER
        if (self._fill + min_size <= end < limit
                and limit - end < need + _MAX_HEADER):
            limit = end
        return self._mv[self._fill: limit]

    def bytes_written(self, n: int) -> None:
        """Commit ``n`` bytes written into :meth:`writable`'s view."""
        if n < 0 or self._fill + n > self._cap:
            raise FramingError(f"bytes_written({n}) overflows receive buffer")
        self._fill += n

    @property
    def buffered(self) -> int:
        """Bytes currently buffered and not yet consumed."""
        return self._fill - self._pos

    def close(self) -> None:
        """Drop the current buffer (recycling it to the pool)."""
        self._release_current()
        self._cap = self._pos = self._fill = 0

    # ------------------------------------------------------------------
    # Frame extraction
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[Message, Payload]]:
        return self

    def __next__(self) -> Tuple[Message, Payload]:
        item = self.try_pop()
        if item is None:
            raise StopIteration
        return item

    def _payload_view(self, need: int) -> memoryview:
        if self._mv is None:
            self._mv = memoryview(self._buf)
        return self._mv[self._pos: self._pos + need]

    def try_pop(self) -> Optional[Tuple[Message, Payload]]:
        """Return the next complete ``(message, payload)``, or ``None``.

        ``payload`` is a zero-copy memoryview for ``DATA``/``REPORT`` and
        ``b""`` otherwise.
        """
        if self._pending is not None:
            need = payload_size(self._pending)
            if self._fill - self._pos < need:
                return None
            payload = self._payload_view(need)
            self._pos += need
            msg, self._pending = self._pending, None
            self._stats.frames_decoded += 1
            return msg, payload

        avail = self._fill - self._pos
        if avail <= 0:
            return None
        op_byte = self._buf[self._pos]
        try:
            op = Op(op_byte)
        except ValueError:
            raise FramingError(f"unknown opcode byte {op_byte:#04x}") from None
        hsize = header_size(op)
        if avail < hsize:
            if self._cap - self._fill < hsize - avail:
                # Not even the rest of this header fits: rotate now (the
                # tail is header bytes only — a copy-free-in-payload-terms
                # move of at most 16 bytes).
                self._rotate(_MAX_HEADER)
            return None
        msg = _decode_fields(op, self._buf, self._pos + 1)
        self._pos += hsize
        need = payload_size(msg)
        if need == 0:
            self._stats.frames_decoded += 1
            return msg, b""
        if need > MAX_RECEIVE_ALLOC:
            raise FramingError(
                f"payload of {need} bytes exceeds receive allocation "
                f"cap {MAX_RECEIVE_ALLOC}"
            )
        self._last_need = need
        self._pending = msg
        self._ensure_payload_room(need)
        return self.try_pop()

    def try_pop_run(self) -> Optional[DataRun]:
        """Pop the complete ``DATA`` frames that continue the stream.

        A *run* is the longest sequence of complete, non-empty ``DATA``
        frames of one size at the parse position whose offsets follow
        one another (the first one's is unconstrained).  It is checked
        in place with one cached ``struct`` — every header the buffered
        bytes can hold, unpacked and compared at once, no
        :class:`Message` objects — and returned as ``(first_offset,
        payloads, raw)``: ``payloads`` is a :class:`Run`, the sequence
        of the views :meth:`try_pop` would have yielded, each made when
        asked for;
        ``raw`` is a single view over the same frames' wire
        bytes, headers included, which a relay can queue downstream as
        they are.  All of them pin the receive buffer like any payload
        view, and a run never crosses a buffer rotation.

        Returns ``None`` when the next frame is anything else — another
        opcode, an incomplete, empty or oversized frame, a corrupt byte
        — and leaves it to :meth:`try_pop`, which returns or raises as
        it always did; the two calls can be mixed freely.  A frame of
        another size starts the next run.
        """
        if self._pending is not None or self._buf is None:
            return None
        buf, start, fill = self._buf, self._pos, self._fill
        if fill - start < DATA_HEADER or buf[start] != _DATA_OP:
            return None
        first, size = _2U64.unpack_from(buf, start + 1)
        stride = DATA_HEADER + size
        if size == 0 or size > MAX_RECEIVE_ALLOC or start + stride > fill:
            return None
        if self._mv is None:
            self._mv = memoryview(buf)
        count = (fill - start) // stride  # if every frame is this size
        if count > 1:
            view = self._mv[start: start + count * stride]
            ops, offsets, sizes = zip(*_frame_struct(size).iter_unpack(view))
            view.release()
            expected = range(first, first + count * size, size)
            if (ops.count(_DATA_OP) != count or sizes.count(size) != count
                    or offsets != tuple(expected)):
                count = 1
                while (ops[count] == _DATA_OP and sizes[count] == size
                       and offsets[count] == expected[count]):
                    count += 1
        self._pos = end = start + count * stride
        self._last_need = size
        self._stats.frames_decoded += count
        raw = self._mv[start:end]
        return first, Run(raw, DATA_HEADER, stride, size, count), raw
