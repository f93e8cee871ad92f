"""Data sources read by the head node.

The paper stresses that the stream length need not be known in advance
(§III-C issue 1): Kascade must broadcast the output of another process
(``dd if=/dev/sda2 | gzip | kascade ...``).  Sources therefore expose a
pull interface with no length, plus an optional random-access capability
used to answer PGET requests when the source is a seekable file.
"""

from __future__ import annotations

import io
import os
from typing import TYPE_CHECKING, BinaryIO, List, Optional

from .errors import DataLossError
from .recovery import SourceKind

if TYPE_CHECKING:
    from .buffers import BufferPool
    from .framing import Payload

#: Most buffers one ``preadv`` takes (Linux's IOV_MAX).
_IOV_MAX = 1024


def _preadv(fd: int, views: List[memoryview], offset: int) -> int:
    """Fill ``views`` in order from ``offset`` of ``fd``; fewer bytes
    only at the end of the file."""
    got = 0
    while views:
        n = os.preadv(fd, views[:_IOV_MAX], offset + got)
        if n == 0:
            break
        got += n
        while views and n >= len(views[0]):
            n -= len(views[0])
            views = views[1:]
        if n:
            views[0] = views[0][n:]
    return got


class Source:
    """Abstract chunk source for the head node."""

    #: Whether PGET (random re-read) is possible.
    kind: SourceKind = SourceKind.STREAM

    #: Whether ``read_chunk`` can block on real I/O (file, pipe).  The
    #: runtime only wraps blocking sources in a read-ahead stage; an
    #: in-memory source gains nothing from a prefetch thread.
    blocking_io: bool = True

    #: Where :meth:`read_run` gets its segments (made at the first read).
    _pool: Optional[BufferPool] = None

    def read_chunk(self, size: int) -> Payload:
        """Return up to ``size`` next bytes; ``b""`` signals end of stream.

        What comes back is the caller's to hold as long as it likes and
        never to write to: ``bytes``, or a view into a pooled segment
        under the ownership rule of received payloads (docs/PROTOCOL.md
        §10) — the segment is reused once every view of it is gone.
        """
        raise NotImplementedError

    def read_run(self, chunk_size: int, count: int) -> Payload:
        """The next ``count`` chunks of ``chunk_size`` bytes — fewer at
        the end, the last one short if need be — read straight into the
        layout they have on the wire: each in the payload slot of a
        ``DATA`` frame (:func:`~repro.core.framing.frame_slots`), the
        header room left for the head to pack
        (:func:`~repro.core.framing.frame_run`).

        Returns one view of exactly the frames' wire bytes, pinning a
        pooled segment under the rule of :meth:`read_chunk`'s views;
        ``b""`` at the end of the stream.
        """
        from .framing import DATA_HEADER, frame_slots, framed_size

        segment = self._segment(count * (DATA_HEADER + chunk_size))
        got = self._readinto(frame_slots(segment, chunk_size, count))
        if not got:
            return b""
        return segment[:framed_size(got, chunk_size)]

    def _readinto(self, slots: List[memoryview]) -> int:
        """Fill ``slots`` in order, each whole before the next, and
        return the bytes read: fewer only at the end (or, from a pipe,
        at a short read).  This default copies :meth:`read_chunk`'s
        blocks in; the sources here read into the slots themselves."""
        got = 0
        for slot in slots:
            block = self.read_chunk(len(slot))
            slot[:len(block)] = block
            got += len(block)
            if len(block) < len(slot):
                break
        return got

    def _segment(self, size: int) -> memoryview:
        """A view of a pooled segment of at least ``size`` bytes to read
        into.

        A source nobody reads (a supervisor hands its agents the path)
        loads and maps nothing.  The pool keeps no segment of its own —
        each goes back to the process-wide reserve as soon as it is
        handed out, pinned by the views made of it — so a read-ahead
        thread and any number of PGET services share no unlocked list,
        and nothing is left to close.
        """
        pool = self._pool
        if pool is None:
            from .buffers import PAGE, BufferPool

            pool = self._pool = BufferPool(PAGE, max_idle=0)
        segment = pool.acquire(size)
        view = memoryview(segment)  # pinned before anyone else can take it
        pool.recycle(segment)
        return view

    def read_range(self, offset: int, size: int) -> Payload:
        """Random access for PGET; only valid on seekable sources."""
        raise DataLossError("source is not seekable; range re-read impossible")

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "Source":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CursorSource(Source):
    """A seekable source read at a cursor of its own: a run is one
    positional scatter read, :meth:`_fill_at`, into its slots."""

    kind = SourceKind.SEEKABLE_FILE
    _pos = 0

    def _readinto(self, slots: List[memoryview]) -> int:
        got = self._fill_at(self._pos, slots)
        self._pos += got
        return got

    def _fill_at(self, offset: int, slots: List[memoryview]) -> int:
        """:meth:`_readinto` from stream offset ``offset``, cursor aside."""
        raise NotImplementedError


class FileSource(CursorSource):
    """Seekable file on disk — supports PGET recovery.

    Every read is a positional read of the one descriptor opened here,
    so the bytes are the file's as it was opened whatever has happened
    to the path since, and lands in a pooled segment
    (:mod:`repro.core.buffers`) handed out as a view: a broadcast's
    blocks are the previous one's, already mapped and warm, not a fresh
    heap allocation each.  A run is one ``preadv`` into its payload
    slots.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        self._file: BinaryIO = open(self._path, "rb", buffering=0)
        self._size = os.fstat(self._file.fileno()).st_size
        self._pos = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def path(self) -> str:
        """Filesystem path this source reads — lets the process backend
        hand the file to a head agent by name instead of spooling it."""
        return self._path

    def fileno(self) -> int:
        """File descriptor for kernel-side streaming (``os.sendfile``).

        The runtime's PGET service uses this to move payload bytes from
        the page cache straight to the socket; positional ``sendfile``
        reads leave the sequential cursor untouched.
        """
        return self._file.fileno()

    def _fill_at(self, offset: int, slots: List[memoryview]) -> int:
        return _preadv(self._file.fileno(), slots, offset)

    def _read_block(self, offset: int, size: int) -> Payload:
        view = self._segment(size)[:size]
        got = self._fill_at(offset, [view])
        return view[:got] if got else b""

    def read_chunk(self, size: int) -> Payload:
        data = self._read_block(self._pos, size)
        self._pos += len(data)
        return data

    def read_range(self, offset: int, size: int) -> Payload:
        # Positional reads leave the sequential cursor undisturbed: PGET
        # service must not corrupt the main streaming position.
        data = self._read_block(offset, size)
        if len(data) != size:
            raise DataLossError(
                f"file shrank: wanted [{offset}, {offset + size}), got {len(data)} bytes"
            )
        return data

    def close(self) -> None:
        self._file.close()


class StreamSource(Source):
    """Non-seekable stream (stdin, pipe) — PGET impossible, FORGET applies."""

    kind = SourceKind.STREAM

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream

    def read_chunk(self, size: int) -> bytes:
        return self._stream.read(size)

    def _readinto(self, slots: List[memoryview]) -> int:
        # A short read (a pipe with less to give, the end) is the run's
        # last frame: the next run starts where it stopped.  A raw
        # descriptor takes one scatter read, which returns what the pipe
        # holds, as one read did; a buffered stream fills slot by slot.
        stream = self._stream
        if isinstance(stream, io.FileIO):
            return os.readv(stream.fileno(), slots[:_IOV_MAX])
        readinto, got = stream.readinto, 0
        for slot in slots:
            n = readinto(slot) or 0
            got += n
            if n < len(slot):
                break
        return got

    def close(self) -> None:
        self._stream.close()


class BytesSource(CursorSource):
    """In-memory source; seekable.  Convenient for tests and examples."""

    blocking_io = False

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def size(self) -> int:
        return len(self._data)

    def read_chunk(self, size: int) -> bytes:
        piece = self._data[self._pos: self._pos + size]
        self._pos += len(piece)
        return piece

    def read_range(self, offset: int, size: int) -> bytes:
        if offset + size > len(self._data):
            raise DataLossError(
                f"range [{offset}, {offset + size}) beyond source of {len(self._data)}"
            )
        return self._data[offset: offset + size]

    def _fill_at(self, offset: int, slots: List[memoryview]) -> int:
        data, got = memoryview(self._data), 0
        for slot in slots:
            piece = data[offset + got: offset + got + len(slot)]
            slot[:len(piece)] = piece
            got += len(piece)
            if len(piece) < len(slot):
                break
        return got


class PatternSource(CursorSource):
    """Deterministic synthetic stream of a given size, O(1) memory.

    Generates a repeating 251-byte pattern offset by position, so any
    subrange is reproducible — receivers can verify integrity without the
    head materialising gigabytes.  Seekable (PGET works).
    """

    blocking_io = False
    _PERIOD = 251  # prime, so chunk boundaries drift across the pattern

    def __init__(self, size: int, seed: int = 0) -> None:
        if size < 0:
            raise ValueError(f"negative source size: {size}")
        self._size = size
        base = bytes((seed + i * 7) % 256 for i in range(self._PERIOD))
        # Precompute a doubled pattern so any window of PERIOD bytes is a slice.
        self._pattern = base + base
        self._tile = memoryview(self._pattern)
        self._pos = 0

    @property
    def size(self) -> int:
        return self._size

    def _materialize(self, offset: int, size: int) -> bytes:
        # One C-level repeat + slice instead of a Python loop over
        # periods: the head's read path is on the hot data plane, and at
        # small chunk sizes the per-period bytecode dominated it.
        period = self._PERIOD
        phase = offset % period
        reps = (phase + size + period - 1) // period
        return (self._pattern[:period] * reps)[phase: phase + size]

    def read_chunk(self, size: int) -> bytes:
        take = min(size, self._size - self._pos)
        if take <= 0:
            return b""
        data = self._materialize(self._pos, take)
        self._pos += take
        return data

    def read_range(self, offset: int, size: int) -> bytes:
        if offset + size > self._size:
            raise DataLossError(
                f"range [{offset}, {offset + size}) beyond source of {self._size}"
            )
        return self._materialize(offset, size)

    def _fill_at(self, offset: int, slots: List[memoryview]) -> int:
        # Each slot is one copy out of the pattern tiled past a slot's
        # length, from the slot's phase.
        period, left = self._PERIOD, self._size - offset
        widest = min(max(map(len, slots), default=0), max(left, 0))
        if len(self._tile) < period + widest:
            self._tile = memoryview(
                self._pattern[:period] * (widest // period + 2))
        tile, got = self._tile, 0
        for slot in slots:
            n = min(len(slot), left - got)
            if n <= 0:
                break
            phase = (offset + got) % period
            slot[:n] = tile[phase: phase + n]
            got += n
        return got

    def expected_bytes(self, offset: int, size: int) -> bytes:
        """What a correct transfer must deliver for ``[offset, offset+size)``."""
        return self._materialize(offset, size)


class ResumeView(CursorSource):
    """A seekable source's sequential cursor re-rooted at ``start``.

    Head failover promotes a receiver whose survivors already hold the
    stream prefix: the new head must *stream* only from the live edge
    onward, while still answering PGET for any earlier range (hole
    recovery below the resume point).  This wrapper gives the promoted
    head exactly that view: ``read_chunk`` walks ``[start, size)`` via
    ``read_range`` on the inner source, and random access delegates
    untouched.
    """

    def __init__(self, inner: Source, start: int) -> None:
        if inner.kind is not SourceKind.SEEKABLE_FILE:
            raise DataLossError(
                "resume needs a seekable source; a stream cannot re-root"
            )
        if start < 0:
            raise ValueError(f"negative resume offset: {start}")
        self._inner = inner
        self._pos = start
        self.start = start
        self.kind = inner.kind
        self.blocking_io = getattr(inner, "blocking_io", True)

    @property
    def size(self) -> int:
        return self._inner.size

    def read_chunk(self, size: int) -> bytes:
        take = min(size, self._inner.size - self._pos)
        if take <= 0:
            return b""
        data = self._inner.read_range(self._pos, take)
        self._pos += len(data)
        return data

    def read_range(self, offset: int, size: int) -> bytes:
        return self._inner.read_range(offset, size)

    def _readinto(self, slots: List[memoryview]) -> int:
        if not isinstance(self._inner, CursorSource):
            return Source._readinto(self, slots)  # read_chunk's blocks
        return super()._readinto(slots)

    def _fill_at(self, offset: int, slots: List[memoryview]) -> int:
        return self._inner._fill_at(offset, slots)

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name: str):
        # Delegate capabilities the runtime probes for (fileno, path...).
        return getattr(self._inner, name)


def open_source(spec: str) -> Source:
    """Open a source from a CLI spec: a path, or ``-`` for stdin."""
    if spec == "-":
        import sys

        # The descriptor itself: runs are read into their slots with no
        # pass through a buffer of the reader's own.
        stdin = sys.stdin.buffer
        return StreamSource(getattr(stdin, "raw", stdin))
    return FileSource(spec)
