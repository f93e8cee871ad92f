"""Data sinks on receiving nodes.

The paper's CLI (Fig. 2) writes to a file (``-o``), pipes into a command
(``-O 'tar -xzC /opt/'``), or discards data (the evaluation's
``/dev/null``).  A sink is also where the paper's storage concern lives:
receivers must start writing as soon as data arrives (§II-A1), which every
sink here honours by consuming chunk-by-chunk.
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from typing import BinaryIO, Callable, Optional

from .errors import SinkError


class Sink:
    """Abstract chunk sink for receiving nodes.

    ``write_chunk`` receives any bytes-like buffer — in the real runtime
    it is a memoryview into a pooled receive buffer that is only valid
    *during* the call.  Sinks must consume the bytes before returning
    (write them out, hash them, or copy them); retaining the view would
    pin the pooled buffer indefinitely.  (The one sanctioned exception
    is :class:`~repro.core.stages.SinkWriter`, which takes its own
    memoryview export per queued chunk — see docs/PROTOCOL.md §10.)

    Storage failures raise :class:`~repro.core.errors.SinkError` (or an
    ``OSError`` such as ENOSPC from the filesystem); the runtime maps
    both to the §III-D hard-abort path.
    """

    def write_chunk(self, data) -> None:
        raise NotImplementedError

    def write_run(self, chunks) -> None:
        """Consume a run of consecutive chunks — a
        :class:`~repro.core.framing.Run` or a list — handed over once.

        The default writes chunk by chunk (a run makes each chunk's view
        as it is asked for); a sink that needs no bytes takes the run
        whole.  The chunks' views follow the rule of ``write_chunk``.
        """
        for chunk in chunks:
            self.write_chunk(chunk)

    def reserve(self) -> None:
        """Reserve the space this sink was told to expect, once.

        Called before the first byte — a receiving node calls it on its
        own thread as it starts — so that an out-of-space condition fails
        the node *early* instead of stranding a nearly-complete transfer.
        Later calls do nothing.  The default is a no-op; only sinks with
        a backing file can usefully reserve.
        """

    def finish(self) -> None:
        """Flush and close; called once after END (not after QUIT)."""

    def abort(self) -> None:
        """Tear down after a failed/interrupted transfer."""
        self.finish()

    def close(self) -> None:
        """Let go of OS resources the way a dying process does: nothing
        more is flushed, completed or removed (an injected node crash —
        neither ``finish`` nor ``abort`` will ever be called)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        else:
            self.abort()


class NullSink(Sink):
    """Discard data, counting bytes — the evaluation's ``/dev/null``."""

    def __init__(self) -> None:
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        self.bytes_written += len(data)

    def write_run(self, chunks) -> None:
        nbytes = getattr(chunks, "nbytes", None)  # a Run: no view made
        self.bytes_written += (sum(map(len, chunks)) if nbytes is None
                               else nbytes)


class FileSink(Sink):
    """Write the stream sequentially to a file path.

    When the total stream size is known up front (``expected_size``),
    the output is pre-sized with ``posix_fallocate`` before the first
    byte is written, so an out-of-space disk fails the node before it
    stores anything rather than at 90% — a half-written system image is
    the worst outcome for the Kadeploy use case.  The reservation is not
    made by whoever opens the sink but by the thread that writes it:
    in :meth:`reserve`, which a receiving node calls on its own thread
    as it starts (so every receiver reserves at once, as the head
    starts), or else in the first :meth:`write_chunk`.  Filesystems
    without fallocate support fall back silently to growing the file as
    written.

    Small chunks are gathered into writes of :attr:`BUFFER` bytes: at
    4 KiB a write is a copy, not a system call (and not a hand-over of
    the interpreter lock), so storing inline costs the relay next to
    nothing.  Chunks larger than the buffer go straight to the file.
    """

    BUFFER = 256 * 1024

    def __init__(
        self, path: str | os.PathLike, *, expected_size: Optional[int] = None
    ) -> None:
        self._path = os.fspath(path)
        self._file: Optional[BinaryIO] = open(self._path, "wb",
                                              buffering=self.BUFFER)
        self._preallocated = 0
        #: Still to reserve, before the first byte (0: nothing, or done).
        self._unreserved = expected_size or 0
        self.bytes_written = 0

    def reserve(self) -> None:
        size, self._unreserved = self._unreserved, 0
        if self._file is None or size <= 0:
            return
        try:
            os.posix_fallocate(self._file.fileno(), 0, size)
        except OSError as exc:
            # ENOSPC is the condition preallocation exists to surface —
            # let it abort the transfer now.  Everything else (tmpfs,
            # network filesystems: EOPNOTSUPP/EINVAL) means "can't
            # reserve here", which is fine — writes proceed unreserved.
            if exc.errno == errno.ENOSPC:
                raise
            return
        except AttributeError:  # platform without posix_fallocate
            return
        self._preallocated = size

    def write_chunk(self, data) -> None:
        assert self._file is not None
        if self._unreserved:
            self.reserve()
        self._file.write(data)
        self.bytes_written += len(data)

    def finish(self) -> None:
        if self._file is not None:
            if self._preallocated > self.bytes_written:
                # A reservation larger than the stream (aborted resend,
                # over-estimate) must not leave trailing garbage.
                self._file.truncate(self.bytes_written)
            self._file.close()
            self._file = None

    def abort(self) -> None:
        # Leave no half-written artifact behind: a partial system image is
        # worse than none (the Kadeploy use case).
        self.finish()
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class CommandSink(Sink):
    """Pipe the stream into a shell command's stdin (the ``-O`` option).

    A command that exits early (crash, ``tar`` rejecting the archive)
    closes its stdin pipe; the next write raises.  That raw
    ``BrokenPipeError`` is mapped to :class:`SinkError` so the runtime
    takes the §III-D hard-abort path with a reason naming the command,
    instead of leaking a pipe error out of the relay loop.
    """

    def __init__(self, command: str) -> None:
        # Imported here: only a node piping into a command needs it, and
        # an agent's start-up should not pay for it.
        import subprocess

        self._command = command
        self._proc = subprocess.Popen(
            command, shell=True, stdin=subprocess.PIPE
        )
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(data)
        except (BrokenPipeError, ValueError) as exc:
            # ValueError covers "write to closed file" after an earlier
            # failure already closed the pipe on our side.
            rc = self._proc.poll()
            raise SinkError(
                f"sink command {self._command!r} stopped accepting data"
                + (f" (exit status {rc})" if rc is not None else "")
            ) from exc
        self.bytes_written += len(data)

    def finish(self) -> None:
        try:
            if self._proc.stdin is not None and not self._proc.stdin.closed:
                self._proc.stdin.close()
        except BrokenPipeError:
            pass  # the exit status below is the authoritative verdict
        rc = self._proc.wait()
        if rc != 0:
            raise SinkError(f"sink command {self._command!r} exited with {rc}")

    def abort(self) -> None:
        try:
            if self._proc.stdin is not None and not self._proc.stdin.closed:
                self._proc.stdin.close()
        except BrokenPipeError:
            pass
        self._proc.wait()


class HashingSink(Sink):
    """Keep a SHA-256 digest of the stream, and discard it — or, given
    ``inner``, hand every call on to that sink.

    Bare, it is the integrity check of tests and benchmarks.  Wrapped
    round an agent's real sink, it gives the supervisor an end-to-end
    digest per node without shipping payload bytes over the control
    plane: survivors of a chaos run prove byte-exactness with one hex
    string.  Given ``hasher``, it goes on with that hash of what came
    before.
    """

    def __init__(self, inner: Optional[Sink] = None, *, hasher=None) -> None:
        self.inner = inner
        self._hash = hasher if hasher is not None else hashlib.sha256()
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        self._hash.update(data)
        self.bytes_written += len(data)
        if self.inner is not None:
            self.inner.write_chunk(data)

    def reserve(self) -> None:
        if self.inner is not None:
            self.inner.reserve()

    def finish(self) -> None:
        if self.inner is not None:
            self.inner.finish()

    def abort(self) -> None:
        if self.inner is not None:
            self.inner.abort()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class BufferSink(Sink):
    """Accumulate everything in memory — small tests only."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        self._parts.append(bytes(data))
        self.bytes_written += len(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ThrottledSink(Sink):
    """Model a *synchronous* storage device with a sustained write rate.

    Benchmarks need a reproducible storage device: page-cache writes
    absorb a 1 MiB/chunk stream at memory speed on one machine and at
    disk speed on another, which makes overlap wins unmeasurable.  Each
    write here blocks for the device's service time (``len/rate``), the
    way a blocking ``O_DIRECT``/``O_SYNC`` write does: the device makes
    progress only while the caller sits inside the call and idles between
    calls.  That is the device class §III-A's storage overlap targets —
    with a synchronous caller, wire time and device time *add*; with
    background writeback the device stays busy while the relay thread
    works the wire.

    (A wall-clock token bucket would be the wrong model: crediting time
    spent *between* writes simulates a device with its own command queue
    — storage that is already asynchronous — and the overlap being
    measured vanishes by construction.)

    Service debt below 1 ms carries forward, so small writes pace in
    ~1 ms steps instead of burning scheduler overhead on micro-sleeps.
    An injectable ``sleep`` keeps the unit tests instant.
    """

    def __init__(
        self,
        inner: Sink,
        bytes_per_s: float,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if bytes_per_s <= 0:
            raise ValueError(f"throttle rate must be positive: {bytes_per_s}")
        self._rate = float(bytes_per_s)
        self._inner = inner
        self._sleep = sleep
        self._debt = 0.0
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        self._debt += len(data) / self._rate
        if self._debt >= 0.001:
            self._sleep(self._debt)
            self._debt = 0.0
        self._inner.write_chunk(data)
        self.bytes_written += len(data)

    def reserve(self) -> None:
        self._inner.reserve()

    def finish(self) -> None:
        self._inner.finish()

    def abort(self) -> None:
        self._inner.abort()

    def close(self) -> None:
        self._inner.close()


def open_sink(
    output: Optional[str],
    output_command: Optional[str],
    *,
    expected_size: Optional[int] = None,
) -> Sink:
    """Open a sink from CLI options: ``-o path`` or ``-O command``.

    ``expected_size`` (when the head's source length is known) lets a
    file sink reserve the space before its first byte — see
    :class:`FileSink`.
    """
    if output is not None and output_command is not None:
        raise ValueError("give either an output path or an output command, not both")
    if output_command is not None:
        return CommandSink(output_command)
    if output is None or output == "/dev/null":
        return NullSink()
    return FileSink(output, expected_size=expected_size)
