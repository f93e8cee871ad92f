"""A head that keeps nothing: at chunks of 64 KiB or more, from a file,
without a digest, the head reads no payload byte — each chunk's frame
leaves by ``os.sendfile`` and a replay comes from the file — and a file
truncated under the run is the source's fault, not a peer's."""

import errno
import hashlib
import os
import socket

import pytest

from repro import run_broadcast
from repro.core import BufferSink, FileSource, KascadeConfig, PatternSource
from repro.core.errors import DataLossError
from repro.core.messages import Data
from repro.core.perfstats import PerfStats
from repro.core.tracing import FAILOVER, QUIT
from repro.runtime import transport
from repro.runtime.transport import HAS_SENDFILE, SocketStream

pytestmark = pytest.mark.skipif(not HAS_SENDFILE,
                                reason="os.sendfile unavailable")

MiB = 1 << 20
CFG = KascadeConfig(chunk_size=MiB, buffer_chunks=8, io_timeout=0.5,
                    ping_timeout=0.3, connect_timeout=1.0, report_timeout=8.0)


@pytest.fixture
def payload(tmp_path):
    size = 6 * MiB
    path = tmp_path / "in.bin"
    path.write_bytes(PatternSource(size, seed=5).expected_bytes(0, size))
    return path, size


def _broadcast(path, config, **kwargs):
    sinks = {}

    def sink_factory(name):
        sinks[name] = BufferSink()
        return sinks[name]

    with kwargs.pop("source", None) or FileSource(path) as source:
        result = run_broadcast(source, ["n2", "n3"], backend="local",
                               config=config, sink_factory=sink_factory,
                               trace=True, timeout=60.0, **kwargs)
    return result, sinks


class TestThePathIsChosenByTheRule:
    def test_without_a_digest_every_payload_byte_leaves_by_sendfile(
            self, payload, monkeypatch):
        """After a warm-up, the head maps no segment and moves the
        stream by ``sendfile``, each byte once; with ``verify_digest``
        the same broadcast reads it and moves none that way."""
        path, size = payload
        _broadcast(path, CFG)  # warm-up
        moved, segments = [], []
        real_sendfile, real_segment = os.sendfile, FileSource._segment

        def counting_sendfile(out_fd, in_fd, offset, count):
            n = real_sendfile(out_fd, in_fd, offset, count)
            moved.append(n)
            return n

        def counting_segment(self, want):
            segments.append(want)
            return real_segment(self, want)

        monkeypatch.setattr(os, "sendfile", counting_sendfile)
        monkeypatch.setattr(FileSource, "_segment", counting_segment)
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        for verify in (False, True):
            moved.clear()
            segments.clear()
            result, sinks = _broadcast(path, CFG.with_(verify_digest=verify))
            assert result.ok, result.outcomes
            assert {hashlib.sha256(s.getvalue()).hexdigest()
                    for s in sinks.values()} == {want}
            if verify:
                assert moved == [] and result.perfstats["syscalls_sendfile"] == 0
                assert segments  # the hashing head reads into its segments
            else:
                assert sum(moved) == size
                assert result.perfstats["syscalls_sendfile"] == len(moved)
                assert segments == []

    def test_small_chunks_and_patterns_keep_reading(self, payload):
        """Below a quarter segment, or from a source with no descriptor,
        the head reads its runs as before."""
        path, size = payload
        for config, source in ((CFG.with_(chunk_size=16 * 1024), None),
                               (CFG, PatternSource(size, seed=5))):
            result, _sinks = _broadcast(path, config, source=source)
            assert result.ok
            assert result.perfstats["syscalls_sendfile"] == 0


class _Shrinking(FileSource):
    """A file source whose file is cut to ``keep`` bytes (same inode) as
    the head moves past ``after`` bytes — on either head path."""

    def __init__(self, path, *, after, keep):
        super().__init__(path)
        self._after, self._keep = after, keep

    def _maybe_cut(self):
        if self._pos >= self._after and self._keep is not None:
            os.truncate(self.path, self._keep)
            self._keep = None

    def skip(self, size):
        self._maybe_cut()
        return super().skip(size)

    def read_run(self, chunk_size, count):
        self._maybe_cut()
        return super().read_run(chunk_size, count)


class TestATruncatedSourceIsTheSourcesFault:
    @pytest.mark.parametrize("verify", [False, True],
                             ids=["sendfile", "read"])
    def test_the_head_ends_with_a_source_error_and_blames_nobody(
            self, payload, verify):
        """The file loses its tail mid-run: the head QUITs the chain
        with a source error; no FAILOVER is traced and no receiver is
        declared dead — nor is one left waiting out a timeout."""
        path, _size = payload
        source = _Shrinking(path, after=2 * MiB, keep=MiB)
        result, _sinks = _broadcast(path, CFG.with_(verify_digest=verify),
                                    source=source)
        assert not result.ok
        head = result.outcomes["n1"]
        assert head.error.startswith("source failure: "), head.error
        assert result.trace.of_type(FAILOVER) == []
        assert result.report.failed_nodes == []
        assert not any(o.crashed for o in result.outcomes.values())
        assert [e.node for e in result.trace.of_type(QUIT)
                if e.node == "n1"] == ["n1"]
        assert result.duration < CFG.report_timeout

    def test_a_frame_the_file_cannot_finish_is_a_source_error(self, tmp_path):
        """Cut after its header was queued, a file frame fails at the
        flush with :class:`DataLossError` — not a ``ConnectionError``,
        which would read as a dead peer — and cut before, at the cork,
        with nothing queued."""
        path = tmp_path / "in.bin"
        path.write_bytes(bytes(4 * MiB))
        a, b = socket.socketpair()
        sender = SocketStream(a, stats=PerfStats())
        b.setblocking(False)
        try:
            with FileSource(path) as src:
                sender.cork_file(Data(0, 2 * MiB), src, 0)
                os.truncate(path, MiB)
                with pytest.raises(DataLossError, match="short of the frame"):
                    while True:  # drain the peer until the file runs out
                        try:
                            sender.flush_pending(timeout=0.05)
                        except transport.WriteStalled:
                            pass
                        try:
                            while b.recv(1 << 20):
                                pass
                        except OSError as exc:
                            assert exc.errno in (errno.EAGAIN,
                                                 errno.EWOULDBLOCK)
                assert sender.pending_bytes > 0  # the frame is spoilt
            c, d = socket.socketpair()
            with FileSource(path) as src, SocketStream(c) as fresh:
                with pytest.raises(DataLossError):
                    fresh.cork_file(Data(0, 2 * MiB), src, 0)
                assert fresh.pending_bytes == 0
            d.close()
        finally:
            sender.close()
            b.close()
