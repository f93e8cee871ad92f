"""Tests for head-node sources and receiver sinks."""

import errno
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BufferSink,
    BytesSource,
    DataLossError,
    FileSource,
    HashingSink,
    NullSink,
    PatternSource,
    SourceKind,
    StreamSource,
    open_sink,
)
from repro.core.sinks import FileSink
from repro.core.sources import ResumeView, open_source


def drain(source, chunk=7):
    out = b""
    while True:
        piece = source.read_chunk(chunk)
        if not piece:
            return out
        out += piece


class TestBytesSource:
    def test_sequential_read(self):
        src = BytesSource(b"hello world")
        assert drain(src, 4) == b"hello world"

    def test_range_read(self):
        src = BytesSource(b"hello world")
        assert src.read_range(6, 5) == b"world"

    def test_range_beyond_end(self):
        src = BytesSource(b"abc")
        with pytest.raises(DataLossError):
            src.read_range(1, 5)

    def test_kind(self):
        assert BytesSource(b"").kind is SourceKind.SEEKABLE_FILE


class TestStreamSource:
    def test_not_seekable(self):
        src = StreamSource(io.BytesIO(b"data"))
        assert src.kind is SourceKind.STREAM
        with pytest.raises(DataLossError):
            src.read_range(0, 2)

    def test_sequential(self):
        src = StreamSource(io.BytesIO(b"streaming-data"))
        assert drain(src, 3) == b"streaming-data"


class TestFileSource:
    def test_read_and_range(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"0123456789" * 10)
        src = FileSource(p)
        assert src.size == 100
        assert src.read_chunk(10) == b"0123456789"
        # PGET-style range read must not disturb the sequential cursor.
        assert src.read_range(50, 5) == b"01234"
        assert src.read_chunk(5) == b"01234"
        src.close()

    def test_open_source_path(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"zz")
        with open_source(str(p)) as src:
            assert drain(src) == b"zz"

    @pytest.mark.parametrize("fate", ["replaced", "unlinked"])
    def test_every_read_is_of_the_file_that_was_opened(self, tmp_path, fate):
        """One descriptor serves the cursor, the ranges and a re-rooted
        head's ``ResumeView``: what happens to the *path* after the
        broadcast started changes nothing."""
        original = PatternSource(50_000, seed=1).expected_bytes(0, 50_000)
        p = tmp_path / "in.bin"
        p.write_bytes(original)
        src = FileSource(p)
        if fate == "replaced":
            other = tmp_path / "other.bin"
            other.write_bytes(PatternSource(50_000, seed=2)
                              .expected_bytes(0, 50_000))
            os.replace(other, p)
        else:
            os.unlink(p)
        assert src.read_chunk(1000) == original[:1000]
        assert src.read_range(30_000, 4096) == original[30_000:34_096]
        assert drain(ResumeView(src, 20_000), 4096) == original[20_000:]
        # None of which moved the sequential cursor.
        assert src.read_chunk(1000) == original[1000:2000]
        src.close()

    def test_blocks_are_views_of_pooled_segments(self, tmp_path):
        """A block pins its segment for as long as it is held, and a
        later read lands in another one; end of stream is ``b""``."""
        p = tmp_path / "in.bin"
        p.write_bytes(b"ab" * 8192)
        src = FileSource(p)
        first = src.read_chunk(8192)
        second = src.read_range(0, 8192)
        assert isinstance(first, memoryview) and first.readonly is False
        assert first.obj is not second.obj
        assert bytes(first) == bytes(second) == b"ab" * 4096
        assert src.read_chunk(8192) == b"ab" * 4096
        assert src.read_chunk(8192) == b""
        src.close()

    def test_range_past_the_end_is_data_loss(self, tmp_path):
        p = tmp_path / "in.bin"
        p.write_bytes(b"x" * 100)
        with FileSource(p) as src:
            with pytest.raises(DataLossError):
                src.read_range(90, 20)


class TestPatternSource:
    def test_size_respected(self):
        src = PatternSource(1000, seed=3)
        assert len(drain(src, 64)) == 1000

    def test_deterministic(self):
        a = drain(PatternSource(500, seed=1), 13)
        b = drain(PatternSource(500, seed=1), 64)
        assert a == b

    def test_seed_changes_content(self):
        a = drain(PatternSource(100, seed=1))
        b = drain(PatternSource(100, seed=2))
        assert a != b

    def test_range_matches_sequential(self):
        src = PatternSource(1000, seed=9)
        whole = drain(src, 37)
        fresh = PatternSource(1000, seed=9)
        assert fresh.read_range(123, 77) == whole[123:200]
        assert fresh.expected_bytes(0, 1000) == whole

    def test_range_beyond_size(self):
        with pytest.raises(DataLossError):
            PatternSource(10).read_range(5, 20)

    def test_zero_size(self):
        src = PatternSource(0)
        assert src.read_chunk(10) == b""

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PatternSource(-1)

    @given(size=st.integers(min_value=0, max_value=3000),
           off=st.integers(min_value=0, max_value=3000),
           n=st.integers(min_value=0, max_value=300),
           seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_any_range_consistent(self, size, off, n, seed):
        src = PatternSource(size, seed=seed)
        whole = src.expected_bytes(0, size)
        if off + n <= size:
            assert src.read_range(off, n) == whole[off:off + n]
        else:
            with pytest.raises(DataLossError):
                src.read_range(off, n)


class TestSinks:
    def test_null_sink_counts(self):
        sink = NullSink()
        sink.write_chunk(b"abc")
        sink.write_chunk(b"defg")
        assert sink.bytes_written == 7

    def test_buffer_sink(self):
        sink = BufferSink()
        sink.write_chunk(b"ab")
        sink.write_chunk(b"cd")
        assert sink.getvalue() == b"abcd"

    def test_hashing_sink(self):
        import hashlib
        sink = HashingSink()
        sink.write_chunk(b"hello")
        assert sink.hexdigest() == hashlib.sha256(b"hello").hexdigest()

    def test_file_sink_writes(self, tmp_path):
        p = tmp_path / "out.bin"
        with FileSink(p) as sink:
            sink.write_chunk(b"payload")
        assert p.read_bytes() == b"payload"

    def test_file_sink_abort_removes_partial(self, tmp_path):
        p = tmp_path / "out.bin"
        sink = FileSink(p)
        sink.write_chunk(b"partial")
        sink.abort()
        assert not p.exists()

    def test_open_sink_null(self):
        assert isinstance(open_sink(None, None), NullSink)
        assert isinstance(open_sink("/dev/null", None), NullSink)

    def test_open_sink_file(self, tmp_path):
        sink = open_sink(str(tmp_path / "f"), None)
        assert isinstance(sink, FileSink)
        sink.finish()

    def test_open_sink_both_rejected(self):
        with pytest.raises(ValueError):
            open_sink("path", "command")

    def test_command_sink(self, tmp_path):
        from repro.core import CommandSink
        out = tmp_path / "copy.bin"
        with CommandSink(f"cat > {out}") as sink:
            sink.write_chunk(b"via-pipe")
        assert out.read_bytes() == b"via-pipe"

    def test_command_sink_failure_raises(self):
        from repro.core import CommandSink, SinkError
        sink = CommandSink("exit 3")
        with pytest.raises(SinkError):
            sink.finish()

    def test_command_sink_broken_pipe_maps_to_sink_error(self):
        import time
        from repro.core import CommandSink, SinkError
        sink = CommandSink("exit 7")
        sink._proc.wait()  # ensure the command is gone before writing
        with pytest.raises(SinkError) as exc_info:
            # The pipe buffer can absorb small writes after child death;
            # keep writing until the kernel reports the broken pipe.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                sink.write_chunk(b"x" * 65536)
        assert "exit 7" in str(exc_info.value)
        assert "stopped accepting data" in str(exc_info.value)
        sink.abort()

    def test_file_sink_preallocate(self, tmp_path):
        p = tmp_path / "pre.bin"
        sink = FileSink(p, expected_size=4096)
        sink.write_chunk(b"abc")
        sink.finish()
        # The reservation beyond what was written must not survive.
        assert p.read_bytes() == b"abc"

    def test_file_sink_preallocate_unsupported_is_silent(self, tmp_path, monkeypatch):
        def refuse(fd, offset, length):
            raise OSError(errno.EOPNOTSUPP, "not supported")
        monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        p = tmp_path / "nofalloc.bin"
        with FileSink(p, expected_size=1 << 20) as sink:
            sink.write_chunk(b"data")
        assert p.read_bytes() == b"data"

    def test_file_sink_reservation_enospc_fails_the_first_write(
            self, tmp_path, monkeypatch):
        """Opening reserves nothing; the first write reserves, before its
        byte — and a full disk fails it with the file still empty."""
        calls = []

        def full(fd, offset, length):
            calls.append(length)
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        p = tmp_path / "full.bin"
        sink = FileSink(p, expected_size=1 << 20)
        assert calls == []
        with pytest.raises(OSError) as exc_info:
            sink.write_chunk(b"first")
        assert exc_info.value.errno == errno.ENOSPC
        assert calls == [1 << 20]
        assert p.read_bytes() == b""
        sink.abort()
        assert not p.exists()

    def test_throttled_sink_models_service_time(self):
        from repro.core import ThrottledSink
        sleeps = []
        inner = BufferSink()
        sink = ThrottledSink(inner, 1000.0, sleep=sleeps.append)
        # A synchronous device: every write costs its service time
        # in-call, so 300 kB at 1000 B/s blocks for 300 s total.
        for _ in range(300):
            sink.write_chunk(b"z" * 1000)
        sink.finish()
        assert inner.getvalue() == b"z" * 300000
        assert sum(sleeps) == pytest.approx(300.0)

    def test_throttled_sink_batches_sub_ms_service_debt(self):
        from repro.core import ThrottledSink
        sleeps = []
        sink = ThrottledSink(BufferSink(), 1_000_000.0, sleep=sleeps.append)
        # 100 B at 1 MB/s is 0.1 ms of service time — far below the 1 ms
        # sleep floor, so the debt must accumulate instead of micro-sleeping.
        for _ in range(30):
            sink.write_chunk(b"z" * 100)
        assert len(sleeps) == 3  # one ~1 ms sleep per 10 writes
        assert all(s >= 0.001 for s in sleeps)
        assert sum(sleeps) == pytest.approx(0.003)
