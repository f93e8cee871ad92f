"""What a broadcast opens it closes, and what it maps it leaves warm.

Closing a stream is what hands its segments to the process-wide reserve
(:mod:`repro.core.buffers`), so a socket left to the garbage collector
is also memory kept from the next broadcast.  These tests run whole
in-process broadcasts — clean, mid-chain kill, head kill — and hold the
thread driver to both: no ``ResourceWarning``, and every byte the run
mapped is in the reserve once its threads are gone.
"""

import gc
import hashlib
import os
import sys
import threading
import time
import warnings

import pytest

from repro import run_broadcast
from repro.core import (
    FileSink,
    FileSource,
    HashingSink,
    KascadeConfig,
    PatternSource,
)
from repro.core import tracing
from repro.core.buffers import (
    DEFAULT_SEGMENT,
    RESERVE_BYTES,
    drain_reserve,
    reserve_bytes,
)
from repro.core.perfstats import get_stats
from repro.core.tracing import TraceCollector
from repro.core.units import MiB
from repro.runtime import CrashPlan
from repro.runtime.transport import SocketStream

RECEIVERS = ["n2", "n3", "n4", "n5"]
_RUNTIME_THREADS = ("accept-", "node-", "side-", "sink-writer-", "readahead-")


def _settle() -> None:
    """Wait for every thread the runtime started (an acceptor lets go of
    its node up to 0.1 s after the run returned), then collect."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(
            t.name.startswith(_RUNTIME_THREADS) for t in threading.enumerate()):
        time.sleep(0.01)
    gc.collect()


def _mapped() -> int:
    return get_stats().pool_bytes_mapped


@pytest.fixture
def strict():
    """``ResourceWarning`` is an error, also where only a finalizer can
    raise it: what ``__del__`` could not raise is collected here."""
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            drain_reserve()
            yield unraisable
            _settle()
    finally:
        sys.unraisablehook = hook
        drain_reserve()
    assert not unraisable, [str(u.exc_value) for u in unraisable]


@pytest.fixture
def payload(tmp_path):
    data = PatternSource(2 * MiB, seed=5).expected_bytes(0, 2 * MiB)
    path = tmp_path / "in.bin"
    path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _hashing(sinks):
    """A sink factory that hashes what each node got into ``sinks``."""
    def factory(name):
        sinks[name] = HashingSink()
        return sinks[name]
    return factory


@pytest.mark.parametrize("victim", [None, "n3", "n1"],
                         ids=["clean", "mid-chain-kill", "head-kill"])
def test_every_stream_is_closed_and_every_segment_kept(
        strict, payload, tmp_path, victim):
    path, digest = payload
    size = 2 * MiB
    config = KascadeConfig(chunk_size=64 * 1024)
    crashes = [CrashPlan(victim, size // 4)] if victim else []
    before = _mapped()
    with FileSource(path) as source:
        result = run_broadcast(
            source, RECEIVERS, backend="local", config=config,
            crashes=crashes, allow_head_chaos=victim == "n1",
            sink_factory=lambda n: FileSink(tmp_path / f"{n}.out",
                                            expected_size=size),
            timeout=60)
    assert result.ok, result.report.summary()
    for name in RECEIVERS:
        if name != victim:
            assert _sha256(tmp_path / f"{name}.out") == digest, name
    del result
    _settle()
    mapped = _mapped() - before
    assert 0 < mapped <= RESERVE_BYTES  # or the equality below says nothing
    assert reserve_bytes() == mapped


def test_a_repeated_broadcast_maps_nothing(strict, tmp_path):
    """The second of two identical broadcasts whose windows fit the
    reserve runs in the first one's memory.  The stream is shorter than
    the ring and the sinks are null, so every data segment and source
    block stays pinned to the end and how many a run needs does not
    depend on timing.  One control segment does: at ring closure the
    tail may map its own before or after the head's side of that
    connection has given one back."""
    size = 512 * 1024
    path = tmp_path / "in.bin"
    path.write_bytes(PatternSource(size, seed=5).expected_bytes(0, size))
    config = KascadeConfig(chunk_size=64 * 1024)
    mapped = []
    for _ in range(2):
        before = _mapped()
        with FileSource(path) as source:
            assert run_broadcast(source, RECEIVERS[:3], backend="local",
                                 config=config, timeout=60).ok
        _settle()
        mapped.append(_mapped() - before)
    assert 12 * DEFAULT_SEGMENT < mapped[0] <= RESERVE_BYTES
    assert mapped[1] in (0, DEFAULT_SEGMENT)


def test_a_receiver_window_of_one_mib_chunks_is_under_twenty_mib(strict):
    """Ring 8 + writeback ≤ 8 + in flight, each a segment of one frame:
    not the 2 MiB per 1 MiB chunk that doubling came to."""
    sinks = {}
    size = 40 * MiB
    before = _mapped()
    result = run_broadcast(PatternSource(size, seed=3), RECEIVERS[:2],
                           backend="local", sink_factory=_hashing(sinks),
                           timeout=60)
    assert result.ok
    want = hashlib.sha256(
        PatternSource(size, seed=3).expected_bytes(0, size)).hexdigest()
    assert {s.hexdigest() for s in sinks.values()} == {want}
    assert _mapped() - before <= 2 * 20 * MiB


def test_a_pget_hole_is_filled_from_the_file_that_was_opened(
        strict, tmp_path, monkeypatch):
    """The head serves a hole by ``read_range`` (no ``sendfile`` here)
    after the path was replaced under it: the receiver still gets the
    bytes of the file the broadcast started with."""
    monkeypatch.delattr(SocketStream, "cork_file")
    config = KascadeConfig(chunk_size=4096, buffer_chunks=1, io_timeout=0.25,
                           ping_timeout=0.2, connect_timeout=0.5,
                           report_timeout=8.0)
    size = config.chunk_size * 16
    original = PatternSource(size, seed=3).expected_bytes(0, size)
    path = tmp_path / "in.bin"
    path.write_bytes(original)
    sinks = {}
    with FileSource(path) as source:
        other = tmp_path / "other.bin"
        other.write_bytes(PatternSource(size, seed=4).expected_bytes(0, size))
        os.replace(other, path)
        result = run_broadcast(
            source, ["n2", "n3", "n4"], backend="local", config=config,
            crashes=[CrashPlan("n3", after_bytes=config.chunk_size * 6)],
            sink_factory=_hashing(sinks), trace=TraceCollector(), timeout=90)
    assert result.ok, result.report.summary()
    assert [e for e in result.trace.of_type(tracing.PGET) if e.node == "n1"]
    want = hashlib.sha256(original).hexdigest()
    assert sinks["n2"].hexdigest() == sinks["n4"].hexdigest() == want
