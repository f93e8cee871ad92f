"""Single-layer probes: one layer's public functions, called from
outside, timed on their own.

Every probe takes a time budget and returns one number.  A probe first
finds an iteration count that fills a quarter of its budget, then runs
that count three times and reports the median — so the number is a
median over equal work, whatever the budget.  Probes run in this one
thread, except the two transport hops, whose receiving end needs a
thread of its own.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Tuple

from repro.control.client import QuorumClient
from repro.control.replica import ReplicaServer
from repro.core import (
    BufferPool,
    ChunkCache,
    ChunkRingBuffer,
    Data,
    FileSink,
    FileSource,
    FrameDecoder,
    HashingSink,
    NullSink,
    StripeMergeSink,
    encode_header,
)
from repro.core.stages import ReadAheadSource, SinkWriter
from repro.runtime.transport import DATA_CONN, Listener, connect

from harness import MiB, Scratch, empty, median

KiB4 = 4096
REPS = 3


def _per_iteration(run: Callable[[int], float], budget_s: float) -> float:
    """Median seconds per iteration of ``run(n) -> seconds``."""
    slot = budget_s / (REPS + 1)
    n, took = 1, run(1)
    while took < slot / 8 and n < 1 << 26:
        n *= 4
        took = run(n)
    n = max(1, int(n * slot / took)) if took > 0 else n
    return median([run(n) / n for _ in range(REPS)])


def _loop(body: Callable[[], None]) -> Callable[[int], float]:
    def run(n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            body()
        return time.perf_counter() - t0
    return run


# -- core.framing --------------------------------------------------------

def framing_encode_ns(budget_s: float, _scratch: Scratch) -> float:
    msg = Data(1 << 30, KiB4)
    return _per_iteration(_loop(lambda: encode_header(msg)), budget_s) * 1e9


def framing_decode_4k_ns(budget_s: float, _scratch: Scratch) -> float:
    """``feed`` + ``try_pop`` per 4 KiB DATA frame, 64 frames a feed."""
    frames = 64
    blob = b"".join(encode_header(Data(i * KiB4, KiB4)) + bytes(KiB4)
                    for i in range(frames))
    decoder = FrameDecoder(pool=BufferPool())

    def body() -> None:
        decoder.feed(blob)
        while decoder.try_pop() is not None:
            pass

    return _per_iteration(_loop(body), budget_s) / frames * 1e9


def framing_decode_1m_mib_s(budget_s: float, _scratch: Scratch) -> float:
    """The socket-reader path: fill ``writable()`` as ``recv_into``
    would, commit with ``bytes_written``, pop the 1 MiB frame."""
    frame = encode_header(Data(0, MiB)) + bytes(MiB)
    decoder = FrameDecoder(pool=BufferPool())

    def body() -> None:
        sent = 0
        while sent < len(frame):
            view = decoder.writable()
            take = min(len(view), len(frame) - sent)
            view[:take] = frame[sent:sent + take]
            view.release()
            decoder.bytes_written(take)
            sent += take
            while decoder.try_pop() is not None:
                pass

    return 1.0 / _per_iteration(_loop(body), budget_s)


# -- core.chunkstore -----------------------------------------------------

def chunkstore_append_4k_ns(budget_s: float, _scratch: Scratch) -> float:
    """``append`` at steady-state eviction (the ring is already full)."""
    ring = ChunkRingBuffer(64 * KiB4)
    chunk = bytes(KiB4)
    for _ in range(128):
        ring.append(chunk)
    return _per_iteration(_loop(lambda: ring.append(chunk)), budget_s) * 1e9


def chunkstore_replay_mib_s(budget_s: float, _scratch: Scratch) -> float:
    """``iter_chunks_from`` over a full ring of eight 1 MiB chunks."""
    ring = ChunkRingBuffer(8 * MiB)
    for _ in range(8):
        ring.append(memoryview(bytes(MiB)))

    def body() -> None:
        for _offset, _chunk in ring.iter_chunks_from(ring.min_offset):
            pass

    return 8.0 / _per_iteration(_loop(body), budget_s)


# -- runtime.transport ---------------------------------------------------

def _hop(frame_bytes: int, burst: int, budget_s: float) -> float:
    """Seconds per frame over one loopback ``SocketStream`` hop.

    The sender corks ``burst`` frames and flushes them with one vectored
    send, as the relay does; the clock stops when the receiver has
    popped the last frame.
    """
    listener = Listener()
    payload = memoryview(bytes(frame_bytes))
    msg = Data(0, frame_bytes)
    accepted: list = []
    acceptor = threading.Thread(
        target=lambda: accepted.append(listener.accept(5.0)[1]))
    acceptor.start()
    sender = connect(listener.address, DATA_CONN, 5.0)
    acceptor.join()
    receiver = accepted[0]

    def run(n: int) -> float:
        def drain() -> None:
            for _ in range(n):
                receiver.recv_message(10.0)

        reader = threading.Thread(target=drain)
        t0 = time.perf_counter()
        reader.start()
        for i in range(n):
            sender.send_message(msg, payload, timeout=10.0,
                                flush=(i + 1) % burst == 0 or i + 1 == n)
        reader.join()
        return time.perf_counter() - t0

    try:
        return _per_iteration(run, budget_s)
    finally:
        sender.close()
        receiver.close()
        listener.close()


def transport_hop_4k_frames_s(budget_s: float, _scratch: Scratch) -> float:
    return 1.0 / _hop(KiB4, 16, budget_s)


def transport_hop_1m_mib_s(budget_s: float, _scratch: Scratch) -> float:
    return 1.0 / _hop(MiB, 1, budget_s)


# -- core.sinks / core.sources / core.stages ------------------------------

def sinks_sha256_mib_s(budget_s: float, _scratch: Scratch) -> float:
    sink, chunk = HashingSink(), bytes(MiB)
    return 1.0 / _per_iteration(_loop(lambda: sink.write_chunk(chunk)),
                                budget_s)


_FILE_MIB = 16


def _file_write(chunk_bytes: int, budget_s: float, scratch: Scratch) -> float:
    """Seconds per chunk written through a ``FileSink`` (16 MiB files,
    pre-sized, finished; the next open truncates)."""
    path = scratch.path("probe-write.bin")
    chunk = bytes(chunk_bytes)
    per_file = _FILE_MIB * MiB // chunk_bytes

    def run(n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            sink = FileSink(path, expected_size=_FILE_MIB * MiB)
            for _ in range(per_file):
                sink.write_chunk(chunk)
            sink.finish()
        return time.perf_counter() - t0

    try:
        return _per_iteration(run, budget_s) / per_file
    finally:
        empty(path)


def sinks_file_write_1m_mib_s(budget_s: float, scratch: Scratch) -> float:
    return 1.0 / _file_write(MiB, budget_s, scratch)


def sinks_file_write_4k_us(budget_s: float, scratch: Scratch) -> float:
    return _file_write(KiB4, budget_s, scratch) * 1e6


def _file_read(chunk_bytes: int, readahead: bool, budget_s: float,
               scratch: Scratch) -> float:
    """Seconds per chunk read from a 16 MiB file held in memory."""
    path = scratch.path("probe-read.bin")
    with open(path, "wb") as f:
        f.write(bytes(_FILE_MIB * MiB))
    per_file = _FILE_MIB * MiB // chunk_bytes

    def run(n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            source = FileSource(path)
            if readahead:
                source = ReadAheadSource(source, depth=2)
            while source.read_chunk(chunk_bytes):
                pass
            source.close()
        return time.perf_counter() - t0

    try:
        return _per_iteration(run, budget_s) / per_file
    finally:
        empty(path)


def sources_file_read_1m_mib_s(budget_s: float, scratch: Scratch) -> float:
    return 1.0 / _file_read(MiB, False, budget_s, scratch)


def stages_readahead_1m_mib_s(budget_s: float, scratch: Scratch) -> float:
    return 1.0 / _file_read(MiB, True, budget_s, scratch)


def stages_readahead_4k_us(budget_s: float, scratch: Scratch) -> float:
    return _file_read(KiB4, True, budget_s, scratch) * 1e6


def _sinkwriter(chunk_bytes: int, budget_s: float) -> float:
    """Seconds per chunk through a ``SinkWriter`` over a ``NullSink``:
    the hand-off to the writeback thread and nothing else."""
    chunk = memoryview(bytes(chunk_bytes))
    batch = 16 * MiB // chunk_bytes

    def run(n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            writer = SinkWriter(NullSink(), depth=8)
            for _ in range(batch):
                writer.write_chunk(chunk)
            writer.finish()
        return time.perf_counter() - t0

    return _per_iteration(run, budget_s) / batch


def stages_sinkwriter_1m_mib_s(budget_s: float, _scratch: Scratch) -> float:
    return 1.0 / _sinkwriter(MiB, budget_s)


def stages_sinkwriter_4k_us(budget_s: float, _scratch: Scratch) -> float:
    return _sinkwriter(KiB4, budget_s) * 1e6


# -- core.cache / core.stripes --------------------------------------------

def _cache() -> Tuple[ChunkCache, memoryview]:
    # A memoryview, as the relay hands over: ``put`` copies it.
    cache, chunk = ChunkCache(32 * MiB), memoryview(bytes(MiB))
    for i in range(32):
        cache.put("probe", i, chunk)
    return cache, chunk


def cache_put_1m_mib_s(budget_s: float, _scratch: Scratch) -> float:
    """``put`` into a full cache: every insert copies and evicts one."""
    cache, chunk = _cache()
    counter = iter(range(32, 1 << 40))
    return 1.0 / _per_iteration(
        _loop(lambda: cache.put("probe", next(counter), chunk)), budget_s)


def cache_get_1m_mib_s(budget_s: float, _scratch: Scratch) -> float:
    cache, _chunk = _cache()
    counter = iter(range(1 << 40))
    return 1.0 / _per_iteration(
        _loop(lambda: cache.get("probe", next(counter) % 32)), budget_s)


def stripes_merge_k4_mib_s(budget_s: float, _scratch: Scratch) -> float:
    """Four stripe ports fed round-robin into one in-order merge
    (which copies each chunk it queues)."""
    chunk = memoryview(bytes(MiB))

    def run(n: int) -> float:
        merger = StripeMergeSink(NullSink(), 4, MiB)
        ports = [merger.port(j) for j in range(4)]
        t0 = time.perf_counter()
        for g in range(n):
            ports[g % 4].write_chunk(chunk)
        took = time.perf_counter() - t0
        for port in ports:
            port.abort()
        return took

    return 1.0 / _per_iteration(run, budget_s)


# -- control --------------------------------------------------------------

def _quorum(probe: Callable[[QuorumClient], Callable[[], None]],
            budget_s: float) -> float:
    replicas = [ReplicaServer(name=f"probe:{i}") for i in range(3)]
    client = None
    try:
        client = QuorumClient([r.start() for r in replicas])
        return _per_iteration(_loop(probe(client)), budget_s) * 1e3
    finally:
        if client is not None:
            # ``quit`` makes each replica close its own listening socket,
            # so ``stop`` below does not sit out the accept poll.
            client.shutdown_replicas()
            client.close()
        for replica in replicas:
            replica.stop()


def control_commit_ms(budget_s: float, _scratch: Scratch) -> float:
    """One Paxos commit against three in-thread replicas."""
    def probe(client: QuorumClient) -> Callable[[], None]:
        counter = iter(range(1 << 40))
        return lambda: client.commit({"kind": "watermark", "node": "n2",
                                      "bytes": next(counter)})
    return _quorum(probe, budget_s)


def control_read_state_ms(budget_s: float, _scratch: Scratch) -> float:
    def probe(client: QuorumClient) -> Callable[[], None]:
        client.commit({"kind": "watermark", "node": "n2", "bytes": 1})
        return client.read_state
    return _quorum(probe, budget_s)


# -- cli ------------------------------------------------------------------

def cli_import_s(budget_s: float, _scratch: Scratch) -> float:
    """Wall time of ``kascade --help``: interpreter start plus imports."""
    from workloads import program_env

    env = program_env()

    def once() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro.cli.kascade", "--help"],
                       env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=60.0, check=True)
        return time.perf_counter() - t0

    first = once()
    extra = min(REPS - 1, int(budget_s / first)) if first > 0 else 0
    return median([first] + [once() for _ in range(extra)])


#: name -> (unit, better, probe)
PROBES: Dict[str, Tuple[str, str, Callable[[float, Scratch], float]]] = {
    "core.framing.encode_ns": ("ns", "lower", framing_encode_ns),
    "core.framing.decode_4k_ns": ("ns", "lower", framing_decode_4k_ns),
    "core.framing.decode_1m_mib_s": ("MiB/s", "higher", framing_decode_1m_mib_s),
    "core.chunkstore.append_4k_ns": ("ns", "lower", chunkstore_append_4k_ns),
    "core.chunkstore.replay_mib_s": ("MiB/s", "higher", chunkstore_replay_mib_s),
    "runtime.transport.hop_4k_frames_s": ("1/s", "higher",
                                          transport_hop_4k_frames_s),
    "runtime.transport.hop_1m_mib_s": ("MiB/s", "higher", transport_hop_1m_mib_s),
    "core.sinks.sha256_mib_s": ("MiB/s", "higher", sinks_sha256_mib_s),
    "core.sinks.file_write_1m_mib_s": ("MiB/s", "higher",
                                       sinks_file_write_1m_mib_s),
    "core.sinks.file_write_4k_us": ("us", "lower", sinks_file_write_4k_us),
    "core.sources.file_read_1m_mib_s": ("MiB/s", "higher",
                                        sources_file_read_1m_mib_s),
    "core.stages.readahead_1m_mib_s": ("MiB/s", "higher",
                                       stages_readahead_1m_mib_s),
    "core.stages.readahead_4k_us": ("us", "lower", stages_readahead_4k_us),
    "core.stages.sinkwriter_1m_mib_s": ("MiB/s", "higher",
                                        stages_sinkwriter_1m_mib_s),
    "core.stages.sinkwriter_4k_us": ("us", "lower", stages_sinkwriter_4k_us),
    "core.cache.put_1m_mib_s": ("MiB/s", "higher", cache_put_1m_mib_s),
    "core.cache.get_1m_mib_s": ("MiB/s", "higher", cache_get_1m_mib_s),
    "core.stripes.merge_k4_mib_s": ("MiB/s", "higher", stripes_merge_k4_mib_s),
    "control.commit_ms": ("ms", "lower", control_commit_ms),
    "control.read_state_ms": ("ms", "lower", control_read_state_ms),
    "cli.import_s": ("s", "lower", cli_import_s),
}
