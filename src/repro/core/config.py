"""Kascade configuration.

Tunables of the tool described in the paper: chunk size, the in-memory ring
buffer that enables recovery after a node failure (§III-D2), and the timers
used for failure detection (§III-D1).  The defaults mirror what the paper
reports: detection timeouts of about one second ("every time a timeout is
reached, one second is lost", §IV-G).
"""

from __future__ import annotations

from typing import Optional

from .errors import ConfigError
from .record import Frozen
from .units import MiB

#: Runtime data planes selectable via :attr:`KascadeConfig.data_plane`.
DATA_PLANES = ("threaded", "evloop")


class KascadeConfig(Frozen):
    """Configuration shared by the real runtime and the simulator.

    Attributes
    ----------
    chunk_size:
        Size of one DATA chunk in bytes.  The stream is split into chunks so
        the total length need not be known in advance (§III-C).
    buffer_chunks:
        How many recent chunks each node keeps in its recycled ring buffer
        for retransmission after a downstream failure (§III-D2).
    io_timeout:
        Seconds a node waits on a stalled read/write before suspecting the
        peer is dead and starting the ping check.
    ping_timeout:
        Seconds to wait for an answer to the liveness ping before declaring
        the peer dead.
    connect_timeout:
        Seconds to wait when establishing a TCP connection to a peer.
    max_connect_attempts:
        How many consecutive downstream nodes may be skipped while looking
        for the next alive neighbour before giving up on the tail.
        ``None`` (the default) means unbounded — try every remaining node.
    report_timeout:
        Seconds the head waits for the final report from the tail node.
    verify_digest:
        When true, the head hashes the stream (SHA-256) and ships the
        digest in its report; every receiver hashes what it stored and
        flags a mismatch as its own failure.  End-to-end integrity at
        the cost of one hash pass per node.
    bandwidth_limit:
        Optional cap, in bytes/second, on the rate the head injects the
        stream into the pipeline (a token-bucket pacing its reads).
        ``None`` = unlimited.  Useful when the broadcast shares links
        with production traffic.
    sink_writeback_depth:
        How many chunks a receiver may queue for its background sink
        writer (§III-A overlap of storage with relay).  ``0`` disables
        the writer entirely: the relay writes synchronously, exactly as
        before the stage existed.
    sink_writeback_budget:
        Pinned-byte ceiling for the writeback queue.  Queued chunks are
        zero-copy views into pooled receive buffers up to this many
        bytes; past it the writer copies chunks so a slow disk cannot
        starve the receive pool.
    readahead_chunks:
        How many chunks the head prefetches from a blocking (file/pipe)
        source so reads overlap its vectored sends.  ``0`` disables
        prefetching.
    stripes:
        How many interleaved chains carry the stream.  ``1`` (default)
        is the classic single pipeline — the one-stripe case of the
        same run path, not a separate one.  With ``k > 1`` the stream is split round-robin over the
        chunk index into ``k`` stripes, each broadcast down its own
        chain (see :mod:`repro.core.plan`), with per-stripe ring
        buffers and recovery and an in-order merge at every sink.
    cache_bytes:
        Byte budget for the content-addressed chunk cache a long-lived
        fleet agent keeps across broadcast sessions
        (:mod:`repro.core.cache`; daemon backend only — one-shot
        backends tear their processes down, so there is nothing to
        cache into).  ``0`` disables caching; every session then pays
        full wire cost even for a repeated artifact.
    data_plane:
        Which runtime data plane executes the node I/O.  ``"threaded"``
        (the default and the conformance reference) runs one acceptor
        thread plus one main-loop thread per node over blocking sockets;
        ``"evloop"`` runs each node's entire data plane on a
        single-threaded ``selectors`` reactor with non-blocking sockets
        and — for pure relay nodes on Linux — an ``os.splice`` kernel
        path where forwarded payload bytes never enter Python between
        recv and send (see :mod:`repro.runtime.evloop`).  Only the real
        TCP backends (``local``/``procs``) consult this; the simulators
        have no sockets to drive.
    """

    __slots__ = ("chunk_size", "buffer_chunks", "io_timeout", "ping_timeout",
                 "connect_timeout", "max_connect_attempts", "report_timeout",
                 "verify_digest", "bandwidth_limit", "sink_writeback_depth",
                 "sink_writeback_budget", "readahead_chunks", "stripes",
                 "cache_bytes", "data_plane")

    def __init__(
        self,
        chunk_size: int = 1 * MiB,
        buffer_chunks: int = 8,
        io_timeout: float = 1.0,
        ping_timeout: float = 0.5,
        connect_timeout: float = 2.0,
        max_connect_attempts: Optional[int] = None,  # None = unbounded
        report_timeout: float = 30.0,
        verify_digest: bool = False,
        bandwidth_limit: Optional[float] = None,
        sink_writeback_depth: int = 8,  # 0 = synchronous sink writes
        sink_writeback_budget: int = 32 * MiB,
        readahead_chunks: int = 2,  # 0 = no head-node prefetch
        stripes: int = 1,  # 1 = single chain (the one-stripe case)
        cache_bytes: int = 256 * MiB,  # 0 = no cross-session chunk cache
        data_plane: str = "threaded",  # "threaded" | "evloop"
    ) -> None:
        self._init(chunk_size, buffer_chunks, io_timeout, ping_timeout,
                   connect_timeout, max_connect_attempts, report_timeout,
                   verify_digest, bandwidth_limit, sink_writeback_depth,
                   sink_writeback_budget, readahead_chunks, stripes,
                   cache_bytes, data_plane)
        if self.chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.buffer_chunks < 1:
            raise ConfigError(f"buffer_chunks must be >= 1, got {self.buffer_chunks}")
        for name in ("io_timeout", "ping_timeout", "connect_timeout", "report_timeout"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.max_connect_attempts is not None and self.max_connect_attempts < 0:
            raise ConfigError("max_connect_attempts must be >= 0 or None")
        if self.bandwidth_limit is not None and self.bandwidth_limit <= 0:
            raise ConfigError(
                f"bandwidth_limit must be positive, got {self.bandwidth_limit}"
            )
        for name in ("sink_writeback_depth", "sink_writeback_budget",
                     "readahead_chunks", "cache_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.stripes < 1:
            raise ConfigError(f"stripes must be >= 1, got {self.stripes}")
        if self.data_plane not in DATA_PLANES:
            raise ConfigError(
                f"data_plane must be one of {DATA_PLANES}, "
                f"got {self.data_plane!r}"
            )

    @property
    def buffer_bytes(self) -> int:
        """Total bytes of stream history a node can retransmit."""
        return self.chunk_size * self.buffer_chunks

    def with_(self, **kwargs) -> "KascadeConfig":
        """Return a copy with the given fields replaced."""
        return KascadeConfig(**{**self._asdict(), **kwargs})


#: Default configuration, matching the tool's out-of-the-box behaviour.
DEFAULT_CONFIG = KascadeConfig()
