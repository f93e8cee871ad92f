"""The eight perfbench workloads.

Each workload is one closed-loop client: ``op`` is the timed call into
the program, ``check`` is the benchmark's own verification of what the
op delivered (run after the clock stopped), ``slices`` turns one traced
op into per-layer numbers.  The program only ever sees generated
inputs: payload bytes come from ``PatternSource(seed)``.

Why each workload exists is recorded next to it and repeated in
``README.md``.  ``BENCHMARK.json`` names the four the driver runs
(``bulk_threaded``, ``small_threaded``, ``deploy_cli``, ``fault_pair``);
README, "Workloads", says why those and not all eight.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from repro import run_broadcast
from repro.baselines import KascadeSim
from repro.baselines.base import SimSetup
from repro.core import (
    FileSink,
    FileSource,
    HashingSink,
    KascadeConfig,
    NullSink,
    PatternSource,
)
from repro.core.perfstats import get_stats
from repro.core.tracing import (
    CHUNK,
    DONE,
    ELECTION,
    FAILOVER,
    SESSION,
    TraceCollector,
)
from repro.daemon import DaemonServer
from repro.protosim.broadcast import ProtoBroadcast
from repro.runtime import CrashPlan
from repro.topology import build_fat_tree

from harness import (
    OP_TIMEOUT_S,
    WARM_UP,
    Check,
    MiB,
    Scratch,
    empty,
    median,
    payload_digest,
    reaped_children_cpu,
    sha256_file,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def program_env() -> Dict[str, str]:
    """This process's environment with the program importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env

#: Big enough for one CHUNK event per 4 KiB frame per node of the small
#: workloads (the collector's default ring would drop the early ones).
TRACE_CAPACITY = 1 << 20


def _tracer(trace: bool) -> Optional[TraceCollector]:
    return TraceCollector(capacity=TRACE_CAPACITY) if trace else None


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Workload:
    """Base: a scratch directory, a seed and a payload scale."""

    name = ""
    #: One line on why the workload exists (``BENCHMARK.json`` repeats it).
    why = ""
    #: Receiver deliveries one op attempts.
    deliveries = 0
    #: Payload bytes of one op, the numerator of ``goodput_mib_s``.
    payload_bytes = 0

    def __init__(self, scratch: Scratch, seed: int, smoke: bool) -> None:
        self.scratch = scratch
        self.seed = seed
        #: Per-layer numbers set-up and tear-down produce themselves.
        self.layer: Dict[str, float] = {}
        #: Set for the traced pass, whose ops must return what they ran
        #: (``deploy_cli`` then calls the backend the CLI wraps).
        self.traced_pass = False

    def path(self, name: str) -> str:
        return self.scratch.path(name)

    def setup(self) -> None:
        """Make the inputs from the seed; build whatever outlives an op."""

    def teardown(self) -> None:
        """Undo ``setup`` (so set-up can be timed more than once)."""

    def close(self) -> None:
        """Stop whatever processes the workload still owns — called on
        every way out of a run, so it must be safe to call twice."""

    def op(self, index: int, *, trace: bool):
        raise NotImplementedError

    def check(self, raw, index: int) -> Check:
        raise NotImplementedError

    def slices(self, raw, wall_s: float) -> Dict[str, float]:
        """Per-layer numbers from one traced op."""
        return {}

    def extra_traced(self, spans) -> Dict[str, float]:
        """Traced-pass-only ops that belong to no timed op."""
        return {}

    # -- shared verification --------------------------------------------

    def _check_files(self, check: Check, index: int, digest: str,
                     paths: Dict[str, str]) -> None:
        """Hash each receiver's output, then give its memory back."""
        for node, path in paths.items():
            got = sha256_file(path)
            if got != digest:
                check.breach(f"op {index}: {node} output digest "
                             f"{(got or 'missing')[:12]} != {digest[:12]}")
            empty(path)


# ----------------------------------------------------------------------
# Trace slicing shared by every workload that runs a real chain
# ----------------------------------------------------------------------

def chain_slices(events: Sequence, tail: str, wall_s: float) -> Dict[str, float]:
    """Partition one broadcast's wall time at the tail's CHUNK events.

    start-up (op start → first CHUNK at the tail), stream (first → last
    CHUNK at the tail), ring close (last CHUNK at the tail → last DONE),
    tear-down (last DONE → return).  The four sum to ``wall_s``.
    """
    at_tail = [e.t for e in events if e.type == CHUNK and e.node == tail]
    dones = [e.t for e in events if e.type == DONE]
    if not at_tail or not dones:
        return {}
    first, last, done = min(at_tail), max(at_tail), max(dones)
    return {
        "session.startup_s": first,
        "runtime.stream_s": last - first,
        "runtime.ring_close_s": max(0.0, done - last),
        "session.teardown_s": max(0.0, wall_s - done),
    }


def hop_lag_ms(events: Sequence, near: str, far: str) -> float:
    """Median delay between a chunk landing on ``near`` and on ``far``."""
    seen_near = {e.offset: e.t for e in events
                 if e.type == CHUNK and e.node == near}
    lags = [e.t - seen_near[e.offset] for e in events
            if e.type == CHUNK and e.node == far and e.offset in seen_near]
    step = max(1, len(lags) // 256)
    return median(lags[::step]) * 1e3


def perfstat_ratios(stats: Dict[str, float], stream_mib: float) -> Dict[str, float]:
    """The copy/syscall shape of one run, as ratios."""
    syscalls = (stats.get("syscalls_recv", 0) + stats.get("syscalls_send", 0)
                + stats.get("syscalls_sendfile", 0)
                + stats.get("splice_syscalls", 0))
    sends = stats.get("syscalls_send", 0) + stats.get("syscalls_sendfile", 0)
    moved = (stats.get("bytes_received", 0) + stats.get("bytes_sent", 0)
             + stats.get("splice_bytes", 0))
    pool = stats.get("pool_allocations", 0) + stats.get("pool_reuses", 0)
    reads = stats.get("readahead_hits", 0) + stats.get("readahead_misses", 0)
    return {
        "runtime.syscalls_per_mib": _share(syscalls, stream_mib),
        "runtime.frames_per_syscall": _share(stats.get("frames_sent", 0), sends),
        "runtime.copied_share": _share(stats.get("payload_bytes_copied", 0),
                                       stats.get("bytes_received", 0)),
        "core.buffers.pool_reuse_share": _share(stats.get("pool_reuses", 0), pool),
        "runtime.splice_share": _share(stats.get("splice_bytes", 0), moved),
        "runtime.reactor_wakeups_per_mib": _share(
            stats.get("reactor_wakeups", 0), stream_mib),
        "runtime.evloop_stall_s": float(stats.get("evloop_stall_s", 0.0)),
        "core.stages.sink_stall_s": float(stats.get("sink_stall_s", 0.0)),
        "core.stages.writeback_hwm": float(stats.get("writeback_queue_hwm", 0)),
        "core.stages.readahead_hit_share": _share(
            stats.get("readahead_hits", 0), reads),
    }


# ----------------------------------------------------------------------
# bulk_*: bytes dominate
# ----------------------------------------------------------------------

class _LocalChain(Workload):
    """One ``run_broadcast(backend="local")`` down n1 → n2 → n3 → n4."""

    receivers = ("n2", "n3", "n4")
    deliveries = 3
    plane = "threaded"
    config = KascadeConfig()

    def _run(self, source, sink_factory, trace: bool):
        return run_broadcast(
            source, list(self.receivers), backend="local",
            config=self.config, data_plane=self.plane,
            sink_factory=sink_factory, trace=_tracer(trace),
            timeout=OP_TIMEOUT_S,
        )

    def slices(self, raw, wall_s: float) -> Dict[str, float]:
        events = raw.trace.events()
        out = chain_slices(events, self.receivers[-1], wall_s)
        out["runtime.hop_lag_ms"] = hop_lag_ms(
            events, self.receivers[0], self.receivers[-1])
        out.update(perfstat_ratios(raw.perfstats, self.payload_bytes / MiB))
        return out

    def extra_traced(self, spans) -> Dict[str, float]:
        """On the event-loop plane only: one pure-relay op (1 MiB
        chunks, null sinks, no digest) — the kernel splice path that
        the real sinks of ``bulk_evloop`` keep the relay off."""
        if self.plane != "evloop":
            return {}
        size = self.payload_bytes
        with spans.span("relay_null"):
            t0 = time.perf_counter()
            result = run_broadcast(
                PatternSource(size, seed=self.seed), list(self.receivers),
                config=KascadeConfig(chunk_size=MiB), data_plane="evloop",
                timeout=OP_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
        if not result.ok:
            return {}
        ratios = perfstat_ratios(result.perfstats, size / MiB)
        return {
            "runtime.evloop.relay_null_mib_s": size / MiB / wall,
            "runtime.evloop.relay_splice_share": ratios["runtime.splice_share"],
        }


class Bulk(_LocalChain):
    """File → three ``FileSink``s in 1 MiB chunks with digests on:
    kernel copies, SHA-256, read-ahead and sink writeback do the work;
    per-frame Python is noise."""

    config = KascadeConfig(chunk_size=MiB, verify_digest=True)

    def __init__(self, scratch, seed, smoke):
        super().__init__(scratch, seed, smoke)
        self.payload_bytes = (4 if smoke else 128) * MiB

    def setup(self) -> None:
        self.digest = payload_digest(self.payload_bytes, self.seed,
                                     self.path("in.bin"))

    def teardown(self) -> None:
        empty(self.path("in.bin"))

    def _out(self, node: str) -> str:
        return self.path(f"{node}.out")

    def op(self, index, *, trace):
        size = self.payload_bytes
        return self._run(
            FileSource(self.path("in.bin")),
            lambda node: FileSink(self._out(node), expected_size=size),
            trace,
        )

    def check(self, raw, index) -> Check:
        check = Check(self.deliveries)
        if not raw.ok:
            check.breach(f"op {index}: result not ok "
                         f"({raw.report.summary()})", self.deliveries)
        self._check_files(check, index, self.digest,
                          {n: self._out(n) for n in self.receivers})
        return check


class BulkThreaded(Bulk):
    name = "bulk_threaded"
    plane = "threaded"
    why = ("Bytes dominate, frames are few: copies, SHA-256, read-ahead "
           "and writeback set the rate. A storage or copy optimisation "
           "moves this and not small_*.")


class BulkEvloop(Bulk):
    name = "bulk_evloop"
    plane = "evloop"
    why = ("The bulk_threaded traffic through the other protocol "
           "implementation (runtime.evloop, userspace path): merging the "
           "two planes must hold both level.")


# ----------------------------------------------------------------------
# small_*: frames dominate
# ----------------------------------------------------------------------

class Small(_LocalChain):
    """Memory → null sinks in 4 KiB chunks.  Timed and traced ops use
    null sinks (so the event loop keeps its relay path, and no
    writeback thread joins in) and are checked by ``ok`` plus byte
    counts; the warm-up op hashes what every receiver got."""

    config = KascadeConfig(chunk_size=4096, buffer_chunks=64)

    def __init__(self, scratch, seed, smoke):
        super().__init__(scratch, seed, smoke)
        self.payload_bytes = (4 if smoke else 16) * MiB

    def setup(self) -> None:
        self.digest = payload_digest(self.payload_bytes, self.seed)

    def op(self, index, *, trace):
        sinks: Dict[str, HashingSink] = {}

        def factory(node: str):
            if index != WARM_UP:
                return NullSink()
            sinks[node] = HashingSink()
            return sinks[node]

        result = self._run(PatternSource(self.payload_bytes, seed=self.seed),
                           factory, trace)
        return result, sinks

    def check(self, raw, index) -> Check:
        result, sinks = raw
        check = Check(self.deliveries)
        if not result.ok:
            check.breach(f"op {index}: result not ok "
                         f"({result.report.summary()})", self.deliveries)
        for node in self.receivers:
            outcome = result.outcomes.get(node)
            got = outcome.bytes_received if outcome else -1
            if got != self.payload_bytes:
                check.breach(f"op {index}: {node} received {got} of "
                             f"{self.payload_bytes} bytes")
            elif index == WARM_UP and (node not in sinks
                            or sinks[node].hexdigest() != self.digest):
                check.breach(f"op {index}: {node} content digest mismatch")
        return check

    def slices(self, raw, wall_s):
        return super().slices(raw[0], wall_s)


class SmallThreaded(Small):
    name = "small_threaded"
    plane = "threaded"
    why = ("Frames dominate (4 KiB chunks), storage is idle: bare "
           "forwarding where framing, the chunk ring, syscall batching "
           "and thread hand-offs set the rate.")


class SmallEvloop(Small):
    name = "small_evloop"
    plane = "evloop"
    why = ("The known gap: the reactor is several times slower than "
           "threads at 4 KiB. A per-frame reactor fix must show here "
           "while bulk_* must not move.")


# ----------------------------------------------------------------------
# deploy_cli: CLI entry → last digest verified
# ----------------------------------------------------------------------

class DeployCli(Workload):
    """``kascade deploy`` as a user types it: interpreter start,
    imports, windowed agent launch, registration, plan, transfer,
    collect and tear-down."""

    name = "deploy_cli"
    why = ("CLI entry to last digest verified. Launch and imports "
           "outweigh the transfer (the paper's Fig. 14 regime), so cli "
           "and deploy.* own the time, not the data plane.")
    receivers = ("n2", "n3", "n4")
    deliveries = 3

    def __init__(self, scratch, seed, smoke):
        super().__init__(scratch, seed, smoke)
        self.payload_bytes = (4 if smoke else 64) * MiB
        self.env = program_env()

    def setup(self) -> None:
        self.digest = payload_digest(self.payload_bytes, self.seed,
                                     self.path("in.bin"))

    def teardown(self) -> None:
        empty(self.path("in.bin"))

    def op(self, index, *, trace):
        """Timed pass: the CLI, as a user types it.  Traced pass: the
        same broadcast through ``backend="procs"`` in this process,
        whose result carries the launch report and trace the CLI only
        prints."""
        for node in self.receivers:
            self.path(f"{node}.out")
        template = self.scratch.template("{node}.out")
        if self.traced_pass:
            children0 = reaped_children_cpu()
            result = run_broadcast(
                FileSource(self.path("in.bin")), list(self.receivers),
                backend="procs", trace=_tracer(trace),
                output_template=template, timeout=OP_TIMEOUT_S,
            )
            return result, reaped_children_cpu() - children0
        return subprocess.run(
            [sys.executable, "-m", "repro.cli.kascade", "deploy",
             "-n", str(len(self.receivers)),
             "-i", self.path("in.bin"), "-o", template],
            env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=OP_TIMEOUT_S,
        )

    def check(self, raw, index) -> Check:
        check = Check(self.deliveries)
        if self.traced_pass:
            if not raw[0].ok:
                check.breach(f"op {index}: procs result not ok "
                             f"({raw[0].report.summary()})", self.deliveries)
        elif raw.returncode != 0:
            tail = raw.stdout.strip().splitlines()[-1:] or [""]
            check.breach(f"op {index}: kascade deploy exited "
                         f"{raw.returncode}: {tail[0]}", self.deliveries)
        self._check_files(check, index, self.digest,
                          {n: self.path(f"{n}.out") for n in self.receivers})
        return check

    def slices(self, raw, wall_s):
        result, agent_cpu = raw
        launch = result.launch
        events = sorted(result.trace.events(), key=lambda e: e.t)
        tail = [e.t for e in events
                if e.type == CHUNK and e.node == self.receivers[-1]]
        out = {
            "deploy.launch_s": launch.total_s,
            "deploy.slowest_agent_s": max(
                (nl.startup_s or 0.0) for nl in launch.nodes.values()),
            "deploy.spawn_retries": float(launch.retries),
            "deploy.agent_cpu_s": agent_cpu,
        }
        if tail:
            out["deploy.plan_to_first_chunk_s"] = max(
                0.0, min(tail) - launch.total_s)
            out["deploy.transfer_s"] = max(tail) - min(tail)
            out["deploy.collect_teardown_s"] = max(0.0, wall_s - max(tail))
        return out


# ----------------------------------------------------------------------
# daemon_sessions: warm fleet, cache fill + evict beside replay
# ----------------------------------------------------------------------

class DaemonSessions(Workload):
    """One op is four submits of one artifact to a warm fleet: the
    first is a miss after eviction (fill + evict), the next three replay
    it from each receiver's cache.  Four artifacts rotate through a
    cache that holds two."""

    name = "daemon_sessions"
    why = ("Per-session overhead on a warm fleet; the cache is filled, "
           "evicted and replayed in one op (working set twice the cache), "
           "so a replay gain that taxes the fill path shows.")
    receivers = ("n2", "n3", "n4")
    submits = 4
    artifacts = 4
    deliveries = 3 * submits

    def __init__(self, scratch, seed, smoke):
        super().__init__(scratch, seed, smoke)
        self.artifact_bytes = (4 if smoke else 16) * MiB
        self.cache_bytes = 2 * self.artifact_bytes
        self.payload_bytes = self.submits * self.artifact_bytes
        self.server: Optional[DaemonServer] = None

    def setup(self) -> None:
        self.digests = [
            payload_digest(self.artifact_bytes, self.seed + k,
                           self.path(f"artifact{k}.bin"))
            for k in range(self.artifacts)
        ]
        self.server = DaemonServer(["n1", *self.receivers],
                                   cache_bytes=self.cache_bytes,
                                   startup_timeout=60.0)
        self.server.start()
        self.layer["daemon.fleet_launch_s"] = self.server.launch_report.total_s

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def teardown(self) -> None:
        t0 = time.perf_counter()
        self.close()
        self.layer["daemon.shutdown_s"] = time.perf_counter() - t0
        for k in range(self.artifacts):
            empty(self.path(f"artifact{k}.bin"))

    def _out(self, node: str, submit: int) -> str:
        return self.path(f"{node}.s{submit}.out")

    def op(self, index, *, trace):
        k = index % self.artifacts
        rows = []
        for j in range(self.submits):
            for node in self.receivers:
                self._out(node, j)
            t0 = time.perf_counter()
            result = self.server.submit(
                FileSource(self.path(f"artifact{k}.bin")),
                list(self.receivers),
                output_template=self.scratch.template(
                    "{node}" + f".s{j}.out"),
                trace=_tracer(trace), timeout=OP_TIMEOUT_S,
            )
            rows.append((result, time.perf_counter() - t0))
        return rows

    def check(self, raw, index) -> Check:
        check = Check(self.deliveries)
        digest = self.digests[index % self.artifacts]
        replayed = len(self.receivers) * self.artifact_bytes
        for j, (result, _wall) in enumerate(raw):
            if not result.ok:
                check.breach(f"op {index} submit {j}: result not ok "
                             f"({result.report.summary()})",
                             len(self.receivers))
            want = 0 if j == 0 else replayed
            got = result.perfstats.get("bytes_from_cache", 0)
            if got != want:
                check.breach(f"op {index} submit {j}: bytes_from_cache "
                             f"{got} != {want}", len(self.receivers))
            self._check_files(check, index, digest,
                              {n: self._out(n, j) for n in self.receivers})
        return check

    def slices(self, raw, wall_s):
        fresh, fresh_wall = raw[0]
        out = {
            "daemon.fresh_submit_s": fresh_wall,
            "daemon.repeat_submit_s": median([w for _r, w in raw[1:]]),
        }
        events = sorted(fresh.trace.events(), key=lambda e: e.t)
        marks = {word: e.t for e in events if e.type == SESSION
                 for word in ("open", "push") if f": {word} " in e.detail}
        chunks = [e.t for e in events if e.type == CHUNK]
        dones = [e.t for e in events if e.type == DONE]
        if "open" in marks and "push" in marks and chunks and dones:
            out["daemon.open_to_start_s"] = marks["push"] - marks["open"]
            out["daemon.start_to_first_chunk_s"] = max(
                0.0, min(chunks) - marks["push"])
            out["daemon.last_done_to_return_s"] = max(
                0.0, fresh_wall - max(dones))
        hits = sum(r.perfstats.get("cache_hits", 0) for r, _w in raw)
        misses = sum(r.perfstats.get("cache_misses", 0) for r, _w in raw)
        out["core.cache.hit_share"] = _share(hits, hits + misses)
        out["core.cache.evictions_per_op"] = float(sum(
            r.perfstats.get("cache_evictions", 0) for r, _w in raw))
        return out


# ----------------------------------------------------------------------
# fault_pair: mid-chain death and head re-rooting
# ----------------------------------------------------------------------

class FaultPair(Workload):
    """One op is two broadcasts to four receivers: one with a mid-chain
    receiver killed a quarter of the way in (the paper's Fig. 15), one
    with the head killed and the chain re-rooted on a survivor."""

    name = "fault_pair"
    why = ("Completion time under an injected fault: the stream is small, "
           "so detection, election and resume (recovery paths, control, "
           "re-rooting) own the time, not the data path.")
    receivers = ("n2", "n3", "n4", "n5")
    mid_victim = "n3"
    head = "n1"
    deliveries = 3 + 4

    def __init__(self, scratch, seed, smoke):
        super().__init__(scratch, seed, smoke)
        # 8-16 MiB is where the head-kill is unimodal on this host (every
        # receiver idle in a read when the head dies, so each sits out
        # ``io_timeout``); at 24 MiB and more some receivers are still
        # draining, notice at once, and ~8 % of the kills take 0.4 s
        # instead of 1.2 s.
        self.stream_bytes = (4 if smoke else 12) * MiB
        self.payload_bytes = 2 * self.stream_bytes

    def setup(self) -> None:
        self.digest = payload_digest(self.stream_bytes, self.seed,
                                     self.path("in.bin"))

    def teardown(self) -> None:
        empty(self.path("in.bin"))

    def _out(self, node: str, tag: str) -> str:
        return self.path(f"{node}.{tag}.out")

    def _broadcast(self, victim: Optional[str], trace: bool):
        """One broadcast, its outputs tagged by victim so the pair's
        files coexist until the clock has stopped."""
        size = self.stream_bytes
        tag = victim or "clean"
        crashes = [CrashPlan(victim, size // 4)] if victim else []
        t0 = time.perf_counter()
        result = run_broadcast(
            FileSource(self.path("in.bin")), list(self.receivers),
            backend="local", crashes=crashes,
            allow_head_chaos=victim == self.head,
            sink_factory=lambda n: FileSink(self._out(n, tag),
                                            expected_size=size),
            trace=_tracer(trace), timeout=OP_TIMEOUT_S,
        )
        return result, time.perf_counter() - t0

    def op(self, index, *, trace):
        return [(victim, *self._broadcast(victim, trace))
                for victim in (self.mid_victim, self.head)]

    def _check_broadcast(self, check: Check, index: int,
                         victim: Optional[str], result) -> None:
        tag = victim or "clean"
        survivors = [n for n in self.receivers if n != victim]
        if not result.ok:
            check.breach(f"op {index}: {tag} broadcast not ok "
                         f"({result.report.summary()})", len(survivors))
        if victim and not result.outcomes[victim].crashed:
            check.breach(f"op {index}: {victim} was to crash and did not")
        self._check_files(check, index, self.digest,
                          {n: self._out(n, tag) for n in survivors})
        if victim in self.receivers:  # the victim's partial file
            empty(self._out(victim, tag))
        if victim and result.trace is not None:
            failovers = len(result.trace.of_type(FAILOVER))
            elections = len(result.trace.of_type(ELECTION))
            want = 1 if victim == self.head else 0
            if failovers != 1 or elections != want:
                check.breach(f"op {index}: {victim}-kill traced {failovers} "
                             f"FAILOVER / {elections} ELECTION, expected "
                             f"1 / {want}")

    def check(self, raw, index) -> Check:
        check = Check(self.deliveries)
        for victim, result, _wall in raw:
            self._check_broadcast(check, index, victim, result)
        return check

    def slices(self, raw, wall_s):
        (_m, mid, mid_wall), (_h, head, head_wall) = raw
        out = {"runtime.midkill_wall_s": mid_wall,
               "runtime.headkill_wall_s": head_wall}
        events = sorted(mid.trace.events(), key=lambda e: e.t)
        failover = [e for e in events if e.type == FAILOVER]
        out["runtime.failovers_per_op"] = float(
            len(failover) + len(head.trace.of_type(FAILOVER)))
        if failover:
            at = failover[0].t
            victim_last = [e.t for e in events
                           if e.node == self.mid_victim and e.t <= at]
            after = [e.t for e in events if e.type == CHUNK and e.t > at
                     and e.node in self.receivers[2:]]
            if victim_last:
                out["runtime.midkill_detect_s"] = at - max(victim_last)
            if after:
                out["runtime.midkill_resume_s"] = min(after) - at
        events = sorted(head.trace.events(), key=lambda e: e.t)
        detect = [e.t for e in events if e.type == FAILOVER]
        elect = [e.t for e in events if e.type == ELECTION]
        dones = [e.t for e in events if e.type == DONE]
        if detect and elect and dones:
            resumed = [e.t for e in events
                       if e.type == CHUNK and e.t > elect[0]]
            out["control.detect_to_election_s"] = elect[0] - detect[0]
            if resumed:
                out["control.election_to_first_chunk_s"] = (
                    min(resumed) - elect[0])
                out["control.first_chunk_to_done_s"] = (
                    max(dones) - min(resumed))
        return out

    def extra_traced(self, spans) -> Dict[str, float]:
        """One un-faulted broadcast on the same inputs: the reference
        the two kills are read against."""
        with spans.span("clean_reference"):
            result, wall = self._broadcast(None, False)
            check = Check(len(self.receivers))
            self._check_broadcast(check, -1, None, result)
        return {} if check.failed else {"runtime.clean_wall_s": wall}


# ----------------------------------------------------------------------
# sim_scale: no sockets at all
# ----------------------------------------------------------------------

class SimScale(Workload):
    """One op is a protocol-exact DES run of a long chain plus a fluid
    max-min run on a fat tree.  ``goodput_mib_s`` here is *simulated*
    MiB per wall second.  Event counts and simulated times must repeat
    exactly from op to op."""

    name = "sim_scale"
    why = ("No sockets: protosim on simnet.engine and the fluid solver "
           "(simnet.flows/fabric) split the op. Guards the "
           "figure-regeneration path while the protocol code is rewritten.")
    #: ``scripts/bench_sim.py``'s ``proto_chain`` protocol settings.
    config = KascadeConfig(chunk_size=8 * 1024, buffer_chunks=8,
                           io_timeout=0.5, ping_timeout=0.25,
                           connect_timeout=1.0, report_timeout=10.0)

    def __init__(self, scratch, seed, smoke):
        super().__init__(scratch, seed, smoke)
        self.chain = 20 if smoke else 200
        self.stream_bytes = (1 if smoke else 4) * MiB
        self.hosts = 40 if smoke else 200
        self.fluid_bytes = 2_000_000_000
        self.deliveries = self.chain + self.hosts - 1
        self.payload_bytes = self.stream_bytes + self.fluid_bytes
        self.reference = None

    def op(self, index, *, trace):
        stats = get_stats()
        t0 = time.perf_counter()
        proto = ProtoBroadcast(
            PatternSource(self.stream_bytes, seed=self.seed),
            [f"n{i}" for i in range(2, 2 + self.chain)],
            config=self.config,
        ).run(sim_horizon=3600.0)
        t1 = time.perf_counter()
        before = stats.snapshot()
        setup = SimSetup(
            network=build_fat_tree(self.hosts), head="node-1",
            receivers=tuple(f"node-{i}" for i in range(2, self.hosts + 1)),
            size=float(self.fluid_bytes), include_startup=False, rng=None,
        )
        fluid = KascadeSim().run(setup)
        t2 = time.perf_counter()
        after = stats.snapshot()
        solver = {k: after[k] - before[k]
                  for k in ("solver_rounds", "solver_full_rebuilds")}
        return proto, fluid, t1 - t0, t2 - t1, solver

    def check(self, raw, index) -> Check:
        proto, fluid, _pw, _fw, _solver = raw
        check = Check(self.deliveries)
        if not proto.ok:
            check.breach(f"op {index}: protosim run not ok", self.chain)
        short = [n for n, got in proto.node_bytes.items()
                 if n != "n1" and got != self.stream_bytes]
        if short:
            check.breach(f"op {index}: protosim receivers short of "
                         f"{self.stream_bytes} bytes: {short[:4]}", len(short))
        if len(fluid.completed) != self.hosts - 1:
            check.breach(f"op {index}: fluid run completed "
                         f"{len(fluid.completed)} of {self.hosts - 1}",
                         self.hosts - 1 - len(fluid.completed))
        fingerprint = (proto.perfstats.get("sim_events_processed"),
                       proto.sim_time, fluid.data_time)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            check.breach(f"op {index}: (events, sim time, fluid time) "
                         f"{fingerprint} differ from the first op's "
                         f"{self.reference}", self.deliveries)
        return check

    def slices(self, raw, wall_s):
        proto, _fluid, proto_wall, fluid_wall, solver = raw
        stats = proto.perfstats
        events = stats.get("sim_events_processed", 0)
        skips = stats.get("sim_cancelled_skips", 0)
        rounds = solver["solver_rounds"]
        return {
            "protosim.chain_wall_s": proto_wall,
            "protosim.events": float(events),
            "simnet.engine.events_per_s": _share(events, proto_wall),
            "simnet.engine.cancelled_share": _share(skips, events + skips),
            "simnet.engine.heap_peak": float(stats.get("sim_heap_peak", 0)),
            "simnet.fat_tree_wall_s": fluid_wall,
            "simnet.flows.us_per_round": _share(fluid_wall * 1e6, rounds),
            "simnet.flows.rebuild_share": _share(
                solver["solver_full_rebuilds"], rounds),
        }

    def extra_traced(self, spans) -> Dict[str, float]:
        """Simulated-time ratio of one chain to four stripes (8
        receivers): exact, so it repeats digit for digit."""
        config = self.config.with_(chunk_size=64 * 1024)
        receivers = [f"n{i}" for i in range(2, 10)]
        times = []
        with spans.span("k4_speedup"):
            for stripes in (1, 4):
                result = ProtoBroadcast(
                    PatternSource(4 * MiB, seed=self.seed), receivers,
                    config=config.with_(stripes=stripes),
                ).run(sim_horizon=3600.0)
                if not result.ok:
                    return {}
                times.append(result.sim_time)
        return {"protosim.k4_speedup": times[0] / times[1]}


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (
        BulkThreaded, BulkEvloop, SmallThreaded, SmallEvloop,
        DeployCli, DaemonSessions, FaultPair, SimScale,
    )
}
