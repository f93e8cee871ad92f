"""Measurement plumbing shared by every perfbench workload.

Nothing here knows what a workload does: this module owns the clock,
the CPU and memory readings, the benchmark's own spans, the scratch
directory and the leftover-process check.  ``workloads.py`` owns the
ops, ``probes.py`` the single-layer probes, ``run.py`` the command line.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

MiB = 1 << 20

#: Hard ceiling for one op.  Every program entry point the workloads use
#: takes a timeout; passing this one turns a hang into failed deliveries
#: instead of a stuck run.
OP_TIMEOUT_S = 120.0

#: Op index of the discarded warm-up op of a set-up.
WARM_UP = -1

#: Environment tag every process we start inherits, so a fleet agent or
#: replica that outlives its workload is recognisable as *ours* even
#: after it was re-parented to init.
RUN_TAG_VAR = "PERFBENCH_RUN"

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Resource readings
# ----------------------------------------------------------------------

def _live_children_cpu() -> float:
    """user+sys seconds of our live (or zombie) direct children, plus
    what *they* already reaped — the part ``RUSAGE_CHILDREN`` cannot
    see until we wait for them (the daemon fleet lives across ops)."""
    me = str(os.getpid())
    ticks = 0
    try:
        pids = [p for p in os.listdir("/proc") if p.isdigit()]
    except OSError:
        return 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields[0] is the state; ppid, utime, stime, cutime, cstime
        # are stat fields 4, 14, 15, 16 and 17.
        if fields[1] == me:
            ticks += sum(int(x) for x in fields[11:15])
    return ticks / _TICK


def reaped_children_cpu() -> float:
    """user+sys CPU of every child this process has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_seconds() -> float:
    """user+sys CPU of this process, its reaped and its live children."""
    live = _live_children_cpu()
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + reaped_children_cpu() + live


def rss_mib() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / MiB


def peak_rss_mib() -> float:
    """Largest resident set seen: this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def fast_decile(values: Sequence[float]) -> float:
    """The first decile of ``values`` — how long the thing takes when the
    host leaves it alone.

    This is the statistic every end-to-end timing is reported as.  The
    benchmark runs on a few cores of a shared host, where interference
    adds time (``small_evloop`` is the exception, and is not gated for
    it) and comes in bursts of seconds to tens of seconds: a burst that
    covers more than half of a run moves the run's median, but it has to
    cover nine tenths of it to move the first decile (README, "Why the
    fast decile").  Interpolated between the neighbouring samples, so
    the 3 set-ups of a run give ``0.8*fastest + 0.2*second``.
    """
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[0])


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return [v, v, v]
    return [float(q) for q in statistics.quantiles(values, n=4)]


# ----------------------------------------------------------------------
# Spans: the benchmark's own trace
# ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder, written out once when the run ends.

    Spans nest by call order (the harness is single-threaded), so the
    parent of a span is whatever span was open when it started.  Times
    are seconds since the recorder was created.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._rows: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        row = {
            "id": len(self._rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": op if op is not None else self._inherited_op(),
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self._rows.append(row)
        self._open.append(row["id"])
        try:
            yield
        finally:
            row["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def _inherited_op(self) -> Optional[int]:
        return self._rows[self._open[-1]]["op"] if self._open else None

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            for row in self._rows:
                f.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(rows: Sequence[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    own = {r["id"]: r["end"] - r["start"] for r in rows}
    for r in rows:
        if r["parent"] is not None:
            own[r["parent"]] -= r["end"] - r["start"]
    return own


# ----------------------------------------------------------------------
# Scratch space and inputs
# ----------------------------------------------------------------------

class Scratch:
    """A directory under ``root`` whose files live in anonymous memory.

    Every file is an ``os.memfd_create`` descriptor of this process,
    reached through a symlink in the directory — so the program (and
    the agent processes it starts) opens an ordinary path, while no
    byte reaches a disk and nothing is written outside the checkout.
    Writing receiver files to the checkout's own filesystem made a
    quarter to a half of all ops take half as long again; the same ops
    on memory files stay within a few percent.  Where ``memfd_create``
    is missing the files are plain files in the directory.
    """

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="scratch-", dir=root)
        self._fds: Dict[str, int] = {}
        self.kind = "memfd" if hasattr(os, "memfd_create") else "plain"

    def path(self, name: str) -> str:
        """Path of scratch file ``name``, (re)made if it is not there: a
        sink that aborts unlinks its path, symlink or not."""
        path = os.path.join(self.dir, name)
        if self.kind == "memfd" and not os.path.islink(path):
            if os.path.lexists(path):
                os.unlink(path)
            if name not in self._fds:
                self._fds[name] = os.memfd_create(name)
            os.symlink(f"/proc/{os.getpid()}/fd/{self._fds[name]}", path)
        return path

    def template(self, pattern: str) -> str:
        """A path with a ``{node}`` placeholder for the program to fill."""
        return os.path.join(self.dir, pattern)

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()
        shutil.rmtree(self.dir, ignore_errors=True)


def empty(path: str) -> None:
    """Give a scratch file's memory back (it is rewritten before use)."""
    try:
        os.truncate(path, 0)
    except OSError:
        pass


def payload_pieces(size: int, seed: int) -> Iterator[bytes]:
    """The ``PatternSource(size, seed)`` stream, 8 MiB at a time."""
    from repro.core import PatternSource

    pattern = PatternSource(size, seed=seed)
    for offset in range(0, size, 8 * MiB):
        yield pattern.expected_bytes(offset, min(8 * MiB, size - offset))


def payload_digest(size: int, seed: int, path: Optional[str] = None) -> str:
    """SHA-256 of the payload — the digest every delivery is checked
    against — writing the payload to ``path`` on the way when given."""
    digest = hashlib.sha256()
    with open(path or os.devnull, "wb") as f:
        for piece in payload_pieces(size, seed):
            f.write(piece)
            digest.update(piece)
    return digest.hexdigest()


def sha256_file(path: str) -> Optional[str]:
    """SHA-256 of a file, or ``None`` when it cannot be read."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            while True:
                piece = f.read(4 * MiB)
                if not piece:
                    break
                digest.update(piece)
    except OSError:
        return None
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Leftover processes
# ----------------------------------------------------------------------

def leftover_processes(tag: str) -> List[Tuple[int, str]]:
    """``repro.cli.kascade agent|replica`` processes carrying our run
    tag that are still alive (zombies excluded) — the CI smokes'
    ``pgrep`` check, in Python.  Returns ``(pid, command line)`` pairs."""
    found = []
    needle = f"{RUN_TAG_VAR}={tag}".encode()
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
            if b"repro.cli.kascade" not in argv:
                continue
            if not (b"agent" in argv or b"replica" in argv):
                continue
            with open(f"/proc/{pid}/environ", "rb") as f:
                if needle not in f.read().split(b"\0"):
                    continue
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    continue
        except (OSError, IndexError):
            continue
        found.append((int(pid), b" ".join(argv).decode(errors="replace")))
    return found


def wait_no_leftovers(tag: str, grace_s: float = 3.0) -> List[Tuple[int, str]]:
    """Leftovers that are still there after a short grace period."""
    deadline = time.perf_counter() + grace_s
    while True:
        left = leftover_processes(tag)
        if not left or time.perf_counter() >= deadline:
            return left
        time.sleep(0.05)


# ----------------------------------------------------------------------
# One op, measured
# ----------------------------------------------------------------------

@dataclass
class Check:
    """What the benchmark itself verified about one op's outputs."""

    attempted: int
    failed: int = 0
    breaches: List[str] = field(default_factory=list)

    def breach(self, message: str, deliveries: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + deliveries)
        self.breaches.append(message)


@dataclass
class Sample:
    """One timed op."""

    wall_s: float
    cpu_s: float
    rss_growth_mib: float
    check: Check
    raw: object = None


def measure_op(workload, index: int, spans: Spans, *,
               trace: bool = False) -> Sample:
    """Run one op of ``workload`` under the clock, then verify it.

    Garbage is collected before the clock starts: a finished broadcast
    leaves reference cycles holding its buffers, and whether the cyclic
    collector happens to run inside the next op is noise, not signal.
    ``rss_growth_mib`` is read before that collection, so it shows what
    an op leaves behind.
    """
    gc.collect()
    with spans.span("op", op=index):
        rss0 = rss_mib()
        cpu0 = cpu_seconds()
        raw, error = None, None
        with spans.span("call"):
            wall0 = time.perf_counter()
            try:
                raw = workload.op(index, trace=trace)
            except Exception as exc:  # an op that raises fails its deliveries
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
        growth = rss_mib() - rss0
        with spans.span("verify"):
            if error is not None:
                check = Check(workload.deliveries)
                check.breach(f"op {index} raised {error}", workload.deliveries)
            else:
                check = workload.check(raw, index)
    return Sample(wall, cpu, growth, check, raw)
