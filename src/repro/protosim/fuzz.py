"""Protocol soak-testing: randomized failure schedules, checked invariants.

One fuzz case builds a random pipeline (size, chunking, buffer depth,
crash schedule) from a seeded RNG, runs it protocol-exactly, and checks
the §IV-G contract:

* every non-crashed receiver completes with a byte-perfect copy
  (SHA-256 against the synthetic source);
* every crashed node — and only those — appears in the final report;
* the simulation terminates within a bounded horizon.

The same machinery backs the hypothesis test suite and the
``kascade-sim fuzz`` command; a failing case prints its seed, which
replays it exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import KascadeConfig
from ..core.sinks import HashingSink
from ..core.sources import PatternSource
from ..runtime.result import CrashPlan
from .broadcast import ProtoBroadcast


@dataclass(frozen=True)
class FuzzCase:
    """One generated scenario (fully derived from its seed)."""

    seed: int
    n_receivers: int
    size: int
    chunk_size: int
    buffer_chunks: int
    crashes: Tuple[CrashPlan, ...]

    def describe(self) -> str:
        kills = ", ".join(
            f"{c.node}@{c.after_bytes}B:{c.mode}" for c in self.crashes
        ) or "none"
        return (f"seed={self.seed} n={self.n_receivers} "
                f"size={self.size} chunk={self.chunk_size} "
                f"buffer={self.buffer_chunks} kills=[{kills}]")


@dataclass
class FuzzFailure:
    """A violated invariant, with everything needed to reproduce it."""

    case: FuzzCase
    problem: str


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign."""

    runs: int = 0
    crash_injections: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        lines = [
            f"{self.runs} randomized scenarios, "
            f"{self.crash_injections} crashes injected: {verdict}"
        ]
        for failure in self.failures:
            lines.append(f"  {failure.problem}")
            lines.append(f"    reproduce: {failure.case.describe()}")
        return "\n".join(lines)


def generate_case(seed: int) -> FuzzCase:
    """Derive a scenario deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    chunk = int(rng.choice([16, 64, 256])) * 1024
    size = int(rng.integers(4, 40)) * chunk
    buffer_chunks = int(rng.choice([1, 2, 8, 32]))
    receivers = [f"n{i}" for i in range(2, n + 2)]
    n_crashes = int(rng.integers(0, min(4, n)))
    victims = rng.choice(receivers, size=n_crashes, replace=False)
    crashes = tuple(
        CrashPlan(
            str(v),
            after_bytes=int(rng.integers(1, size + 1)),
            mode=str(rng.choice(["close", "silent"])),
        )
        for v in victims
    )
    return FuzzCase(seed=seed, n_receivers=n, size=size,
                    chunk_size=chunk, buffer_chunks=buffer_chunks,
                    crashes=crashes)


def run_case(case: FuzzCase) -> Optional[str]:
    """Run one case; returns a problem description or None."""
    config = KascadeConfig(
        chunk_size=case.chunk_size,
        buffer_chunks=case.buffer_chunks,
        io_timeout=0.5, ping_timeout=0.3, connect_timeout=1.0,
        report_timeout=15.0, verify_digest=True,
    )
    source = PatternSource(case.size, seed=case.seed)
    expected = hashlib.sha256(
        source.expected_bytes(0, case.size)).hexdigest()
    receivers = [f"n{i}" for i in range(2, case.n_receivers + 2)]
    sinks = {}

    def factory(name):
        sinks[name] = HashingSink()
        return sinks[name]

    bc = ProtoBroadcast(
        PatternSource(case.size, seed=case.seed), receivers,
        sink_factory=factory, config=config, crashes=case.crashes,
    )
    result = bc.run(sim_horizon=600.0)
    if result.sim_time >= 600.0:
        return "simulation did not terminate within the horizon"

    victims = {c.node for c in case.crashes}
    survivors = [r for r in receivers if r not in victims]
    if not result.ok:
        return f"broadcast not ok: {result.node_errors}"
    for name in survivors:
        if sinks[name].hexdigest() != expected:
            return f"{name} delivered corrupted data"
    if set(result.report.failed_nodes) != victims:
        return (f"report mismatch: {result.report.failed_nodes} "
                f"vs victims {sorted(victims)}")
    return None


def run_campaign(runs: int, base_seed: int = 0,
                 progress=None) -> FuzzReport:
    """Run ``runs`` scenarios with seeds ``base_seed .. base_seed+runs-1``."""
    report = FuzzReport()
    for i in range(runs):
        case = generate_case(base_seed + i)
        report.runs += 1
        report.crash_injections += len(case.crashes)
        problem = run_case(case)
        if problem is not None:
            report.failures.append(FuzzFailure(case=case, problem=problem))
        if progress is not None:
            progress(i + 1, runs, problem)
    return report
