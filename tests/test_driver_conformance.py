"""Driver conformance: one node, two ports, the same story.

The protocol is written once (:mod:`repro.core.engine`); what differs
between ``backend="local"`` (threads on loopback TCP) and
``backend="simnet"`` (:class:`~repro.protosim.ProtoBroadcast` on the
DES) is only who performs the waits.  So every scenario of one table
must tell the same story on both: the same bytes at every survivor, the
same failure report (who died, who noticed), and at every node the same
sequence of milestones (FAILOVER, FORGET, QUIT, DONE) — whose order the
protocol dictates, whatever the clocks did.
"""

import hashlib
import io
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import pytest

from repro import run_broadcast
from repro.core import BufferSink, KascadeConfig, PatternSource, StreamSource

CFG = KascadeConfig(
    chunk_size=16 * 1024, buffer_chunks=8,
    io_timeout=0.4, ping_timeout=0.2, connect_timeout=0.8,
    report_timeout=6.0, verify_digest=True,
)
SIZE = 512 * 1024
DRIVERS = ("local", "simnet")


def pattern(size=SIZE, seed=9):
    return lambda: PatternSource(size, seed=seed)


def pipe(size=SIZE):
    """A head that cannot seek: stdin, to the protocol."""
    data = bytes((i * 7) % 256 for i in range(size))
    return lambda: StreamSource(io.BytesIO(data))


@dataclass(frozen=True)
class Scenario:
    receivers: Sequence[str]
    source: Callable = field(default_factory=pattern)
    crashes: Tuple[Tuple[str, int, str], ...] = ()
    config: KascadeConfig = CFG
    #: Receivers that need not complete (besides the crashed ones).
    lost: Tuple[str, ...] = ()
    ok: bool = True


def chain(n):
    return [f"n{i}" for i in range(2, 2 + n)]


SCENARIOS = {
    "clean": Scenario(chain(4)),
    "empty_stream": Scenario(chain(2), source=pattern(0)),
    "single_chunk": Scenario(chain(1), source=pattern(1000)),
    "mid_chain_close_crash": Scenario(
        chain(4), crashes=(("n4", SIZE // 4, "close"),)),
    "silent_crash": Scenario(
        chain(3), crashes=(("n3", SIZE // 3, "silent"),)),
    "crash_at_first_byte": Scenario(
        chain(3), crashes=(("n2", CFG.chunk_size, "close"),)),
    "tail_crash": Scenario(
        chain(3), crashes=(("n4", SIZE // 2, "close"),)),
    "adjacent_crashes": Scenario(
        chain(6), crashes=(("n4", SIZE // 4, "close"),
                           ("n5", SIZE // 4, "close"))),
    "deep_recovery_via_pget": Scenario(
        chain(3), crashes=(("n3", SIZE // 2, "silent"),),
        config=CFG.with_(buffer_chunks=1)),
    "non_seekable_suffix_abort": Scenario(
        chain(3), source=pipe(), crashes=(("n3", SIZE // 2, "silent"),),
        config=CFG.with_(buffer_chunks=1, verify_digest=False),
        lost=("n4",), ok=False),
    "two_stripes": Scenario(chain(4), config=CFG.with_(stripes=2)),
}


@dataclass
class Story:
    """What one driver's run of a scenario amounts to."""

    ok: bool
    digests: dict           # receiver -> sha256 of what its sink holds
    complete: dict          # receiver -> outcome.ok
    failures: list          # (dead node, who noticed), report order
    milestones: dict        # node -> [milestone type, ...] in its order


def tell(scenario: Scenario, driver: str) -> Story:
    sinks = {}

    def sink_factory(name):
        sinks[name] = BufferSink()
        return sinks[name]

    result = run_broadcast(
        scenario.source(), list(scenario.receivers), backend=driver,
        config=scenario.config, crashes=list(scenario.crashes),
        sink_factory=sink_factory, trace=True, timeout=60.0)
    milestones = {}
    for type_, node in result.trace.milestones():
        milestones.setdefault(node, []).append(type_)
    return Story(
        ok=result.ok,
        digests={name: hashlib.sha256(sink.getvalue()).hexdigest()
                 for name, sink in sinks.items()},
        complete={name: result.outcomes[name].ok for name in sinks},
        failures=[(rec.node, rec.detected_by) for rec in result.report.failures],
        milestones=milestones,
    )


def check(scenario: Scenario, stories: Optional[dict] = None) -> dict:
    """Run ``scenario`` on both drivers and hold them to one story."""
    stories = stories or {driver: tell(scenario, driver) for driver in DRIVERS}
    local, sim = stories["local"], stories["simnet"]
    source = scenario.source()
    want = hashlib.sha256(
        source.expected_bytes(0, source.size)
        if hasattr(source, "expected_bytes") else source._stream.getvalue()
    ).hexdigest()
    crashed = {node for node, _after, _mode in scenario.crashes}
    survivors = [r for r in scenario.receivers
                 if r not in crashed and r not in scenario.lost]
    for driver, story in stories.items():
        assert story.ok is scenario.ok, (driver, story)
        for name in survivors:
            assert story.complete[name], (driver, name)
            assert story.digests[name] == want, (driver, name)
        for name in scenario.lost:
            assert not story.complete[name], (driver, name)
    assert {n: local.digests[n] for n in survivors} == \
        {n: sim.digests[n] for n in survivors}
    assert local.failures == sim.failures
    assert {dead for dead, _by in sim.failures} == crashed
    assert local.milestones == sim.milestones
    return stories


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_both_drivers_tell_the_same_story(name):
    check(SCENARIOS[name])


def test_the_simulated_story_is_reproducible():
    """Same scenario, two fresh engines: not equivalent — equal."""
    scenario = SCENARIOS["deep_recovery_via_pget"]
    assert tell(scenario, "simnet") == tell(scenario, "simnet")
