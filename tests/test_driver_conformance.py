"""Driver conformance: one node, one cluster, two drivers, the same story.

The protocol is written once (:mod:`repro.core.engine`) and so is the
run around it (:class:`repro.runtime.cluster.Broadcast`: plan, hosts,
crash gates, head re-root, result fold); what differs between
``backend="local"`` (threads on loopback TCP) and ``backend="simnet"``
(:class:`~repro.protosim.ProtoBroadcast` on the DES) is only who
performs the waits.  So every scenario of one table must tell the same
story on both: the same bytes at every survivor, the same failure report
(who died, who noticed — in the ring report and in each node's own
account), the same chain at the end, and at every node the same sequence
of milestones (FAILOVER, FORGET, QUIT, DONE) — whose order the protocol
dictates, whatever the clocks did.
"""

import gc
import hashlib
import io
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import pytest

from repro import run_broadcast
from repro.core import (BufferSink, FileSource, KascadeConfig, KascadeError,
                        PatternSource, StreamSource)
from repro.core.tracing import ELECTION, FAILOVER, FORGET
from tests import refusals
from tests.refusals import REFUSALS

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
    order: str = "given"
    #: Late joiners, ``(node, after_bytes)``: each must end with the
    #: payload, unless crashed.
    late_join: Tuple[Tuple[str, int], ...] = ()
    #: Extra ``run_broadcast`` options (the same on both drivers).
    options: Tuple[Tuple[str, object], ...] = ()
    #: Milestone types a thread's timing decides, so not compared — e.g.
    #: FORGET after a head re-root: whether a survivor sits below the
    #: election watermark (and needs PGET) is how far it had got when
    #: the head died, which only the DES fixes.
    timing_decides: Tuple[str, ...] = ()


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
    # A plan due from byte 0 fires once the first chunk is stored, and
    # the stream is short: a fault the stream could outrun.  (The ring
    # holds all of it, so no thread's timing decides a FORGET.)
    "crash_on_a_short_stream": Scenario(
        chain(3), source=pattern(200 * 1024),
        crashes=(("n3", 0, "close"),), config=CFG.with_(buffer_chunks=16)),
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
    # The head's run at small chunks against a ring of 64: a pipe cannot
    # be re-read, so every replay comes out of a ring.  (The stream fits
    # a ring whole: how far a relay runs ahead of a dying peer on loopback
    # TCP — past a ring, on a longer stream — is the threads' timing.)
    "small_chunk_pipe_mid_chain_close": Scenario(
        chain(4), source=pipe(200 * 1024),
        crashes=(("n3", 64 * 1024, "close"),),
        config=CFG.with_(chunk_size=4096, buffer_chunks=64)),
    "two_stripes": Scenario(chain(4), config=CFG.with_(stripes=2)),
    "hostname_order": Scenario(["n4", "n2", "n5", "n3"], order="hostname"),
    # The host-level gate: n4 dies once its *two* stripes hold SIZE // 4
    # between them, and takes both chain instances down.  (The ring holds
    # a whole stripe, so no replay can need PGET whatever the bursts were.)
    "two_stripes_mid_chain_crash": Scenario(
        chain(4), crashes=(("n4", SIZE // 4, "close"),),
        config=CFG.with_(stripes=2, buffer_chunks=32)),
    # The head dies past the link's window (512 KiB on the DES), so the
    # election is mid-stream on both drivers.
    "head_close_crash": Scenario(
        chain(3), source=pattern(4 * SIZE),
        crashes=(("n1", 2 * SIZE, "close"),),
        options=(("allow_head_chaos", True),), timing_decides=(FORGET,)),
    "head_silent_crash": Scenario(
        chain(3), source=pattern(4 * SIZE),
        crashes=(("n1", 2 * SIZE, "silent"),),
        options=(("allow_head_chaos", True),), timing_decides=(FORGET,)),
    # Names against chain order: the head's successor is promoted (n4),
    # never the tail, however the receivers' offsets tie.
    "head_crash_reversed_chain": Scenario(
        ["n4", "n3", "n2"], source=pattern(4 * SIZE),
        crashes=(("n1", 2 * SIZE, "close"),),
        options=(("allow_head_chaos", True),), timing_decides=(FORGET,)),
    # Nobody to feed: the survivor completes its own copy from the source.
    "head_crash_lone_survivor": Scenario(
        chain(1), source=pattern(4 * SIZE),
        crashes=(("n1", 2 * SIZE, "close"),),
        options=(("allow_head_chaos", True),)),
    # A late joiner gets a chain of its own from the head, which streams
    # the source again from byte 0 — from mid-stream, or once the push is
    # over; on a striped run too (the join chain is one stripe).
    "late_join_mid_stream": Scenario(
        chain(3), late_join=(("n5", SIZE // 2),)),
    "late_join_after_end": Scenario(
        chain(3), late_join=(("n5", 2 * SIZE),)),
    "late_join_two_stripes": Scenario(
        chain(3), late_join=(("n5", SIZE // 2),),
        config=CFG.with_(stripes=2)),
    # Only the joiner fails, and its death was planned.
    "late_join_joiner_killed": Scenario(
        chain(3), late_join=(("n5", SIZE // 2),),
        crashes=(("n5", SIZE // 4, "close"),)),
}

#: The head rows a fleet runs too (``backend="procs"``).
FLEET_ROWS = ("head_close_crash", "head_crash_reversed_chain",
              "head_crash_lone_survivor")
#: The late-join rows a fleet runs too.
FLEET_JOIN_ROWS = ("late_join_mid_stream", "late_join_after_end")
#: The receiver-fault rows a fleet runs too.  Striped and ``silent`` rows
#: stay off the fleet until ROADMAP item 4's races are fixed: a reroute
#: after a stripe's tail is done, and detection that blames a node which
#: finished, are decided by process timing there.
FLEET_FAULT_ROWS = ("crash_on_a_short_stream", "crash_at_first_byte",
                    "mid_chain_close_crash", "tail_crash",
                    "late_join_joiner_killed")


@dataclass
class Story:
    """What one driver's run of a scenario amounts to."""

    ok: bool
    digests: dict           # receiver -> sha256 of what its sink holds
    complete: dict          # receiver -> outcome.ok
    failures: list          # (dead node, who noticed), report order
    milestones: dict        # node -> [milestone type, ...] in its order
    noticed: dict           # node -> its own [(dead node, who noticed)]
    crashed: set            # nodes whose outcome says they crashed
    received: dict          # node -> outcome.bytes_received
    wrongly_blamed: set     # nodes verified ok, yet blamed
    chain: tuple            # the plan the run finished on, head first
    elections: tuple        # (coordinator FAILOVERs, ELECTION peers) traced


def elections(trace) -> tuple:
    return (sum(e.node == "coordinator" for e in trace.of_type(FAILOVER)),
            tuple(e.peer for e in trace.of_type(ELECTION)))


def wrongly_blamed(result) -> set:
    """Nodes whose outcome is ``ok`` that the run blames all the same,
    in the ring report or in ``failed_nodes``: verified ⇒ never blamed
    (ROADMAP item 4's invariant) holds when this is empty."""
    blamed = ({rec.node for rec in result.report.failures}
              | set(result.failed_nodes))
    return {name for name in result.completed_nodes if name in blamed}


def tell(scenario: Scenario, driver: str) -> Story:
    sinks = {}

    def sink_factory(name):
        sinks[name] = BufferSink()
        return sinks[name]

    result = run_broadcast(
        scenario.source(), list(scenario.receivers), backend=driver,
        config=scenario.config, crashes=list(scenario.crashes),
        order=scenario.order, late_join=list(scenario.late_join),
        sink_factory=sink_factory, trace=True, timeout=60.0,
        **dict(scenario.options))
    milestones = {}
    for type_, node in result.trace.milestones():
        if type_ not in scenario.timing_decides:
            milestones.setdefault(node, []).append(type_)
    return Story(
        ok=result.ok,
        digests={name: hashlib.sha256(sink.getvalue()).hexdigest()
                 for name, sink in sinks.items()},
        complete={name: result.outcomes[name].ok for name in sinks},
        failures=[(rec.node, rec.detected_by) for rec in result.report.failures],
        milestones=milestones,
        noticed={name: [(rec.node, rec.detected_by)
                        for rec in outcome.failures_detected]
                 for name, outcome in result.outcomes.items()},
        crashed={name for name, outcome in result.outcomes.items()
                 if outcome.crashed},
        received={name: outcome.bytes_received
                  for name, outcome in result.outcomes.items()},
        wrongly_blamed=wrongly_blamed(result),
        chain=result.plan.nodes,
        elections=elections(result.trace),
    )


def payload_digest(scenario: Scenario) -> str:
    source = scenario.source()
    return hashlib.sha256(
        source.expected_bytes(0, source.size)
        if hasattr(source, "expected_bytes") else source._stream.getvalue()
    ).hexdigest()


def survivors(scenario: Scenario) -> list:
    """Receivers and joiners that must end with the payload."""
    crashed = {node for node, _after, _mode in scenario.crashes}
    joiners = [node for node, _after in scenario.late_join]
    return [r for r in (*scenario.receivers, *joiners)
            if r not in crashed and r not in scenario.lost]


def check(scenario: Scenario, stories: Optional[dict] = None) -> dict:
    """Run ``scenario`` on both drivers and hold them to one story."""
    stories = stories or {driver: tell(scenario, driver) for driver in DRIVERS}
    local, sim = stories["local"], stories["simnet"]
    want = payload_digest(scenario)
    crashed = {node for node, _after, _mode in scenario.crashes}
    alive = survivors(scenario)
    for driver, story in stories.items():
        assert story.ok is scenario.ok, (driver, story)
        assert story.wrongly_blamed == set(), (driver, story)
        for name in alive:
            assert story.complete[name], (driver, name)
            assert story.digests[name] == want, (driver, name)
        for name in scenario.lost:
            assert not story.complete[name], (driver, name)
    assert {n: local.digests[n] for n in alive} == \
        {n: sim.digests[n] for n in alive}
    assert local.complete == sim.complete
    assert local.failures == sim.failures
    # A head that died as planned is not in the ring report: the chain
    # that closed the ring is the re-rooted one, which never had it.
    head_died = "n1" in crashed
    assert {dead for dead, _by in sim.failures} == crashed - {"n1"}
    assert local.noticed == sim.noticed
    assert local.crashed == sim.crashed == crashed
    assert local.chain == sim.chain
    # A dead head's successor leads the re-rooted chain, by one election.
    assert local.chain[0] == (scenario.receivers[0] if head_died else "n1")
    assert local.elections == sim.elections == (
        (1, local.chain[:1]) if head_died else (0, ()))
    assert local.milestones == sim.milestones
    return stories


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_both_drivers_tell_the_same_story(name):
    check(SCENARIOS[name])


@pytest.mark.parametrize("name", FLEET_ROWS)
def test_the_fleet_tells_the_same_head_loss_story(name, tmp_path):
    """The third driver of the one re-root: a fleet of agent processes
    elects by the same rule, so it promotes the same node, ends on the
    same chain, holds the same bytes and traces one FAILOVER and one
    ELECTION.  Milestones are not compared across processes; the head
    is paced so the kill lands mid-stream, not after it."""
    scenario = SCENARIOS[name]
    local = check(scenario)["local"]
    began = time.monotonic()
    result = run_broadcast(
        scenario.source(), list(scenario.receivers), backend="procs",
        config=scenario.config.with_(bandwidth_limit=4 << 20),
        crashes=list(scenario.crashes),
        output_template=str(tmp_path / "{node}.out"), trace=True,
        timeout=30.0, **dict(scenario.options))
    # Within seconds of the kill, not at the session deadline.
    assert time.monotonic() - began < 15.0
    assert result.ok is scenario.ok, result.outcomes
    want = payload_digest(scenario)
    for name in survivors(scenario):
        got = hashlib.sha256((tmp_path / f"{name}.out").read_bytes())
        assert got.hexdigest() == want, name
    assert result.plan.nodes == local.chain
    assert elections(result.trace) == local.elections == (1, local.chain[:1])


@pytest.mark.parametrize("name", FLEET_JOIN_ROWS)
def test_the_fleet_lets_a_late_joiner_in_the_same_way(name, tmp_path):
    """A fleet of agent processes lets the joiner in on a session of its
    own, one chain from the head: every receiver's file and the
    joiner's are the payload, byte for byte, as on both drivers.  The
    head is paced so a mid-stream trigger lands mid-stream."""
    scenario = SCENARIOS[name]
    check(scenario)
    source = scenario.source()
    result = run_broadcast(
        source, list(scenario.receivers), backend="procs",
        config=scenario.config.with_(bandwidth_limit=4 << 20),
        late_join=list(scenario.late_join),
        output_template=str(tmp_path / "{node}.out"), trace=True,
        timeout=30.0)
    assert result.ok, result.outcomes
    payload = source.expected_bytes(0, source.size)
    for node in survivors(scenario):
        assert (tmp_path / f"{node}.out").read_bytes() == payload, node


@pytest.mark.parametrize("name", FLEET_FAULT_ROWS)
def test_the_fleet_fires_a_fault_where_the_drivers_do(name, tmp_path):
    """A fleet node fires its own crash plan in its own loop and then
    signals itself, so the run ends as on both drivers: the same ``ok``,
    the same bytes at every survivor, the same crashed set and ring
    report, no verified node blamed — and the victim holding exactly
    the bytes it holds on threads.  Nothing is paced."""
    scenario = SCENARIOS[name]
    local = check(scenario)["local"]
    result = run_broadcast(
        scenario.source(), list(scenario.receivers), backend="procs",
        config=scenario.config, crashes=list(scenario.crashes),
        late_join=list(scenario.late_join),
        output_template=str(tmp_path / "{node}.out"), timeout=30.0)
    assert result.ok is local.ok, result.outcomes
    for node in survivors(scenario):
        got = hashlib.sha256((tmp_path / f"{node}.out").read_bytes())
        assert got.hexdigest() == local.digests[node], node
    assert {name for name, outcome in result.outcomes.items()
            if outcome.crashed} == local.crashed
    assert {dead for dead, _by in local.failures} == \
        set(result.report.failed_nodes)
    assert wrongly_blamed(result) == set()
    assert {victim: result.outcomes[victim].bytes_received
            for victim in local.crashed} == \
        {victim: local.received[victim] for victim in local.crashed}


def test_a_head_crash_is_refused_in_one_sentence():
    """Without ``allow_head_chaos``, and where a re-root cannot work,
    both drivers refuse through the one validation — never as an
    "unknown node" or an "unknown option" — and so they do every
    refusal of the table both can be asked (``tests/refusals.py``)."""
    def refusal(driver, **kwargs):
        with pytest.raises(KascadeError) as refused:
            run_broadcast(PatternSource(SIZE), chain(2), backend=driver,
                          config=kwargs.pop("config", CFG),
                          crashes=[("n1", SIZE // 2, "close")], **kwargs)
        return str(refused.value)

    striped = CFG.with_(stripes=2)
    for kwargs in ({}, {"allow_head_chaos": True, "config": striped}):
        local, sim = (refusal(driver, **kwargs) for driver in DRIVERS)
        assert local == sim
        assert "unknown" not in sim
    assert "allow_head_chaos=True" in refusal("simnet")
    assert "1-stripe" in refusal("simnet", allow_head_chaos=True,
                                 config=striped)
    for name, row in REFUSALS.items():
        said = {driver: refusals.refusal(driver, row, config=CFG)
                for driver in DRIVERS if driver in row.backends}
        assert len(set(said.values())) <= 1, (name, said)


@pytest.mark.parametrize("name", sorted(
    name for name, row in REFUSALS.items()
    if set(row.backends) & set(DRIVERS)))
def test_a_driver_built_directly_refuses_what_run_broadcast_refuses(name):
    """``LocalBroadcast`` and ``ProtoBroadcast`` validate in their own
    constructor — nothing is checked only on the ``run_broadcast`` path
    (a direct driver once ran a duplicate or an ``at_time`` fault
    clean, dropping it)."""
    from repro.protosim import ProtoBroadcast
    from repro.runtime import LocalBroadcast

    row = REFUSALS[name]
    for driver, cls in zip(DRIVERS, (LocalBroadcast, ProtoBroadcast)):
        if driver in row.backends:
            assert refusals.driver_refusal(cls, row, CFG) == \
                refusals.refusal(driver, row, config=CFG)


@pytest.mark.parametrize("driver", DRIVERS)
def test_a_striped_file_broadcast_closes_what_it_opened(driver, tmp_path):
    """Each stripe view of a ``FileSource`` holds its own descriptor; the
    host that opened the views closes them, whoever drove it."""
    path = tmp_path / "payload.bin"
    path.write_bytes(bytes(range(256)) * (SIZE // 256))

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        gc.collect()  # what earlier tests left to the collector is not ours
        before = open_fds()
        for _ in range(2):
            with FileSource(path) as source:
                assert run_broadcast(source, chain(2), backend=driver,
                                     config=CFG.with_(stripes=2),
                                     timeout=60.0).ok
        gc.collect()  # an unclosed file would warn here, not at exit
        # (The acceptor threads let go of their sockets within 0.1 s.)
        deadline = time.monotonic() + 2.0
        while open_fds() > before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert open_fds() <= before


def test_the_simulated_story_is_reproducible():
    """Same scenario, two fresh engines: not equivalent — equal."""
    scenario = SCENARIOS["deep_recovery_via_pget"]
    assert tell(scenario, "simnet") == tell(scenario, "simnet")
