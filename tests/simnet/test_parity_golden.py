"""Golden parity fixtures for the simulation kernel.

Determinism is the engine's contract: the same scenario must produce the
same event trace, the same message log, and the same digests on every
run — and across kernel refactors.  These tests pin a set of
protocol-exact (protosim) and fluid (fabric/flows) scenarios against
fixtures captured in ``golden_kernel_parity.json``, so a scheduling or
solver change that perturbs tie-breaking, timing, or delivery order
fails loudly instead of silently skewing every figure.

Protosim scenarios are compared *exactly* (full trace + message-log
hashes, byte counts, repr-exact sim time).  Fluid scenarios compare the
milestone sequence exactly and completion times within 1e-6 relative —
the incremental solver is allowed float-ulp drift from reassociated
arithmetic, but never a different event order.

Regenerate (only when an intentional behaviour change lands) with::

    PYTHONPATH=src python tests/simnet/test_parity_golden.py --regenerate
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import HashingSink, KascadeConfig, PatternSource
from repro.core.tracing import TraceCollector
from repro.protosim import ProtoBroadcast
from repro.runtime import CrashPlan

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_kernel_parity.json")

CFG = KascadeConfig(
    chunk_size=128 * 1024, buffer_chunks=8,
    io_timeout=0.5, ping_timeout=0.25, connect_timeout=1.0,
    report_timeout=10.0, verify_digest=True,
)
SIZE = 1536 * 1024
RECEIVERS = ("n2", "n3", "n4", "n5")


def _run_proto(*, size=SIZE, seed=7, receivers=RECEIVERS, crashes=(),
               config=CFG):
    sinks = {}

    def factory(name):
        sinks[name] = HashingSink()
        return sinks[name]

    tracer = TraceCollector(zero=0.0)
    bc = ProtoBroadcast(
        PatternSource(size, seed=seed), list(receivers),
        sink_factory=factory, config=config, crashes=list(crashes),
    )
    result = bc.run(trace=True, tracer=tracer)

    events = [e.to_dict() for e in tracer.events()]
    trace_sha = hashlib.sha256(
        "\n".join(json.dumps(e, sort_keys=True) for e in events).encode()
    ).hexdigest()
    msg_lines = [
        f"{t!r}|{src}|{dst}|{msg!r}|{plen}"
        for t, src, dst, msg, plen in result.message_log
    ]
    return {
        "ok": result.ok,
        "sim_time": repr(result.sim_time),
        "total_bytes": result.total_bytes,
        "node_bytes": {k: result.node_bytes[k]
                       for k in sorted(result.node_bytes)},
        "crashed": list(result.crashed),
        "digests": {k: sinks[k].hexdigest() for k in sorted(sinks)},
        "milestones": [list(m) for m in tracer.milestones()],
        "n_events": len(events),
        "trace_sha256": trace_sha,
        "n_messages": len(msg_lines),
        "message_log_sha256": hashlib.sha256(
            "\n".join(msg_lines).encode()).hexdigest(),
    }


def _run_fluid(*, topology="switch", n=12, failures=(), size=256e6):
    import numpy as np

    from repro.baselines import KascadeSim
    from repro.baselines.base import SimSetup
    from repro.topology import build_fat_tree, build_single_switch

    if topology == "switch":
        net = build_single_switch(n + 1)
    else:
        net = build_fat_tree(n + 1, hosts_per_switch=10)
    receivers = tuple(f"node-{i}" for i in range(2, n + 2))
    setup = SimSetup(
        network=net, head="node-1", receivers=receivers, size=size,
        failures=tuple(failures), include_startup=False,
        rng=np.random.default_rng(42),
    )
    res = KascadeSim().run(setup, trace=True)
    return {
        "kind": "fluid",
        "milestones": [list(m) for m in res.events.milestones()],
        "data_time": repr(res.data_time),
        "finish_times": {k: repr(res.finish_times[k])
                         for k in sorted(res.finish_times)},
        "completed": list(res.completed),
        "failed": list(res.failed),
        "aborted": list(res.aborted),
    }


SCENARIOS = {
    "chain_clean": lambda: _run_proto(),
    "chain_crash_close": lambda: _run_proto(
        crashes=[CrashPlan("n3", after_bytes=768 * 1024)]),
    "chain_crash_silent": lambda: _run_proto(
        crashes=[CrashPlan("n3", after_bytes=768 * 1024, mode="silent")]),
    "chain_crash_at_time": lambda: _run_proto(
        crashes=[CrashPlan("n4", at_time=0.008)]),
    "striped_k2": lambda: _run_proto(
        seed=5, config=CFG.with_(stripes=2)),
    "fluid_chain_failover": lambda: _run_fluid(
        failures=((0.8, "node-5"),)),
    "fluid_fat_tree": lambda: _run_fluid(topology="fat_tree", n=40),
}

#: Relative tolerance for fluid completion times: the incremental solver
#: may reassociate float arithmetic, never reorder events.
_FLUID_RTOL = 1e-6


def _load_golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing {GOLDEN_PATH.name}; regenerate with "
            "PYTHONPATH=src python tests/simnet/test_parity_golden.py "
            "--regenerate"
        )
    return json.loads(GOLDEN_PATH.read_text())["scenarios"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    got = SCENARIOS[name]()
    want = _load_golden()[name]
    if got.get("kind") == "fluid":
        assert got["milestones"] == want["milestones"], name
        assert got["completed"] == want["completed"]
        assert got["failed"] == want["failed"]
        assert got["aborted"] == want["aborted"]
        assert set(got["finish_times"]) == set(want["finish_times"])
        for node, val in want["finish_times"].items():
            a, b = float(got["finish_times"][node]), float(val)
            assert abs(a - b) <= _FLUID_RTOL * max(1.0, abs(b)), (node, a, b)
        a, b = float(got["data_time"]), float(want["data_time"])
        assert abs(a - b) <= _FLUID_RTOL * max(1.0, abs(b)), (a, b)
    else:
        assert got == want, name


@pytest.mark.parametrize("name", ["chain_crash_silent", "striped_k2"])
def test_identical_runs_are_identical(name):
    # Two fresh engines, same scenario: the traces must be bit-equal —
    # not "equivalent", equal.  This is the determinism contract the
    # immediate-queue / pooling optimizations must preserve.
    assert SCENARIOS[name]() == SCENARIOS[name]()


def _regenerate() -> None:
    doc = {
        "meta": {
            "description": (
                "Golden simulation-kernel parity fixtures; see "
                "tests/simnet/test_parity_golden.py"
            ),
            "regenerate": (
                "PYTHONPATH=src python "
                "tests/simnet/test_parity_golden.py --regenerate"
            ),
        },
        "scenarios": {},
    }
    for name, fn in SCENARIOS.items():
        got = fn()
        # Sanity: fixtures must capture the behaviour they claim to pin.
        if name == "chain_clean":
            assert got["ok"] and not got["crashed"]
            assert len(set(got["digests"].values())) == 1
        elif name.startswith("chain_crash"):
            assert got["crashed"], name
            assert got["ok"], (name, got)  # failover must succeed
        elif name == "striped_k2":
            assert got["ok"] and len(set(got["digests"].values())) == 1
        elif name == "fluid_chain_failover":
            assert got["failed"] == ["node-5"]
            assert ["failover", "node-4"] in got["milestones"] or any(
                m[0] == "failover" for m in got["milestones"])
        doc["scenarios"][name] = got
        print(f"captured {name}")
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
