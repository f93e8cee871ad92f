"""Cross-tier consistency: the fluid simulator and the protocol-exact
simulator agree on the paper's qualitative failure results.

The Fig. 15 headline — simultaneous failures pipeline their detection
and cost little, sequential failures pay one timeout each — must not be
an artifact of the fluid abstraction.  Here the *identical* time-based
failure schedule runs chunk-by-chunk through the complete protocol and
as fluid flows, and both orderings must reproduce.
"""

import pytest

from repro.baselines import KascadeSim, SimSetup
from repro.core import KascadeConfig, PatternSource, order_by_hostname
from repro.protosim import ProtoBroadcast
from repro.runtime import CrashPlan
from repro.topology import build_fat_tree

SIZE = 48 * 1024 * 1024          # 48 MiB at ~119 MB/s ≈ 0.4 s clean
N = 12
CFG = KascadeConfig(
    chunk_size=256 * 1024, buffer_chunks=16,
    io_timeout=1.0, ping_timeout=0.5, connect_timeout=1.0,
    report_timeout=30.0,
)
#: One shared schedule: victims and their (simultaneous / staggered)
#: kill times, far enough apart that detections cannot overlap.
VICTIMS = ("n4", "n7", "n10")
T0 = 0.1
STAGGER = 2.5  # > io_timeout + recovery, so sequential truly serializes
SIM_SCHEDULE = tuple((T0, v) for v in VICTIMS)
SEQ_SCHEDULE = tuple((T0 + k * STAGGER, v) for k, v in enumerate(VICTIMS))


def proto_run(schedule):
    receivers = [f"n{i}" for i in range(2, N + 2)]
    crashes = tuple(
        CrashPlan(v, mode="silent", at_time=t) for t, v in schedule
    )
    bc = ProtoBroadcast(
        PatternSource(SIZE, seed=3), receivers, config=CFG,
        crashes=crashes, bandwidth=125e6, latency=1e-4,
    )
    result = bc.run()
    survivors = [r for r in receivers
                 if r not in {v for _t, v in schedule}]
    assert result.ok, result.node_errors
    assert all(result.node_ok[s] for s in survivors)
    return result.sim_time


def fluid_run(schedule):
    net = build_fat_tree(N + 1)
    hosts = order_by_hostname(net.host_names())
    victims = {f"node-{int(v[1:])}" for _t, v in schedule}
    setup = SimSetup(
        network=net, head=hosts[0], receivers=tuple(hosts[1: N + 1]),
        size=SIZE,
        failures=tuple((t, f"node-{int(v[1:])}") for t, v in schedule),
        include_startup=False,
    )
    result = KascadeSim(config=CFG).run(setup)
    assert len(result.completed) == N - len(victims)
    return result.data_time


def test_tier_consistency_failure_costs(benchmark):
    def measure():
        return (
            (proto_run(()), proto_run(SIM_SCHEDULE), proto_run(SEQ_SCHEDULE)),
            (fluid_run(()), fluid_run(SIM_SCHEDULE), fluid_run(SEQ_SCHEDULE)),
        )

    (base_p, sim_p, seq_p), (base_f, sim_f, seq_f) = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    print(f"\nprotocol-exact: clean {base_p:6.2f}s  "
          f"3 simultaneous {sim_p:6.2f}s  3 sequential {seq_p:6.2f}s")
    print(f"fluid:          clean {base_f:6.2f}s  "
          f"3 simultaneous {sim_f:6.2f}s  3 sequential {seq_f:6.2f}s")

    # Both tiers: failures cost time, and the identical staggered
    # schedule costs strictly more than the simultaneous one (Fig. 15).
    for base, sim, seq in ((base_p, sim_p, seq_p), (base_f, sim_f, seq_f)):
        assert base < sim < seq

    # Clean transfers agree closely across tiers (same bandwidth and
    # chunking assumptions); failure scenarios agree on scale.
    assert base_p == pytest.approx(base_f, rel=0.15)
    assert sim_p == pytest.approx(sim_f, rel=0.6)
    assert seq_p == pytest.approx(seq_f, rel=0.6)
