"""Names, units and directions of every metric perfbench reports.

``BENCHMARK.json`` at the root of the repository lists the same names;
``test_perfbench.py`` fails when the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, regression bound as a share of the parent's median)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("goodput_mib_s", "MiB/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
]

#: Per-layer numbers sliced from a workload's own traced ops (or read
#: off its set-up and tear-down): name -> (unit, better).  A workload
#: that does not exercise a layer reports 0 for it.
SLICES: Dict[str, Tuple[str, str]] = {
    # every workload
    "core.tracing.overhead_share": ("ratio", "lower"),
    "runtime.rss_growth_mib": ("MiB", "lower"),
    # bulk_*, small_*
    "session.startup_s": ("s", "lower"),
    "runtime.stream_s": ("s", "lower"),
    "runtime.ring_close_s": ("s", "lower"),
    "session.teardown_s": ("s", "lower"),
    "runtime.hop_lag_ms": ("ms", "lower"),
    "runtime.syscalls_per_mib": ("1/MiB", "lower"),
    "runtime.frames_per_syscall": ("ratio", "higher"),
    "runtime.copied_share": ("ratio", "lower"),
    "core.buffers.pool_reuse_share": ("ratio", "higher"),
    "runtime.splice_share": ("ratio", "higher"),
    "runtime.reactor_wakeups_per_mib": ("1/MiB", "lower"),
    "runtime.evloop_stall_s": ("s", "lower"),
    "runtime.evloop.relay_null_mib_s": ("MiB/s", "higher"),
    "runtime.evloop.relay_splice_share": ("ratio", "higher"),
    "core.stages.sink_stall_s": ("s", "lower"),
    "core.stages.writeback_hwm": ("count", "lower"),
    "core.stages.readahead_hit_share": ("ratio", "higher"),
    # deploy_cli
    "deploy.launch_s": ("s", "lower"),
    "deploy.slowest_agent_s": ("s", "lower"),
    "deploy.spawn_retries": ("count", "lower"),
    "deploy.plan_to_first_chunk_s": ("s", "lower"),
    "deploy.transfer_s": ("s", "lower"),
    "deploy.collect_teardown_s": ("s", "lower"),
    "deploy.agent_cpu_s": ("s", "lower"),
    # daemon_sessions
    "daemon.fleet_launch_s": ("s", "lower"),
    "daemon.shutdown_s": ("s", "lower"),
    "daemon.fresh_submit_s": ("s", "lower"),
    "daemon.repeat_submit_s": ("s", "lower"),
    "daemon.open_to_start_s": ("s", "lower"),
    "daemon.start_to_first_chunk_s": ("s", "lower"),
    "daemon.last_done_to_return_s": ("s", "lower"),
    "core.cache.hit_share": ("ratio", "higher"),
    "core.cache.evictions_per_op": ("count", "lower"),
    # fault_pair
    "runtime.clean_wall_s": ("s", "lower"),
    "runtime.midkill_wall_s": ("s", "lower"),
    "runtime.headkill_wall_s": ("s", "lower"),
    "runtime.midkill_detect_s": ("s", "lower"),
    "runtime.midkill_resume_s": ("s", "lower"),
    "runtime.failovers_per_op": ("count", "lower"),
    "control.detect_to_election_s": ("s", "lower"),
    "control.election_to_first_chunk_s": ("s", "lower"),
    "control.first_chunk_to_done_s": ("s", "lower"),
    # sim_scale
    "protosim.chain_wall_s": ("s", "lower"),
    "protosim.events": ("count", "lower"),
    "protosim.k4_speedup": ("ratio", "higher"),
    "simnet.engine.events_per_s": ("1/s", "higher"),
    "simnet.engine.cancelled_share": ("ratio", "lower"),
    "simnet.engine.heap_peak": ("count", "lower"),
    "simnet.fat_tree_wall_s": ("s", "lower"),
    "simnet.flows.us_per_round": ("us", "lower"),
    "simnet.flows.rebuild_share": ("ratio", "lower"),
}


def per_layer() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: the probes, then the slices."""
    from probes import PROBES

    out = {name: (unit, better) for name, (unit, better, _fn) in PROBES.items()}
    out.update(SLICES)
    return out
