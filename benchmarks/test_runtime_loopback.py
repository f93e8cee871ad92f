"""Real-runtime benchmarks: the byte-level protocol over loopback TCP.

These measure the actual Python implementation (threads + sockets +
framing), not the simulator — useful to track protocol-path regressions
and to show what a pure-Python Kascade moves on one machine.  Numbers
are loopback numbers; they say nothing about a 200-node fat tree (that
is the simulator's job) but everything about per-byte protocol cost.

The scenarios are ``scripts/bench_loopback.py``'s: one catalogue, run
here under pytest-benchmark and there as the recorded CI gate.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SIZE = 32 * 1024 * 1024  # 32 MiB per run keeps rounds short


def _load_bench_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_loopback.py"
    spec = importlib.util.spec_from_file_location("bench_loopback", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench_script()
CATALOGUE = BENCH.build_catalogue()


@pytest.mark.parametrize("name, rounds", [
    ("pipeline_1mib_3nodes", 3),
    # 4 KiB chunks: framing overhead dominates — the protocol-cost probe.
    ("small_chunks_4k", 1),
    # Integrity mode adds one SHA-256 pass per node.
    ("digest_1mib_3nodes", 3),
])
def test_loopback(benchmark, name, rounds):
    entry = benchmark.pedantic(
        lambda: BENCH.run_scenario(name, CATALOGUE[name], size=SIZE, rounds=1),
        rounds=rounds, iterations=1,
    )
    print(f"\n{name}: {entry['mib_per_s']:.0f} MiB/s per node "
          f"({CATALOGUE[name].description})")
