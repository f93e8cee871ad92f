"""``scripts/bench_loopback.py`` must skip what a data plane cannot run."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_evloop_skips_head_kill_recovery_with_a_reason(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_loopback.py"),
         "--data-plane", "evloop", "--size", "1", "--rounds", "1",
         "--label", "probe", "--out", str(out),
         "--scenario", "head_kill_recovery",
         "--scenario", "small_chunks_4k"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    skipped = [line for line in proc.stdout.splitlines()
               if "head_kill_recovery" in line]
    assert skipped and "skipped: head failover is threaded-only" in skipped[0]
    scenarios = json.loads(out.read_text())["runs"]["probe"]["scenarios"]
    assert list(scenarios) == ["small_chunks_4k"]
