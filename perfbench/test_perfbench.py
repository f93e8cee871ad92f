"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Not part of tier-1 (``testpaths`` is ``tests``).  Runs every workload of
``workloads.py`` once in ``--smoke`` mode, both passes, and checks what
came out against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    subprocess.run(
        [sys.executable, RUN, "--smoke", "--every", "--traced",
         "--seconds", "1", "--out", str(out)],
        check=True, timeout=600, stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)


def test_benchmark_json_is_within_the_contract(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_benchmark_json_matches_the_code(benchmark_json):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import catalogue
    from workloads import WORKLOADS

    # BENCHMARK.json names the workloads the driver runs: a subset of
    # the code's, in the code's order, each with the code's reason.
    named = [w["name"] for w in benchmark_json["workloads"]]
    assert named == [name for name in WORKLOADS if name in named]
    assert ([w["why"] for w in benchmark_json["workloads"]]
            == [WORKLOADS[name].why for name in named])
    assert ([(m["name"], m["unit"], m["better"], m["bound"])
             for m in benchmark_json["end_to_end"]] == catalogue.END_TO_END)
    assert ({m["name"]: (m["unit"], m["better"])
             for m in benchmark_json["per_layer"]} == catalogue.per_layer())


def test_every_metric_on_every_workload(benchmark_json, smoke):
    assert set(smoke["workloads"]) >= {
        w["name"] for w in benchmark_json["workloads"]}
    for name, cell in smoke["workloads"].items():
        assert cell["correct"], name
        assert cell["attempted"] >= 1 and cell["failed"] == 0, name
        for group in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in benchmark_json[group]}
            got = {metric: value["unit"]
                   for metric, value in cell[group].items()}
            assert got == want, (name, group)
            for metric, value in cell[group].items():
                assert isinstance(value["value"], (int, float)), metric
        for metric, value in cell["end_to_end"].items():
            assert value["value"] > 0, (name, metric)
    for key in ("host_cpus", "python", "platform", "git_commit", "seed",
                "seconds", "scratch_fs", "setup_reps"):
        assert key in smoke["stamp"]


def test_spans_nest_and_self_times_are_not_negative(benchmark_json, smoke):
    sys.path.insert(0, HERE)
    from harness import self_times

    for workload in benchmark_json["workloads"]:
        path = os.path.join(HERE, "out", f"spans-{workload['name']}.jsonl")
        with open(path) as f:
            rows = [json.loads(line) for line in f]
        assert rows, path
        by_id = {row["id"]: row for row in rows}
        for row in rows:
            assert row["end"] >= row["start"]
            if row["parent"] is not None:
                parent = by_id[row["parent"]]
                assert parent["start"] <= row["start"], row
                assert row["end"] <= parent["end"], row
        assert min(self_times(rows).values()) >= -1e-9


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only ``BENCHMARK.json`` and ``perfbench``
    the command must fail and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
