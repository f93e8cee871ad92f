#!/usr/bin/env python3
"""perfbench: one command, eight workloads, end-to-end and per-layer numbers.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``
    (the end-to-end metrics with ``--trace 0``, the per-layer metrics
    with ``--trace 1``).  Everything else goes to standard error.

``run.py [--every] [--seed N] [--seconds S] [--traced] [--out FILE] [--aa] [--smoke]``
    The four workloads ``BENCHMARK.json`` names (``--every``: all eight
    of ``workloads.py``) in turn, each in a fresh subprocess of the form
    above (so peak RSS and the process-global ``PerfStats`` start from
    zero), every metric printed by name with its unit.  ``--traced``
    adds the traced pass, ``--aa`` runs the set twice and compares the
    two with ``aa.py``, ``--smoke`` shrinks payloads and run length for
    the self-test.

Load is closed-loop with one client: the next op starts when the
previous one returned and was verified.  All traffic is loopback TCP;
files are memory files reached through a scratch directory under
``perfbench/out`` that is removed on exit (see ``harness.Scratch``).
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3
#: Share of a traced run's ``--seconds`` spent on the workload's own
#: ops; the probes get the rest.
TRACED_OPS_SHARE = 0.5

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def _log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(args, scratch_fs: str) -> dict:
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "setup_reps": 1 if args.smoke else SETUP_REPS,
        "scratch_fs": scratch_fs,
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------

class _Tally:
    """Deliveries attempted and failed, with every breach printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        for message in check.breaches:
            _log(f"  BREACH {message}")


def _set_up(workload, spans, tally) -> float:
    """Set the workload up once and return how long it took: inputs from
    the seed, whatever outlives an op, and one discarded but verified
    warm-up op."""
    from harness import WARM_UP, measure_op

    with spans.span("setup"):
        t0 = time.perf_counter()
        workload.setup()
        warm = measure_op(workload, WARM_UP, spans)
        took = time.perf_counter() - t0
    tally.add(warm.check)
    return took


def run_untraced(workload, args, spans, tally, import_s: float):
    """``SETUP_REPS`` set-ups with an equal share of ``--seconds`` of
    timed ops after each but the last.  The set-ups are spread over the
    run, not taken back to back, so that one burst of interference on
    the host cannot slow all of them."""
    from harness import MiB, fast_decile, measure_op, peak_rss_mib, quartiles

    reps = 1 if args.smoke else SETUP_REPS
    legs = max(1, reps - 1)
    setups, samples, starts = [], [], []
    began = time.perf_counter()
    for rep in range(reps):
        setups.append(_set_up(workload, spans, tally))
        if rep < legs:
            # Op indices restart with every set-up: ``daemon_sessions``
            # derives from them which artifact its cache should hold.
            index = 0
            deadline = time.perf_counter() + args.seconds / legs
            while not samples or time.perf_counter() < deadline:
                starts.append(time.perf_counter() - began)
                sample = measure_op(workload, index, spans)
                tally.add(sample.check)
                samples.append(sample)
                index += 1
        workload.teardown()
    setup_s = import_s + fast_decile(setups)

    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    payload_mib = workload.payload_bytes / MiB
    wall_s = fast_decile(walls)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "goodput_mib_s": payload_mib / wall_s,
        "cpu_s": fast_decile(cpus),
        "peak_rss_mib": peak_rss_mib(),
    }
    # Every op is kept in the record, so any other statistic (the median
    # a user of a busy host sees, the tail) can be read off afterwards.
    detail = {
        "ops": len(samples),
        "wall_s_quartiles": quartiles(walls),
        "cpu_s_quartiles": quartiles(cpus),
        "payload_mib": payload_mib,
        "setup_s_all": setups,
        "op_start_s": starts,
        "op_wall_s": walls,
        "op_cpu_s": cpus,
    }
    return values, detail


def run_traced(workload, args, spans, tally, scratch):
    import gc

    from catalogue import SLICES
    from harness import measure_op, median
    from probes import PROBES
    from repro.core.perfstats import reset_stats

    t_begin = time.perf_counter()
    workload.traced_pass = True
    _set_up(workload, spans, tally)

    # Traced and untraced ops alternate on identical settings, so their
    # ratio is the tracing overhead.
    deadline = time.perf_counter() + TRACED_OPS_SHARE * args.seconds
    traced, plain, sliced = [], [], []
    index = 0
    while index < 3 or time.perf_counter() < deadline:
        trace = index % 2 == 0
        reset_stats()  # high-water marks only read true from zero
        sample = measure_op(workload, index, spans, trace=trace)
        tally.add(sample.check)
        (traced if trace else plain).append(sample)
        if trace and not sample.check.failed:
            with spans.span("slice", op=index):
                sliced.append(workload.slices(sample.raw, sample.wall_s))
        sample.raw = None  # drop the trace before the next op runs
        index += 1
    with spans.span("extra"):
        extra = workload.extra_traced(spans)
    workload.teardown()

    values = {name: 0.0 for name in SLICES}
    for name in {key for row in sliced for key in row}:
        values[name] = median([row[name] for row in sliced if name in row])
    values.update(extra)
    values.update(workload.layer)
    values["runtime.rss_growth_mib"] = median(
        [s.rss_growth_mib for s in traced + plain])
    values["core.tracing.overhead_share"] = (
        median([s.wall_s for s in traced])
        / median([s.wall_s for s in plain]) - 1.0)
    unknown = set(values) - set(SLICES)
    if unknown:
        raise SystemExit(f"slices not in the catalogue: {sorted(unknown)}")

    left = args.seconds - (time.perf_counter() - t_begin)
    budget = max(left, 0.2 * args.seconds) / len(PROBES)
    gc.collect()
    with spans.span("probes"):
        for name, (_unit, _better, probe) in PROBES.items():
            with spans.span(f"probe:{name}"):
                values[name] = float(probe(budget, scratch))
    detail = {"traced_ops": len(traced), "untraced_ops": len(plain)}
    return values, detail


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _log(f"perfbench: no program to measure: {SRC}/repro is missing")
        return 2
    sys.path.insert(0, SRC)
    # A terminated run still unwinds: the fleet is stopped, the scratch
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tag = f"{os.getpid()}-{args.workload}"
    os.environ["PERFBENCH_RUN"] = tag

    t0 = time.perf_counter()
    import catalogue
    import harness
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    if args.workload not in WORKLOADS:
        _log(f"perfbench: unknown workload {args.workload!r}; "
             f"known: {', '.join(WORKLOADS)}")
        return 2

    spans = harness.Spans()
    tally = _Tally()
    leftovers = []
    scratch = harness.Scratch(OUT)
    workload = WORKLOADS[args.workload](scratch, args.seed, args.smoke)
    try:
        with spans.span(f"workload:{args.workload}"):
            if args.trace:
                values, detail = run_traced(workload, args, spans, tally,
                                            scratch)
                units = {n: u for n, (u, _b) in
                         catalogue.per_layer().items()}
            else:
                values, detail = run_untraced(workload, args, spans,
                                              tally, import_s)
                units = {n: u for n, u, _b, _bound in
                         catalogue.END_TO_END}
    finally:
        # Whatever happened above, no fleet agent or replica of ours
        # may outlive the run.
        workload.close()
        leftovers = harness.wait_no_leftovers(tag)
        for pid, command in leftovers:
            _log(f"  LEFTOVER pid {pid}: {command}")
            os.kill(pid, signal.SIGKILL)
        scratch.close()

    if args.trace:
        spans.write_jsonl(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    result = {
        "correct": tally.failed == 0 and not leftovers,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    for name, cell in result["metrics"].items():
        _log(f"  {args.workload:16s} {name:38s} {cell['value']:14.6g} "
             f"{cell['unit']}")
    brief = {key: value for key, value in detail.items()
             if not key.startswith("op_") and key != "setup_s_all"}
    _log(f"  {args.workload}: {tally.attempted} deliveries attempted, "
         f"{tally.failed} failed, {brief}, "
         f"{time.perf_counter() - _T_START:.1f} s in all")
    if args.record:
        record = dict(result, workload=args.workload, trace=args.trace,
                      detail=detail, stamp=stamp(args, scratch.kind))
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
    print(json.dumps({key: result[key] for key in RESULT_KEYS}), flush=True)
    return 0


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------

def run_set(args, label: str) -> dict:
    """One complete set: every workload untraced, then (``--traced``)
    every workload traced.  Returns the merged record."""
    if args.every:
        sys.path.insert(0, SRC)
        from workloads import WORKLOADS
        names = list(WORKLOADS)
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    record = {"label": label, "workloads": {}}
    for trace in ([0, 1] if args.traced else [0]):
        for name in names:
            with tempfile.NamedTemporaryFile(
                    dir=OUT, prefix="record-", suffix=".json") as tmp:
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--record", tmp.name]
                if args.smoke:
                    cmd.append("--smoke")
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=900)
                if done.returncode != 0:
                    raise SystemExit(f"perfbench: {name} (trace {trace}) "
                                     f"exited {done.returncode}")
                one = json.load(open(tmp.name))
            record.setdefault("stamp", one["stamp"])
            cell = record["workloads"].setdefault(name, {
                "attempted": 0, "failed": 0, "correct": True})
            cell["attempted"] += one["attempted"]
            cell["failed"] += one["failed"]
            cell["correct"] = cell["correct"] and one["correct"]
            cell["per_layer" if trace else "end_to_end"] = one["metrics"]
            cell["traced_detail" if trace else "detail"] = one["detail"]
    return record


def print_set(record: dict) -> bool:
    ok = True
    for name, cell in record["workloads"].items():
        share = cell["failed"] / max(1, cell["attempted"])
        print(f"{name}: failed_share = {share:g} "
              f"({cell['failed']} of {cell['attempted']} deliveries)")
        for group in ("end_to_end", "per_layer"):
            for metric, value in cell.get(group, {}).items():
                print(f"  {metric:40s} {value['value']:14.6g} {value['unit']}")
        ok = ok and cell["correct"]
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long one run measures (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced pass")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--every", action="store_true",
                        help="all eight workloads of workloads.py, not only "
                        "the four BENCHMARK.json names")
    parser.add_argument("--smoke", action="store_true",
                        help="4 MiB payloads, one set-up: for the self-test")
    parser.add_argument("--aa", action="store_true",
                        help="run the set twice and compare with aa.py")
    parser.add_argument("--out", help="all workloads: write the record here "
                        "(--aa: FILE.A.json and FILE.B.json)")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is not None:
        return run_workload(args)

    os.makedirs(OUT, exist_ok=True)
    records = [run_set(args, label) for label in (("A", "B") if args.aa
                                                  else ("run",))]
    ok = all([print_set(record) for record in records])
    paths = []
    if args.out or args.aa:
        base = args.out or os.path.join(OUT, "aa")
        for record in records:
            paths.append(f"{base}.{record['label']}.json" if args.aa else base)
            with open(paths[-1], "w") as f:
                json.dump(record, f, indent=1)
    if args.aa:
        import aa
        ok = aa.main(paths) == 0 and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
