"""``kascade-sim`` — regenerate the paper's evaluation figures.

Examples::

    kascade-sim list                 # what can be regenerated
    kascade-sim run fig07 --quick    # Fig. 7 with the reduced grid
    kascade-sim run fig15 --reps 50  # Fig. 15 with the paper's 50 reps
    kascade-sim map                  # Fig. 12's topology + link usage
    kascade-sim all --quick          # everything, quick grids
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

import os

_METHODS = None


def _method_registry():
    """Name -> factory for every simulated method (built lazily)."""
    global _METHODS
    if _METHODS is None:
        from ..baselines import (
            BitTorrentSwarm, DollyChain, KascadeSim, MpiEthernet,
            MpiInfiniband, TakTukChain, TakTukTree, UdpcastSim,
            UdpcastUnidirectional,
        )
        _METHODS = {
            m.name: m for m in (
                KascadeSim, TakTukChain, TakTukTree, UdpcastSim,
                UdpcastUnidirectional, MpiEthernet, MpiInfiniband,
                DollyChain, BitTorrentSwarm,
            )
        }
    return _METHODS

_DESCRIPTIONS = {
    "fig07": "raw performance & scalability, 1 GbE, 2 GB file, <=200 clients",
    "fig07_10x": "extension beyond the paper: the fig07 sweep at 10x scale "
                 "(<=2000 clients, ~3 min)",
    "fig08": "10 GbE cluster, 14 nodes, 5 GB file",
    "fig09": "IP over InfiniBand (20 Gb), two switches, 5 GB file",
    "fig10": "randomized node ordering vs Kascade/ordered reference",
    "fig11": "2 GB file written to 83.5 MB/s disks, <=30 clients",
    "fig13": "multi-site routed transfer across Grid'5000 sites",
    "fig14": "small file (50 MB): startup time dominates",
    "fig15": "fault tolerance under Distem failure injection",
}


def cmd_list(_args: argparse.Namespace) -> int:
    from ..bench import FIGURES

    print("Reproducible figures (paper: Martin et al., HPDIC/IPDPS 2014):")
    for key in sorted(FIGURES):
        print(f"  {key}: {_DESCRIPTIONS[key]}")
    print("  fig12 ('map'): multi-site topology used by fig13")
    return 0


def cmd_map(_args: argparse.Namespace) -> int:
    from ..bench import fig12_site_map

    print(fig12_site_map())
    return 0


def _run_one(key: str, quick: bool, reps: int | None,
             plot: bool = False, csv_dir: str | None = None,
             json_dir: str | None = None,
             cache_dir: str | None = None) -> None:
    from ..bench import FIGURES, ascii_plot, to_csv, to_json

    store = None
    if cache_dir is not None:
        from ..bench.store import FigureStore
        store = FigureStore(cache_dir)
        cached = store.load(key)
        if cached is not None:
            print(cached.format_table())
            if plot:
                print()
                print(ascii_plot(cached))
            print(f"  [loaded from cache {store._path(key)}]")
            print()
            return
    fn = FIGURES[key]
    kwargs = {"quick": quick}
    if reps is not None:
        kwargs["repetitions"] = reps
    started = time.monotonic()
    result = fn(**kwargs)
    elapsed = time.monotonic() - started
    if store is not None:
        store.save(key, result)
    print(result.format_table())
    if plot:
        print()
        print(ascii_plot(result))
    for directory, serialize, ext in (
        (csv_dir, to_csv, "csv"), (json_dir, to_json, "json"),
    ):
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"{key}.{ext}")
            with open(path, "w") as f:
                f.write(serialize(result))
            print(f"  [written to {path}]")
    print(f"  [regenerated in {elapsed:.1f}s]")
    print()


def cmd_run(args: argparse.Namespace) -> int:
    from ..bench import FIGURES

    for key in args.figures:
        if key not in FIGURES:
            raise SystemExit(
                f"unknown figure {key!r}; try: {', '.join(sorted(FIGURES))}"
            )
    for key in args.figures:
        _run_one(key, args.quick, args.reps,
                 plot=args.plot, csv_dir=args.csv, json_dir=args.json,
                 cache_dir=args.cache)
    return 0


# Beyond-the-paper extensions: runnable by name, but `all` regenerates
# the paper's evaluation only.
_EXTENSIONS = {"fig07_10x"}


def cmd_all(args: argparse.Namespace) -> int:
    from ..bench import FIGURES, fig12_site_map

    print(fig12_site_map())
    print()
    for key in sorted(set(FIGURES) - _EXTENSIONS):
        _run_one(key, args.quick, args.reps,
                 plot=args.plot, csv_dir=args.csv, json_dir=args.json,
                 cache_dir=args.cache)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run a custom what-if scenario across methods."""
    import numpy as np

    from ..baselines import SimSetup
    from ..core.pipeline import order_by_hostname, order_randomly
    from ..core.units import mbps, parse_size
    from ..topology import build_fat_tree, build_single_switch, build_two_switch
    from ..topology.graph import DiskSpec

    registry = _method_registry()
    wanted = (
        list(registry) if args.methods == "all"
        else [m.strip() for m in args.methods.split(",")]
    )
    unknown = [m for m in wanted if m not in registry]
    if unknown:
        raise SystemExit(
            f"unknown method(s) {unknown}; available: {', '.join(registry)}"
        )

    size = parse_size(args.size)
    n = args.clients
    disk = DiskSpec(write_bw=args.disk_mbs * 1e6) if args.sink == "disk" else None

    def build_net():
        if args.topology_file is not None:
            from ..topology.serialize import load_network
            net = load_network(args.topology_file)
            if len(net.hosts) < n + 1:
                raise SystemExit(
                    f"topology file has {len(net.hosts)} hosts; "
                    f"--clients {n} needs {n + 1}"
                )
            return net
        if args.topology == "fattree":
            return build_fat_tree(n + 1, disk=disk)
        if args.topology == "10gbe":
            return build_single_switch(n + 1, disk=disk)
        if args.topology == "infiniband":
            return build_two_switch(n + 1)
        raise SystemExit(f"unknown topology {args.topology!r}")

    print(f"{args.clients} clients, {args.size}, {args.topology}, "
          f"sink={args.sink}, order={args.order}\n")
    print(f"{'method':14s} {'startup':>9s} {'transfer':>9s} "
          f"{'total':>8s} {'throughput':>12s} {'completed':>10s}")
    for name in wanted:
        net = build_net()
        hosts = order_by_hostname(net.host_names())
        receivers = hosts[1: n + 1]
        if args.order == "random":
            receivers = order_randomly(
                receivers, np.random.default_rng(args.seed))
        setup = SimSetup(
            network=net, head=hosts[0], receivers=tuple(receivers),
            size=size, sink=args.sink,
            include_startup=not args.no_startup,
            rng=np.random.default_rng(args.seed),
        )
        result = registry[name]().run(setup, trace=args.explain)
        print(f"{result.method:14s} {result.startup_time:8.2f}s "
              f"{result.data_time:8.2f}s {result.total_time:7.2f}s "
              f"{mbps(result.throughput):9.1f} MB/s "
              f"{len(result.completed):>6d}/{n}")
        if args.explain and result.trace is not None:
            print()
            print(result.trace.bottleneck_report())
            if n <= 20:
                print(result.trace.gantt())
            print()
    return 0


def _parse_kill_spec(spec: str, size: int):
    """Parse ``node@when[:mode]``: when is bytes (``1MB``), a percent of
    the payload (``50%``), or a time (``2.5s``)."""
    from ..core.units import parse_size
    from ..runtime.result import CrashPlan

    mode = "close"
    if ":" in spec:
        spec, mode = spec.rsplit(":", 1)
    try:
        node, when = spec.split("@", 1)
    except ValueError:
        raise SystemExit(f"bad --kill spec {spec!r} "
                         f"(expected node@when[:mode])")
    if when.endswith("%"):
        frac = float(when[:-1]) / 100.0
        return CrashPlan(node, max(1, int(size * frac)), mode)
    if when.endswith("s"):
        return CrashPlan(node, mode=mode, at_time=float(when[:-1]))
    return CrashPlan(node, parse_size(when), mode)


def cmd_proto(args: argparse.Namespace) -> int:
    """Run one protocol-exact scenario, optionally with a sequence chart."""
    from ..core import KascadeConfig, PatternSource
    from ..core.units import parse_size
    from ..protosim import ProtoBroadcast, render_msc

    size = parse_size(args.size)
    config = KascadeConfig(
        chunk_size=parse_size(args.chunk_size),
        buffer_chunks=args.buffer_chunks,
        io_timeout=args.timeout,
        ping_timeout=args.timeout / 2,
        connect_timeout=max(1.0, args.timeout),
        report_timeout=30.0,
        verify_digest=True,
    )
    receivers = [f"n{i}" for i in range(2, args.nodes + 2)]
    crashes = [_parse_kill_spec(s, size) for s in args.kill]
    bc = ProtoBroadcast(PatternSource(size, seed=args.seed), receivers,
                        config=config, crashes=crashes)
    if args.trace:
        from ..core.tracing import TraceCollector
        tracer = TraceCollector(zero=0.0)
        result = bc.run(trace=args.msc, tracer=tracer)
    else:
        result = bc.run(trace=args.msc)

    print(f"simulated {size} bytes to {len(receivers)} node(s) "
          f"in {result.sim_time:.3f}s (simulated)")
    print(result.report.summary())
    for name in ("n1", *receivers):
        status = "ok" if result.node_ok[name] else (
            result.node_errors[name] or "incomplete")
        print(f"  {name}: {result.node_bytes[name]} bytes, {status}")
    if result.trace is not None:
        result.trace.to_jsonl(args.trace)
        print(result.trace.failure_chronology())
        print(f"trace: {result.trace.summary()} -> {args.trace}")
    if args.msc:
        print()
        print(render_msc(result.message_log, ["n1", *receivers]))
    return 0 if result.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from ..protosim.fuzz import run_campaign

    def progress(done, total, problem):
        if problem is not None:
            print(f"  [{done}/{total}] FAILURE: {problem}")
        elif done % 10 == 0 or done == total:
            print(f"  [{done}/{total}] ok so far")

    report = run_campaign(args.runs, base_seed=args.seed,
                          progress=progress)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_diff(args: argparse.Namespace) -> int:
    from ..bench.compare import diff_stores

    report = diff_stores(args.old_dir, args.new_dir)
    print(report.format(all_points=args.all))
    return 0 if report.clean else 1


def main(argv: List[str] | None = None) -> int:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="kascade-sim",
        description="Regenerate the Kascade paper's evaluation figures "
                    "on the network simulator",
    )
    parser.add_argument("--version", action="version",
                        version=f"kascade-sim {__version__}")
    # Shared by every subcommand so users can profile their own scenarios
    # with the same cProfile view the bench harness prints.
    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument("--profile", nargs="?", const="", default=None,
                          metavar="PATH",
                          help="cProfile this command: print the top-25 "
                               "entries, and dump raw stats to PATH for "
                               "python -m pstats / snakeviz")
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", parents=[profiled],
                         help="list reproducible figures")
    lst.set_defaults(fn=cmd_list)

    mp = sub.add_parser("map", parents=[profiled],
                        help="print the Fig. 12 multi-site topology")
    mp.set_defaults(fn=cmd_map)

    run = sub.add_parser("run", parents=[profiled],
                         help="regenerate one or more figures")
    run.add_argument("figures", nargs="+", metavar="FIG",
                     help="figure keys, e.g. fig07 fig15")
    run.add_argument("--quick", action="store_true",
                     help="reduced grid and repetitions")
    run.add_argument("--reps", type=int, default=None,
                     help="override the repetition count")
    run.add_argument("--plot", action="store_true",
                     help="render a terminal chart of each figure")
    run.add_argument("--csv", metavar="DIR", default=None,
                     help="also write <figure>.csv into DIR")
    run.add_argument("--json", metavar="DIR", default=None,
                     help="also write <figure>.json into DIR")
    run.add_argument("--cache", metavar="DIR", default=None,
                     help="resume support: skip figures already in DIR, "
                          "persist new ones there")
    run.set_defaults(fn=cmd_run)

    al = sub.add_parser("all", parents=[profiled],
                        help="regenerate every figure")
    al.add_argument("--quick", action="store_true")
    al.add_argument("--reps", type=int, default=None)
    al.add_argument("--plot", action="store_true")
    al.add_argument("--csv", metavar="DIR", default=None)
    al.add_argument("--json", metavar="DIR", default=None)
    al.add_argument("--cache", metavar="DIR", default=None,
                    help="resume support: skip cached figures")
    al.set_defaults(fn=cmd_all)

    cmp_ = sub.add_parser(
        "compare", parents=[profiled],
        help="what-if scenario: compare methods on a custom platform",
    )
    cmp_.add_argument("--clients", type=int, default=50)
    cmp_.add_argument("--size", default="2GB",
                      help="payload size, e.g. 2GB, 50MB (default 2GB)")
    cmp_.add_argument("--topology", default="fattree",
                      choices=["fattree", "10gbe", "infiniband"])
    cmp_.add_argument("--topology-file", default=None, metavar="JSON",
                      help="model your own cluster: a topology JSON file "
                           "(see repro.topology.serialize); overrides "
                           "--topology")
    cmp_.add_argument("--sink", default="null", choices=["null", "disk"])
    cmp_.add_argument("--disk-mbs", type=float, default=83.5,
                      help="raw disk write bandwidth for --sink disk")
    cmp_.add_argument("--order", default="sorted",
                      choices=["sorted", "random"])
    cmp_.add_argument("--methods", default="all",
                      help="comma-separated method names, or 'all'")
    cmp_.add_argument("--no-startup", action="store_true",
                      help="exclude launcher startup time")
    cmp_.add_argument("--seed", type=int, default=1)
    cmp_.add_argument("--explain", action="store_true",
                      help="print bottleneck attribution (and a stream "
                           "gantt for small runs)")
    cmp_.set_defaults(fn=cmd_compare)

    proto = sub.add_parser(
        "proto", parents=[profiled],
        help="run a protocol-exact scenario (deterministic, byte-exact)",
    )
    proto.add_argument("--nodes", type=int, default=3,
                       help="number of receivers")
    proto.add_argument("--size", default="4MB")
    proto.add_argument("--chunk-size", default="256KB")
    proto.add_argument("--buffer-chunks", type=int, default=8)
    proto.add_argument("--timeout", type=float, default=0.5,
                       help="failure-detection io timeout (simulated s)")
    proto.add_argument("--kill", action="append", default=[],
                       metavar="NODE@WHEN[:MODE]",
                       help="kill a node, e.g. n3@50%%, n2@1MB:silent, "
                            "n4@2.5s (repeatable)")
    proto.add_argument("--msc", action="store_true",
                       help="print the message sequence chart of the run")
    proto.add_argument("--trace", default=None, metavar="PATH",
                       help="write the structured event timeline (JSONL, "
                            "same schema as `kascade --trace`) to PATH")
    proto.add_argument("--seed", type=int, default=1)
    proto.set_defaults(fn=cmd_proto)

    diff = sub.add_parser(
        "diff", parents=[profiled],
        help="compare two cached result sets (model regression check)",
    )
    diff.add_argument("old_dir", help="baseline cache directory")
    diff.add_argument("new_dir", help="candidate cache directory")
    diff.add_argument("--all", action="store_true",
                      help="show every point, not just significant moves")
    diff.set_defaults(fn=cmd_diff)

    fuzz = sub.add_parser(
        "fuzz", parents=[profiled],
        help="soak-test the protocol: randomized crash schedules, "
             "byte-exact invariants",
    )
    fuzz.add_argument("--runs", type=int, default=50)
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed (failures print their exact seed)")
    fuzz.set_defaults(fn=cmd_fuzz)

    args = parser.parse_args(argv)
    profile_to = getattr(args, "profile", None)
    if profile_to is None:
        return args.fn(args)

    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        rc = args.fn(args)
    finally:
        prof.disable()
        print("--- cProfile top 25 (cumulative) ---", file=sys.stderr)
        stats = pstats.Stats(prof, stream=sys.stderr)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        if profile_to:
            prof.dump_stats(profile_to)
            print(f"profile stats dumped to {profile_to} "
                  f"(inspect with python -m pstats)", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
