"""``kascade`` — pipelined fault-tolerant broadcast over real TCP.

Mirrors the paper's Fig. 2 interface:

* ``kascade demo -n 5 -i myfile.tgz -o /tmp/out-{node}`` — run a whole
  pipeline locally (one thread per node) — the zero-setup showcase;
* ``kascade recv --name n2 --nodes <registry> [-o FILE | -O CMD]`` — run
  one receiving node (start one per machine/port);
* ``kascade send --name n1 --nodes <registry> [-i FILE]`` — run the head
  node; reads stdin when ``-i`` is omitted or ``-``, exactly like
  ``dd if=/dev/sda2 | gzip | kascade ... -O 'gunzip | dd of=/dev/sda2'``;
* ``kascade deploy -n 8 -i myfile.tgz`` — windowed multi-process
  deployment: one OS process per node, launched ``--window`` at a time,
  supervised by a coordinator (the §III-B startup phase for real); the
  nodes are forks of one fork server, itself forked from this process
  at entry (:func:`fork_server`; ``kascade serve`` does the same);
* ``kascade agent --coordinator HOST:PORT --name n3`` — one deployed
  node process; normally spawned by ``deploy``, not by hand.

The ``--nodes`` registry is ``name=host:port`` pairs, comma separated,
in pipeline order, the head first:
``--nodes n1=10.0.0.1:3640,n2=10.0.0.2:3640,n3=10.0.0.3:3640``.

``--stripes N`` (any command) splits the stream into N interleaved
chains.  For ``send``/``recv`` the registry names one address per node
and stripe ``j`` listens on that port + ``j`` (consecutive ports), so
the same ``--nodes`` spec — with the same ``--stripes`` — must be given
to every node.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Tuple

# Module top is what ``--help`` and every spawned agent pay for: the
# parser's defaults and nothing else.  Each command imports what it runs.
from ..core.config import (DATA_PLANES, DEFAULT_CACHE_BYTES, DEFAULT_CONFIG,
                           KascadeConfig)

if TYPE_CHECKING:
    from ..runtime.registry import Address


def make_tracer(args: argparse.Namespace):
    """``(tracer, finish)`` pair for ``--trace PATH``: a collector when
    tracing is on (``finish()`` writes the JSONL file), else the no-op."""
    from ..core.tracing import NULL_TRACER, TraceCollector

    if not args.trace:
        return NULL_TRACER, lambda: None
    tracer = TraceCollector()

    def finish() -> None:
        tracer.to_jsonl(args.trace)

    return tracer, finish


def parse_registry(spec: str) -> Tuple[List[str], Dict[str, Address]]:
    """Parse ``name=host:port,...`` into (ordered names, address map)."""
    from ..runtime.registry import Address

    names: List[str] = []
    addrs: Dict[str, Address] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            name, hostport = item.split("=", 1)
            host, port = hostport.rsplit(":", 1)
            addrs[name] = Address(host, int(port))
            names.append(name)
        except ValueError:
            raise SystemExit(f"bad --nodes entry: {item!r} "
                             f"(expected name=host:port)")
    if len(names) < 2:
        raise SystemExit("--nodes needs the head plus at least one receiver")
    return names, addrs


def build_config(args: argparse.Namespace) -> KascadeConfig:
    from ..core.units import parse_size

    bwlimit = None
    if args.bwlimit is not None:
        bwlimit = float(parse_size(args.bwlimit))
    return DEFAULT_CONFIG.with_(
        chunk_size=args.chunk_size,
        buffer_chunks=args.buffer_chunks,
        io_timeout=args.timeout,
        verify_digest=args.verify,
        bandwidth_limit=bwlimit,
        sink_writeback_depth=args.writeback_depth,
        sink_writeback_budget=int(parse_size(args.writeback_budget)),
        readahead_chunks=args.readahead,
        stripes=args.stripes,
        data_plane=args.data_plane,
    )


def add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CONFIG.chunk_size,
                        help="DATA chunk size in bytes")
    parser.add_argument("--buffer-chunks", type=int,
                        default=DEFAULT_CONFIG.buffer_chunks,
                        help="chunks kept for failure recovery")
    parser.add_argument("--timeout", type=float, default=DEFAULT_CONFIG.io_timeout,
                        help="I/O stall timeout (seconds) before the liveness ping")
    parser.add_argument("--verify", action="store_true",
                        help="end-to-end SHA-256 verification: the head ships "
                             "its digest in the report, every receiver checks "
                             "its stored copy")
    parser.add_argument("--bwlimit", default=None,
                        help="cap the head's send rate, e.g. 40MB (per "
                             "second); useful next to production traffic")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL timeline of structured "
                             "broadcast events (connect/chunk/stall/ping/"
                             "failover/...) to PATH")
    parser.add_argument("--writeback-depth", type=int,
                        default=DEFAULT_CONFIG.sink_writeback_depth,
                        help="chunks queued for the background sink writer "
                             "(0 = write synchronously on the relay thread)")
    parser.add_argument("--writeback-budget", default=str(
                            DEFAULT_CONFIG.sink_writeback_budget),
                        help="pinned-byte ceiling for the writeback queue, "
                             "e.g. 32MiB; past it chunks are copied")
    parser.add_argument("--readahead", type=int,
                        default=DEFAULT_CONFIG.readahead_chunks,
                        help="chunks the head prefetches from a file/pipe "
                             "source (0 = no read-ahead)")
    parser.add_argument("--stripes", type=int, default=DEFAULT_CONFIG.stripes,
                        metavar="N",
                        help="split the stream into N interleaved chains "
                             "(default 1 = classic single chain); for "
                             "send/recv, stripe j listens on the registry "
                             "port + j")
    parser.add_argument("--data-plane", choices=DATA_PLANES,
                        default=DEFAULT_CONFIG.data_plane,
                        help="I/O engine: 'threaded' (two threads per node, "
                             "the conformance reference) or 'evloop' (one "
                             "reactor per process; pure relays forward "
                             "payloads in-kernel via splice/sendfile)")


def refuse(args: argparse.Namespace, why) -> "NoReturn":
    """Refuse a run as argparse refuses what it can check itself: one
    line naming the command, status 2."""
    print(f"kascade {args.command}: error: {why}", file=sys.stderr)
    raise SystemExit(2)


def cmd_demo(args: argparse.Namespace) -> int:
    """Whole pipeline in one process: threads + loopback TCP."""
    from ..core.errors import KascadeError
    from ..core.sources import open_source
    from ..session import run_broadcast

    config = build_config(args)
    receivers = [f"n{i}" for i in range(2, args.nodes + 2)]
    try:
        source = open_source(args.input)
    except OSError as exc:
        refuse(args, exc)

    def sink_factory(name: str):
        if args.output_command:
            from ..core.sinks import CommandSink
            return CommandSink(args.output_command.replace("{node}", name))
        if args.output:
            from ..core.sinks import FileSink
            # A file-backed head knows the stream length: pre-size the
            # outputs so an out-of-space disk fails the run up front.
            return FileSink(args.output.replace("{node}", name),
                            expected_size=getattr(source, "size", None))
        from ..core.sinks import NullSink
        return NullSink()

    try:
        result = run_broadcast(source, receivers, sink_factory=sink_factory,
                               config=config, trace=args.trace,
                               timeout=args.run_timeout)
    except KascadeError as exc:  # a plan or option the run refuses up front
        refuse(args, exc)
    return print_result(result, args)


def print_result(result, args: argparse.Namespace) -> int:
    """Render a ``demo``/``deploy`` result; returns the exit code."""
    try:
        delivered = [n for n in result.completed_nodes if n != "n1"]
        print(f"{result.total_bytes} bytes to {len(delivered)} node(s) "
              f"in {result.duration:.2f}s "
              f"({result.throughput / 1e6:.1f} MB/s)")
        if result.launch is not None:
            print(f"launch: {result.launch.summary()}")
            print(result.launch.compare().render())
        print(result.report.summary())
        for name, outcome in sorted(result.outcomes.items()):
            status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
            digest = (f", sha256={outcome.digest[:12]}…"
                      if outcome.digest else "")
            print(f"  {name}: {outcome.bytes_received} bytes, "
                  f"{status}{digest}")
        if args.trace and result.trace is not None:
            print(result.trace.failure_chronology())
            print(f"trace: {result.trace.summary()} -> {args.trace}")
    except BrokenPipeError:
        pass  # the reader left; main() settles stdout, the status stands
    return 0 if result.ok else 1


#: ``--chaos`` signal name → the crash mode that signal realises.
_MODE_OF_SIGNAL = {"kill": "close", "stop": "silent"}


def parse_chaos(specs: List[str], head: str | None = None):
    """Parse ``--chaos NODE:BYTES[:SIG]`` items into CrashPlans
    (``kill`` is ``mode="close"``, ``stop`` is ``mode="silent"``).

    ``head`` lets the user write the role instead of the node name:
    ``--chaos head:4MiB`` targets whatever node is the head (requires
    ``--allow-head-chaos`` to survive).
    """
    from ..core.units import parse_size
    from ..runtime.result import CrashPlan

    plans = []
    for spec in specs or []:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(f"bad --chaos entry: {spec!r} "
                             f"(expected NODE:BYTES[:kill|stop])")
        node, size = parts[0], parts[1]
        if node == "head" and head is not None:
            node = head
        sig = parts[2] if len(parts) == 3 else "kill"
        try:
            if sig not in _MODE_OF_SIGNAL:
                raise ValueError(f"unknown signal {sig!r}; choose from "
                                 f"{sorted(_MODE_OF_SIGNAL)}")
            plans.append(CrashPlan(node, int(parse_size(size)),
                                   _MODE_OF_SIGNAL[sig]))
        except Exception as exc:
            raise SystemExit(f"bad --chaos entry: {spec!r} ({exc})")
    return plans


def cmd_deploy(args: argparse.Namespace) -> int:
    """Windowed multi-process deployment: real processes, real signals."""
    from ..core.errors import KascadeError
    from ..core.sources import open_source
    from ..session import run_broadcast

    config = build_config(args)
    receivers = [f"n{i}" for i in range(2, args.nodes + 2)]
    try:
        source = open_source(args.input)
    except OSError as exc:
        refuse(args, exc)
    try:
        result = run_broadcast(
            source, receivers,
            backend="procs",
            config=config,
            trace=args.trace,
            timeout=args.run_timeout,
            crashes=parse_chaos(args.chaos, head="n1"),
            heartbeat_timeout=args.heartbeat_timeout,
            output_template=args.output,
            allow_head_chaos=args.allow_head_chaos,
            **fleet_launch(args),
        )
    except KascadeError as exc:  # a plan or option the run refuses up front
        refuse(args, exc)
    return print_result(result, args)


def cmd_agent(args: argparse.Namespace) -> int:
    """One deployed node process (normally spawned by ``deploy``/``serve``),
    or — given the launcher's channel — the host's fork server that every
    other agent is a ``fork()`` of."""
    import os

    from ..deploy.agent import EXIT_OK, serve_sessions

    if args.fork_server is not None:
        code = _serve_forks(args.fork_server, cached=args.cache_bytes > 0)
    else:
        code = serve_sessions(
            _parse_hostport(args.coordinator, "--coordinator"), args.name,
            bind=args.bind,
            advertise=args.advertise,
            start_timeout=args.start_timeout,
            cache_bytes=args.cache_bytes,
            die_on_start=args.die_on_start,
        )
    if code == EXIT_OK:
        # Drained: every session's sink is finished and the control
        # socket is closed (a fork server: every child is reaped), and
        # the supervisor is now waiting for this process to be gone.
        # Interpreter tear-down would only free what the kernel frees
        # anyway — four of them at once cost a one-shot ~25 ms of its
        # wall time — so leave directly.
        os._exit(EXIT_OK)
    return code


def _serve_forks(channel: int, *, cached: bool) -> int:
    """Be this host's fork server on ``channel``: every agent it forks
    runs ``kascade agent`` in the state this process is in."""
    from ..deploy.agent import serve_forks

    return serve_forks(channel, lambda argv: main(["agent", *argv]),
                       cached=cached)


#: The commands that launch a fleet, and fork its server at entry.
FLEET_COMMANDS = ("deploy", "serve")


def fork_server(args: argparse.Namespace):
    """Fork this process into the host's fork server, for the fleet a
    ``deploy``/``serve`` is about to launch, and return the
    :class:`~repro.deploy.launcher.ForkServer` that fleet adopts.

    Called at entry, so the child loads what an agent runs (with the
    cache's modules for a ``serve`` that has a cache) while this process
    imports the supervisor, and nothing loaded here is loaded twice.
    ``None`` — the fleet then execs its server on its first spawn, and
    that one says what went wrong — when this process already runs a
    second thread (a fork copies only the calling one), cannot open the
    server's ``--stderr-dir`` log or cannot fork.
    """
    import os
    import socket

    if len(os.listdir("/proc/self/task")) > 1:
        return None
    err = None
    if args.stderr_dir is not None:
        try:
            err = os.open(os.path.join(args.stderr_dir,
                                       "fork-server.stderr.log"),
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
        except OSError:
            return None
    cached = args.command == "serve" and args.cache_bytes > 0
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    sys.stdout.flush()  # or the child owns a copy of what is buffered
    sys.stderr.flush()
    forked_at = time.monotonic()
    try:
        pid = os.fork()
        if pid == 0:
            ours.close()
            _be_fork_server(theirs.detach(), err, cached)
    except OSError:
        ours.close()
        return None
    finally:
        theirs.close()
        if err is not None:
            os.close(err)
    from ..deploy.launcher import ForkServer

    return ForkServer.adopt(pid, ours, forked_at,
                            stderr_dir=args.stderr_dir,
                            boot_timeout=args.startup_timeout)


def _be_fork_server(channel: int, err: int | None,
                    cached: bool) -> "NoReturn":
    """The forked child of :func:`fork_server`: stdio as an exec'd server
    has it (``/dev/null``; stderr to ``err``, the ``--stderr-dir`` log,
    when there is one), then :func:`_serve_forks` until the fleet is
    done.  It never returns into the CLI."""
    import os

    code = 1
    try:
        null = os.open(os.devnull, os.O_RDWR)
        err = null if err is None else err
        for target, fd in ((0, null), (1, null), (2, err)):
            os.dup2(fd, target)
        for fd in {null, err} - {0, 1, 2}:
            os.close(fd)
        code = _serve_forks(channel, cached=cached)
    except BaseException:  # noqa: BLE001 - the child never returns to main
        import traceback

        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _parse_hostport(spec: str, what: str) -> Tuple[str, int]:
    try:
        host, port = spec.rsplit(":", 1)
        return host, int(port)
    except ValueError:
        raise SystemExit(f"bad {what} {spec!r} (expected HOST:PORT)")


def cmd_serve(args: argparse.Namespace) -> int:
    """Launch a persistent agent fleet and serve broadcast sessions."""
    from ..daemon import DaemonServer, serve_clients

    config = build_config(args)
    if args.names:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
    else:
        names = [f"n{i}" for i in range(1, args.fleet + 1)]
    host, port = _parse_hostport(args.listen, "--listen")
    server = DaemonServer(
        names,
        config=config,
        cache_bytes=args.cache_bytes,
        **fleet_launch(args),
    )
    server.start()
    if not server.registered:
        server.shutdown()
        raise SystemExit("no fleet agent launched")
    print(f"fleet up: {len(server.registered)}/{len(names)} agents in "
          f"{server.launch_report.total_s:.2f}s "
          f"(cache {args.cache_bytes} bytes/agent)", flush=True)
    try:
        serve_clients(
            server, host, port,
            on_bound=lambda h, p: print(f"listening on {h}:{p}", flush=True))
    except KeyboardInterrupt:
        server.shutdown()
    print(f"served {server.sessions_completed} session(s); fleet down",
          flush=True)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one broadcast session to a running ``kascade serve``."""
    from ..core.errors import KascadeError

    try:
        return _submit(args)
    except KascadeError as exc:  # no server there, or it broke off
        refuse(args, exc)


def _submit(args: argparse.Namespace) -> int:
    from ..daemon.client import DaemonClient

    host, port = _parse_hostport(args.server, "--server")
    client = DaemonClient(host, port)
    if args.shutdown:
        client.shutdown()
        print("server shutting down")
        return 0
    if args.ping:
        info = client.ping()
        print(f"fleet: {','.join(info['registered'])} "
              f"({info['sessions_completed']} session(s) served)")
        return 0
    if not args.input:
        raise SystemExit("submit needs -i FILE (or --ping/--shutdown)")
    late = []
    for spec in args.late_join or []:
        from ..core.units import parse_size
        try:
            node, size = spec.split(":", 1)
            late.append((node, int(parse_size(size))))
        except ValueError:
            raise SystemExit(f"bad --late-join entry: {spec!r} "
                             f"(expected NODE:BYTES)")
    receivers = ([n.strip() for n in args.receivers.split(",") if n.strip()]
                 if args.receivers else None)
    reply = client.submit(
        args.input, receivers,
        head=args.head,
        output_template=args.output,
        late_join=late,
        session=args.session,
        timeout=args.run_timeout,
    )
    if "error" in reply:
        print(f"submit FAILED: {reply['error']}", file=sys.stderr)
        return 1
    stats = reply.get("perfstats") or {}
    cached = stats.get("bytes_from_cache", 0)
    print(f"{reply['bytes']} bytes in {reply['duration']:.2f}s "
          f"({cached} from cache)")
    for name, digest in sorted((reply.get("digests") or {}).items()):
        print(f"  {name}: sha256={digest[:12]}…")
    if reply.get("failed"):
        print(f"failed: {','.join(reply['failed'])}", file=sys.stderr)
    return 0 if reply.get("ok") else 1


def _run_host(args: argparse.Namespace, config: KascadeConfig, **role):
    """Run this process's host of the ``--nodes`` schedule to the end.

    One :class:`~repro.runtime.host.HostChains`: one chain instance per
    stripe, stripe ``j`` of every node on its registry port + ``j`` (the
    consecutive-port convention, so one ``--nodes`` spec describes all
    the chains).  ``role`` is the head's ``source`` or a receiver's
    ``sink``.  Returns the finished host.
    """
    from ..core.plan import ChainPlan
    from ..runtime.host import HostChains
    from ..runtime.registry import Address, Registry
    from ..runtime.transport import Listener

    names, addrs = parse_registry(args.nodes)
    if args.name not in addrs:
        raise SystemExit(f"--name {args.name!r} not present in --nodes")
    if "source" in role and args.name != names[0]:
        raise SystemExit("the sending node must be first in --nodes")
    chain_plan = ChainPlan.build(names[0], tuple(names[1:]),
                                 stripes=config.stripes, order="given")
    if "source" in role:
        from ..core.errors import KascadeError
        from ..runtime.result import check_run

        try:   # the head's part of the run: one host on local threads
            check_run(chain_plan, backend="local",
                      data_plane=config.data_plane,
                      source_kind=role["source"].kind)
        except KascadeError as exc:
            raise SystemExit(str(exc))
    me = addrs[args.name]
    stripes = range(config.stripes)
    listeners = [Listener(host=me.host, port=me.port + j) for j in stripes]
    registries = [Registry({name: Address(a.host, a.port + j)
                            for name, a in addrs.items()})
                  for j in stripes]
    tracer, finish_trace = make_tracer(args)
    host = HostChains(args.name, chain_plan, registries, listeners, config,
                      tracer=tracer, **role)
    nodes = list(host.nodes.values())
    if config.data_plane == "evloop":
        from ..runtime.evloop import Reactor

        # This thread *is* the event loop, for every stripe.
        reactor = Reactor()
        for node in nodes:
            node.attach(reactor)
            node.start()

        def wait(deadline=None):
            reactor.run(stop_when=lambda: all(n.finished for n in nodes),
                        deadline=deadline)
    else:
        host.start()
        wait = host.join
    try:
        wait()
    except KeyboardInterrupt:
        if not host.is_head:
            raise
        # ^C on the sender → QUIT path: keep driving the same nodes so
        # the report exchange can still complete (bounded by
        # report_timeout).
        host.request_quit()
        wait(time.monotonic() + config.report_timeout * 2)
    finish_trace()
    host.close()
    return host


def cmd_recv(args: argparse.Namespace) -> int:
    """One receiving node, listening on its registry address.

    With ``--stripes N`` the node runs one chain instance per stripe,
    listening on registry port + stripe index, and merges the stripes
    back into the single output in order.
    """
    from ..core.sinks import open_sink

    host = _run_host(args, build_config(args),
                     sink=open_sink(args.output, args.output_command))
    outcome = host.outcome
    if outcome.ok:
        print(f"{args.name}: received {outcome.bytes_received} bytes")
        return 0
    print(f"{args.name}: FAILED: {outcome.error or 'unknown error'}",
          file=sys.stderr)
    return 1


def cmd_send(args: argparse.Namespace) -> int:
    """The head node: streams the input down the pipeline.

    With ``--stripes N`` the input is split into N interleaved chains
    (chunk i goes to stripe i mod N); every node's stripe ``j`` endpoint
    is its registry port + ``j``.  Striping needs random access to the
    input, so stdin cannot be striped.
    """
    from ..core.sources import open_source

    host = _run_host(args, build_config(args), source=open_source(args.input))
    report = host.report
    if report is not None:
        print(report.summary())
    return 0 if host.outcome.ok else 1


def _demo_args(demo: argparse.ArgumentParser) -> None:
    demo.add_argument("-n", "--nodes", type=int, default=3,
                      help="number of receiving nodes")
    demo.add_argument("-i", "--input", required=True,
                      help="input file, or '-' for stdin")
    demo.add_argument("-o", "--output", default=None,
                      help="output path; '{node}' expands to the node name")
    demo.add_argument("-O", "--output-command", default=None,
                      help="pipe output into this shell command")
    demo.add_argument("--run-timeout", type=float, default=3600.0)
    add_common(demo)


def _deploy_args(deploy: argparse.ArgumentParser) -> None:
    deploy.add_argument("-n", "--nodes", type=int, default=3,
                        help="number of receiving nodes")
    deploy.add_argument("-i", "--input", required=True,
                        help="input file, or '-' for stdin (spooled)")
    deploy.add_argument("-o", "--output", default=None,
                        help="per-node output path; '{node}' expands to "
                             "the node name (default: discard, digest only)")
    deploy.add_argument("--chaos", action="append", default=None,
                        metavar="NODE:BYTES[:SIG]",
                        help="send a real signal (kill|stop, default kill) "
                             "to NODE once it received BYTES; repeatable")
    deploy.add_argument("--run-timeout", type=float, default=3600.0)
    deploy.add_argument("--heartbeat-timeout", type=float, default=2.0,
                        help="seconds of control-plane silence before the "
                             "coordinator declares an agent dead (default "
                             "%(default)s; raise on oversubscribed hosts "
                             "where many agents share few cores)")
    deploy.add_argument("--allow-head-chaos", action="store_true",
                        help="permit --chaos to target the head: on head "
                             "death the supervisor promotes the "
                             "most-complete receiver and re-roots the "
                             "chain onto it")
    _fleet_launch_args(deploy)
    add_common(deploy)


def fleet_launch(args: argparse.Namespace) -> dict:
    """What :func:`_fleet_launch_args` parsed, as ``DaemonServer`` takes
    it, with the fork server :func:`main` forked for the fleet."""
    return dict(window=args.window, spawn_retries=args.spawn_retries,
                startup_timeout=args.startup_timeout,
                stderr_dir=args.stderr_dir,
                fork_server=args.forked_server)


def _fleet_launch_args(parser: argparse.ArgumentParser) -> None:
    """How a fleet is launched (§III-B): ``deploy`` and ``serve`` alike."""
    parser.add_argument("--window", type=int, default=8,
                        help="max agent launches in flight (§III-B)")
    parser.add_argument("--spawn-retries", type=int, default=1,
                        help="extra spawn attempts per agent")
    parser.add_argument("--startup-timeout", type=float, default=15.0,
                        help="seconds one spawn may take to register")
    parser.add_argument("--stderr-dir", default=None,
                        help="capture each agent's stderr under this dir")


def _agent_args(agent: argparse.ArgumentParser) -> None:
    agent.add_argument("--coordinator", required=True, metavar="HOST:PORT",
                       help="control socket of the deploy coordinator")
    # The launcher's one agent per host, that forks the others, has no
    # name of its own: its fd is its end of the request channel.
    named = agent.add_mutually_exclusive_group(required=True)
    named.add_argument("--name")
    named.add_argument("--fork-server", type=int, help=argparse.SUPPRESS)
    agent.add_argument("--bind", default="127.0.0.1",
                       help="address to bind the data-plane port on")
    agent.add_argument("--advertise", default=None,
                       help="host peers should dial (default: bind address)")
    agent.add_argument("--start-timeout", type=float, default=60.0,
                       help="seconds to wait for the coordinator to answer")
    agent.add_argument("--die-on-start", action="store_true",
                       help=argparse.SUPPRESS)  # test hook: exit before registering
    agent.add_argument("--cache-bytes", type=int, default=0,
                       help="byte budget for the cross-session chunk cache "
                            "(0 = no cache)")


def _serve_args(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("-n", "--fleet", type=int, default=4,
                       help="fleet size (names n1..nN) when --names is "
                            "not given")
    serve.add_argument("--names", default=None,
                       help="explicit fleet names, comma separated "
                            "(overrides -n)")
    serve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="submit socket to listen on (port 0 = pick one, "
                            "printed at startup)")
    serve.add_argument("--cache-bytes", type=int,
                       default=DEFAULT_CACHE_BYTES,
                       help="per-agent chunk-cache budget in bytes "
                            "(0 disables re-broadcast short-circuiting)")
    _fleet_launch_args(serve)
    add_common(serve)


def _submit_args(submit: argparse.ArgumentParser) -> None:
    submit.add_argument("--server", required=True, metavar="HOST:PORT",
                        help="submit socket of the kascade serve")
    submit.add_argument("-i", "--input", default=None,
                        help="file to broadcast (must be readable by the "
                             "server process)")
    submit.add_argument("-o", "--output", default=None,
                        help="per-node output path; '{node}' expands to "
                             "the node name (default: discard, digest only)")
    submit.add_argument("--head", default=None,
                        help="sending fleet member (default: first in fleet)")
    submit.add_argument("--receivers", default=None,
                        help="receiving fleet members, comma separated "
                             "(default: whole fleet minus the head)")
    submit.add_argument("--late-join", action="append", default=None,
                        metavar="NODE:BYTES",
                        help="let NODE into the session once the push "
                             "moved BYTES (or once it ended): it gets a chain "
                             "of its own from the head, or a replay of its "
                             "cache if that holds the payload; repeatable")
    submit.add_argument("--session", default=None,
                        help="session name (default: server-assigned)")
    submit.add_argument("--run-timeout", type=float, default=600.0)
    submit.add_argument("--ping", action="store_true",
                        help="just check the server is alive")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain and exit")


def _recv_args(recv: argparse.ArgumentParser) -> None:
    recv.add_argument("--name", required=True)
    recv.add_argument("--nodes", required=True,
                      help="registry: name=host:port,... (head first)")
    recv.add_argument("-o", "--output", default=None)
    recv.add_argument("-O", "--output-command", default=None)
    add_common(recv)


def _send_args(send: argparse.ArgumentParser) -> None:
    send.add_argument("--name", required=True)
    send.add_argument("--nodes", required=True,
                      help="registry: name=host:port,... (head first)")
    send.add_argument("-i", "--input", default="-",
                      help="input file, or '-' for stdin (default)")
    add_common(send)


#: sub-command -> (one-line help, what adds its options, what runs it).
COMMANDS = {
    "demo": ("run a full pipeline locally (threads)",
             _demo_args, cmd_demo),
    "deploy": ("run a pipeline as one OS process per node (windowed launch)",
               _deploy_args, cmd_deploy),
    "agent": ("run one deployed node process (spawned by deploy)",
              _agent_args, cmd_agent),
    "serve": ("launch a persistent agent fleet and serve broadcast sessions",
              _serve_args, cmd_serve),
    "submit": ("submit one broadcast session to a running serve",
               _submit_args, cmd_submit),
    "recv": ("run one receiving node",
             _recv_args, cmd_recv),
    "send": ("run the sending (head) node",
             _send_args, cmd_send),
}


def main(argv: List[str] | None = None) -> int:
    from .. import __version__

    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="kascade",
        description="Scalable and reliable pipelined data broadcast "
                    "(reproduction of Martin et al., IPDPS workshops 2014)",
    )
    parser.add_argument("--version", action="version",
                        version=f"kascade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command is listed (``kascade --help``); only the one being
    # run gets its options built — an agent is not seven parsers.
    chosen = next((arg for arg in argv if arg in COMMANDS), None)
    for name, (summary, add_args, fn) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        if name == chosen:
            add_args(command)
        command.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    # Before the command imports the supervisor, while this process is
    # one thread: the fleet's server boots beside those imports.
    args.forked_server = (fork_server(args)
                          if args.command in FLEET_COMMANDS else None)
    try:
        status = args.fn(args)
    finally:
        if args.forked_server is not None:
            args.forked_server.close()  # the fleet has drained by now
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Whoever read our output has left (``kascade deploy … | head -3``):
        # not a failure of the run.  Interpreter exit flushes stdout once
        # more, so give that flush somewhere to go.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
