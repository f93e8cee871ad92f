"""One entry point for every Kascade backend.

A broadcast is one run (:class:`repro.runtime.cluster.Broadcast`: plan,
faults, hosts, head re-root, result) on one of two in-process drivers —
threads on loopback TCP (:class:`repro.runtime.LocalBroadcast`) or the
protocol-exact simulator (:class:`repro.protosim.ProtoBroadcast`) — or
one session on a fleet of agent processes.  This module is the facade
over all of them; it builds a driver and returns what the run folded:

    result = repro.run_broadcast(
        BytesSource(payload), ["n2", "n3", "n4"],
        backend="simnet", trace=True,
    )
    print(result.trace.failure_chronology())

Every backend returns the *same* :class:`~repro.runtime.BroadcastResult`
(ok / duration / total_bytes / report / per-node outcomes / trace /
perfstats) — for the two drivers literally the same fold — so a
crash-injection scenario and its simulated twin are compared
field-for-field, and event-for-event via the trace.

``trace`` accepts:

* ``None`` — tracing disabled (the zero-overhead no-op recorder);
* ``True`` — record into a fresh :class:`TraceCollector`, returned on
  ``result.trace``;
* a :class:`TraceCollector` — record into the given collector;
* a path (``str`` / ``os.PathLike``) — record, then write the JSONL
  timeline there after the run.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .core.config import DEFAULT_CONFIG, KascadeConfig
from .core.errors import KascadeError
from .core.plan import ChainPlan
from .core.sources import Source
from .core.tracing import NULL_TRACER, TraceCollector
from .runtime.result import BroadcastResult, CrashPlan, NodeOutcome  # noqa: F401

if TYPE_CHECKING:
    from .core.sinks import Sink

__all__ = ["BACKENDS", "BACKEND_CATALOGUE", "BroadcastSession", "TraceSpec",
           "run_broadcast"]

#: What the ``trace`` argument accepts.
TraceSpec = Union[None, bool, TraceCollector, str, os.PathLike]

#: Every runnable backend with a one-line description — the unknown-
#: backend error renders this catalogue so the caller can pick without
#: opening the docs (same UX as ``bench_loopback.py --scenario``).
BACKEND_CATALOGUE = {
    "local": "threads + loopback TCP in this process (default)",
    "procs": "one OS process per node, real signals for crash injection",
    "daemon": "session on a persistent agent fleet (chunk cache, late join)",
    "simnet": "protocol-exact discrete-event simulator (no real I/O)",
}

BACKENDS = tuple(BACKEND_CATALOGUE)


def _unknown_backend(backend: str) -> KascadeError:
    lines = [f"unknown backend {backend!r}; known backends:"]
    lines += [f"  {name:<7} {desc}" for name, desc in
              BACKEND_CATALOGUE.items()]
    return KascadeError("\n".join(lines))


def _resolve_trace(trace: TraceSpec):
    """Normalize a trace spec to ``(recorder, jsonl_path_or_None)``."""
    if trace is None or trace is False:
        return NULL_TRACER, None
    if trace is True:
        return TraceCollector(), None
    if isinstance(trace, TraceCollector):
        return trace, None
    if isinstance(trace, (str, os.PathLike)):
        return TraceCollector(), os.fspath(trace)
    raise TypeError(
        f"trace must be None, True, a TraceCollector, or a path; "
        f"got {type(trace).__name__}"
    )


class BroadcastSession:
    """A configured broadcast, runnable on any backend.

    Parameters mirror :class:`~repro.runtime.LocalBroadcast`; ``backend``
    selects execution on localhost TCP threads (``"local"``), on one OS
    process per node with real crash signals (``"procs"``, or
    ``"daemon"`` for a fleet with a chunk cache), or on the
    protocol-exact discrete-event simulator (``"simnet"``); ``trace``
    enables the structured event timeline (see module docs).

    ``data_plane`` overrides :attr:`KascadeConfig.data_plane` for this
    session: ``"threaded"`` (default, the conformance reference) or
    ``"evloop"`` (one reactor thread per process, kernel-path relay —
    see :mod:`repro.runtime.evloop`).  Real-I/O backends only.
    ``stripes`` overrides :attr:`KascadeConfig.stripes` the same way.

    ``plan`` supplies a pre-built :class:`~repro.core.plan.ChainPlan`
    (who feeds whom, per stripe) instead of having the backend derive
    one from ``order`` and ``config.stripes``; the executed plan is
    returned on ``result.plan`` either way.

    ``crashes`` take :class:`~repro.runtime.CrashPlan` (or ``(node,
    after_bytes[, mode])`` tuples), the same on every backend: an
    in-loop gate on ``local`` and ``simnet``, a real signal on
    ``procs`` and ``daemon`` (``"close"`` → SIGKILL, ``"silent"`` →
    SIGSTOP); ``CrashPlan(at_time=…)`` runs on ``simnet`` only.
    ``late_join`` takes :class:`~repro.runtime.LateJoin` (or ``(node,
    after_bytes)`` pairs), the same on every backend too: each node is
    let in once the push has moved ``after_bytes`` and gets a chain of
    its own from the head (on a fleet, a session of its own).  What a
    run may not ask — a striped session on a source that cannot seek,
    a fault on an un-opted head, … — is refused by one function,
    :func:`repro.runtime.result.check_run`, before anything starts.

    Backend-specific keyword options:

    * ``local`` and ``simnet`` (one run, two drivers):
      ``allow_head_chaos`` (accept a crash plan for the head: the most
      complete survivor is promoted); ``simnet`` also takes ``bandwidth``
      (bytes/s per link, default 125e6), ``latency`` (seconds per hop,
      default 1e-4) and ``sim_horizon`` (simulated-seconds cap, default
      3600);
    * ``procs`` and ``daemon`` (one session on a fleet of agent
      processes; the same options, the same code): the fleet launch —
      ``window``, ``spawn_retries``, ``startup_timeout``, ``backoff``,
      ``heartbeat_interval``, ``heartbeat_timeout``, ``progress_every``,
      ``python``, ``bind_host``, ``agent_args``, ``stderr_dir``,
      ``cache_bytes`` (``procs`` defaults to 0: no cache, nothing of it
      loaded; ``daemon`` to ``config.cache_bytes``) — and the session:
      ``output_template``, ``allow_head_chaos``, ``session_name``; see
      :class:`repro.deploy.ProcBroadcast`.  ``server=`` submits into a
      started :class:`repro.daemon.DaemonServer` instead of launching.
      ``sink_factory`` is rejected (sinks cannot cross process
      boundaries; use ``output_template``).
    """

    def __init__(
        self,
        source: Source,
        receivers: Sequence[str],
        *,
        backend: str = "local",
        trace: TraceSpec = None,
        sink_factory: Optional[Callable[[str], Sink]] = None,
        config: KascadeConfig = DEFAULT_CONFIG,
        head: str = "n1",
        order: str = "given",
        crashes: Sequence = (),
        data_plane: Optional[str] = None,
        stripes: Optional[int] = None,
        plan: Optional[ChainPlan] = None,
        late_join: Sequence = (),
        **backend_opts,
    ) -> None:
        if backend not in BACKENDS:
            raise _unknown_backend(backend)
        if data_plane is not None and data_plane != config.data_plane:
            # Convenience override: ``run_broadcast(..., data_plane="evloop")``
            # without the caller building a config copy by hand.
            config = config.with_(data_plane=data_plane)
        if stripes is not None and stripes != config.stripes:
            # Same convenience for ``run_broadcast(..., stripes=4)``.
            config = config.with_(stripes=stripes)
        self.backend = backend
        self.source = source
        self.receivers = tuple(receivers)
        self.sink_factory = sink_factory
        self.config = config
        self.head = head
        self.order = order
        self.crashes = tuple(crashes)
        self.late_join = tuple(late_join)
        self.plan = plan
        self.tracer, self.trace_path = _resolve_trace(trace)
        self.backend_opts = backend_opts

    # ------------------------------------------------------------------

    def run(self, timeout: float = 120.0) -> BroadcastResult:
        """Execute the broadcast; ``timeout`` bounds the local backend's
        wall clock (the simnet backend is bounded by ``sim_horizon``)."""
        if self.backend in ("procs", "daemon"):
            result = self._run_fleet(timeout)
        else:
            result = self._run_driver(timeout)
        if self.trace_path is not None and isinstance(self.tracer,
                                                      TraceCollector):
            self.tracer.to_jsonl(self.trace_path)
        return result

    def _run_driver(self, timeout: float) -> BroadcastResult:
        """``local`` and ``simnet``: the one run, on threads or on the DES."""
        opts = dict(self.backend_opts)
        run = dict(
            sink_factory=self.sink_factory, config=self.config,
            head=self.head, order=self.order, plan=self.plan,
            crashes=self.crashes, late_join=self.late_join,
            allow_head_chaos=bool(opts.pop("allow_head_chaos", False)),
        )
        if self.backend == "local":
            if opts:
                raise KascadeError(
                    f"local backend takes no extra options: {sorted(opts)}"
                )
            from .runtime.cluster import LocalBroadcast

            return LocalBroadcast(
                self.source, self.receivers, tracer=self.tracer, **run,
            ).run(timeout=timeout)
        from .protosim.broadcast import ProtoBroadcast

        sim_horizon = opts.pop("sim_horizon", 3600.0)
        unknown = set(opts) - {"bandwidth", "latency"}
        if unknown:
            raise KascadeError(f"unknown simnet options: {sorted(unknown)}")
        return ProtoBroadcast(
            self.source, self.receivers, **run, **opts,
        ).run(sim_horizon=sim_horizon, tracer=self.tracer)

    #: Keyword options of the process backends: what configures the
    #: fleet launch (see :class:`repro.daemon.DaemonServer`), what
    #: describes the session, and ``server`` — the interesting one: a started ``DaemonServer`` to submit this
    #: broadcast into as one more session on its warm fleet (skipping
    #: launch entirely); without it a fleet is launched for this one
    #: session and torn down after.
    _FLEET_OPTS = frozenset({
        "window", "spawn_retries", "startup_timeout", "backoff",
        "heartbeat_interval", "heartbeat_timeout", "progress_every",
        "python", "bind_host", "agent_args", "stderr_dir", "cache_bytes",
        "output_template", "allow_head_chaos", "session_name",
        "server",
    })

    def _run_fleet(self, timeout: float) -> BroadcastResult:
        """``procs`` and ``daemon``: one session on a fleet of agent
        processes.  The two differ in what the fleet is given — ``procs``
        launches it without a chunk cache unless asked, ``daemon`` with
        ``config.cache_bytes`` — and in nothing else."""
        self._refuse_sink_factory()
        unknown = set(self.backend_opts) - self._FLEET_OPTS
        if unknown:
            raise KascadeError(
                f"unknown {self.backend} options: {sorted(unknown)}")
        opts = dict(self.backend_opts)
        server = opts.pop("server", None)
        session = dict(
            order=self.order,
            plan=self.plan,
            output_template=opts.pop("output_template", None),
            crashes=self.crashes,
            late_join=self.late_join,
            allow_head_chaos=bool(opts.pop("allow_head_chaos", False)),
            session=opts.pop("session_name", None),
        )
        if server is not None:
            if opts:
                raise KascadeError(
                    f"options {sorted(opts)} configure a fleet launch and "
                    f"do not apply when submitting to an existing server"
                )
            return server.submit(self.source, self.receivers, head=self.head,
                                 trace=self.tracer, timeout=timeout,
                                 **session)
        from .deploy.coordinator import ProcBroadcast

        opts.setdefault("cache_bytes",
                        0 if self.backend == "procs" else None)
        return ProcBroadcast(
            self.source, self.receivers, config=self.config, head=self.head,
            tracer=self.tracer, backend=self.backend, **session, **opts,
        ).run(timeout=timeout)

    def _refuse_sink_factory(self) -> None:
        if self.sink_factory is not None:
            raise KascadeError(
                f"{self.backend} backend cannot ship a sink_factory across "
                "process boundaries; use output_template='/path/{node}.out' "
                "(digests are computed agent-side either way)"
            )


def run_broadcast(
    source: Source,
    receivers: Sequence[str],
    *,
    backend: str = "local",
    trace: TraceSpec = None,
    timeout: float = 120.0,
    **kwargs,
) -> BroadcastResult:
    """Run one broadcast and return its :class:`BroadcastResult`.

    The one-call form of :class:`BroadcastSession` — the blessed entry
    point replacing direct use of ``LocalBroadcast`` and
    ``ProtoBroadcast`` (see module docs for the ``trace`` forms and the
    per-backend options).
    """
    session = BroadcastSession(source, receivers, backend=backend,
                               trace=trace, **kwargs)
    return session.run(timeout=timeout)
