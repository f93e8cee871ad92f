"""Process-per-node deployment: the paper's startup phase, for real.

Until now every "node" of the TCP runtime was a thread inside one
process, so crash injection could only *simulate* process death by
closing sockets.  This package runs each pipeline node as its own OS
process (§III-B):

* :mod:`repro.deploy.agent` — the ``kascade agent`` entrypoint, the one
  node program: a process that registers with the supervisor over a
  control socket, serves sessions (per session: bind data ports, run the
  existing :mod:`repro.runtime` node logic, report a structured status)
  and exits when told to ``quit`` — and the host's fork server, the one
  warm agent every other agent is a ``fork()`` of ("starts itself
  everywhere");
* :mod:`repro.deploy.launcher` — the fork server's supervisor side and
  windowed parallel spawn (TakTuk's windowed mode) with per-node
  retry/backoff and startup-timeout detection; nodes that never
  register are re-planned around *before* data flows, mirroring
  §III-B's "launcher failures are handled before the transfer";
* :mod:`repro.deploy.coordinator` — the supervisor's control endpoint
  (registrations, liveness by ``waitpid`` + control heartbeats, the
  tear-down that leaves no process behind); the sessions run on
  :class:`repro.daemon.DaemonServer`, and a one-shot broadcast is one
  of its fleets launched for a single session.

A crash plan fires where it does on every backend, in the node's own
loop: the agent notes it to the supervisor and sends itself a real
``SIGKILL`` / ``SIGSTOP``, so §III-D failover is exercised against
genuine RSTs and silent hangs across process boundaries.

The blessed entry point is ``repro.run_broadcast(..., backend="procs")``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "protocol": ("ControlChannel", "DeployError"),
    "launcher": ("LaunchReport", "NodeLaunch", "WindowedLauncher"),
})
