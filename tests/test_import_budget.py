"""What a process imports follows the role it plays (DESIGN.md §6).

Counts, not seconds: each probe runs in a fresh interpreter and reports
its ``sys.modules``, so a stray top-level import fails here with the
offending module named instead of showing up as a slower ``deploy_cli``.
"""

import json
import subprocess
import sys

import pytest

#: role -> what the process does before its first byte of real work.
PROBES = {
    "help": """
from repro.cli.kascade import main
try:
    main(["--help"])
except SystemExit:
    pass
""",
    # The one agent, run until it would dial out: nobody listens on
    # port 1, so registration fails (exit 2) after everything a session
    # on this agent can use is loaded.
    "agent": """
from repro.cli.kascade import main
assert main(["agent", "--coordinator", "127.0.0.1:1", "--name", "n2"]) == 2
""",
    # What the agent adds when it was given a cache.
    "cached_agent": """
from repro.cli.kascade import main
assert main(["agent", "--coordinator", "127.0.0.1:1", "--name", "n2",
             "--cache-bytes", "1"]) == 2
""",
    "supervisor": """
import repro.cli.kascade, repro.session, repro.deploy.coordinator
""",
    "daemon_server": "import repro.session, repro.daemon.server",
    # The supervisor after it compiled the agents' program, cache
    # modules included: ``get_code`` compiles, it does not import.
    "supervisor_with_program": """
import repro.cli.kascade, repro.session, repro.deploy.coordinator
from repro.deploy import program
program.build(cached=True)
""",
    # A whole threaded broadcast in this process: every node runs the
    # protocol engine, none of them needs a simulator to do it.
    "local_run": """
from repro import run_broadcast
from repro.core.sources import BytesSource
assert run_broadcast(BytesSource(b"x" * 5000), ["n2", "n3"]).ok
""",
}

CONTROL_SIDE = ("repro.deploy.coordinator", "repro.deploy.launcher",
                "repro.deploy.chaos", "repro.session", "repro.daemon.server",
                "repro.daemon.client", "repro.control", "repro.simnet",
                "repro.runtime.cluster", "repro.runtime.evloop", "subprocess")
DATA_PLANE = ("repro.runtime.node", "repro.runtime.links",
              "repro.runtime.transport", "repro.runtime.host",
              "repro.runtime.cluster", "repro.runtime.evloop",
              "repro.core.engine", "repro.core.framing", "repro.core.stages",
              "repro.core.stripes", "repro.core.cache")

#: role -> (prefixes that must be absent, most ``repro`` modules allowed).
BUDGET = {
    "help": (("repro.runtime", "repro.deploy", "repro.session",
              "repro.simnet", "repro.daemon", "repro.control",
              "repro.baselines"), 8),
    "agent": (CONTROL_SIDE + ("repro.daemon", "repro.core.cache"), 33),
    "cached_agent": (CONTROL_SIDE, 36),
    "supervisor": (DATA_PLANE + ("repro.deploy.agent",), 24),
    "daemon_server": (DATA_PLANE + ("repro.deploy.agent",), 24),
    # + ``repro.daemon``, the one parent package ``find_spec`` touches
    # that this probe had not imported (a real supervisor has).
    "supervisor_with_program": (DATA_PLANE + ("repro.deploy.agent",), 25),
}


@pytest.fixture(scope="module")
def loaded():
    """role -> the module names a fresh interpreter ends up with."""
    def probe(code):
        proc = subprocess.run(
            [sys.executable, "-c",
             code + "\nimport sys, json\n"
             "print('\\n' + json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return {role: probe(code) for role, code in PROBES.items()}


@pytest.mark.parametrize("role", sorted(BUDGET))
def test_role_loads_only_its_side(loaded, role):
    forbidden, _ = BUDGET[role]
    strays = [m for m in loaded[role]
              if any(m == p or m.startswith(p + ".") for p in forbidden)]
    assert not strays, f"{role} loaded {strays}"


@pytest.mark.parametrize("role", sorted(BUDGET))
def test_role_module_count(loaded, role):
    _, ceiling = BUDGET[role]
    ours = [m for m in loaded[role] if m.split(".")[0] == "repro"]
    assert len(ours) <= ceiling, (
        f"{role} loads {len(ours)} repro modules, budget {ceiling}: {ours}")


@pytest.mark.parametrize("role, cached", [("agent", False),
                                          ("cached_agent", True)])
def test_the_program_is_what_an_agent_loads(loaded, role, cached):
    """``deploy.program``'s module list is a literal; this holds it to
    account.  A module an agent loads that the program lacks is compiled
    by every agent again (the cost the program exists to remove); one
    the program carries that no agent loads is compiled for nothing."""
    from repro.deploy.program import module_names

    ours = {m for m in loaded[role] if m.split(".")[0] == "repro"}
    shipped = set(module_names(cached))
    assert ours == shipped, (
        f"{role} loads {sorted(ours - shipped)} from disk; the program "
        f"ships {sorted(shipped - ours)} unused")


@pytest.mark.parametrize("role", sorted(PROBES))
def test_only_the_simulator_loads_a_simulator(loaded, role):
    """The protocol engine lives in ``repro.core`` so that running it
    on sockets compiles no DES: ``repro.simnet`` and ``repro.protosim``
    load for ``kascade-sim`` and ``backend="simnet"`` and nobody else."""
    strays = [m for m in loaded[role]
              if m.startswith(("repro.simnet", "repro.protosim"))]
    assert not strays, f"{role} loaded {strays}"
    if role in ("agent", "cached_agent", "local_run"):
        assert "repro.core.engine" in loaded[role]
