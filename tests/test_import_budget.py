"""What a process imports follows the role it plays (DESIGN.md §6).

Counts, not seconds: each probe runs in a fresh interpreter and reports
its ``sys.modules``, so a stray top-level import fails here with the
offending module named instead of showing up as a slower ``deploy_cli``.
"""

import json
import re
import subprocess
import sys

import pytest

from repro.core import KascadeConfig
from repro.core.sources import BytesSource

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
    # The same run on the protocol-exact DES: the engine on simulated
    # channels, no fluid fabric under it.
    "simulated_run": """
from repro import run_broadcast
from repro.core.sources import BytesSource
assert run_broadcast(BytesSource(b"x" * 5000), ["n2", "n3"],
                     backend="simnet").ok
""",
    "sim_proto_cli": """
from repro.cli.kascade_sim import main
assert main(["proto", "--size", "64KB"]) == 0
""",
    # A figure point: the fluid model under the figure runner, which is
    # what the numeric libraries are for (see test_a_figure_loads_them).
    "fluid_figure": """
from repro.baselines import KascadeSim, SimSetup
from repro.bench import ExperimentRunner
from repro.topology import build_fat_tree

point = ExperimentRunner(repetitions=2).measure(
    KascadeSim, lambda rng: SimSetup(
        build_fat_tree(8), "node-1",
        tuple(f"node-{i}" for i in range(2, 9)), 64e6), x=8)
assert point.ci.mean > 0
""",
}

#: The roles that run a simulator on purpose.
SIMULATORS = ("simulated_run", "sim_proto_cli", "fluid_figure")

CONTROL_SIDE = ("repro.deploy.coordinator", "repro.deploy.launcher",
                "repro.deploy.chaos", "repro.session", "repro.daemon.server",
                "repro.daemon.client", "repro.control", "repro.simnet",
                "repro.runtime.cluster", "repro.runtime.evloop", "subprocess")
DATA_PLANE = ("repro.runtime.node", "repro.runtime.links",
              "repro.runtime.transport", "repro.runtime.host",
              "repro.runtime.cluster", "repro.runtime.evloop",
              "repro.core.engine", "repro.core.framing", "repro.core.stages",
              "repro.core.stripes", "repro.core.cache")

#: What ``getaddrinfo`` imports when it is given a ``str`` host, and
#: an agent's dial does not.
IDNA = ("encodings.idna", "stringprep", "unicodedata")

#: What no agent imports: ``site`` (it is started with ``-S``), the
#: ``dataclasses`` chain (its records are plain classes, DESIGN.md §6)
#: and the codec chain of :data:`IDNA` (it dials with bytes).
#: ``tokenize`` is not on the list: ``logging`` still brings it
#: (``traceback`` → ``linecache``).
NOT_IN_AN_AGENT = ("site", "dataclasses", "inspect", "dis", "ast") + IDNA

#: What only a fluid model or a figure computes with.
NUMERIC = ("numpy", "networkx", "scipy")

#: What the protocol-exact DES runs without: the fluid fabric, the
#: topologies it routes over, the simulated methods and the figures.
NOT_IN_THE_DES = NUMERIC + ("repro.topology", "repro.baselines",
                            "repro.bench", "repro.simnet.fabric",
                            "repro.simnet.flows")

#: What no supervisor imports: the data plane runs in its agents, and it
#: re-roots a chain without a replicated log.
NOT_IN_A_SUPERVISOR = DATA_PLANE + ("repro.deploy.agent", "repro.control")

#: role -> (prefixes that must be absent, most ``repro`` modules allowed).
BUDGET = {
    "help": (NUMERIC + ("repro.runtime", "repro.deploy", "repro.session",
                        "repro.simnet", "repro.daemon", "repro.control",
                        "repro.baselines"), 9),
    "agent": (NUMERIC + IDNA + CONTROL_SIDE + (
        "repro.daemon", "repro.core.cache", "dataclasses", "inspect"), 34),
    "cached_agent": (NUMERIC + IDNA + CONTROL_SIDE + ("dataclasses",
                                                      "inspect"), 37),
    "supervisor": (NUMERIC + NOT_IN_A_SUPERVISOR, 25),
    "daemon_server": (NUMERIC + NOT_IN_A_SUPERVISOR, 25),
    # + ``repro.daemon``, the one parent package ``find_spec`` touches
    # that this probe had not imported (a real supervisor has).
    "supervisor_with_program": (NUMERIC + NOT_IN_A_SUPERVISOR, 26),
    "local_run": (NUMERIC, 31),
    "simulated_run": (NOT_IN_THE_DES, 37),
    "sim_proto_cli": (NOT_IN_THE_DES, 39),
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


@pytest.mark.parametrize("role", sorted(set(PROBES) - set(SIMULATORS)))
def test_only_the_simulator_loads_a_simulator(loaded, role):
    """The protocol engine lives in ``repro.core`` so that running it
    on sockets compiles no DES: ``repro.simnet`` and ``repro.protosim``
    load for ``kascade-sim`` and ``backend="simnet"`` and nobody else."""
    strays = [m for m in loaded[role]
              if m.startswith(("repro.simnet", "repro.protosim"))]
    assert not strays, f"{role} loaded {strays}"
    if role in ("agent", "cached_agent", "local_run"):
        assert "repro.core.engine" in loaded[role]


def test_a_figure_loads_them(loaded):
    """The numeric libraries are deferred to where they compute, not
    dropped: a figure point routes with ``networkx``, draws its jitter
    with ``numpy`` and sizes its interval with ``scipy``."""
    missing = [m for m in NUMERIC if m not in loaded["fluid_figure"]]
    assert not missing, f"a fluid figure point never imported {missing}"


# ----------------------------------------------------------------------
# The agents as launched: one fork server (``python -S -c BOOT …``, the
# program on stdin) and its forks
# ----------------------------------------------------------------------

#: How the program's finder shows in a verbose import log (``BOOT``
#: defines it in ``__main__``).
PROGRAM_LOADER = "<class '__main__.L'>"

#: The fork server's stderr log, beside each agent's.
SERVER_LOG = "fork-server.stderr.log"


def verbose_imports(log: str) -> dict:
    """``{module: loader}`` from the stderr of an interpreter run with
    ``PYTHONVERBOSE`` (which ``-S`` honours): its ``import 'name' #
    <loader>`` lines."""
    return dict(re.findall(r"^import '([\w.]+)' # (.*)$", log, re.M))


@pytest.fixture(scope="module")
def spawned_agent(tmp_path_factory):
    """``cached -> {log name: {module: loader}}`` for a fleet launched as
    every fleet is — the host's fork server, and the agents forked from
    it — with nothing changed but a verbose import log on stderr, after
    full sessions: a verified push, and on the cached fleet a repeat
    served from the cache as well."""
    from repro.daemon import DaemonServer

    payload = bytes(range(256)) * 4096
    seen = {}
    for cached in (False, True):
        logs = tmp_path_factory.mktemp("cached" if cached else "uncached")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PYTHONVERBOSE", "1")
            with DaemonServer(["n1", "n2", "n3"],
                              cache_bytes=(8 << 20) * cached,
                              startup_timeout=20.0,
                              stderr_dir=str(logs)) as server:
                for _ in range(1 + cached):
                    result = server.submit(
                        BytesSource(payload), output_template=str(logs / "{node}.out"),
                        timeout=60.0)
                    assert result.ok, result.outcomes
                assert bool(result.perfstats.get("bytes_from_cache")) \
                    == cached
        seen[cached] = {path.name: verbose_imports(path.read_text())
                        for path in logs.glob("*.stderr.log")}
    return seen


def test_a_spawned_agent_loads_neither_site_nor_dataclasses(spawned_agent):
    for cached, logs in spawned_agent.items():
        strays = [m for m in NOT_IN_AN_AGENT if m in logs[SERVER_LOG]]
        assert not strays, f"the fork server (cached={cached}) imports " \
                           f"{strays}"


def test_a_spawned_agent_compiles_none_of_its_code(spawned_agent):
    """The fork server loads exactly the program — ``AGENT_MODULES``,
    plus ``CACHE_MODULES`` on a fleet with a cache — and every ``repro``
    module of it from the program, bar ``argv[1]``, which ``runpy`` runs
    as ``__main__`` without an import."""
    from repro.deploy.program import module_names

    for cached, logs in spawned_agent.items():
        ours = {m: loader for m, loader in logs[SERVER_LOG].items()
                if m.split(".")[0] == "repro"}
        from_disk = sorted(m for m, loader in ours.items()
                           if loader != PROGRAM_LOADER)
        assert not from_disk, f"compiled from disk: {from_disk}"
        assert set(ours) == set(module_names(cached)) - {"repro.cli.kascade"}


def test_a_forked_agent_imports_nothing(spawned_agent):
    """Everything a session runs is loaded before the fork: an agent
    registers, serves its sessions and drains without one import, so
    the host's one boot is the only import cost there is."""
    for cached, logs in spawned_agent.items():
        agents = {name: imports for name, imports in logs.items()
                  if name != SERVER_LOG}
        assert sorted(agents) == [f"n{i}.stderr.log" for i in (1, 2, 3)]
        assert agents == {name: {} for name in agents}, cached


def test_an_unbundled_module_still_imports_under_dash_S(tmp_path,
                                                       monkeypatch):
    """``core.pacing`` is not in the program: a paced head imports it
    from disk when its session starts, through the package's real
    ``__path__`` — which ``-S`` leaves as it was."""
    from repro.daemon import DaemonServer

    monkeypatch.setenv("PYTHONVERBOSE", "1")
    paced = KascadeConfig(chunk_size=64 * 1024, bandwidth_limit=64 << 20)
    with DaemonServer(["n1", "n2"], config=paced, startup_timeout=20.0,
                      stderr_dir=str(tmp_path)) as server:
        result = server.submit(BytesSource(b"k" * (256 << 10)), timeout=60.0)
    assert result.ok, result.outcomes
    head = verbose_imports((tmp_path / "n1.stderr.log").read_text())
    assert "SourceFileLoader" in head["repro.core.pacing"]
    server = verbose_imports((tmp_path / SERVER_LOG).read_text())
    assert server["repro.core.engine"] == PROGRAM_LOADER
    assert "site" not in server
