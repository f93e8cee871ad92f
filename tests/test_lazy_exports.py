"""The lazy package ``__init__``s keep the eager ones' public surface:
same names, same objects, same star-import, sub-modules as attributes."""

import importlib
import subprocess
import sys

import pytest

LAZY_PACKAGES = ["repro", "repro.core", "repro.runtime", "repro.deploy",
                 "repro.daemon", "repro.control", "repro.simnet",
                 "repro.protosim", "repro.topology", "repro.baselines",
                 "repro.bench", "repro.launch", "repro.distem"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_defining_modules_object(package):
    pkg = importlib.import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            assert getattr(importlib.import_module(home), name) is value
    assert set(pkg.__all__) <= set(dir(pkg))


def test_moved_types_are_one_object_at_every_address():
    import repro
    from repro import runtime, session
    from repro.deploy import agent, coordinator, protocol
    from repro.runtime import cluster, host, node, registry, result, transport

    assert (runtime.NodeOutcome is node.NodeOutcome is result.NodeOutcome
            is session.NodeOutcome is coordinator.NodeOutcome)
    assert (repro.BroadcastResult is runtime.BroadcastResult
            is cluster.BroadcastResult is result.BroadcastResult)
    assert (repro.CrashPlan is runtime.CrashPlan is cluster.CrashPlan
            is result.CrashPlan)
    import repro.daemon

    assert (repro.LateJoin is runtime.LateJoin is result.LateJoin
            is repro.daemon.LateJoin)
    assert (runtime.check_head_failover is host.check_head_failover
            is result.check_head_failover)
    assert runtime.Address is transport.Address is registry.Address
    assert agent.wiring_to_wire is protocol.wiring_to_wire
    assert agent.config_to_wire is protocol.config_to_wire


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_exactly_all(package):
    pkg = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(pkg.__all__)


def test_submodules_resolve_as_attributes_of_a_bare_import():
    probe = ("import repro\n"
             "assert repro.core.framing.FrameDecoder\n"
             "assert repro.runtime.registry.Registry\n"
             "assert repro.deploy.protocol.ControlChannel\n"
             "from repro import run_broadcast, core\n"
             "from repro.core import tracing\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_names_the_package(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
        pkg.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")
    assert not hasattr(pkg, "_private")


def test_concurrent_first_touch_yields_one_module():
    """Eight threads resolve a not-yet-imported export at once."""
    probe = """
import sys, threading
import repro.core
assert "repro.core.stripes" not in sys.modules
barrier, seen = threading.Barrier(8), []
def touch():
    barrier.wait()
    seen.append((repro.core.StripeMergeSink,
                 sys.modules["repro.core.stripes"]))
threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads: t.start()
for t in threads: t.join(30)
assert len(seen) == 8 and len(set(seen)) == 1, seen
assert seen[0][0] is seen[0][1].StripeMergeSink
"""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.setswitchinterval(1e-6)\n{probe}"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_one_helper_not_six_copies():
    import repro._lazy as lazy

    with open(lazy.__file__) as fh:
        assert len(fh.readlines()) <= 40
    for package in LAZY_PACKAGES:
        pkg = importlib.import_module(package)
        assert pkg.__getattr__.__module__ == "repro._lazy"
        with open(pkg.__file__) as fh:
            eager = [line for line in fh
                     if line.startswith(("from .", "import "))
                     and "_lazy" not in line]
        assert not eager, f"{package}/__init__.py still imports {eager}"
