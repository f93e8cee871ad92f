"""The compiled node program (``repro.deploy.program``): complete,
honest about where its code came from, and never in the launcher's way.

Two kinds of test.  The ``BOOT`` text is driven directly — a fresh
interpreter, a program on its stdin, a probe module as ``argv[1]`` — to
see what an agent sees.  Everything about launching runs real fleets
through ``DaemonServer``, the one user of ``ForkServer``.
"""

import hashlib
import json
import marshal
import os
import pathlib
import stat
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core import KascadeConfig
from repro.core.sources import BytesSource
from repro.daemon import DaemonServer, LateJoin
from repro.deploy import launcher, program
from repro.deploy.launcher import WindowedLauncher

FAST = KascadeConfig(chunk_size=64 * 1024, buffer_chunks=8, io_timeout=0.5,
                     ping_timeout=0.4, connect_timeout=1.0,
                     report_timeout=6.0)
PAYLOAD = bytes((i * 13) % 256 for i in range(1 << 20))
DIGEST = hashlib.sha256(PAYLOAD).hexdigest()
MAGIC = len(program.MAGIC_NUMBER)


def agent_logs(directory) -> str:
    return "\n".join(f"--- {path.name}\n{path.read_text()}"
                     for path in sorted(directory.glob("*.stderr.log")))


# ----------------------------------------------------------------------
# What an agent sees: BOOT, a program, a probe
# ----------------------------------------------------------------------

PROBE = """
import json, sys, traceback
import repro.core.framing as framing, repro.core.units as units
import repro.core.pacing as pacing            # lazy in an agent: not bundled
try:
    units.parse_size("no such size")
except Exception:
    raised = traceback.format_exc()
print(json.dumps({
    "name": __name__, "argv": sys.argv,
    "loaders": {m.__name__: getattr(m.__spec__.loader, "__name__",
                                    type(m.__spec__.loader).__name__)
                for m in (framing, units, pacing, sys.modules["repro"])},
    "file": framing.__file__, "origin": framing.__spec__.origin,
    "package_path": list(sys.modules["repro.core"].__path__),
    "raised": raised,
}))
"""


def boot(tmp_path, blob: bytes, *args: str) -> dict:
    """Run ``BOOT`` on ``blob`` with the probe as the module to run."""
    (tmp_path / "probe.py").write_text(PROBE)
    env = launcher.spawn_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-c", program.BOOT, "probe", *args],
        input=blob, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


class TestBoot:
    def test_bundled_modules_come_from_the_program_and_keep_their_source(
            self, tmp_path):
        import repro.core.framing as framing
        import repro.core.units as units

        seen = boot(tmp_path, program.build(cached=False), "--flag", "value")
        # Run as ``-m`` would: __main__, argv[0] the file, the rest as given.
        assert seen["name"] == "__main__"
        assert seen["argv"] == [str(tmp_path / "probe.py"), "--flag", "value"]
        # Served by the program's loader, under the source's own paths.
        assert seen["loaders"]["repro.core.framing"] == "L"
        assert seen["loaders"]["repro"] == "L"
        assert seen["file"] == seen["origin"] == framing.__file__
        assert seen["package_path"] == [os.path.dirname(framing.__file__)]
        # What is not bundled still loads, from disk.
        assert seen["loaders"]["repro.core.pacing"] == "SourceFileLoader"
        # A traceback through a bundled module names the real file and
        # shows the real line.
        assert f'File "{units.__file__}", line ' in seen["raised"]
        raising_line = seen["raised"].splitlines()[-2].strip()
        assert raising_line.startswith("raise ")
        assert raising_line in pathlib.Path(units.__file__).read_text()

    @pytest.mark.parametrize("blob", [
        b"\0\0\0\0" + program.build(cached=False)[MAGIC:],  # another Python's
        b"",                                      # no program at all
    ], ids=["foreign-magic", "empty-stdin"])
    def test_a_program_it_cannot_use_installs_nothing(self, tmp_path, blob):
        seen = boot(tmp_path, blob)
        assert set(seen["loaders"].values()) == {"SourceFileLoader"}
        assert seen["name"] == "__main__"

    def test_a_bytecode_cache_that_is_present_is_read_not_recompiled(
            self, tmp_path):
        """``build`` goes through each module's own loader: compiled
        once into ``__pycache__``, a module is never compiled again."""
        package = tmp_path / "cachedpkg"
        package.mkdir()
        (package / "__init__.py").write_text("VALUE = 1\n")
        probe = textwrap.dedent("""
            import builtins, importlib.util, sys
            sys.path.insert(0, sys.argv[1])
            compiled = []
            real = builtins.compile
            builtins.compile = lambda *a, **k: (compiled.append(a[1]),
                                                real(*a, **k))[1]
            spec = importlib.util.find_spec("cachedpkg")
            spec.loader.get_code("cachedpkg")
            first = len(compiled)
            spec.loader.get_code("cachedpkg")
            print(first, len(compiled) - first)
        """)
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "0"]


# ----------------------------------------------------------------------
# Complete: a fleet that has the program and nothing else
# ----------------------------------------------------------------------

def strand(monkeypatch, tmp_path) -> None:
    """Leave the agents of this test nothing but their program: no
    checkout on ``PYTHONPATH`` or in the working directory, and every
    origin in the program moved to a directory that does not exist — so
    packages search ``/nonexistent/…`` and whatever of ``repro`` is not
    *in* the program cannot be imported at all."""
    build = program.build
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(program.__file__))))

    def relocated(cached):
        blob = build(cached)
        table = {
            name: (is_pkg, origin.replace(src, "/nonexistent"), code)
            for name, (is_pkg, origin, code)
            in marshal.loads(blob[MAGIC:]).items()}
        return blob[:MAGIC] + marshal.dumps(table)

    clean = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    monkeypatch.setattr(launcher, "spawn_env", lambda: dict(clean))
    monkeypatch.setattr(program, "build", relocated)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("cache_bytes", [0, 8 << 20],
                         ids=["no-cache", "cached"])
def test_a_fleet_runs_on_the_program_alone(monkeypatch, tmp_path,
                                           cache_bytes):
    """No checkout on the agents' ``PYTHONPATH`` and none where the
    program says its sources are: registering and serving a verified
    session (and, with a cache, a second one from it) uses nothing that
    is not in the program.  A module missing from ``AGENT_MODULES`` /
    ``CACHE_MODULES`` fails here, by name, in the agent's stderr."""
    strand(monkeypatch, tmp_path)
    fleet = ["n1", "n2", "n3"]
    with DaemonServer(fleet, config=FAST, cache_bytes=cache_bytes,
                      startup_timeout=20.0, spawn_retries=0,
                      stderr_dir=str(tmp_path)) as server:
        assert sorted(server.registered) == fleet, agent_logs(tmp_path)
        for from_cache in ([False, True] if cache_bytes else [False]):
            result = server.submit(BytesSource(PAYLOAD), timeout=60.0)
            assert result.ok, agent_logs(tmp_path)
            assert [result.outcomes[n].digest for n in fleet[1:]] \
                == [DIGEST, DIGEST]
            assert bool(result.perfstats.get("bytes_from_cache")) \
                == from_cache
    assert "Traceback" not in agent_logs(tmp_path)


def test_stranded_agents_do_fail_on_a_missing_module(monkeypatch, tmp_path):
    """The test above can fail: take one module out of the program and
    the agent dies naming it."""
    strand(monkeypatch, tmp_path)
    monkeypatch.setattr(program, "AGENT_MODULES", tuple(
        m for m in program.AGENT_MODULES if m != "repro.runtime.links"))
    with DaemonServer(["n1", "n2"], config=FAST, startup_timeout=20.0,
                      spawn_retries=0, stderr_dir=str(tmp_path)) as server:
        assert server.registered == []
    assert "No module named 'repro.runtime.links'" in agent_logs(tmp_path)


def test_a_foreign_program_still_registers_from_source(monkeypatch):
    """``python=`` naming an interpreter with another magic number: the
    agents import from ``PYTHONPATH`` as they did before there was a
    program, and the run is the same run."""
    real = program.build
    monkeypatch.setattr(program, "build",
                        lambda cached: b"\0\0\0\0" + real(cached)[MAGIC:])
    with DaemonServer(["n1", "n2"], config=FAST,
                      startup_timeout=20.0) as server:
        assert sorted(server.registered) == ["n1", "n2"]
        result = server.submit(BytesSource(PAYLOAD), timeout=60.0)
    assert result.ok and result.outcomes["n2"].digest == DIGEST


# ----------------------------------------------------------------------
# Never in the way: built once, no writer to block, the report says so
# ----------------------------------------------------------------------

def test_built_once_per_fleet_across_a_retry_and_a_late_join(monkeypatch):
    builds = []
    real = program.build

    def counted(cached):
        t0 = time.monotonic()
        blob = real(cached)
        builds.append((cached, len(blob), time.monotonic() - t0))
        return blob

    monkeypatch.setattr(program, "build", counted)
    paced = FAST.with_(bandwidth_limit=4 * (1 << 20))
    with DaemonServer(
            ["n1", "n2", "n3"], config=paced, cache_bytes=8 << 20,
            startup_timeout=20.0, spawn_retries=1, backoff=0.05,
            progress_every=64 * 1024,
            agent_args=lambda name, attempt: (
                ["--die-on-start"] if (name, attempt) == ("n2", 0) else []),
    ) as server:
        report = server.launch_report
        result = server.submit(
            BytesSource(PAYLOAD), ["n2"],
            late_join=[LateJoin("n3", after_bytes=256 * 1024)], timeout=60.0)
    # The --die-on-start retry and its backoff are what they were.
    assert report.nodes["n2"].attempts == 2 and report.retries == 1
    assert sorted(report.launched) == ["n1", "n2", "n3"]
    assert result.ok and result.outcomes["n3"].digest == DIGEST
    # Four spawns, one session with a late joiner: one build.
    assert [cached for cached, _, _ in builds] == [True]
    # And the launch says what it shipped.
    assert report.program_bytes == builds[0][1]
    assert report.program_build_s >= builds[0][2] > 0
    assert (f"program {report.program_bytes // 1024} KiB in "
            f"{report.program_build_s:.2f}s") in report.summary()
    names = marshal.loads(real(True)[MAGIC:]).keys()
    assert set(names) == set(program.module_names(cached=True))


def test_a_callers_own_spawn_ships_no_program():
    registered = set()

    class Proc:
        pid = 1

        def poll(self):
            return None

    def spawn(name, attempt):
        registered.add(name)
        return Proc()

    report = WindowedLauncher(spawn).launch(
        ["n1"], lambda name, timeout: name in registered)
    assert (report.program_bytes, report.program_build_s) == (0, 0.0)
    assert "program" not in report.summary()


def test_a_fork_server_that_never_reads_its_stdin_fails_in_one_timeout(
        tmp_path):
    """The program is a file written before the fork server exists, so
    there is no writer for a deaf server (stopped, wedged before
    ``BOOT``) to block: it is killed ``startup_timeout`` after it
    started, every spawn waiting on it fails as a launch failure, and a
    retry fails at once instead of waiting again — one host, one
    server, one timeout."""
    deaf = tmp_path / "deaf"
    deaf.write_text(textwrap.dedent(f"""\
        #!/bin/sh
        # Never looks at fd 0.
        echo $$ > {tmp_path}/deaf.pid
        exec sleep 60
        """))
    deaf.chmod(deaf.stat().st_mode | stat.S_IXUSR)
    t0 = time.monotonic()
    with DaemonServer(["n1", "n2"], config=FAST, python=str(deaf),
                      startup_timeout=1.0, spawn_retries=1,
                      backoff=0.05) as server:
        report = server.launch_report
        assert server.registered == []
    took = time.monotonic() - t0
    assert sorted(report.failed) == ["n1", "n2"]
    for nl in report.nodes.values():
        assert nl.attempts == 2
        assert nl.error == "spawn failed: fork server did not boot " \
                           "within 1.0s", nl.error
    assert 1.0 <= report.total_s <= took < 6.0
    pid = int((tmp_path / "deaf.pid").read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
