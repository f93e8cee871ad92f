"""``kascade deploy``/``serve`` fork the host's fork server at entry.

Each case runs the CLI in a subprocess whose environment carries a tag
of its own, and finds the processes of the run by that tag — a forked
server and its agents carry the CLI's command line, not ``agent``, so a
command-line search would miss them.  What is checked: the process tree
(every agent a child of the server, the server a child of the CLI), the
server's exit status as the CLI reaped it, and that nothing of the run
is left after a clean run, a refusal or a SIGKILL of the CLI.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import uuid
from typing import Dict, List, Optional

import pytest

from repro.cli.kascade import main
from repro.deploy import launcher

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
TAG = "KASCADE_CLI_FORK_TEST"
PAYLOAD = bytes((i * 7) % 251 for i in range(4 << 20))

#: Runs ``main(argv)`` as ``python -m repro.cli.kascade`` would, and
#: prints, as its last line, how every fork server it closed ended:
#: ``[kind, pid, returncode]`` — ``ProcessHandle`` for a forked one.
PROBE = """
import json, sys
from repro.deploy import launcher
closed = []
close = launcher.ForkServer.close
def recording(self, *args, **kwargs):
    close(self, *args, **kwargs)
    closed.append([type(self.proc).__name__, self.proc.pid,
                   self.proc.returncode])
launcher.ForkServer.close = recording
from repro.cli.kascade import main
try:
    sys.exit(main(sys.argv[1:]))
finally:
    print(json.dumps(closed), flush=True)
"""


def env_with(tag: str) -> dict:
    env = dict(os.environ)
    env[TAG] = tag
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def stat_of(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the command name: state, ppid, …"""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def tagged(tag: str, *, zombies: bool = True) -> Dict[int, dict]:
    """``pid -> {ppid, argv}`` of the processes carrying ``TAG=tag``."""
    needle = f"{TAG}={tag}".encode()
    found = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if needle not in f.read().split(b"\0"):
                    continue
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().decode(errors="replace").split("\0")
        except OSError:
            continue
        fields = stat_of(int(pid))
        if fields and (zombies or fields[0] != "Z"):
            found[int(pid)] = {"ppid": int(fields[1]), "argv": argv}
    return found


def tree(cli: int, seen: Dict[int, dict]):
    """``(server, agents)`` below the CLI ``cli`` in what was ``seen``."""
    servers = [pid for pid, p in seen.items() if p["ppid"] == cli]
    assert len(servers) == 1, seen
    agents = sorted(pid for pid, p in seen.items()
                    if p["ppid"] == servers[0])
    return servers[0], agents


def watch_until(proc: subprocess.Popen, tag: str,
                enough=lambda seen: False) -> Dict[int, dict]:
    """Every tagged process seen while ``proc`` runs (or until
    ``enough(seen)``), by its pid."""
    seen: Dict[int, dict] = {}
    while proc.poll() is None and not enough(seen):
        for pid, p in tagged(tag, zombies=False).items():
            seen.setdefault(pid, p)
        time.sleep(0.01)
    return seen


@pytest.fixture
def payload(tmp_path):
    path = tmp_path / "in.bin"
    path.write_bytes(PAYLOAD)
    return path


def run_cli(args, tag) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli.kascade", *args],
        env=env_with(tag), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_every_agent_is_a_child_of_the_server_the_cli_forked(tmp_path,
                                                              payload):
    """A paced run, watched from outside: one server, a child of the
    CLI, carrying the CLI's command line; four agents, each a child of
    that server; every output the input; nothing of the run left once
    the CLI has exited — not even a zombie, so the CLI reaped its
    server and the server its agents."""
    tag = uuid.uuid4().hex
    logs = tmp_path / "logs"
    logs.mkdir()
    proc = run_cli(["deploy", "-n", "3", "-i", str(payload),
                    "-o", str(tmp_path / "{node}.out"), "--bwlimit", "4MB",
                    "--stderr-dir", str(logs)], tag)
    seen = watch_until(proc, tag)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    server, agents = tree(proc.pid, seen)
    assert len(agents) == 4, seen
    assert seen[server]["argv"][1:4] == ["-m", "repro.cli.kascade",
                                         "deploy"]
    assert all(seen[pid]["argv"] == seen[server]["argv"] for pid in agents)
    assert tagged(tag) == {}
    for node in ("n2", "n3", "n4"):
        assert (tmp_path / f"{node}.out").read_bytes() == PAYLOAD
    # Its stderr went where an exec'd server's goes, and said nothing.
    assert (logs / "fork-server.stderr.log").read_text() == ""
    launch = next(line for line in out.splitlines()
                  if line.startswith("launch: "))
    assert "server boot" in launch


@pytest.mark.parametrize("case", ["clean", "missing input", "head chaos"])
def test_the_cli_reaps_its_server_on_every_way_out(tmp_path, payload, case):
    """The server ends with status 0 and is reaped by the CLI whether
    the run went through or was refused — a refusal is one line and
    status 2, as argparse refuses, and leaves nothing behind."""
    tag = uuid.uuid4().hex
    args = {"clean": ["-i", str(payload)],
            "missing input": ["-i", str(tmp_path / "absent.bin")],
            "head chaos": ["-i", str(payload), "--chaos", "n1:1MiB"]}[case]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, "deploy", "-n", "2", *args],
        env=env_with(tag), stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=120)
    closed = json.loads(proc.stdout.splitlines()[-1])
    # Closed once by the fleet's shutdown (if it started) and once by
    # ``main``: one forked server, exited 0.
    assert {(kind, code) for kind, _pid, code in closed} == \
        {("ProcessHandle", 0)}, (proc.stdout, proc.stderr)
    assert tagged(tag) == {}
    if case == "clean":
        assert proc.returncode == 0, proc.stderr
        return
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1, proc.stderr
    assert err[0].startswith("kascade deploy: error: ")
    assert ("No such file" if case == "missing input"
            else "targets the head") in err[0]


def test_nothing_survives_a_sigkill_of_the_cli(tmp_path):
    """The CLI dies mid-transfer: its server sees the end of its
    channel, kills and reaps its agents and exits — within 5 s nothing
    of the run is left alive."""
    tag = uuid.uuid4().hex
    big = tmp_path / "in.bin"
    big.write_bytes(PAYLOAD * 4)
    proc = run_cli(["deploy", "-n", "3", "-i", str(big),
                    "-o", str(tmp_path / "{node}.out"), "--bwlimit", "2MB"],
                   tag)

    def launched(seen):
        servers = [pid for pid, p in seen.items() if p["ppid"] == proc.pid]
        return len(servers) == 1 and sum(
            p["ppid"] == servers[0] for p in seen.values()) == 4

    try:
        seen = watch_until(proc, tag, launched)
        assert launched(seen) and proc.poll() is None, seen
        time.sleep(0.5)  # the transfer is under way
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while tagged(tag, zombies=False) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert tagged(tag, zombies=False) == {}
    finally:
        proc.kill()
        proc.communicate()
        for pid in tagged(tag, zombies=False):
            os.kill(pid, signal.SIGKILL)


def test_serve_forks_a_cached_server_that_serves_from_its_cache(tmp_path,
                                                                payload):
    """``kascade serve`` forks its server too, with the cache's modules
    loaded: a repeat submit is served from the agents' caches, and the
    shutdown leaves nothing behind."""
    tag = uuid.uuid4().hex
    proc = run_cli(["serve", "-n", "3", "--cache-bytes", str(8 << 20)], tag)
    try:
        address = None
        while address is None:
            line = proc.stdout.readline()
            assert line, proc.stderr.read()
            if line.startswith("listening on "):
                address = line.split()[-1]
        _server, agents = tree(proc.pid, tagged(tag, zombies=False))
        assert len(agents) == 3
        submit = [sys.executable, "-m", "repro.cli.kascade", "submit",
                  "--server", address]
        for run in ("cold", "warm"):
            done = subprocess.run(
                [*submit, "-i", str(payload),
                 "-o", str(tmp_path / f"{{node}}-{run}.out")],
                env=env_with("submit"), capture_output=True, text=True,
                timeout=120)
            assert done.returncode == 0, done.stderr
        assert f"({2 * len(PAYLOAD)} from cache)" in done.stdout
        for run in ("cold", "warm"):
            for node in ("n2", "n3"):
                assert (tmp_path / f"{node}-{run}.out").read_bytes() == \
                    PAYLOAD
        subprocess.run([*submit, "--shutdown"], env=env_with("submit"),
                       capture_output=True, timeout=60, check=True)
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.communicate()
    assert tagged(tag) == {}


def test_with_a_second_thread_the_server_is_exec_d(tmp_path, payload,
                                                   monkeypatch):
    """A process that already runs a second thread does not fork (the
    child would hold one thread of two): an in-process ``main`` then
    gets the exec'd server, and the run goes through."""
    starts = []
    start = launcher.ForkServer._start

    def counted(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(launcher.ForkServer, "_start", counted)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        status = main(["deploy", "-n", "2", "-i", str(payload),
                       "-o", str(tmp_path / "{node}.out")])
    finally:
        stop.set()
        other.join()
    assert status == 0
    assert len(starts) == 1
    assert starts[0].proc.args[2:5] == ["-m", "repro.cli.kascade", "agent"]
    for node in ("n2", "n3"):
        assert (tmp_path / f"{node}.out").read_bytes() == PAYLOAD


def test_submit_to_nobody_is_refused_in_one_line():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli.kascade", "submit",
         "--server", "127.0.0.1:1", "--ping"],
        env=env_with("submit"), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1, proc.stderr
    assert err[0].startswith("kascade submit: error: ")
    assert "unreachable" in err[0]
