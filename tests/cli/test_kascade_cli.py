"""Tests for the ``kascade`` command-line interface."""

import socket
import threading
import time

import pytest

from repro.cli.kascade import main, parse_chaos, parse_registry
from repro.runtime.transport import Address


class TestParseChaos:
    def test_node_and_size(self):
        (plan,) = parse_chaos(["n3:1MiB"])
        assert (plan.node, plan.after_bytes, plan.sig) == ("n3", 1 << 20,
                                                           "kill")

    def test_explicit_signal(self):
        (plan,) = parse_chaos(["n3:64KiB:stop"])
        assert plan.sig == "stop"

    def test_head_role_resolves_to_the_head_node(self):
        (plan,) = parse_chaos(["head:4MiB"], head="n1")
        assert plan.node == "n1"
        assert plan.after_bytes == 4 << 20
        # Without a head binding the literal name passes through (and
        # will be rejected downstream as an unknown node).
        assert parse_chaos(["head:4MiB"])[0].node == "head"

    def test_bad_entries_exit(self):
        for bad in ("n3", "n3:1MiB:stop:extra", "n3:not-a-size",
                    "n3:1MiB:term"):
            with pytest.raises(SystemExit, match="chaos"):
                parse_chaos([bad])

    def test_empty_and_none(self):
        assert parse_chaos([]) == []
        assert parse_chaos(None) == []


class TestParseRegistry:
    def test_basic(self):
        names, addrs = parse_registry("n1=10.0.0.1:3640,n2=10.0.0.2:3641")
        assert names == ["n1", "n2"]
        assert addrs["n1"] == Address("10.0.0.1", 3640)
        assert addrs["n2"].port == 3641

    def test_whitespace_tolerated(self):
        names, _ = parse_registry(" n1=h:1 , n2=h:2 ")
        assert names == ["n1", "n2"]

    def test_bad_entry(self):
        with pytest.raises(SystemExit):
            parse_registry("n1=oops")
        with pytest.raises(SystemExit):
            parse_registry("garbage")

    def test_single_node_rejected(self):
        with pytest.raises(SystemExit):
            parse_registry("n1=h:1")

    def test_ipv6ish_host(self):
        _, addrs = parse_registry("n1=host.example:1,n2=other:2")
        assert addrs["n1"].host == "host.example"


class TestDemo:
    def test_demo_to_files(self, tmp_path, capsys):
        src = tmp_path / "payload.bin"
        src.write_bytes(b"kascade-demo-payload" * 1000)
        out = tmp_path / "out-{node}.bin"
        rc = main([
            "demo", "-n", "3", "-i", str(src), "-o", str(out),
            "--chunk-size", "4096", "--timeout", "0.5",
        ])
        assert rc == 0
        for node in ("n2", "n3", "n4"):
            copy = tmp_path / f"out-{node}.bin"
            assert copy.read_bytes() == src.read_bytes()
        captured = capsys.readouterr()
        assert "no failures" in captured.out

    def test_demo_null_sink(self, tmp_path, capsys):
        src = tmp_path / "x.bin"
        src.write_bytes(b"z" * 100)
        rc = main(["demo", "-n", "2", "-i", str(src)])
        assert rc == 0

    @pytest.mark.parametrize("argv, why", [
        (["-n", "2", "-i", "{missing}"], "No such file"),
        (["-n", "0", "-i", "{present}"], "at least one receiver"),
    ])
    def test_demo_refuses_in_one_line_with_status_2(self, tmp_path, capsys,
                                                    argv, why):
        """A missing input or an empty pipeline is refused the way
        argparse refuses a bad option, not by a traceback."""
        present = tmp_path / "x.bin"
        present.write_bytes(b"z" * 100)
        argv = [a.format(missing=tmp_path / "absent.bin", present=present)
                for a in argv]
        with pytest.raises(SystemExit) as exit_:
            main(["demo", *argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("kascade demo: error: ") and why in err[0]

    @pytest.mark.parametrize("command", ["demo", "deploy"])
    def test_a_refusal_names_the_command_that_refused(self, tmp_path, capsys,
                                                      command):
        """``kascade deploy`` used to refuse in ``demo``'s name."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "-i", str(tmp_path / "absent.bin")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"kascade {command}: error: ")
        assert "No such file" in err[0]

    @pytest.mark.parametrize("command", ["demo", "deploy"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_closed_stdout_is_not_a_crash(self, tmp_path, command,
                                            unbuffered):
        """``kascade deploy … | head -3``: the reader leaving is not a
        failure of the run — no traceback, and the run's own status.
        Buffered, the closed pipe shows at the final flush; unbuffered
        (``PYTHONUNBUFFERED``), at the first ``print``."""
        import os
        import subprocess
        import sys

        src = tmp_path / "x.bin"
        src.write_bytes(b"z" * 100_000)
        reader, writer = os.pipe()
        os.close(reader)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, *(["-u"] if unbuffered else []),
                 "-m", "repro.cli.kascade", command, "-n", "2",
                 "-i", str(src)],
                stdout=writer, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120)
        finally:
            os.close(writer)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr
        assert proc.returncode == 0

    def test_demo_striped_to_files(self, tmp_path, capsys):
        src = tmp_path / "payload.bin"
        src.write_bytes(bytes((i * 31) % 256 for i in range(300_000)))
        out = tmp_path / "out-{node}.bin"
        rc = main([
            "demo", "-n", "3", "-i", str(src), "-o", str(out),
            "--stripes", "4", "--chunk-size", "4096", "--timeout", "1.0",
        ])
        assert rc == 0
        for node in ("n2", "n3", "n4"):
            copy = tmp_path / f"out-{node}.bin"
            assert copy.read_bytes() == src.read_bytes()

    def test_demo_command_sink(self, tmp_path):
        src = tmp_path / "x.bin"
        src.write_bytes(b"piped-data")
        rc = main([
            "demo", "-n", "2", "-i", str(src),
            "-O", f"cat > {tmp_path}/{{node}}.copy",
        ])
        assert rc == 0
        assert (tmp_path / "n2.copy").read_bytes() == b"piped-data"


def free_registry(count):
    """A ``--nodes`` spec of ``count`` nodes on currently-free ports."""
    ports = []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        ports.append(s.getsockname()[1])
        s.close()
    return ",".join(f"n{i + 1}=127.0.0.1:{p}" for i, p in enumerate(ports))


class TestSendRecv:
    def test_multi_process_style_pipeline(self, tmp_path):
        """send + two recv mains, each in its own thread, real TCP."""
        nodes = free_registry(3)
        src = tmp_path / "in.bin"
        src.write_bytes(bytes(range(256)) * 200)

        results = {}

        def recv(name, out):
            results[name] = main([
                "recv", "--name", name, "--nodes", nodes,
                "-o", str(out), "--timeout", "2.0",
            ])

        outs = {n: tmp_path / f"{n}.out" for n in ("n2", "n3")}
        threads = [
            threading.Thread(target=recv, args=(n, outs[n])) for n in outs
        ]
        for t in threads:
            t.start()
        send_rc = main([
            "send", "--name", "n1", "--nodes", nodes,
            "-i", str(src), "--timeout", "2.0",
        ])
        for t in threads:
            t.join(timeout=60)
        assert send_rc == 0
        assert results == {"n2": 0, "n3": 0}
        for out in outs.values():
            assert out.read_bytes() == src.read_bytes()

    def test_recv_started_after_send_is_waited_for(self, tmp_path, capsys):
        """Start-up is not failure detection: a receiver whose listener
        comes up 0.3 s after the sender began is connected to, not
        routed around, and the report names no failure."""
        nodes = free_registry(3)
        src = tmp_path / "in.bin"
        src.write_bytes(bytes(range(256)) * 200)
        results = {}

        def send():
            results["n1"] = main(["send", "--name", "n1", "--nodes", nodes,
                                  "-i", str(src)])

        def recv(name, out):
            results[name] = main(["recv", "--name", name, "--nodes", nodes,
                                  "-o", str(out)])

        outs = {n: tmp_path / f"{n}.out" for n in ("n2", "n3")}
        sender = threading.Thread(target=send)
        sender.start()
        time.sleep(0.3)
        receivers = [
            threading.Thread(target=recv, args=(n, outs[n])) for n in outs
        ]
        for t in receivers:
            t.start()
        for t in (sender, *receivers):
            t.join(timeout=60)
        assert results == {"n1": 0, "n2": 0, "n3": 0}
        for out in outs.values():
            assert out.read_bytes() == src.read_bytes()
        assert "transfer complete, no failures" in capsys.readouterr().out

    def test_striped_send_recv(self, tmp_path):
        """--stripes 2 end-to-end: stripe j listens on registry port + j
        (the consecutive-port convention), and each receiver's merged
        output is byte-identical to the input."""
        import socket

        def free_port_run(count):
            # The stripe convention needs `count` consecutive free
            # ports per node; probe until a run is available.
            for _ in range(50):
                socks = []
                try:
                    s = socket.socket()
                    s.bind(("127.0.0.1", 0))
                    base = s.getsockname()[1]
                    socks.append(s)
                    for off in range(1, count):
                        s2 = socket.socket()
                        s2.bind(("127.0.0.1", base + off))
                        socks.append(s2)
                    return base
                except OSError:
                    continue
                finally:
                    for s in socks:
                        s.close()
            raise RuntimeError("no consecutive port run found")

        ports = [free_port_run(2) for _ in range(3)]
        nodes = ",".join(
            f"n{i + 1}=127.0.0.1:{p}" for i, p in enumerate(ports)
        )
        src = tmp_path / "in.bin"
        src.write_bytes(bytes(range(256)) * 400)

        results = {}

        def recv(name, out):
            results[name] = main([
                "recv", "--name", name, "--nodes", nodes, "--stripes", "2",
                "-o", str(out), "--timeout", "5.0",
            ])

        outs = {n: tmp_path / f"{n}.out" for n in ("n2", "n3")}
        threads = [
            threading.Thread(target=recv, args=(n, outs[n])) for n in outs
        ]
        for t in threads:
            t.start()
        send_rc = main([
            "send", "--name", "n1", "--nodes", nodes, "--stripes", "2",
            "-i", str(src), "--timeout", "5.0",
        ])
        for t in threads:
            t.join(timeout=60)
        assert send_rc == 0
        assert results == {"n2": 0, "n3": 0}
        for out in outs.values():
            assert out.read_bytes() == src.read_bytes()

    def test_striped_send_rejects_stdin(self):
        with pytest.raises(SystemExit, match="seekable"):
            main(["send", "--name", "n1", "--nodes", "n1=h:1,n2=h:2",
                  "--stripes", "2"])

    def test_send_must_be_head(self):
        with pytest.raises(SystemExit):
            main(["send", "--name", "n2", "--nodes", "n1=h:1,n2=h:2"])

    def test_recv_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["recv", "--name", "ghost", "--nodes", "n1=h:1,n2=h:2"])


class TestSimCli:
    def test_list(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        assert sim_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "fig15" in out

    def test_map(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        assert sim_main(["map"]) == 0
        assert "lyon-paris" in capsys.readouterr().out

    def test_unknown_figure(self):
        from repro.cli.kascade_sim import main as sim_main
        with pytest.raises(SystemExit):
            sim_main(["run", "fig99"])

    def test_run_quick_figure(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        assert sim_main(["run", "fig15", "--quick", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "no failure" in out
        assert "regenerated in" in out


class TestCompare:
    def test_compare_basic(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        rc = sim_main([
            "compare", "--clients", "10", "--size", "100MB",
            "--methods", "Kascade,TakTuk/chain", "--no-startup",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Kascade" in out and "TakTuk/chain" in out
        assert "10/10" in out

    def test_compare_unknown_method(self):
        from repro.cli.kascade_sim import main as sim_main
        with pytest.raises(SystemExit):
            sim_main(["compare", "--methods", "Carrier-Pigeon"])

    def test_compare_disk_sink(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        rc = sim_main([
            "compare", "--clients", "5", "--size", "200MB",
            "--sink", "disk", "--methods", "Kascade", "--no-startup",
        ])
        assert rc == 0

    def test_compare_random_order(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        rc = sim_main([
            "compare", "--clients", "40", "--size", "500MB",
            "--order", "random", "--methods", "Kascade", "--no-startup",
        ])
        assert rc == 0


class TestImportCost:
    def test_cli_import_leaves_numpy_unloaded(self):
        """numpy is half the CLI's import time and nothing on the
        transfer path uses it: every agent process would pay for it."""
        import subprocess
        import sys

        probe = ("import sys, repro.cli.kascade; "
                 "sys.exit(1 if 'numpy' in sys.modules else 0)")
        assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


class TestHelpSurfaces:
    """Every subcommand's --help must render (argparse wiring sanity)."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["demo", "--help"], ["recv", "--help"], ["send", "--help"],
    ])
    def test_kascade_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--help"], ["list", "--help"], ["map", "--help"],
        ["run", "--help"], ["all", "--help"], ["compare", "--help"],
        ["proto", "--help"], ["fuzz", "--help"], ["diff", "--help"],
    ])
    def test_kascade_sim_help(self, argv, capsys):
        from repro.cli.kascade_sim import main as sim_main
        with pytest.raises(SystemExit) as exc:
            sim_main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_versions(self, capsys):
        from repro.cli.kascade_sim import main as sim_main
        for entry in (main, sim_main):
            with pytest.raises(SystemExit) as exc:
                entry(["--version"])
            assert exc.value.code == 0
