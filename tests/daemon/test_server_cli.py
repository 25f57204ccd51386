"""Black-box smoke tests: the daemon and client as real processes.

These drive ``python -m repro.daemon`` / ``python -m repro.daemon.client``
exactly as an operator would — the CI daemon-smoke job runs this file.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.daemon.profiles import DEMO_LAMMPS_RATE

pytestmark = pytest.mark.slow

WORK = str(2.5 * DEMO_LAMMPS_RATE)
APP_KW = '{"n_steps": 1000000}'


def spawn_daemon(sock, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.daemon", "--socket", sock,
         "--book", "demo", "--manual", "--n-slots", "4",
         "--power-budget", "300", "--n-workers", "4", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    ready = process.stdout.readline()
    assert "ready" in ready, ready
    return process


def client(sock, *args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro.daemon.client", "--socket", sock,
         *args],
        capture_output=True, text=True, timeout=120, env=env)
    if check:
        assert result.returncode == 0, result.stderr or result.stdout
    return result


def json_lines(result):
    return [json.loads(line) for line in
            result.stdout.strip().splitlines() if line]


class TestCliSmoke:
    def test_submit_tick_status_shutdown(self, tmp_path):
        sock = str(tmp_path / "d.sock")
        daemon = spawn_daemon(sock)
        try:
            run = json_lines(client(
                sock, "run", "j1", "lammps", "--nodes", "2",
                "--work-units", WORK, "--max-slowdown", "0.3",
                "--app-kwargs", APP_KW))[0]
            assert (run["job_id"], run["state"]) == ("j1", "pending")

            client(sock, "run", "j2", "lammps", "--nodes", "1",
                   "--work-units", WORK, "--app-kwargs", APP_KW)

            # watch from a separate process while ticking to completion
            # stop at 6 progress frames (the workload produces more)
            # rather than on a quiet-window timer: subprocess spawns
            # under a loaded test host can outlast any idle window
            watcher = subprocess.Popen(
                [sys.executable, "-m", "repro.daemon.client",
                 "--socket", sock, "watch", "w1", "--no-events",
                 "--max-frames", "6", "--idle", "15.0",
                 "--wall-budget", "120"],
                stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": "src"})
            # wait for the subscription to be live before any epoch
            # runs — a slow-joining watcher would miss the stream
            watch_reply = json.loads(watcher.stdout.readline())
            assert watch_reply["type"] == "watch_reply"

            for _ in range(20):
                info = json_lines(client(sock, "info"))[0]
                if info["queued"] == 0 and info["running"] == 0 and \
                        info["completed"] == 2:
                    break
                client(sock, "tick", "5")
            else:
                pytest.fail("jobs never completed")

            for job_id in ("j1", "j2"):
                status = json_lines(client(sock, "status", job_id))[0]
                assert status["state"] == "completed"
                assert status["progress"] == status["work_units"]

            listed = json_lines(client(sock, "list"))[0]
            assert len(listed["jobs"]) == 2

            watch_out, _ = watcher.communicate(timeout=90)
            frames = [json.loads(line) for line in
                      watch_out.strip().splitlines()]
            telemetry = [f for f in frames
                         if f["type"] == "stream_telemetry"]
            assert telemetry, "telemetry stream was empty"
            assert all(f["topic"].startswith("progress/")
                       for f in telemetry)

            shut = json_lines(client(sock, "shutdown"))[0]
            assert shut["type"] == "shutdown_reply"
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()

    def test_client_help_prints_no_warning(self):
        """Importing ``repro.daemon`` must not import the client module:
        ``-m`` would then find it in sys.modules, warn on stderr and run
        a second copy of it as ``__main__``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro.daemon.client", "--help"],
            capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.startswith("usage: python -m repro.daemon.client")

    def test_error_reply_exits_nonzero(self, tmp_path):
        sock = str(tmp_path / "d.sock")
        daemon = spawn_daemon(sock)
        try:
            result = client(sock, "status", "ghost", check=False)
            assert result.returncode == 1
            assert "unknown-job" in result.stderr
            client(sock, "shutdown")
            daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()

    def test_kill_then_resume_from_checkpoint(self, tmp_path):
        sock = str(tmp_path / "d.sock")
        store = str(tmp_path / "store")
        daemon = spawn_daemon(sock, "--checkpoint-dir", store,
                              "--checkpoint-interval", "2")
        try:
            for i in range(3):
                client(sock, "run", f"j{i}", "lammps", "--nodes", "1",
                       "--work-units", WORK, "--app-kwargs", APP_KW)
            client(sock, "tick", "3")  # periodic checkpoint at epoch 2
            assert os.listdir(store) == ["epoch-00000002.ckpt"]
        finally:
            daemon.kill()  # hard kill: no shutdown checkpoint
            daemon.wait(timeout=30)

        resumed = spawn_daemon(sock, "--checkpoint-dir", store, "--resume")
        try:
            info = json_lines(client(sock, "info"))[0]
            assert info["now"] == 2.0
            for _ in range(20):
                info = json_lines(client(sock, "info"))[0]
                if info["queued"] == 0 and info["running"] == 0:
                    break
                client(sock, "tick", "5")
            assert info["completed"] == 3
            client(sock, "shutdown")
            resumed.wait(timeout=30)
        finally:
            if resumed.poll() is None:
                resumed.kill()
