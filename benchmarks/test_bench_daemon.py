"""Benchmark the daemon's front door: concurrent submission and
telemetry fan-out throughput over a real Unix-domain socket.

Two measurements at 1, 4, and 16 concurrent clients:

* **submissions/sec** — each client owns a connection and fires a
  stream of ``run`` requests at one shared daemon; the rate is total
  accepted submissions over the wall time of the slowest client.
* **telemetry messages/sec** — each client holds a ``watch``
  subscription on the ``progress`` topic while a driver ticks a
  workload to completion; the rate is total frames delivered across
  all watchers over the tick-plus-drain window.

Results go to ``benchmarks/out/daemon_throughput.txt``. Rates on
shared CI runners are noisy, so the assertions are shape-only: every
submission accepted, every watcher fed, rates positive.
"""

import threading
import time

from repro.daemon import protocol as proto
from repro.daemon.client import DaemonClient
from repro.daemon.profiles import DEMO_LAMMPS_RATE, demo_book
from repro.daemon.server import DaemonServer
from repro.daemon.service import Daemon, DaemonConfig
from repro.scheduler import SchedulerConfig

CLIENT_COUNTS = (1, 4, 16)
SUBMIT_JOBS = 192        # total across clients, divisible by 16
WATCH_JOBS = 8
JOB_SECONDS = 2.5        # > 1 epoch so completion rating has samples
APP_KW = {"n_steps": 1_000_000}


def start_daemon(tmp_path, name, *, queue_capacity):
    config = DaemonConfig(
        scheduler=SchedulerConfig(n_slots=4, power_budget=300.0,
                                  policy="backfill", min_cap=45.0,
                                  cap_step=5.0, eco_margin=0.8,
                                  n_workers=4, seed=1),
        queue_capacity=queue_capacity)
    daemon = Daemon(config, demo_book())
    path = str(tmp_path / name)
    server = DaemonServer(daemon, socket_path=path, pacer=None)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return daemon, server, thread, path


def stop(daemon, server, thread):
    server.shutdown()
    thread.join(timeout=5.0)
    daemon.close()


def measure_submissions(tmp_path, n_clients):
    """Wall time for ``SUBMIT_JOBS`` run requests split over
    ``n_clients`` connections; returns submissions/sec."""
    daemon, server, thread, path = start_daemon(
        tmp_path, f"submit-{n_clients}.sock",
        queue_capacity=SUBMIT_JOBS + 1)
    per_client = SUBMIT_JOBS // n_clients
    barrier = threading.Barrier(n_clients + 1)
    replies = []
    rlock = threading.Lock()

    def submit(c):
        with DaemonClient(socket_path=path, timeout=60.0) as client:
            barrier.wait()
            got = [client.run(f"c{c}-j{i}", "lammps", n_nodes=1,
                              work_units=JOB_SECONDS * DEMO_LAMMPS_RATE,
                              app_kwargs=APP_KW)
                   for i in range(per_client)]
        with rlock:
            replies.extend(got)

    threads = [threading.Thread(target=submit, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    stop(daemon, server, thread)

    assert len(replies) == n_clients * per_client
    assert all(isinstance(r, proto.RunReply) for r in replies), replies
    assert len({r.seq for r in replies}) == len(replies)
    return len(replies) / elapsed


def measure_telemetry(tmp_path, n_clients):
    """Frames/sec fanned out to ``n_clients`` watchers while a
    ``WATCH_JOBS``-job workload ticks to completion."""
    daemon, server, thread, path = start_daemon(
        tmp_path, f"watch-{n_clients}.sock",
        queue_capacity=WATCH_JOBS + 1)
    counts = [0] * n_clients
    ready = threading.Barrier(n_clients + 1)

    def watch(w):
        with DaemonClient(socket_path=path, timeout=60.0) as client:
            client.watch(f"w{w}", topic="progress", hwm=100_000,
                         events=False)
            ready.wait()
            for frame in client.frames(wall_budget=120.0, idle=1.0):
                if isinstance(frame, proto.StreamTelemetry):
                    counts[w] += 1

    watchers = [threading.Thread(target=watch, args=(w,))
                for w in range(n_clients)]
    for t in watchers:
        t.start()
    ready.wait()

    start = time.perf_counter()
    with DaemonClient(socket_path=path, timeout=60.0) as driver:
        for j in range(WATCH_JOBS):
            reply = driver.run(f"j{j}", "lammps", n_nodes=1,
                               work_units=JOB_SECONDS * DEMO_LAMMPS_RATE,
                               app_kwargs=APP_KW)
            assert isinstance(reply, proto.RunReply), reply
        while True:
            info = driver.info()
            if info.queued == 0 and info.running == 0:
                break
            driver.tick(5)
    for t in watchers:
        t.join()
    elapsed = time.perf_counter() - start
    stop(daemon, server, thread)

    assert all(c > 0 for c in counts), counts
    # every watcher sees the same full stream (no per-client loss)
    assert len(set(counts)) == 1, counts
    return sum(counts) / elapsed


def test_bench_daemon_throughput(benchmark, tmp_path, save_artifact):
    # pedantic wrapper so the canonical single-client submission run
    # lands in the pytest-benchmark table like the other benchmarks
    rows = []
    first = benchmark.pedantic(
        lambda: measure_submissions(tmp_path, 1), rounds=1, iterations=1)
    for n in CLIENT_COUNTS:
        submit_rate = first if n == 1 else \
            measure_submissions(tmp_path, n)
        telemetry_rate = measure_telemetry(tmp_path, n)
        assert submit_rate > 0 and telemetry_rate > 0
        rows.append((n, submit_rate, telemetry_rate))

    lines = [
        "repro.daemon throughput (manual-tick daemon, 4-slot cluster, "
        "Unix-domain socket)",
        f"submission workload : {SUBMIT_JOBS} jobs split across "
        "clients",
        f"telemetry workload  : {WATCH_JOBS} jobs ticked to "
        "completion, one progress watch per client",
        "",
        f"{'clients':>8} {'submissions/s':>15} {'telemetry msg/s':>17}",
    ]
    for n, submit_rate, telemetry_rate in rows:
        lines.append(f"{n:>8} {submit_rate:>15.0f} "
                     f"{telemetry_rate:>17.0f}")
    save_artifact("daemon_throughput", "\n".join(lines))
