"""The benchmark's four fixed workloads.

Every workload draws all generated inputs from the seed. Its work is a
fixed unit repeated a number of times that depends on ``--seconds``
alone: cluster epochs, Figure-4 sweep passes, or rounds of the daemon's
job trace. The parity digest covers the first unit (the first
``DIGEST_EPOCHS`` epochs of a cluster workload), so it depends on the
seed only; later passes and rounds are checked against it or checked
for completion, and every count a traced run reports repeats exactly
for one ``(seed, seconds)`` pair.

A workload object names the program ``modules`` it imports and has
three steps: ``setup`` builds the system and warms it (timed as
set-up, with the imports), ``measure`` runs the timed phase and
``close`` stops what ``setup`` started.

``measure`` takes the run's :class:`hostspeed.HostSpeed` and samples it
before each timed unit; it returns a :class:`Measurement`: per-operation
host times with the speed index each was taken at, simulated
node-seconds, the outputs the digest covers, and the output checks.
``probe_helpers`` says where the probe runs: 0 in the benchmark
process, otherwise in that many helper processes at once.
"""

from __future__ import annotations

import os
import math
import random
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Nodes in the cluster_vector job (the ROADMAP's 1,000-node scenario).
VECTOR_NODES = 1000
#: Nodes in the cluster_sharded job, over two shard workers.
SHARDED_NODES = 32
SHARDS = 2
#: Per-node cluster power budget and clamps (W). The 4-worker apps draw
#: about 65 W uncapped, so the budget binds and the policy matters.
NODE_BUDGET_W = 55.0
MIN_NODE_W = 40.0
MAX_NODE_W = 75.0
N_WORKERS = 4

#: Cluster epochs the parity digest covers (a cluster workload runs at
#: least this many).
DIGEST_EPOCHS = 3

#: Figure-4 reduction: the first, middle and last cap of each paper
#: sweep, one repeat, and short (uncapped, capped) measurement windows in
#: simulated seconds. AMG and OpenMC report coarsely, so they get twice
#: the window; at one repeat a shorter one lets the quantization hide the
#: impact of the tightest cap on some seeds.
FIG4_WINDOWS = {"lammps": (5.0, 6.0), "amg": (10.0, 12.0),
                "qmcpack": (5.0, 6.0), "stream": (5.0, 6.0),
                "openmc": (10.0, 12.0)}
FIG4_BASELINE = {"baseline_window": 6.0, "warmup": 2.5}
#: Host seconds of one sweep pass on a 2-CPU host; sizes the pass count.
FIG4_PASS_S = 11.0

#: Daemon cluster: slots, budget (W) and the job trace shape.
DAEMON_SLOTS = 24
DAEMON_BUDGET_W = 1200.0
DAEMON_APPS = {
    # app -> (app_kwargs, approximate uncapped units/s on one node)
    "lammps": ({"n_steps": 1_000_000}, 8.95e5),
    "qmcpack": ({"vmc1_blocks": 0, "vmc2_blocks": 0,
                 "dmc_blocks": 1_000_000}, 17.375),
}
#: Jobs in every ten with a slowdown tolerance. Their eco cap is applied
#: before the first tick, which the vector gate refuses, so these jobs
#: run as object-engine fallbacks inside the vector host.
ECO_PER_10 = 3
#: Jobs in one round of the trace, and host seconds of one round on a
#: 2-CPU host (sizes the round count).
ROUND_JOBS = 36
ROUND_S = 4.0
PROBE_RATE_HZ = 100.0
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Measurement:
    op_ms: list[float]            #: host ms per simulated 1-s epoch
    op_index: list[float]         #: speed index of the probe before each
    node_sim_s: float             #: simulated node-seconds advanced
    timed_s: float                #: host seconds of the timed phase
    outputs: object               #: what the parity digest covers
    checks: dict[str, bool]       #: output check name -> passed
    attempted: int = 0            #: operations tried (epochs, runs, requests)
    failed: int = 0               #: operations that failed
    extra: dict = field(default_factory=dict)  #: other reported figures


def _series(ts) -> list:
    return [list(ts.times), list(ts.values)]


# ----------------------------------------------------------------------
# Cluster workloads
# ----------------------------------------------------------------------


class _Cluster:
    """A ClusterSimulation stepped one 1-s epoch at a time."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.epochs = max(DIGEST_EPOCHS, self.epochs_for(seconds))

    modules = ("repro.cluster.policies", "repro.cluster.simulation")
    probe_helpers = 0

    def build(self):
        from repro.cluster.policies import ProgressAwareRebalancer
        from repro.cluster.simulation import ClusterSimulation

        policy = ProgressAwareRebalancer(self.n_nodes * NODE_BUDGET_W,
                                         min_node=MIN_NODE_W,
                                         max_node=MAX_NODE_W)
        return ClusterSimulation(self.n_nodes, self.app, policy,
                                 app_kwargs=self.app_kwargs,
                                 variability=(0.05, 0.08), seed=self.seed,
                                 **self.substrate)

    def setup(self, run_dir: str):
        sim = self.build()
        sim.run(duration=1.0)  # warm-up epoch
        return sim

    def close(self, sim) -> None:
        sim.close()

    @staticmethod
    def outputs(sim) -> dict:
        return {
            "budget_history": _series(sim.budget_history),
            "total_progress": _series(sim.total_progress),
            "critical_path": _series(sim.critical_path),
            "total_energy": sim.total_energy,
            "now": sim.now,
        }

    def measure(self, sim, speed) -> Measurement:
        op_ms, op_index = [], []
        energies = [sim.total_energy]
        start = time.perf_counter()
        for k in range(self.epochs):
            speed.sample()
            op_index.append(speed.current())
            t0 = time.perf_counter()
            sim.run(duration=1.0)
            op_ms.append((time.perf_counter() - t0) * 1e3)
            energies.append(sim.total_energy)
            if k + 1 == DIGEST_EPOCHS:
                outputs = self.outputs(sim)
        timed_s = time.perf_counter() - start
        budget = sim.policy.budget
        checks = {
            "allocated total within budget": all(
                b <= budget * (1 + 1e-12) for b in sim.budget_history.values),
            "energy rises every epoch": all(
                b > a for a, b in zip(energies, energies[1:])),
        }
        return Measurement(op_ms=op_ms, op_index=op_index,
                           node_sim_s=self.n_nodes * float(self.epochs),
                           timed_s=timed_s, outputs=outputs, checks=checks,
                           attempted=self.epochs)


class ClusterVector(_Cluster):
    """1,000 lammps nodes as one vector group, in-process."""

    n_nodes = VECTOR_NODES
    app = "lammps"
    app_kwargs = {"n_steps": 10_000_000, "n_workers": N_WORKERS}
    substrate = {"engine": "vector", "shards": 1}

    @staticmethod
    def epochs_for(seconds: int) -> int:
        return seconds  # about 1 s of host time per epoch


class ClusterSharded(_Cluster):
    """hacc on the object engine over two shard workers."""

    n_nodes = SHARDED_NODES
    app = "hacc"
    # growth=0 keeps the per-step cost flat, so every epoch does the
    # same amount of work
    app_kwargs = {"n_steps": 1_000_000, "growth": 0.0,
                  "n_workers": N_WORKERS}
    substrate = {"engine": "object", "shards": SHARDS, "balance": False}
    # the epoch waits for the slower of the two workers
    probe_helpers = SHARDS

    @staticmethod
    def epochs_for(seconds: int) -> int:
        return max(1, 3 * seconds)  # about 0.3 s of host time per epoch


# ----------------------------------------------------------------------
# Figure-4 sweep
# ----------------------------------------------------------------------


class Figure4Sweep:
    """A reduced Figure-4 sweep: all five apps, three caps each."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.passes = max(1, round(seconds / FIG4_PASS_S))

    modules = ("repro.experiments.figure4", "repro.runtime.executor")
    probe_helpers = 0

    def setup(self, run_dir: str):
        from repro.experiments.harness import Testbed
        from repro.runtime.executor import RunExecutor

        class TimedExecutor(RunExecutor):
            """A serial, cache-free executor that times every run."""

            def __init__(self) -> None:
                super().__init__(1, cache_dir=None)
                self.op_ms: list[float] = []
                self.op_index: list[float] = []
                self.sim_s = 0.0
                self.speed = None  # set by measure

            def map(self, fn, items):
                out = []
                for item in items:
                    self.speed.sample()
                    self.op_index.append(self.speed.current())
                    t0 = time.perf_counter()
                    out.extend(super().map(fn, [item]))
                    seconds = item.uncapped_window + item.capped_window
                    self.op_ms.append(
                        (time.perf_counter() - t0) * 1e3 / seconds)
                    self.sim_s += seconds
                return out

        testbed = Testbed(seed=self.seed)
        testbed.run("lammps", duration=1.0,
                    app_kwargs={"n_steps": 1_000_000})  # warm-up run
        return testbed, TimedExecutor()

    def close(self, state) -> None:
        pass

    def measure(self, state, speed) -> Measurement:
        from repro.experiments import figure4

        testbed, executor = state
        executor.speed = speed
        start = time.perf_counter()
        passes = []
        for _ in range(self.passes):
            panels = []
            for app, (uncapped, capped) in FIG4_WINDOWS.items():
                caps = figure4.DEFAULT_CAPS[app]
                panels.append(figure4.run_panel(
                    app, caps=(caps[0], caps[len(caps) // 2], caps[-1]),
                    repeats=1, seed=self.seed, testbed=testbed,
                    executor=executor, uncapped_window=uncapped,
                    capped_window=capped, **FIG4_BASELINE))
            passes.append(panels)
        timed_s = time.perf_counter() - start
        checks = {}
        for panel in passes[0]:
            deltas = [m.delta_mean for m in panel.measurements]
            checks[f"{panel.app}: impact grows as the cap tightens"] = \
                deltas[-1] > deltas[0]
        results = [{panel.app: [vars(m) for m in panel.measurements]
                    for panel in panels} for panels in passes]
        checks["every pass reproduces the first"] = all(
            later == results[0] for later in results[1:])
        return Measurement(op_ms=executor.op_ms, op_index=executor.op_index,
                           node_sim_s=executor.sim_s,
                           timed_s=timed_s, outputs=results[0],
                           checks=checks, attempted=len(executor.op_ms))


# ----------------------------------------------------------------------
# Daemon under a mixed load
# ----------------------------------------------------------------------


def job_trace(seed: int, n_jobs: int, round_: int = 0) -> list[dict]:
    """A seeded trace of 1-4-node jobs arriving about one per tick, for
    one round of the workload.

    The mix is fixed by ``n_jobs``: apps, node counts, work (1-3 s of
    uncapped progress) and tolerances cycle through their ranges. The
    seed shuffles the shapes within blocks of twelve, each of which holds
    every (node count, work) pair once, and jitters the arrival ticks;
    so every seed simulates the same work with the same load profile.
    Each round draws its own order, so a run's tick times average over
    several overlaps of the same jobs rather than depend on one.
    """
    rng = random.Random(f"{seed}/{round_}")
    apps = sorted(DAEMON_APPS)
    shapes = []
    for i in range(n_jobs):
        app = apps[(i // 4) % len(apps)]
        kwargs, rate = DAEMON_APPS[app]
        shapes.append({
            "app_name": app,
            "n_nodes": 1 + i % 4,
            "work_units": (1.0 + i % 3) * rate,
            "max_slowdown": (0.1 + 0.1 * (i % 3)
                             if i % 10 < ECO_PER_10 else None),
            "app_kwargs": kwargs,
        })
    for b in range(0, n_jobs, 12):
        block = shapes[b:b + 12]
        rng.shuffle(block)
        shapes[b:b + 12] = block
    return [dict(shape, job_id=f"j{k:03d}", arrival=k + rng.randrange(3))
            for k, shape in enumerate(shapes)]


class _Prober(threading.Thread):
    """Open-loop reader on its own connection: ``status``/``info`` sent
    at a fixed rate whether or not earlier replies have come back, each
    timed from when it was due."""

    def __init__(self, sock, job_ids: list[str], seed: int) -> None:
        super().__init__(name="perfbench-prober", daemon=True)
        self.sock = sock
        self.job_ids = job_ids   # appended to by the driver
        self.rng = random.Random(seed)
        self.stop = threading.Event()
        self.latency_ms: list[float] = []
        self.lateness_ms: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def _request(self, k: int):
        from repro.daemon import protocol as proto

        known = len(self.job_ids)
        if known and k % 2:
            return proto.StatusRequest(
                job_id=self.job_ids[self.rng.randrange(known)])
        return proto.InfoRequest()

    def run(self) -> None:
        from repro.daemon import protocol as proto

        period = 1.0 / PROBE_RATE_HZ
        in_flight: deque = deque()   # (due, sent) per unanswered request
        buf = bytearray()
        start = time.perf_counter()
        stopped_at = None
        k = 0
        with selectors.DefaultSelector() as sel:
            sel.register(self.sock, selectors.EVENT_READ)
            while True:
                now = time.perf_counter()
                if stopped_at is None and self.stop.is_set():
                    stopped_at = now
                if stopped_at is None:
                    due = start + k * period
                    if now >= due:
                        self.sock.sendall(proto.encode(self._request(k)))
                        in_flight.append((due, now))
                        k += 1
                        continue
                    timeout = due - now
                elif not in_flight:
                    return
                elif now - stopped_at > REQUEST_TIMEOUT_S:
                    self.failed += len(in_flight)
                    self.errors.append(f"{len(in_flight)} probes timed out")
                    return
                else:
                    timeout = REQUEST_TIMEOUT_S
                if not sel.select(timeout):
                    continue
                chunk = self.sock.recv(65536)
                if not chunk:
                    self.failed += len(in_flight)
                    self.errors.append("daemon closed the probe connection")
                    return
                buf += chunk
                done = time.perf_counter()
                while (i := buf.find(b"\n")) >= 0:
                    reply = proto.decode(bytes(buf[:i + 1]))
                    del buf[:i + 1]
                    due, sent = in_flight.popleft()
                    self.latency_ms.append((done - due) * 1e3)
                    self.lateness_ms.append((sent - due) * 1e3)
                    if isinstance(reply, proto.ErrorReply):
                        self.failed += 1
                        self.errors.append(f"{reply.code}: {reply.message}")


class DaemonMixed:
    """The socket daemon in its own process, a closed-loop driver and an
    open-loop prober in this one."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.rounds = max(1, round(seconds / ROUND_S))
        self.traces = [job_trace(seed, ROUND_JOBS, r)
                       for r in range(self.rounds)]
        self.traced = False   # set by the runner for the traced pass

    modules = ("repro.daemon.client",)
    # a tick keeps one process busy at a time, the daemon
    probe_helpers = 1

    def daemon_args(self, socket_path: str) -> list[str]:
        return ["--socket", socket_path, "--manual", "--engine", "vector",
                "--n-slots", str(DAEMON_SLOTS),
                "--power-budget", str(DAEMON_BUDGET_W),
                "--policy", "backfill", "--seed", str(self.seed),
                "--n-workers", str(N_WORKERS), "--book", "live",
                "--queue-capacity", str(ROUND_JOBS + 8)]

    def setup(self, run_dir: str):
        from repro.daemon.client import DaemonClient

        # relative to the working directory, which the daemon inherits:
        # a Unix socket path is limited to about 100 bytes, and the
        # checkout's absolute path may be long
        socket_path = os.path.relpath(os.path.join(run_dir, "d.sock"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "daemon_child.py"),
                   os.path.join(run_dir, "daemon-trace.json")]
        else:
            cmd = [sys.executable, "-m", "repro.daemon"]
        proc = subprocess.Popen(cmd + self.daemon_args(socket_path),
                                stdout=subprocess.PIPE, env=env, text=True)
        state = {"proc": proc, "driver": None, "probe": None}
        try:
            line = proc.stdout.readline()
            if "ready" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            driver = state["driver"] = DaemonClient(
                socket_path=socket_path, timeout=REQUEST_TIMEOUT_S).connect()
            probe = state["probe"] = socket.socket(socket.AF_UNIX,
                                                   socket.SOCK_STREAM)
            probe.connect(socket_path)
            driver.watch("driver", topic="progress", hwm=100_000)
            # one untimed submission per app warms the power book
            for app, (kwargs, rate) in sorted(DAEMON_APPS.items()):
                job_id = f"warm-{app}"
                for reply in (driver.run(job_id, app, n_nodes=1,
                                         work_units=rate,
                                         app_kwargs=kwargs),
                              driver.kill(job_id)):
                    if type(reply).__name__ == "ErrorReply":
                        raise RuntimeError(f"warm-up failed: {reply}")
        except BaseException:
            self.close(state)
            raise
        return state

    def close(self, state) -> None:
        from repro.exceptions import DaemonError

        proc, driver, probe = state["proc"], state["driver"], state["probe"]
        if probe is not None:
            probe.close()
        if driver is not None:
            if proc.poll() is None:
                try:
                    driver.shutdown()
                except (OSError, DaemonError):
                    pass
            driver.close()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def _drive_round(self, driver, speed, pending: list[dict], tick: int,
                     job_ids: list[str], submit_ms: list[float],
                     tick_ms: list[float], tick_index: list[float],
                     errors: list[str]):
        """Submit one round's jobs at their arrival ticks and tick until
        the cluster drains; the last tick and its reply (``None`` after
        an ``ErrorReply``)."""
        from repro.daemon import protocol as proto

        while True:
            while pending and pending[0]["arrival"] <= tick:
                job = pending.pop(0)
                t0 = time.perf_counter()
                reply = driver.run(
                    job["job_id"], job["app_name"], n_nodes=job["n_nodes"],
                    work_units=job["work_units"],
                    max_slowdown=job["max_slowdown"],
                    app_kwargs=job["app_kwargs"])
                submit_ms.append((time.perf_counter() - t0) * 1e3)
                if isinstance(reply, proto.ErrorReply):
                    errors.append(f"{job['job_id']}: {reply.code}")
                else:
                    job_ids.append(job["job_id"])
            speed.sample()
            tick_index.append(speed.current())
            t0 = time.perf_counter()
            reply = driver.tick(1)
            tick_ms.append((time.perf_counter() - t0) * 1e3)
            tick += 1
            if isinstance(reply, proto.ErrorReply):
                errors.append(f"tick {tick}: {reply.code}")
                return tick, None
            if not pending and reply.running == 0 and reply.queued == 0:
                return tick, reply

    def measure(self, state, speed) -> Measurement:
        from repro.daemon import protocol as proto
        from repro.exceptions import DaemonError

        driver = state["driver"]
        job_ids: list[str] = []
        prober = _Prober(state["probe"], job_ids, self.seed)
        tick_ms: list[float] = []
        tick_index: list[float] = []
        submit_ms: list[float] = []
        errors: list[str] = []
        jobs: list[dict] = []
        first_round_end = math.inf
        tick = 0
        start = time.perf_counter()
        prober.start()
        try:
            for r in range(self.rounds):
                # each round starts once the previous one drained
                round_jobs = [dict(job, job_id=f"r{r}-{job['job_id']}",
                                   arrival=tick + job["arrival"])
                              for job in self.traces[r]]
                jobs += round_jobs
                tick, reply = self._drive_round(
                    driver, speed, sorted(round_jobs, key=lambda j: (
                        j["arrival"], j["job_id"])),
                    tick, job_ids, submit_ms, tick_ms, tick_index, errors)
                if reply is None:
                    break
                if r == 0:
                    first_round_end = reply.now
        except (OSError, DaemonError) as exc:  # timeouts included
            errors.append(f"driver: {exc!r}")
        finally:
            timed_s = time.perf_counter() - start
            prober.stop.set()
            prober.join(timeout=REQUEST_TIMEOUT_S)

        # untimed: collect the records and the rest of the watch stream
        listing = driver.list()
        records = {}
        for job in jobs:
            status = driver.status(job["job_id"])
            records[job["job_id"]] = (
                vars(status) if not isinstance(status, proto.ErrorReply)
                else {"error": status.code})
        driver.info()  # replies follow every frame pushed before them
        frames = list(driver.frames(idle=0.3, wall_budget=5.0))
        progress = sorted((f.time, f.topic, f.value) for f in frames
                          if isinstance(f, proto.StreamTelemetry))
        events = sorted((f.time, f.kind, repr(sorted(f.data.items())),
                         f.data.get("job_id")) for f in frames
                        if isinstance(f, proto.EventTelemetry))

        states = {job["job_id"]: "?" for job in jobs}
        for row in listing.jobs:
            if row["job_id"] in states:
                states[row["job_id"]] = row["state"]
        expected_frames = sum(
            # a job runs whole epochs; it completes inside its last one
            r["n_nodes"] * math.ceil(r["end_time"] - r["start_time"] - 1e-9)
            for r in records.values()
            if r.get("end_time") is not None
            and r.get("start_time") is not None)
        checks = {
            "every traced job completed": bool(states) and all(
                s == "completed" for s in states.values()),
            "driver got no ErrorReply": not errors,
            "watch frames = epochs x running nodes":
                len(progress) == expected_frames,
        }
        node_sim_s = float(expected_frames)  # one frame per node-epoch
        attempted = (len(submit_ms) + len(tick_ms)
                     + len(prober.latency_ms) + prober.failed)
        extra = {
            "submit_ms": submit_ms,
            "query_ms": prober.latency_ms,
            "lateness_ms": prober.lateness_ms,
            "errors": errors + prober.errors[:5],
            "ticks": len(tick_ms),
            "jobs": len(jobs),
        }
        # the digest covers the first round: its records, its progress
        # frames, and the events naming its jobs or, naming none, before
        # it drained
        first = {job["job_id"] for job in jobs[:ROUND_JOBS]}
        outputs = {
            "records": [records[job_id] for job_id in sorted(first)],
            "progress": [f for f in progress
                         if f[1].split("/")[1] in first],
            "events": [e[:3] for e in events if e[3] in first
                       or (e[3] is None and e[0] < first_round_end)],
        }
        return Measurement(op_ms=tick_ms, op_index=tick_index,
                           node_sim_s=node_sim_s,
                           timed_s=timed_s, outputs=outputs, checks=checks,
                           attempted=attempted,
                           failed=len(errors) + prober.failed, extra=extra)


WORKLOADS = {
    "cluster_vector": ClusterVector,
    "cluster_sharded": ClusterSharded,
    "figure4_sweep": Figure4Sweep,
    "daemon_mixed": DaemonMixed,
}
