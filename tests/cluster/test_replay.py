"""Replay determinism: a run rewound to epoch N and replayed under the
same policy must be bit-identical to the uninterrupted run — across
both engines and shards in {1, 2, 4} — and each loop's ``resume`` must
support resuming onto a *different* substrate or policy (time travel).

Resumed runs continue with ``run(until=END)`` sharing the original end
time: recomputing ``now + (END - now)`` would re-associate the float
arithmetic and shift epoch targets by ULPs.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.cluster import (
    ClusterSimulation,
    ProgressAwareRebalancer,
    UniformPowerPolicy,
)
from repro.core.model import PowerCapModel
from repro.exceptions import CheckpointError, ConfigurationError
from repro.runtime.runfile import CheckpointStore
from repro.scheduler import (
    AppPowerProfile,
    Job,
    PowerAwareScheduler,
    PowerBook,
    SchedulerConfig,
)

APP_KW = {"n_workers": 4}
END = 8.0


def _policy():
    return ProgressAwareRebalancer(360.0, min_node=60.0, max_node=130.0)


def _sim(**kw):
    return ClusterSimulation(3, "lammps", _policy(), app_kwargs=APP_KW,
                             variability=(0.05, 0.08), seed=11, **kw)


def _observed(sim):
    return {
        "times": list(sim.total_progress.times),
        "total_progress": list(sim.total_progress.values),
        "critical_path": list(sim.critical_path.values),
        "budget_history": list(sim.budget_history.values),
        "total_energy": sim.total_energy,
        "now": sim.now,
        "epochs": sim.epochs_done,
    }


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One uninterrupted serial run, checkpointing every 2 epochs."""
    root = str(tmp_path_factory.mktemp("cluster-store"))
    store = CheckpointStore(root, kind="cluster")
    sim = _sim()
    try:
        sim.run(until=END, checkpoint_store=store, checkpoint_every=2)
        return {"root": root, "series": _observed(sim)}
    finally:
        sim.close()


class TestClusterReplay:
    def test_store_has_epoch_stamped_files(self, recorded):
        store = CheckpointStore(recorded["root"], kind="cluster")
        assert store.epochs() == [2, 4, 6, 8]

    @pytest.mark.parametrize("engine", ["object", "vector"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_rewind_and_replay_bit_identical(self, recorded, shards,
                                             engine):
        """Resume from epoch 4 on every substrate: the tail the replay
        recomputes must land exactly on the recorded series."""
        sim = ClusterSimulation.resume(recorded["root"], epoch=4,
                                       shards=shards, engine=engine)
        try:
            assert sim.epochs_done == 4
            sim.run(until=END)
            assert _observed(sim) == recorded["series"]
        finally:
            sim.close()

    def test_rewind_latest_then_nothing_to_run(self, recorded):
        sim = ClusterSimulation.resume(recorded["root"])
        try:
            assert sim.epochs_done == 8
            with pytest.raises(ConfigurationError, match="not after"):
                sim.run(until=END)
        finally:
            sim.close()

    def test_run_takes_exactly_one_end(self):
        sim = _sim()
        try:
            with pytest.raises(ConfigurationError, match="exactly one"):
                sim.run(2.0, until=2.0)
        finally:
            sim.close()

    def test_restore_requires_fresh_target(self, recorded):
        store = CheckpointStore(recorded["root"], kind="cluster")
        sim = _sim()
        try:
            with pytest.raises(CheckpointError, match="freshly"):
                sim.restore(store.load(4).state)
        finally:
            sim.close()

    def test_replay_under_different_policy(self, recorded):
        """The time-travel seam: same node state, different schedule
        from epoch 4 on — runs to completion and allocates differently."""
        sim = ClusterSimulation.resume(recorded["root"], epoch=4,
                                       policy=UniformPowerPolicy(240.0))
        try:
            sim.run(until=END)
            got = _observed(sim)
            assert got["now"] == recorded["series"]["now"]
            # the shared prefix is the recorded one; the tail diverges
            assert got["budget_history"][:4] == \
                recorded["series"]["budget_history"][:4]
            assert got["budget_history"][4:] != \
                recorded["series"]["budget_history"][4:]
        finally:
            sim.close()

    def test_wrong_kind_rejected(self, recorded):
        store = CheckpointStore(recorded["root"], kind="cluster")
        checkpoint = store.load(4)
        with pytest.raises(CheckpointError):
            ClusterSimulation.resume(
                __import__("dataclasses").replace(checkpoint,
                                                  kind="daemon"))


# ----------------------------------------------------------------------
# Scheduler replay
# ----------------------------------------------------------------------

RATE, POWER = 8.96e5, 65.0


def _book():
    book = PowerBook(n_workers=4)
    book.preload(AppPowerProfile(
        app_name="lammps", beta=1.0, mpo=3e-4, r_max=RATE,
        p_uncapped=POWER,
        model=PowerCapModel(beta=1.0, r_max=RATE, p_coremax=POWER,
                            alpha=2.0),
        fit_residual_rms=0.0, probe_caps=(50.0,)))
    return book


def _sched_config(**kw):
    base = dict(n_slots=4, power_budget=260.0, policy="backfill",
                min_cap=45.0, cap_step=5.0, eco_margin=0.8,
                n_workers=4, variability=(0.04, 0.06), seed=3)
    base.update(kw)
    return SchedulerConfig(**base)


def _submit_jobs(sched):
    kw = {"n_steps": 1_000_000}
    sched.submit(Job("rigid", "lammps", n_nodes=2,
                     work_units=6.5 * RATE, submit_time=0.0,
                     app_kwargs=kw))
    sched.submit(Job("eco", "lammps", n_nodes=2, work_units=5.0 * RATE,
                     submit_time=1.0, max_slowdown=0.3, app_kwargs=kw))
    sched.submit(Job("late", "lammps", n_nodes=3, work_units=4.0 * RATE,
                     submit_time=4.0, app_kwargs=kw))


def _report(sched):
    return {
        "total_energy": sched.total_energy,
        "violations": sched.violations,
        "power_values": list(sched.power_series.values),
        "records": {jid: [r.start_time, r.end_time, r.energy,
                          r.measured_rate, r.cap, list(r.slots)]
                    for jid, r in sched.records.items()},
        "events": [repr(e) for e in sched.events],
        "epochs": sched.epochs_done,
    }


@pytest.fixture(scope="module")
def recorded_sched(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("sched-store"))
    store = CheckpointStore(root, kind="scheduler")
    sched = PowerAwareScheduler(_sched_config(), _book())
    _submit_jobs(sched)
    try:
        sched.run(checkpoint_store=store, checkpoint_every=3)
        return {"root": root, "report": _report(sched)}
    finally:
        sched.close()


class TestSchedulerReplay:
    def test_rewind_and_finish_bit_identical(self, recorded_sched,
                                             monkeypatch):
        def characterize(book, app_name):
            raise AssertionError(f"{app_name} characterized again")

        monkeypatch.setattr(PowerBook, "_characterize", characterize)
        sched = PowerAwareScheduler.resume(recorded_sched["root"], epoch=6)
        try:
            assert sched.epochs_done == 6
            assert sched.book.known() == ["lammps"]
            assert sched.book.n_workers == 4
            sched.run()
            assert _report(sched) == recorded_sched["report"]
        finally:
            sched.close()

    @pytest.mark.parametrize("shards,engine",
                             [(2, "object"), (2, "vector")])
    def test_resume_onto_different_substrate(self, recorded_sched,
                                             shards, engine):
        """Execution substrate (shards/engine) is replay-invariant; only
        structural config fields must match the recorded run."""
        sched = PowerAwareScheduler.resume(
            recorded_sched["root"], epoch=6,
            config=_sched_config(shards=shards, engine=engine))
        try:
            sched.run()
            assert _report(sched) == recorded_sched["report"]
        finally:
            sched.close()

    @pytest.mark.parametrize("field,value", [
        ("n_slots", 5), ("seed", 4), ("variability", (0.05, 0.06))])
    def test_structural_config_change_refused(self, recorded_sched,
                                              field, value):
        config = _sched_config(**{field: value})
        with pytest.raises(CheckpointError, match=field):
            PowerAwareScheduler.resume(recorded_sched["root"], epoch=3,
                                       config=config)

    def test_run_checkpoint_kind(self, recorded_sched):
        store = CheckpointStore(recorded_sched["root"],
                                kind="scheduler")
        checkpoint = store.latest()
        assert checkpoint.kind == "scheduler"
        assert checkpoint.epoch == checkpoint.state["epochs"]
