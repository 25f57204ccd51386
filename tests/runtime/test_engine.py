"""Unit and property tests for the fluid discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.hardware import SimulatedNode, skylake_config
from repro.runtime.engine import (
    Barrier,
    BarrierGroup,
    Engine,
    Publish,
    Sleep,
    Work,
)

F_NOM = 3.3e9


@pytest.fixture()
def node():
    return SimulatedNode()


@pytest.fixture()
def engine(node):
    return Engine(node)


def run_single(engine, *directives, core_id=0):
    def body():
        for d in directives:
            yield d

    engine.spawn(body(), core_id=core_id)
    return engine.run()


class TestDirectiveValidation:
    def test_work_rejects_negative_cycles(self):
        with pytest.raises(ConfigurationError):
            Work(cycles=-1.0)

    def test_work_rejects_negative_instructions(self):
        with pytest.raises(ConfigurationError):
            Work(cycles=1.0, instructions=-1.0)

    def test_work_default_instructions_equal_cycles(self):
        assert Work(cycles=5.0).ins == 5.0

    def test_work_explicit_instructions(self):
        assert Work(cycles=5.0, instructions=2.0).ins == 2.0

    def test_sleep_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Sleep(-0.5)

    def test_barrier_group_rejects_zero_members(self):
        with pytest.raises(ConfigurationError):
            BarrierGroup(0)


class TestPureCompute:
    def test_duration_is_cycles_over_frequency(self, engine, node):
        t = run_single(engine, Work(cycles=2 * F_NOM))
        assert t == pytest.approx(2.0)

    def test_two_sequential_work_items(self, engine):
        t = run_single(engine, Work(cycles=F_NOM), Work(cycles=F_NOM))
        assert t == pytest.approx(2.0)

    def test_lower_frequency_slows_down(self, node):
        node.set_frequency(1.65e9)  # snaps down to the 1.6 GHz ladder step
        engine = Engine(node)
        t = run_single(engine, Work(cycles=F_NOM))
        assert t == pytest.approx(F_NOM / 1.6e9)

    def test_duty_cycle_slows_down(self, node):
        node.set_duty(0.5)
        engine = Engine(node)
        t = run_single(engine, Work(cycles=F_NOM))
        assert t == pytest.approx(2.0)

    def test_empty_work_takes_no_time(self, engine):
        t = run_single(engine, Work(cycles=0.0), Work(cycles=F_NOM))
        assert t == pytest.approx(1.0)

    def test_counters_accrue_instructions(self, engine, node):
        run_single(engine, Work(cycles=1e9, instructions=2.5e9))
        snap = node.counters.snapshot(node.clock.now)
        assert snap.total("PAPI_TOT_INS") == pytest.approx(2.5e9)

    def test_counters_accrue_l3_misses(self, engine, node):
        run_single(engine, Work(cycles=1e9, bytes=6.4e9))
        snap = node.counters.snapshot(node.clock.now)
        assert snap.total("PAPI_L3_TCM") == pytest.approx(6.4e9 / 64)


class TestEquationOneEmergence:
    """The engine must reproduce the paper's Eq. 1 exactly:
    T(f)/T(f_max) = beta * (f_max/f - 1) + 1."""

    def _time_at(self, freq, cycles, nbytes):
        node = SimulatedNode()
        node.set_frequency(freq)
        engine = Engine(node)
        return run_single(engine, Work(cycles=cycles, bytes=nbytes))

    @pytest.mark.parametrize("freq", [1.6e9, 2.2e9, 2.8e9])
    def test_mixed_work_matches_eq1(self, freq):
        cfg = skylake_config()
        cycles, nbytes = 3.3e9, 5e9
        t_max = self._time_at(cfg.f_nominal, cycles, nbytes)
        t_f = self._time_at(freq, cycles, nbytes)
        compute_time = cycles / cfg.f_nominal
        beta = compute_time / t_max
        predicted = beta * (cfg.f_nominal / freq - 1.0) + 1.0
        assert t_f / t_max == pytest.approx(predicted, rel=1e-9)

    def test_pure_compute_beta_is_one(self):
        cfg = skylake_config()
        t_max = self._time_at(cfg.f_nominal, 3.3e9, 0.0)
        t_low = self._time_at(1.6e9, 3.3e9, 0.0)
        assert t_low / t_max == pytest.approx(3.3 / 1.6)

    def test_pure_memory_is_frequency_insensitive(self):
        t_max = self._time_at(3.3e9, 0.0, 10e9)
        t_low = self._time_at(1.2e9, 0.0, 10e9)
        assert t_low == pytest.approx(t_max)


class TestMemoryContention:
    def test_single_task_limited_by_link_bandwidth(self, engine, node):
        t = run_single(engine, Work(cycles=0.0, bytes=24e9))
        assert t == pytest.approx(24e9 / node.cfg.core_link_bandwidth)

    def test_24_tasks_share_node_bandwidth(self, node):
        engine = Engine(node)
        nbytes = 50e9

        def body():
            yield Work(cycles=0.0, bytes=nbytes)

        for c in range(24):
            engine.spawn(body(), core_id=c)
        t = engine.run()
        # 24 * 50 GB over 100 GB/s node bandwidth
        assert t == pytest.approx(24 * nbytes / node.cfg.mem_bandwidth)

    def test_duty_gates_memory_issue_rate(self, node):
        """Clock modulation must throttle a core's achievable bandwidth —
        the mechanism behind RAPL hurting memory-bound codes (Fig. 5)."""
        node.set_duty(0.25)
        engine = Engine(node)
        t = run_single(engine, Work(cycles=0.0, bytes=12e9))
        assert t == pytest.approx(12e9 / (node.cfg.core_link_bandwidth * 0.25))


class TestBarrier:
    def test_unequal_work_finishes_at_critical_path(self, node):
        engine = Engine(node)
        group = BarrierGroup(3)

        def body(mult):
            yield Work(cycles=mult * F_NOM)
            yield Barrier(group)

        for i, mult in enumerate([1.0, 2.0, 3.0]):
            engine.spawn(body(mult), core_id=i)
        t = engine.run()
        assert t == pytest.approx(3.0)

    def test_waiting_ranks_burn_spin_instructions(self, node):
        engine = Engine(node)
        group = BarrierGroup(2)

        def body(mult):
            yield Work(cycles=mult * F_NOM, instructions=0.0)
            yield Barrier(group)

        engine.spawn(body(1.0), core_id=0)
        engine.spawn(body(2.0), core_id=1)
        engine.run()
        snap = node.counters.snapshot(node.clock.now)
        # core 0 spins for 1 s at f_nom * spin_ipc
        expected = F_NOM * node.cfg.spin_ipc * 1.0
        assert snap.tot_ins[0] == pytest.approx(expected, rel=1e-6)
        assert snap.tot_ins[1] == pytest.approx(0.0, abs=1.0)

    def test_barrier_is_reusable(self, node):
        engine = Engine(node)
        group = BarrierGroup(2)
        finish = []

        def body(rank):
            for _ in range(3):
                yield Work(cycles=F_NOM * (1 + rank))
                yield Barrier(group)
            finish.append(engine.clock.now)

        engine.spawn(body(0), core_id=0)
        engine.spawn(body(1), core_id=1)
        t = engine.run()
        assert t == pytest.approx(6.0)
        assert finish == [pytest.approx(6.0)] * 2

    def test_deadlocked_barrier_raises(self, node):
        engine = Engine(node)
        group = BarrierGroup(2)  # only one member will ever arrive

        def body():
            yield Barrier(group)

        engine.spawn(body(), core_id=0)
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()


class TestSleep:
    def test_sleep_duration(self, engine):
        t = run_single(engine, Sleep(1.5))
        assert t == pytest.approx(1.5)

    def test_zero_sleep_is_noop(self, engine):
        t = run_single(engine, Sleep(0.0), Work(cycles=F_NOM))
        assert t == pytest.approx(1.0)

    def test_sleeping_core_accrues_no_instructions(self, engine, node):
        run_single(engine, Sleep(2.0))
        snap = node.counters.snapshot(node.clock.now)
        assert snap.total("PAPI_TOT_INS") == 0.0

    def test_sleep_draws_less_power_than_work(self):
        node_s = SimulatedNode()
        run_single(Engine(node_s), Sleep(1.0))
        node_w = SimulatedNode()
        run_single(Engine(node_w), Work(cycles=F_NOM))
        assert node_s.pkg_energy < node_w.pkg_energy


class TestTimers:
    def test_timer_fires_at_time(self, engine):
        fired = []
        engine.add_timer(0.5, fired.append)
        run_single(engine, Work(cycles=F_NOM))
        assert fired == [pytest.approx(0.5)]

    def test_periodic_timer(self, engine):
        fired = []
        engine.add_timer(0.25, fired.append, period=0.25)
        run_single(engine, Work(cycles=F_NOM))
        assert len(fired) == 4
        assert fired[-1] == pytest.approx(1.0)

    def test_cancelled_timer_does_not_fire(self, engine):
        fired = []
        timer = engine.add_timer(0.5, fired.append)
        timer.cancel()
        run_single(engine, Work(cycles=F_NOM))
        assert fired == []

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SchedulingError):
            engine.add_timer(-0.1, lambda now: None)

    def test_nonpositive_period_rejected(self, engine):
        with pytest.raises(SchedulingError):
            engine.add_timer(0.1, lambda now: None, period=0.0)

    def test_frequency_change_mid_work_has_exact_timing(self, node):
        """1 s at 3.3 GHz, then the clock drops to 1.6 GHz: the remaining
        3.3e9 cycles must take exactly 3.3/1.6 seconds."""
        engine = Engine(node)
        engine.add_timer(1.0, lambda now: node.set_frequency(1.6e9))
        t = run_single(engine, Work(cycles=2 * F_NOM))
        assert t == pytest.approx(1.0 + F_NOM / 1.6e9)


class TestPublish:
    def test_publish_invokes_hooks(self, engine):
        events = []
        engine.on_publish(lambda t, topic, v: events.append((t, topic, v)))
        run_single(engine, Work(cycles=F_NOM), Publish("progress", 42.0))
        assert events == [(pytest.approx(1.0), "progress", 42.0)]

    def test_publish_takes_no_time(self, engine):
        t = run_single(engine, Publish("p", 1.0), Publish("p", 2.0))
        assert t == 0.0


class TestRunUntil:
    def test_until_stops_midway(self, engine, node):
        def body():
            yield Work(cycles=10 * F_NOM)

        engine.spawn(body(), core_id=0)
        t = engine.run(until=2.0)
        assert t == pytest.approx(2.0)
        assert not engine.all_done()

    def test_until_in_past_rejected(self, engine, node):
        node.clock.advance(5.0)
        with pytest.raises(SchedulingError):
            engine.run(until=1.0)

    def test_run_can_resume_after_until(self, engine):
        def body():
            yield Work(cycles=3 * F_NOM)

        engine.spawn(body(), core_id=0)
        engine.run(until=1.0)
        t = engine.run()
        assert t == pytest.approx(3.0)
        assert engine.all_done()


class TestSpawn:
    def test_auto_core_assignment(self, engine):
        t0 = engine.spawn(iter(()), name="a")
        t1 = engine.spawn(iter(()))
        assert t0.core_id != t1.core_id

    def test_out_of_range_core_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.spawn(iter(()), core_id=99)

    def test_exhausting_cores_raises(self, engine, node):
        for _ in range(node.cfg.n_cores):
            engine.spawn(iter(()))
        with pytest.raises(SimulationError):
            engine.spawn(iter(()))

    def test_unknown_directive_raises(self, engine):
        def body():
            yield "not-a-directive"

        engine.spawn(body(), core_id=0)
        with pytest.raises(SimulationError, match="unknown directive"):
            engine.run()


@settings(deadline=None, max_examples=40)
@given(
    items=st.lists(
        st.tuples(
            st.floats(min_value=1e6, max_value=1e10),   # cycles
            st.floats(min_value=0.0, max_value=1e10),   # bytes
        ),
        min_size=1,
        max_size=6,
    )
)
def test_work_conservation(items):
    """Instructions and L3 misses accrued equal exactly the work submitted,
    regardless of segmentation by timers."""
    node = SimulatedNode()
    engine = Engine(node)
    # a noisy periodic timer forces many integration segments
    engine.add_timer(0.001, lambda now: None, period=0.0137)

    def body():
        for cycles, nbytes in items:
            yield Work(cycles=cycles, bytes=nbytes)

    engine.spawn(body(), core_id=0)
    engine.run()
    snap = node.counters.snapshot(node.clock.now)
    total_ins = sum(c for c, _ in items)
    total_misses = sum(b for _, b in items) / node.cfg.cache_line
    assert snap.total("PAPI_TOT_INS") == pytest.approx(total_ins, rel=1e-9)
    assert snap.total("PAPI_L3_TCM") == pytest.approx(total_misses, rel=1e-9)


def test_subnormal_bytes_do_not_stall_the_task():
    """A byte count so small that its bandwidth demand underflows to
    zero runs as compute-bound work instead of never progressing (a
    periodic timer would otherwise keep the run loop alive forever)."""
    node = SimulatedNode()
    engine = Engine(node)
    engine.add_timer(0.001, lambda now: None, period=0.0137)
    cycles = 8932405657.414476
    finished = []

    def body():
        yield Work(cycles=cycles, bytes=5e-324)
        finished.append(node.clock.now)

    engine.spawn(body(), core_id=0)
    engine.run(until=60.0)  # bounded: a stalled task must not hang
    assert finished == [pytest.approx(
        cycles / node.cores[0].effective_clock())]
    snap = node.counters.snapshot(node.clock.now)
    assert snap.total("PAPI_TOT_INS") == pytest.approx(cycles, rel=1e-9)


@pytest.mark.parametrize("freq", [None, 2.0e9],
                         ids=["f_nominal", "ladder_step"])
def test_zero_cycle_subnormal_bytes_are_empty(freq):
    """An item with no cycles whose transfer time underflows to zero
    completes in zero time, as an empty item does, at the node's start
    frequency (a float) and at a ladder step (a numpy float). Only the
    object engine can be given such work: ``KernelSpec`` refuses
    ``cycles <= 0`` (``TestKernelSpec.test_rejects_nonpositive_cycles``
    in tests/apps/test_kernels.py), so no vector group ever holds it."""
    node = SimulatedNode()
    if freq is not None:
        node.set_frequency(freq)
    engine = Engine(node)
    finished = []

    def body():
        yield Work(cycles=0.0, bytes=5e-324)
        finished.append(node.clock.now)
        yield Work(cycles=1e9)
        finished.append(node.clock.now)

    engine.spawn(body(), core_id=0)
    end = engine.run()
    clock = node.cores[0].effective_clock()
    assert finished == [0.0, pytest.approx(1e9 / clock)]
    assert end == pytest.approx(1e9 / clock)
    snap = node.counters.snapshot(node.clock.now)
    assert snap.total("PAPI_TOT_INS") == pytest.approx(1e9, rel=1e-9)


def test_capped_run_returns_float():
    """A 40 W cap throttles the clock onto non-turbo ladder steps; the
    run's end time stays a plain float, not a numpy scalar."""
    from repro.hardware.rapl import RaplFirmware

    node = SimulatedNode()
    engine = Engine(node)
    RaplFirmware(node, engine).set_limit(40.0)
    for core in range(node.cfg.n_cores):
        engine.spawn(iter([Work(cycles=3e9)]), core_id=core)
    end = engine.run()
    assert node.frequency < F_NOM
    assert type(end) is float


def test_mixed_run_totals_are_pinned():
    """Counter and energy totals of a run mixing memory-bound and
    compute work, barrier spinning, sleeping, a per-core duty and RAPL
    throttling, pinned bit for bit. The engine computes each task's
    clock, V(f) and the power fold once per segment; these values were
    recorded before that change and must not move."""
    from repro.hardware.rapl import RaplFirmware

    node = SimulatedNode()
    engine = Engine(node)
    RaplFirmware(node, engine).set_limit(40.0)
    node.set_core_duty(1, 0.5)
    group = BarrierGroup(3)

    def body(*directives):
        for _ in range(3):
            yield from directives

    engine.spawn(body(Work(cycles=2e9, bytes=4e9), Barrier(group),
                      Work(cycles=1e9), Sleep(0.05)), core_id=0)
    engine.spawn(body(Work(cycles=3e9), Barrier(group), Sleep(0.2),
                      Work(cycles=5e8, bytes=1e10)), core_id=1)
    engine.spawn(body(Sleep(0.3), Barrier(group),
                      Work(cycles=1e9, bytes=2e10, instructions=5e8)),
                 core_id=2)
    end = engine.run()
    snap = node.counters.snapshot(end)

    assert end == 12.237488222805494
    assert node.pkg_energy == 466.03299672712825
    assert node.dram_energy == 57.11246466841663
    assert snap.tot_ins[:3].tolist() == [
        49040994978.594925, 10500000000.000168, 34190819141.82977]
    assert snap.tot_cyc[:3].tolist() == [
        32077982037.12654, 18163846325.393803, 34602824087.927765]
    assert snap.l3_tcm[:3].tolist() == [
        187500000.00000098, 468749999.9999947, 937499999.9999902]
    for arr in (snap.tot_ins, snap.tot_cyc, snap.l3_tcm):
        assert not arr[3:].any()
