"""Structure-of-arrays node engine: batched epochs over many nodes.

One :class:`VectorGroup` advances *all* nodes of a uniform group (same
:class:`~repro.vector.gate.GroupProfile`) through their micro-step loops
simultaneously: application progress and phase state, the power model,
the RAPL window feedback and the hardware counters live in parallel
numpy arrays keyed by node slot. Barrier arrivals, releases and
iteration refills run as array ops over all rows they touch in one
pass, and so do the random draws: every generator draws a look-ahead
block of values in one call, and each pass gathers from the blocks
(:class:`_DrawBlocks`). Bus messages queue as plain ``(time, value)``
pairs. Only the block refills, the bus appends, phase changes and the
1 Hz monitor/controller ticks stay per-row Python.

Bit-parity with the object engine is a design invariant, not an
approximation: every per-epoch transfer function is the same
:mod:`repro.hardware.kernels` call the object path makes (element-wise
array application of an IEEE-754 op equals the scalar op), reductions
over cores/workers are written as the same sequential left folds
:meth:`~repro.hardware.power.PowerModel.fold` and
:func:`~repro.hardware.memory.allocate_bandwidth` perform, RNG draws
come from per-(node, worker) ``Generator`` objects, each consumed in
the order the object bodies draw from it, and the timer/delivery
epsilons are the engine's own constants. Worker counts therefore need
no cap beyond the node's core count: the only worker-axis
``sum``/``cumsum`` calls count integers, where association cannot
change the result.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.apps.kernels import lognormal_factor, sample_quantities
from repro.hardware import kernels as hk
from repro.hardware.msr import (
    MSR_PKG_POWER_LIMIT,
    PowerLimit,
    RaplUnits,
    decode_power_limit,
    encode_power_limit,
)
from repro.hardware.msr_safe import DEFAULT_WHITELIST
from repro.hardware.rapl import RaplFirmware
from repro.libmsr.api import LibMSR
from repro.nrm.controller import CapController, check_budget
from repro.runtime.engine import COMPLETION_RTOL, TIMER_EPS
from repro.stack.spec import StackSpec
from repro.telemetry.pubsub import MessageBus
from repro.telemetry.timeseries import TimeSeries
from repro.vector.gate import GroupProfile, check_member, member_seed

__all__ = ["VectorGroup", "W_RUNNING", "W_SPINNING", "W_DONE",
           "C_IDLE", "C_BUSY", "C_SPIN"]

# Worker status codes (wstatus array).
W_RUNNING, W_SPINNING, W_DONE = 0, 1, 2
# Core activity modes (core_mode array); map onto CoreMode at checkpoint.
C_IDLE, C_BUSY, C_SPIN = 0, 1, 2

# The stock component parameters (RaplFirmware, CapController,
# MessageBus, LibMSR and msr-safe defaults) are structural constants of
# the fast path: the gate rejects specs that override any of them.
#: Values each generator draws ahead in one call (see _DrawBlocks).
_DRAW_BLOCK = 32
#: The per-row Python-object fields of a VectorGroup (None on a retired
#: row); its per-row arrays are the keys of ``VectorGroup._blank``.
_ROW_OBJECTS = ("node_ids", "_seeds", "rngs", "shared_rng", "bus_rng",
                "pending", "mon_series", "cap_series", "pol_budget",
                "pol_applied")
#: What the micro-step pieces index the row arrays with: a slice (views)
#: or an index array (gathered copies); see VectorGroup._selector.
Rows = slice | np.ndarray


class _DrawBlocks:
    """Look-ahead blocks of one kind of random stream, for every row.

    Each row owns ``width`` generators that draw in lockstep (a row's
    workers, or its single shared-factor or bus generator). When a row's
    block runs out, every one of its generators draws its next
    ``_DRAW_BLOCK`` values in one call; each pass then gathers one value
    per generator. A block of K draws leaves a generator exactly where K
    scalar draws would, and ``Generator.normal(0.0, s)`` computes
    ``0.0 + s * standard_normal()``, so the consumed values are the
    object path's bit for bit (``tests/vector/test_draws.py`` pins both
    premises).

    A refill records each generator's 128-bit LCG state from before the
    draw. :meth:`flush` rewinds to it and replays the consumed count, so
    a generator's state then counts only the values the simulation has
    used — the state a checkpoint records.
    """

    def __init__(self, n: int, width: int, uniform: bool) -> None:
        self.values = np.zeros((n, width, _DRAW_BLOCK))
        # Next value to take; _DRAW_BLOCK marks an empty block.
        self.cursor = np.full(n, _DRAW_BLOCK, dtype=np.int64)
        self.base: list[list[int] | None] = [None] * n
        self.uniform = uniform

    def _draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return gen.random(count) if self.uniform \
            else gen.standard_normal(count)

    def take(self, rows: np.ndarray, gens_of) -> np.ndarray:
        """The next value of every generator of each listed row, as a
        ``(len(rows), width)`` array; ``gens_of(slot)`` lists a row's
        generators, and is asked only for rows whose block refills."""
        cur = self.cursor[rows]
        empty = cur == _DRAW_BLOCK
        if empty.any():
            for slot in rows[empty].tolist():
                gens = gens_of(slot)
                self.base[slot] = [
                    gen.bit_generator.state["state"]["state"] for gen in gens]
                for j, gen in enumerate(gens):
                    self.values[slot, j] = self._draw(gen, _DRAW_BLOCK)
            cur[empty] = 0
        self.cursor[rows] = cur + 1
        return self.values[rows, :, cur]

    def flush(self, slot: int, gens: Sequence[np.random.Generator]) -> None:
        """Rewind ``slot``'s generators to the values taken, then empty
        its block."""
        base = self.base[slot]
        used = int(self.cursor[slot])
        if base is not None and used < _DRAW_BLOCK:
            for gen, lcg in zip(gens, base):
                state = gen.bit_generator.state
                state["state"]["state"] = lcg
                gen.bit_generator.state = state
                self._draw(gen, used)
        self.reset(slot)

    def grow(self, count: int) -> None:
        """Append ``count`` rows with empty blocks."""
        self.values = np.concatenate(
            [self.values, np.zeros((count, *self.values.shape[1:]))])
        self.cursor = np.concatenate(
            [self.cursor, np.full(count, _DRAW_BLOCK, dtype=np.int64)])
        self.base.extend([None] * count)

    def reset(self, slot: int) -> None:
        """Drop ``slot``'s block without touching its generators."""
        self.values[slot] = 0.0
        self.cursor[slot] = _DRAW_BLOCK
        self.base[slot] = None


def _fair_grants(demand: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Max-min fair allocation, batched: row ``i`` of ``demand``
    (nodes x workers, zero for a worker with no memory traffic) shares
    ``capacity[i]``. The demand sum and the progressive fill visit the
    same slots :func:`repro.hardware.memory.allocate_bandwidth` visits
    (its stable ascending sort puts the padding zeros first, where they
    grant 0 and leave ``remaining`` untouched), and the sum is the same
    left fold."""
    w = demand.shape[1]
    total = np.zeros(len(demand))
    for col in range(w):
        total = total + demand[:, col]
    grants = demand.copy()
    over = np.nonzero(total > capacity)[0]
    if over.size:
        d = demand[over]
        order = np.argsort(d, axis=1, kind="stable")
        g = np.empty_like(d)
        remaining = capacity[over].copy()
        rows = np.arange(len(over))
        for k in range(w):
            idx = order[:, k]
            dk = d[rows, idx]
            fair = hk.fair_share_fill(remaining, w - k)
            gk = np.minimum(dk, fair)
            g[rows, idx] = gk
            remaining = remaining - gk
        grants[over] = g
    return grants


class VectorGroup:
    """All per-node simulation state of one uniform group, as arrays.

    A group starts empty and lives as long as its host keeps it: nodes
    join through :meth:`admit`, which hands each one a row, and leave
    through :meth:`retire`. A retired row is reused by a later
    admission; rows are never compacted, so a live node's slot index
    never changes. ``len(group)`` counts rows, live and retired.
    Scalars per node are ``(n,)`` float/int/bool arrays; per-(node,
    worker) state is ``(n, W)``, including each spinning worker's rank in
    its barrier's arrival order (``barrier_pos``, -1 when not arrived).
    Event-owned state (RNGs, bus queues, telemetry series, the controller's
    tri-state) stays in per-slot Python lists — it is touched only on
    events. The generators' look-ahead blocks are a cache in front of
    them: :meth:`flush_draws` empties a slot's blocks and leaves its
    generators exactly where the object path's would be.
    """

    def __init__(self, profile: GroupProfile) -> None:
        self.profile = profile
        self.cfg = profile.cfg
        self.topic = profile.topic
        self.drop_prob = profile.drop_prob
        self.interval = profile.monitor_interval
        self.n_workers = profile.n_workers

        cfg = self.cfg
        w = self.n_workers
        self._ladder = np.asarray(cfg.freq_ladder, dtype=float)
        self._duties = np.asarray(cfg.duty_levels, dtype=float)
        self._duty_top = len(cfg.duty_levels) - 1
        self._volt_table = np.asarray([cfg.voltage(f) for f in cfg.freq_ladder])
        self._units = RaplUnits(power=cfg.power_unit, energy=cfg.energy_unit,
                                time=cfg.time_unit)
        # What software reads back from MSR_PKG_POWER_INFO (quantized TDP).
        self._tdp_msr = (round(cfg.tdp / cfg.power_unit) & 0x7FFF) * cfg.power_unit
        self._limit_cache: dict[float, tuple[float, float]] = {}
        # Per-phase parameters as arrays, indexed by each row's p_idx.
        # The trailing 0 makes a finished row (p_idx == n_phases) read as
        # past its phase, so it takes the per-row cursor path.
        self._ph_iters = np.asarray(profile.ph_iterations + (0,),
                                    dtype=np.int64)
        # Columns: cycles, bytes/cycle, ipc, MPO. A missing MPO becomes
        # 0.0: ``ins * 0.0`` is a zero miss count, which falls back to
        # the streaming estimate exactly like None.
        self._ph_work = np.asarray(
            [(c, b, i, 0.0 if m is None else m) for c, b, i, m in zip(
                profile.ph_cycles, profile.ph_bpc, profile.ph_ipc,
                profile.ph_mpo)], dtype=float)
        self._ph_pub = np.asarray(
            [ppi if pub else math.nan
             for ppi, pub in zip(profile.ph_ppi, profile.ph_publish)],
            dtype=float)
        self._ph_shared_jitter = np.asarray(profile.ph_shared_jitter,
                                            dtype=float)
        self._ph_jitter = np.asarray(profile.ph_jitter, dtype=float)

        def node(dtype, value=0):
            return np.asarray(value, dtype=dtype)

        def worker(dtype, value=0):
            return np.full(w, value, dtype=dtype)

        # Every per-node array field and the value of a row that has not
        # run yet (what a fresh NodeStack holds); _fresh_row adds the
        # values that depend on the node's spec.
        self._blank: dict[str, np.ndarray] = {
            # -- node / clock --------------------------------------------
            "now": node(float),
            "pkg_energy": node(float),
            "dram_energy": node(float),
            "uncore_scale": node(float, 1.0),
            "freq_idx": node(np.int64, cfg.ladder_index(cfg.f_nominal)),
            "duty_idx": node(np.int64, self._duty_top),
            "freq_limit": node(float, cfg.f_turbo),
            "c_dyn": node(float, cfg.c_dyn),
            "leak": node(float, cfg.leak_per_volt),
            "energy_mark": node(float),
            "started": node(bool, False),
            # -- tasks / app bodies ---------------------------------------
            "wstatus": worker(np.int8, W_RUNNING),
            "frac": worker(float),
            "rate": worker(float),
            "w_cycles": worker(float),
            "w_bytes": worker(float),
            "w_ins": worker(float),
            "w_miss": worker(float),
            "queued_pub": node(float, math.nan),
            "p_idx": node(np.int64),
            "it": node(np.int64),
            "barrier_pos": worker(np.int8, -1),
            # -- cores / counters -----------------------------------------
            "core_mode": worker(np.int8, C_IDLE),
            "core_cf": worker(float),
            "core_br": worker(float),
            "ctr_ins": worker(float),
            "ctr_cyc": worker(float),
            "ctr_l3": worker(float),
            # -- timers (next-fire times; seq order: rapl 0, mon 1, controller 2)
            "t_rapl": node(float, RaplFirmware.CONTROL_INTERVAL),
            "t_mon": node(float, self.interval),
            "t_pol": node(float, CapController.INTERVAL),
            # -- firmware -------------------------------------------------
            "fw_limit": node(float, cfg.tdp),
            "fw_limit2": node(float, 1.2 * cfg.tdp),
            "fw_window": node(float, RaplFirmware.CONTROL_INTERVAL),
            "fw_avgw": node(float, math.nan),   # nan encodes "no EWMA yet"
            "fw_enabled": node(bool, True),
            "fw_ddcm": node(bool, False),
            "fw_last_energy": node(float),
            "fw_last_time": node(float),
            # -- telemetry / bus counters ---------------------------------
            "mon_events": node(np.int64),
            "bus_published": node(np.int64),
            "bus_dropped": node(np.int64),
            "bus_overflowed": node(np.int64),
            # -- last power sample (node.accrue caches it for the snapshot)
            "ls_package": node(float),
            "ls_cores": node(float),
            "ls_uncore": node(float),
            "ls_dram": node(float),
            "ls_valid": node(bool, False),
        }
        for name, value in self._blank.items():
            setattr(self, name, np.empty((0, *value.shape), value.dtype))
        # -- event-owned per-slot objects (None on a retired row) ---------
        self.node_ids: list[int | None] = []
        self._seeds: list[int | None] = []
        self.rngs: list[list[np.random.Generator] | None] = []
        self.shared_rng: list[np.random.Generator | None] = []
        self.bus_rng: list[np.random.Generator | None] = []
        # (time, value) per queued progress message
        self.pending: list[deque | None] = []
        self.mon_series: list[TimeSeries | None] = []
        self.cap_series: list[TimeSeries | None] = []
        self.pol_budget: list[float | None] = []
        # ("unset", None) until the first tick applies something, then
        # ("set", value) — the picklable tri-state CapController uses.
        self.pol_applied: list[tuple[str, float | None] | None] = []
        self.jitter_draws = _DrawBlocks(0, w, uniform=False)
        self.shared_draws = _DrawBlocks(0, 1, uniform=False)
        self.drop_draws = _DrawBlocks(0, 1, uniform=True)
        # Retired rows, smallest first.
        self._free: list[int] = []

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.node_ids)

    @property
    def n_live(self) -> int:
        """Rows that hold a node (the rest are retired, awaiting reuse)."""
        return len(self.node_ids) - len(self._free)

    def admit(self, members: Sequence[tuple[int, StackSpec]]) -> list[int]:
        """Give each ``(node_id, spec)`` a row holding a node that has
        not run yet, and return the rows in member order. Retired rows
        are reused first, smallest first; the arrays grow only by what
        is still missing. Every member is checked before any row is
        written, so a refused one leaves the group as it was."""
        rows = [self._fresh_row(node_id, spec) for node_id, spec in members]
        missing = len(rows) - len(self._free)
        if missing > 0:
            self._grow(missing)
        slots = [heapq.heappop(self._free) for _ in rows]
        for name, value in self._blank.items():
            getattr(self, name)[slots] = value
        for slot, row in zip(slots, rows):
            for name, value in row.items():
                getattr(self, name)[slot] = value
        return slots

    def retire(self, slot: int) -> None:
        """Free ``slot`` for a later admission, dropping the node's
        event-owned objects and look-ahead draws. The row is not stepped
        again until an admission rewrites every field of it."""
        if self.node_ids[slot] is None:
            raise ConfigurationError(f"vector row {slot} is not in use")
        for name in _ROW_OBJECTS:
            getattr(self, name)[slot] = None
        for blocks in (self.jitter_draws, self.shared_draws,
                       self.drop_draws):
            blocks.reset(slot)
        heapq.heappush(self._free, slot)

    def receive_budget(self, slot: int, watts: float | None) -> None:
        """Deliver a budget to one node's cap controller (enforced on
        the controller's next 1 Hz tick, exactly like the object path)."""
        self.pol_budget[slot] = check_budget(watts)

    def advance(self, slots: np.ndarray, targets: np.ndarray) -> None:
        """Run the listed nodes forward to their target times.

        Each loop pass takes exactly one micro-step on every still-active
        node: recompute rates, pick the per-node ``dt`` to its next event,
        integrate power/progress/counters, then handle completions,
        barrier releases and timer fires on the rows where they land.

        A pass on which every listed node is active reads and writes
        the row arrays as slice views when ``slots`` is the contiguous
        run ``lo, lo + 1, ...`` (always the case for a group built in
        one batch), and by fancy index otherwise; both do the same
        arithmetic. A slot out of range, retired or listed twice raises
        :class:`ConfigurationError` before any row moves.
        """
        slots = np.asarray(slots, dtype=np.intp)
        targets = np.asarray(targets, dtype=float)
        span = self._selector(slots)
        if np.any(targets < self.now[span]):
            raise ConfigurationError("cannot advance a vector node backwards")
        # First advance spawns/fills the workers — even for a zero-length
        # run, matching Engine.run()'s dispatch-before-break.
        fresh = slots[~self.started[span]]
        if fresh.size:
            self.started[fresh] = True
            self._fill(fresh)
        active = self.now[span] < targets
        while active.any():
            # ``rows`` selects the pass's rows; ``ids`` lists them, for
            # the events that take a subset of them.
            if active.all():
                rows, ids, tgt = span, slots, targets
            else:
                ids = rows = slots[active]
                tgt = targets[active]
            # no timer fires before _integrate, so one clock serves all three
            clock = self._clock_arrays(rows)
            self._recompute(rows, clock)
            dt = self._timestep(rows, tgt)
            self._accrue(rows, dt, clock)
            self._integrate(rows, dt, clock)
            self.now[rows] = self.now[rows] + dt
            self._completions(rows, ids)
            self._fire_timers(rows, ids)
            active[active] = self.now[rows] < tgt

    def _selector(self, slots: np.ndarray) -> Rows:
        """``slots`` as an index of the row arrays: a slice when they
        are contiguous and ascending (a slice reads views, where an
        index array gathers copies), else ``slots`` itself. A retired
        row would fail later on its ``None`` objects, so a slot out of
        range, retired or listed twice is refused here."""
        n = len(slots)
        if not n:
            return slots
        outside = slots[(slots < 0) | (slots >= len(self))]
        if outside.size:
            raise ConfigurationError(
                f"vector row {int(outside[0])} is not in the group")
        retired = slots[np.isin(slots, self._free)]
        if retired.size:
            raise ConfigurationError(
                f"vector row {int(retired[0])} is not in use")
        lo = int(slots[0])
        if np.array_equal(slots, np.arange(lo, lo + n)):
            return slice(lo, lo + n)
        if len(np.unique(slots)) < n:
            raise ConfigurationError("vector rows listed twice in one advance")
        return slots

    def epoch_energy(self, slot: int) -> float:
        """Package energy accrued since the previous call (the
        NodeInstance epoch-energy contract)."""
        delta = float(self.pkg_energy[slot] - self.energy_mark[slot])
        self.energy_mark[slot] = self.pkg_energy[slot]
        return delta

    def _fresh_row(self, node_id: int, spec: StackSpec) -> dict[str, object]:
        """The values of ``spec``'s node before it has run that differ
        from :attr:`_blank` or are objects: what ``NodeStack(spec)``
        builds, an admission-time cap included. With the blank row under
        them, this is the one way a row is made; a restored checkpoint's
        values are written over it."""
        check_member(self.profile, spec)
        cfg = spec.cfg if spec.cfg is not None else self.cfg
        row: dict[str, object] = {"c_dyn": cfg.c_dyn,
                                  "leak": cfg.leak_per_volt}
        budget = spec.initial_budget
        if budget is not None:
            # NodeStack writes the cap through libmsr, then hands the
            # controller the same budget; its first tick re-applies
            # it and records the first cap point, as pol_applied is unset.
            row["fw_limit"], row["fw_window"] = self._quantized_limit(budget)
            row["fw_enabled"] = True
            budget = check_budget(budget)
        seed = member_seed(spec)
        row.update(
            node_ids=node_id,
            _seeds=seed,
            rngs=[np.random.default_rng([seed, wid + 1])
                  for wid in range(self.n_workers)],
            shared_rng=None,
            bus_rng=np.random.default_rng(spec.seed + 1),
            pending=deque(),
            mon_series=TimeSeries(
                f"{spec.name}:{self.topic}" if spec.name else self.topic),
            cap_series=TimeSeries("package-cap"),
            pol_budget=budget,
            pol_applied=("unset", None),
        )
        return row

    def _grow(self, count: int) -> None:
        """Append ``count`` retired rows."""
        n = len(self)
        for name, value in self._blank.items():
            extra = np.broadcast_to(value, (count, *value.shape))
            setattr(self, name, np.concatenate([getattr(self, name), extra]))
        for name in _ROW_OBJECTS:
            getattr(self, name).extend([None] * count)
        for blocks in (self.jitter_draws, self.shared_draws,
                       self.drop_draws):
            blocks.grow(count)
        for slot in range(n, n + count):
            heapq.heappush(self._free, slot)

    def flush_draws(self, slot: int) -> None:
        """Empty ``slot``'s look-ahead draw blocks, rewinding each of its
        generators to the values its simulation has consumed. Checkpoint
        exporters call this before they read any RNG state."""
        self.jitter_draws.flush(slot, self.rngs[slot])
        self.shared_draws.flush(slot, [self.shared_rng[slot]])
        self.drop_draws.flush(slot, [self.bus_rng[slot]])

    # ------------------------------------------------------------------
    # Micro-step pieces
    # ------------------------------------------------------------------

    def _clock_arrays(self, rows: Rows):
        freq = self._ladder[self.freq_idx[rows]]
        duty = self._duties[self.duty_idx[rows]]
        return freq, duty, hk.effective_clock(freq, duty)

    def _recompute(self, rows: Rows, clock) -> None:
        """Per-worker progress rates + core activity states (the batched
        Engine._recompute_rates). ``clock`` is :meth:`_clock_arrays` of
        ``rows``."""
        _freq, duty, s = clock
        link = self.cfg.core_link_bandwidth * duty
        st = self.wstatus[rows]
        run = st == W_RUNNING
        spin = st == W_SPINNING
        cyc = self.w_cycles[rows]
        byt = self.w_bytes[rows]
        s2 = s[:, None]
        hasbytes = run & (byt > 0.0)

        # Demands: uncontended bandwidth each memory-bound worker would use.
        standalone = hk.standalone_time(cyc, byt, s2, link[:, None])
        demand = np.where(
            hasbytes,
            hk.bandwidth_demand(byt, np.where(hasbytes, standalone, 1.0)),
            0.0)
        # a subnormal byte count whose demand underflows to zero is
        # compute-bound (Engine._recompute_rates does the same)
        membound = hasbytes & (demand > 0.0)

        grants = _fair_grants(
            demand, self.cfg.mem_bandwidth * self.uncore_scale[rows])

        rate = np.zeros_like(cyc)
        rate = np.where(membound,
                        hk.progress_rate(grants, np.where(membound, byt, 1.0)),
                        rate)
        conly = run & ~membound
        if conly.any():
            rate = np.where(
                conly,
                np.broadcast_to(s2, cyc.shape) / np.where(conly, cyc, 1.0),
                rate)
        cfq = hk.compute_fraction(cyc, rate, np.broadcast_to(s2, cyc.shape))
        cf = np.where(run, np.minimum(cfq, 1.0), 0.0)

        mode = np.full(st.shape, C_IDLE, dtype=np.int8)
        mode[run] = C_BUSY
        mode[spin] = C_SPIN
        ccf = np.where(run, cf, 0.0)
        ccf[spin] = 1.0
        cbr = np.where(membound, grants, 0.0)

        self.rate[rows] = np.where(run, rate, 0.0)
        self.core_mode[rows] = mode
        self.core_cf[rows] = ccf
        self.core_br[rows] = cbr

    def _timestep(self, rows: Rows, targets: np.ndarray) -> np.ndarray:
        """dt to each node's nearest event: a worker finishing, a timer,
        or the advance target."""
        rate = self.rate[rows]
        frac = self.frac[rows]
        eligible = (self.wstatus[rows] == W_RUNNING) & (rate > 0.0)
        t_left = np.full(rate.shape, math.inf)
        np.divide(1.0 - frac, rate, out=t_left, where=eligible)
        dt = t_left.min(axis=1)
        nw = self.now[rows]
        t_next = np.minimum(np.minimum(self.t_rapl[rows], self.t_mon[rows]),
                            self.t_pol[rows])
        dt = np.minimum(dt, t_next - nw)
        dt = np.minimum(dt, targets - nw)
        if not np.isfinite(dt).all():
            raise ConfigurationError("vector engine has no next event")
        return np.maximum(dt, 0.0)

    def _accrue(self, rows: Rows, dt: np.ndarray, clock) -> None:
        """Power sample + energy accrual (runs even for dt == 0, exactly
        like SimulatedNode.accrue at the head of Engine._integrate)."""
        freq, duty, _s = clock
        volt = self._volt_table[self.freq_idx[rows]]
        package, cores, uncore, dram = self._power_sample(
            rows, volt, freq, duty)
        self.pkg_energy[rows] = self.pkg_energy[rows] + package * dt
        self.dram_energy[rows] = self.dram_energy[rows] + dram * dt
        self.ls_package[rows] = package
        self.ls_cores[rows] = cores
        self.ls_uncore[rows] = uncore
        self.ls_dram[rows] = dram
        self.ls_valid[rows] = True

    def _power_sample(self, rows: Rows, volt, freq, duty):
        """PowerModel.sample over rows: same core_power kernel, same
        sequential left fold over the 24 cores (workers first, then the
        identical idle cores one by one — fold order is bit-relevant).
        One kernel call covers every worker core, in a ``(W, n)`` layout
        whose rows the fold then adds in order; ``np.add.reduce`` would
        not do, as it sums some shapes pairwise."""
        cfg = self.cfg
        cmode = self.core_mode[rows]
        act = np.where(
            cmode == C_BUSY,
            hk.busy_activity(self.core_cf[rows], cfg.stall_activity),
            np.where(cmode == C_SPIN, cfg.spin_activity, cfg.sleep_activity))
        cd = self.c_dyn[rows]
        lk = self.leak[rows]
        power = hk.core_power(volt, freq, duty, act.T, cd, lk)
        bytes_rate = self.core_br[rows].T
        total = np.zeros(len(cd))
        traffic = np.zeros(len(cd))
        for col in range(self.n_workers):
            total = total + power[col]
            traffic = traffic + bytes_rate[col]
        idle_p = hk.core_power(volt, freq, duty, cfg.sleep_activity, cd, lk)
        for _ in range(cfg.n_cores - self.n_workers):
            total = total + idle_p
        uncore = hk.uncore_power(traffic, cfg.uncore_base, cfg.uncore_per_bw)
        dram = hk.dram_power(traffic, cfg.dram_base, cfg.dram_per_bw)
        return total + uncore, total, uncore, dram

    def _predicted_power(self, rows: np.ndarray, volt, freq, duty):
        """RaplFirmware._predicted_power over rows (package = cores +
        uncore, no DRAM; activity from the *stored* core states)."""
        package, _cores, _uncore, _dram = self._power_sample(
            rows, volt, freq, duty)
        return package

    def _integrate(self, rows: Rows, dt: np.ndarray, clock) -> None:
        """Progress + counter accrual. Zero increments on dt == 0 rows are
        bitwise no-ops (x + 0.0 == x for the non-negative quantities
        here), so no masking is needed for them."""
        _freq, _duty, s = clock
        st = self.wstatus[rows]
        run = st == W_RUNNING
        spin = st == W_SPINNING
        dtc = dt[:, None]
        s2 = s[:, None]
        rate = self.rate[rows]
        frac = self.frac[rows]
        dx = np.where(run, np.minimum(rate * dtc, 1.0 - frac), 0.0)
        self.frac[rows] = frac + dx
        ins_inc = (np.where(run, self.w_ins[rows] * dx, 0.0)
                   + np.where(spin, (s2 * self.cfg.spin_ipc) * dtc, 0.0))
        cyc_inc = np.where(run | spin, s2 * dtc, 0.0)
        l3_inc = np.where(run, self.w_miss[rows] * dx, 0.0)
        self.ctr_ins[rows] = self.ctr_ins[rows] + ins_inc
        self.ctr_cyc[rows] = self.ctr_cyc[rows] + cyc_inc
        self.ctr_l3[rows] = self.ctr_l3[rows] + l3_inc

    # ------------------------------------------------------------------
    # Discrete events
    # ------------------------------------------------------------------

    def _completions(self, rows: Rows, ids: np.ndarray) -> None:
        """Barrier arrivals of one pass on all rows at once, then the
        releases of every row whose workers are now all spinning.

        Completed tasks join the ready queue in tid order and are
        dispatched LIFO, so within a pass a row's workers reach the
        barrier in descending worker order, after the ones already
        there. That order is ``barrier_pos`` in checkpoints, so each
        arrival's rank replicates it exactly.
        """
        comp = (self.wstatus[rows] == W_RUNNING) & \
            (self.frac[rows] >= 1.0 - COMPLETION_RTOL)
        if not comp.any():
            return
        arrived = (self.barrier_pos[rows] >= 0).sum(axis=1) + comp.sum(axis=1)
        r, wid = np.nonzero(comp)
        done = ids[r]
        # A pass's arrivals come in descending worker id, so a completing
        # worker's rank is the row's arrival count after the pass minus
        # the completions at or below its id.
        self.barrier_pos[done, wid] = \
            arrived[r] - np.cumsum(comp, axis=1)[r, wid]
        self.frac[done, wid] = 1.0
        self.wstatus[done, wid] = W_SPINNING
        released = ids[arrived == self.n_workers]
        if released.size:
            self._release(released)

    def _release(self, rows: np.ndarray) -> None:
        """Barrier release: worker 0 publishes the iteration's progress
        (queued at fill time), then every worker refills."""
        publishing = rows[~np.isnan(self.queued_pub[rows])]
        if publishing.size:
            self._publish(publishing)
        self.barrier_pos[rows] = -1
        self._fill(rows)

    def _fill(self, rows: np.ndarray) -> None:
        """One SpmdBody._fill per worker on every listed row: advance the
        (phase, iteration) cursor, take each row's shared factor once
        (all worker copies of the shared stream are in lockstep), then
        each worker's private jitter from its own generator.

        Each draw is the next value of that generator's look-ahead
        block, so every generator sees exactly the object path's
        sequence; the draws, exponentials and work quantities are a few
        array ops per pass.
        """
        prof = self.profile
        p = self.p_idx[rows]
        t = self.it[rows]
        crossing = t >= self._ph_iters[p]
        if crossing.any():
            self._cross_phases(rows, p, t, crossing)
            live = p < prof.n_phases
            if not live.all():
                self._finish(rows[~live])
                rows, p, t = rows[live], p[live], t[live]
                if not rows.size:
                    return

        # A phase's first fill starts its shared factor stream.
        first = t == 0
        if first.any():
            for slot, ph in zip(rows[first].tolist(), p[first].tolist()):
                if self.shared_rng[slot] is None:
                    self.shared_rng[slot] = np.random.default_rng(
                        [self._seeds[slot], 0, ph])
        # Column 0 is the shared draw, 1..W the workers'. exp(0.0) == 1.0
        # exactly, so the zero stand-ins for undrawn jitter leave the
        # factor bit-identical to the object's ``shared * private`` (or
        # plain ``shared``). ``0.0 + s * z`` is Generator.normal(0.0, s).
        draws = np.zeros((len(rows), self.n_workers + 1))
        sigma = self._ph_shared_jitter[p]
        drawing = sigma > 0.0
        if drawing.any():
            z = self.shared_draws.take(
                rows[drawing], lambda slot: [self.shared_rng[slot]])
            draws[drawing, :1] = 0.0 + sigma[drawing, None] * z
        sigma = self._ph_jitter[p]
        drawing = sigma > 0.0
        if drawing.any():
            z = self.jitter_draws.take(rows[drawing], self.rngs.__getitem__)
            draws[drawing, 1:] = 0.0 + sigma[drawing, None] * z
        e = lognormal_factor(draws)
        factor = e[:, :1] * e[:, 1:]
        work = self._ph_work[p]
        cycles, nbytes, ins, misses = sample_quantities(
            work[:, 0:1], factor, work[:, 1:2], work[:, 2:3], work[:, 3:4])
        self.w_cycles[rows] = cycles
        self.w_bytes[rows] = nbytes
        self.w_ins[rows] = ins
        # Same truthiness rule as Work.misses: an explicit-but-zero
        # miss count falls back to the streaming estimate.
        self.w_miss[rows] = np.where(misses != 0.0, misses,
                                     nbytes / self.cfg.cache_line)
        self.frac[rows] = 0.0
        self.wstatus[rows] = W_RUNNING
        self.queued_pub[rows] = self._ph_pub[p]
        self.p_idx[rows] = p
        self.it[rows] = t + 1

    def _cross_phases(self, rows: np.ndarray, p: np.ndarray, t: np.ndarray,
                      crossing: np.ndarray) -> None:
        """Move the (phase, iteration) cursors ``p``, ``t`` of the
        crossing rows past their exhausted phases, in place (each new
        phase restarts the shared factor stream)."""
        n_phases = self.profile.n_phases
        iters = self.profile.ph_iterations
        for k in np.nonzero(crossing)[0]:
            pk, tk = int(p[k]), int(t[k])
            slot = int(rows[k])
            while pk < n_phases and tk >= iters[pk]:
                pk += 1
                tk = 0
                self.shared_rng[slot] = None
                self.shared_draws.reset(slot)
            p[k], t[k] = pk, tk

    def _finish(self, rows: np.ndarray) -> None:
        """Rows whose last phase is exhausted: every worker is done."""
        self.wstatus[rows] = W_DONE
        # StopIteration marks the core idle immediately (before the
        # next recompute) — visible to same-instant RAPL prediction.
        self.core_mode[rows] = C_IDLE
        self.core_cf[rows] = 0.0
        self.core_br[rows] = 0.0
        self.rate[rows] = 0.0
        self.queued_pub[rows] = math.nan
        self.p_idx[rows] = self.profile.n_phases
        self.it[rows] = 0

    def _publish(self, rows: np.ndarray) -> None:
        """MessageBus._publish of each row's queued progress value on the
        node's single progress topic (one bus generator per row). The
        queue holds ``(time, value)`` pairs; the exporter rebuilds the
        Message of each."""
        self.bus_published[rows] += 1
        if self.drop_prob > 0.0:
            u = self.drop_draws.take(rows, lambda slot: [self.bus_rng[slot]])
            drop = u[:, 0] < self.drop_prob
            self.bus_dropped[rows[drop]] += 1
            rows = rows[~drop]
        for slot, now, value in zip(rows.tolist(), self.now[rows].tolist(),
                                    self.queued_pub[rows].tolist()):
            queue = self.pending[slot]
            if len(queue) >= MessageBus.HWM:
                self.bus_overflowed[slot] += 1
                continue
            queue.append((now, value))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _fire_timers(self, rows: Rows, ids: np.ndarray) -> None:
        """Fire due timers in the engine's (time, seq) heap order: the
        firmware (seq 0) wins ties against the monitor (seq 1), which
        wins against the cap controller (seq 2). One timer per node per round.
        ``rows`` selects the rows of ``ids``; as a slice it reads ``tr``,
        ``tm`` and ``tp`` as views, which the re-arms below change, so
        every mask is taken before the first tick."""
        for _ in range(8):
            nw = self.now[rows] + TIMER_EPS
            tr = self.t_rapl[rows]
            tm = self.t_mon[rows]
            tp = self.t_pol[rows]
            due_r = tr <= nw
            due_m = tm <= nw
            due_p = tp <= nw
            if not (due_r.any() or due_m.any() or due_p.any()):
                return
            fire_r = due_r & (~due_m | (tr <= tm)) & (~due_p | (tr <= tp))
            fire_m = due_m & ~fire_r & (~due_p | (tm <= tp))
            fire_p = due_p & ~fire_r & ~fire_m
            if fire_r.any():
                due = ids[fire_r]
                self._rapl_tick(due)
                self.t_rapl[due] = \
                    self.t_rapl[due] + RaplFirmware.CONTROL_INTERVAL
            if fire_m.any():
                due = ids[fire_m]
                self._monitor_tick(due)
                self.t_mon[due] = self.t_mon[due] + self.interval
            if fire_p.any():
                due = ids[fire_p]
                self._policy_tick(due)
                self.t_pol[due] = \
                    self.t_pol[due] + CapController.INTERVAL
        raise ConfigurationError("vector timer rounds did not converge")

    def _rapl_tick(self, rows: np.ndarray) -> None:
        """RaplFirmware._tick, batched. The periodic re-arm happens in
        _fire_timers for every fired row, including dt <= 0 early returns."""
        cfg = self.cfg
        nw = self.now[rows]
        dt = nw - self.fw_last_time[rows]
        has = dt > 0
        if not has.any():
            return
        sub = rows[has]
        dts = dt[has]
        pkg = self.pkg_energy[sub]
        avg = hk.average_power(pkg, self.fw_last_energy[sub], dts)
        self.fw_last_energy[sub] = pkg
        self.fw_last_time[sub] = nw[has]
        prev = self.fw_avgw[sub]
        alpha = hk.ewma_alpha_array(dts, self.fw_window[sub])
        windowed = np.where(np.isnan(prev), avg,
                            hk.ewma_update(prev, avg, alpha))
        self.fw_avgw[sub] = windowed

        enabled = self.fw_enabled[sub]
        cap = np.where(enabled, np.minimum(self.fw_limit[sub], cfg.tdp),
                       cfg.tdp)
        # Uncore DVFS follows the pre-tick core frequency.
        freq = self._ladder[self.freq_idx[sub]]
        capping = enabled & (self.fw_limit[sub] < cfg.tdp)
        self.uncore_scale[sub] = np.where(
            capping,
            hk.uncore_dvfs_scale_array(freq, cfg.f_nominal,
                                       RaplFirmware.MIN_UNCORE_SCALE),
            1.0)

        # PL2: hard proportional drop on the instantaneous average.
        pl2 = enabled & (avg > self.fw_limit2[sub])
        if pl2.any():
            hot = sub[pl2]
            self.freq_idx[hot] = np.maximum(
                0, self.freq_idx[hot] - RaplFirmware.MAX_STEPS)
        rest = ~pl2
        if not rest.any():
            return
        sub = sub[rest]
        windowed = windowed[rest]
        cap = cap[rest]

        over = windowed > cap
        if over.any():
            hot = sub[over]
            steps = hk.throttle_steps_array(windowed[over], cap[over],
                                            RaplFirmware.MAX_STEPS)
            fi = self.freq_idx[hot]
            can_dvfs = fi > 0
            if can_dvfs.any():
                dn = hot[can_dvfs]
                self.freq_idx[dn] = np.maximum(0, fi[can_dvfs] - steps[can_dvfs])
            floor = hot[~can_dvfs]
            if floor.size:
                cur = self.duty_idx[floor]
                ddcm = floor[cur > 0]
                if ddcm.size:
                    self.duty_idx[ddcm] = self.duty_idx[ddcm] - 1
                    self.fw_ddcm[ddcm] = True

        under = ~over & (windowed < cap * (1.0 - RaplFirmware.HEADROOM))
        if not under.any():
            return
        cool = sub[under]
        cap_u = cap[under]
        throttled = self.duty_idx[cool] < self._duty_top
        # DDCM undo first (only the firmware's own duty reductions).
        ddcm_rows = cool[throttled]
        ddcm_caps = cap_u[throttled]
        own = self.fw_ddcm[ddcm_rows]
        ddcm_rows = ddcm_rows[own]
        ddcm_caps = ddcm_caps[own]
        if ddcm_rows.size:
            cand_duty = self._duties[self.duty_idx[ddcm_rows] + 1]
            fi = self.freq_idx[ddcm_rows]
            pred = self._predicted_power(ddcm_rows, self._volt_table[fi],
                                         self._ladder[fi], cand_duty)
            ok = pred <= ddcm_caps
            up = ddcm_rows[ok]
            if up.size:
                new_duty = self.duty_idx[up] + 1
                self.duty_idx[up] = new_duty
                undo = up[self._duties[new_duty] >= 1.0]
                self.fw_ddcm[undo] = False
        # Ladder climb (turbo included) at full duty.
        climb = cool[~throttled]
        climb_caps = cap_u[~throttled]
        room = self.freq_idx[climb] + 1 < len(self._ladder)
        climb = climb[room]
        climb_caps = climb_caps[room]
        if climb.size:
            fi = self.freq_idx[climb] + 1
            cand_freq = self._ladder[fi]
            pred = self._predicted_power(
                climb, self._volt_table[fi], cand_freq,
                self._duties[self.duty_idx[climb]])
            ok = (cand_freq <= self.freq_limit[climb]) & (pred <= climb_caps)
            self.freq_idx[climb[ok]] = fi[ok]

    def _monitor_tick(self, rows: np.ndarray) -> None:
        """ProgressMonitor._tick per row: drain due bus messages, append
        one rate sample (sum order = delivery order, from int 0)."""
        interval = self.interval
        for slot in rows:
            slot = int(slot)
            now = float(self.now[slot])
            queue = self.pending[slot]
            limit = now + TIMER_EPS
            total = 0
            count = 0
            while queue and queue[0][0] <= limit:
                total = total + queue.popleft()[1]
                count += 1
            self.mon_events[slot] += count
            self.mon_series[slot].append(now, total / interval)

    def _policy_tick(self, rows: np.ndarray) -> None:
        """CapController._tick per row (budget source): apply budget changes
        through the (emulated) MSR write path, then record the raw cap."""
        for slot in rows:
            slot = int(slot)
            budget = self.pol_budget[slot]
            kind, applied = self.pol_applied[slot]
            if kind == "unset" or budget != applied:
                if budget is None:
                    # remove_pkg_power_limit: PL1 disabled -> firmware
                    # stops capping and releases the uncore.
                    self.fw_enabled[slot] = False
                    self.uncore_scale[slot] = 1.0
                else:
                    watts, window = self._quantized_limit(budget)
                    self.fw_limit[slot] = watts
                    self.fw_enabled[slot] = True
                    self.fw_window[slot] = window
                self.pol_applied[slot] = ("set", budget)
            self.cap_series[slot].append(
                float(self.now[slot]),
                self._tdp_msr if budget is None else budget)

    def _quantized_limit(self, watts: float) -> tuple[float, float]:
        """What the firmware actually receives for a requested PL1: the
        encode/merge/decode round trip through MSR_PKG_POWER_LIMIT
        quantizes watts to the power unit and snaps the window to its
        7-bit representation. A limit that quantizes to zero is refused,
        as ``RaplFirmware.set_limit`` refuses it."""
        cached = self._limit_cache.get(watts)
        if cached is None:
            value = encode_power_limit(
                PowerLimit(watts=watts, enabled=True, clamped=True,
                           window=LibMSR.PL1_WINDOW),
                units=self._units)
            writable = DEFAULT_WHITELIST[MSR_PKG_POWER_LIMIT]
            pl1, _pl2, _locked = decode_power_limit(value & writable,
                                                    units=self._units)
            cached = (pl1.watts, pl1.window)
            self._limit_cache[watts] = cached
        if cached[0] <= 0:
            raise ConfigurationError(
                f"power limit must be positive, got {cached[0]}")
        return cached


def _generator_from(state: dict) -> np.random.Generator:
    # The fresh generator's state is fully replaced below; no OS entropy
    # reaches any result.
    gen = np.random.default_rng()  # repro-lint: disable=det-unseeded-rng
    if gen.bit_generator.state["bit_generator"] != state.get("bit_generator"):
        raise ConfigurationError(
            f"unsupported bit generator in RNG state: "
            f"{state.get('bit_generator')!r}")
    gen.bit_generator.state = state
    return gen
