"""Checkpoint interop between the vector engine and :class:`NodeCheckpoint`.

The vector engine does not invent its own checkpoint format. A
vectorized slot exports the SAME ``NodeInstance.snapshot()`` payload the
object path writes — a template stack is assembled from the slot's spec
(which fixes every structural detail: libmsr whitelist, task/timer
registration order, tap series names) and the slot's dynamic state is
overlaid onto the template's snapshot leaves. The result restores into
either engine.

Importing goes the other way: :meth:`~repro.vector.host.VectorEngine
.build` groups a checkpoint by :func:`checkpoint_spec` with the specs of
the same build, and :func:`read_slot` strictly validates, against the
group's profile, that it describes exactly the stack shape the vector
engine models (stock timers, no userspace pins, the regular SPMD
directive stream ...), returning the values of its row. ANY surprise
raises :class:`~repro.exceptions.CheckpointError` before the group
exists; the host then restores the same dict as an object
:class:`NodeInstance` — correctness never depends on the importer
accepting a checkpoint.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.exceptions import CheckpointError
from repro.hardware.msr import MSRDevice
from repro.hardware.power import PowerSample
from repro.hardware.rapl import RaplFirmware
from repro.nrm.controller import CapController, check_budget
from repro.runtime.engine import Publish, Work
from repro.stack.checkpoint import CHECKPOINT_VERSION, NodeCheckpoint
from repro.stack.spec import StackSpec
from repro.telemetry.pubsub import Message, MessageBus
from repro.telemetry.timeseries import TimeSeries
from repro.vector.engine import (
    C_BUSY,
    C_IDLE,
    C_SPIN,
    VectorGroup,
    W_DONE,
    W_RUNNING,
    W_SPINNING,
    _generator_from,
)
from repro.vector.gate import GroupProfile

__all__ = ["checkpoint_spec", "export_checkpoint", "read_slot"]

_BARRIER = "__barrier__"
_MODE_NAME = {C_IDLE: "idle", C_BUSY: "busy", C_SPIN: "spin"}
_MODE_CODE = {name: code for code, name in _MODE_NAME.items()}
_STATUS_NAME = {W_RUNNING: "running", W_SPINNING: "spinning", W_DONE: "done"}
_STATUS_CODE = {name: code for code, name in _STATUS_NAME.items()}
#: Group fields that each hold one snapshot entry as it is, by snapshot
#: section: (entry, field) pairs. Export and import both read them.
_SCALARS = {
    "node": (("now", "now"), ("pkg_energy", "pkg_energy"),
             ("dram_energy", "dram_energy"), ("freq_limit", "freq_limit"),
             ("uncore_scale", "uncore_scale")),
    "firmware": (("limit", "fw_limit"), ("limit2", "fw_limit2"),
                 ("enabled", "fw_enabled"), ("ddcm_engaged", "fw_ddcm"),
                 ("window", "fw_window"), ("last_energy", "fw_last_energy"),
                 ("last_time", "fw_last_time")),
    "bus": (("published", "bus_published"), ("dropped", "bus_dropped")),
}
#: The group field of each stock timer's next fire time, by timer seq.
_TIMERS = ("t_rapl", "t_mon", "t_pol")


def _template_state(spec: StackSpec) -> NodeCheckpoint:
    """A pre-start checkpoint of a freshly assembled stack for ``spec`` —
    the structural ground truth both directions compare against."""
    from repro.stack.builder import NodeStack

    return NodeStack(spec).launch().snapshot()


# ----------------------------------------------------------------------
# Export: vector slot -> NodeInstance snapshot dict
# ----------------------------------------------------------------------


def export_checkpoint(view) -> dict:
    """A ``NodeInstance.snapshot()``-format checkpoint of one vector slot
    (restorable by :meth:`NodeInstance.from_checkpoint` or re-imported by
    :meth:`~repro.vector.host.VectorEngine.build`)."""
    g: VectorGroup = view.group
    slot: int = view.slot
    # Rewind the generators past their look-ahead blocks first: the
    # overlays below read RNG states.
    g.flush_draws(slot)
    cp = _template_state(view.spec)
    state = cp.state
    for section, pairs in _SCALARS.items():
        for entry, field in pairs:
            # .item() gives the Python float, bool or int of the dtype
            state[section][entry] = getattr(g, field)[slot].item()
    _overlay_node(state["node"], g, slot)
    _overlay_firmware(state["firmware"], g, slot)
    _overlay_bus(state["bus"], g, slot)
    state["monitors"] = {g.topic: {
        "version": 1,
        "series": g.mon_series[slot].snapshot(),
        "events_seen": int(g.mon_events[slot]),
    }}
    state["controller"].update(
        budget=g.pol_budget[slot],
        applied=tuple(g.pol_applied[slot]),
        cap_series=g.cap_series[slot].snapshot(),
    )
    if g.started[slot]:
        _overlay_engine(state["engine"], g, slot)
    return {
        "version": 1,
        "node_id": view.node_id,
        "energy_mark": float(g.energy_mark[slot]),
        "stack": NodeCheckpoint(version=cp.version, spec=cp.spec,
                                state=state),
    }


def _overlay_node(node: dict, g: VectorGroup, slot: int) -> None:
    cfg = g.cfg
    w = g.n_workers
    freq = float(cfg.freq_ladder[int(g.freq_idx[slot])])
    duty = float(cfg.duty_levels[int(g.duty_idx[slot])])
    for core_id, core in enumerate(node["cores"]):
        core["freq"] = freq
        core["duty"] = duty
        if core_id < w:
            core["mode"] = _MODE_NAME[int(g.core_mode[slot, core_id])]
            core["compute_frac"] = float(g.core_cf[slot, core_id])
            core["bytes_rate"] = float(g.core_br[slot, core_id])
    counters = node["counters"]
    counters["ins"][:w] = [float(x) for x in g.ctr_ins[slot]]
    counters["cyc"][:w] = [float(x) for x in g.ctr_cyc[slot]]
    counters["l3"][:w] = [float(x) for x in g.ctr_l3[slot]]
    node["last_sample"] = (PowerSample(
        package=float(g.ls_package[slot]),
        cores=float(g.ls_cores[slot]),
        uncore=float(g.ls_uncore[slot]),
        dram=float(g.ls_dram[slot]),
    ) if g.ls_valid[slot] else None)


def _overlay_firmware(fw: dict, g: VectorGroup, slot: int) -> None:
    avgw = float(g.fw_avgw[slot])
    fw["avg_windowed"] = None if math.isnan(avgw) else avgw


def _overlay_bus(bus: dict, g: VectorGroup, slot: int) -> None:
    bus["rng"] = g.bus_rng[slot].bit_generator.state
    sub = bus["subs"][0]
    sub["overflowed"] = int(g.bus_overflowed[slot])
    sub["queue"] = [(t, Message(t, g.topic, value))
                    for t, value in g.pending[slot]]


def _overlay_engine(eng: dict, g: VectorGroup, slot: int) -> None:
    prof = g.profile
    p = int(g.p_idx[slot])
    publishing = not math.isnan(g.queued_pub[slot])
    pub = Publish(prof.topic, float(g.queued_pub[slot])) if publishing \
        else None
    shared = g.shared_rng[slot]
    shared_state = None if shared is None else shared.bit_generator.state
    mpo = prof.ph_mpo[p] if p < prof.n_phases else None
    for wid, task in enumerate(eng["tasks"]):
        status_code = int(g.wstatus[slot, wid])
        task["status"] = _STATUS_NAME[status_code]
        task["frac_done"] = float(g.frac[slot, wid])
        task["barrier_pos"] = None
        queue: list = []
        if status_code == W_RUNNING:
            task["work"] = Work(
                cycles=float(g.w_cycles[slot, wid]),
                bytes=float(g.w_bytes[slot, wid]),
                instructions=float(g.w_ins[slot, wid]),
                l3_misses=(float(g.w_miss[slot, wid])
                           if mpo is not None else None),
            )
            queue.append(_BARRIER)
        else:
            task["work"] = None
            if status_code == W_SPINNING:
                task["barrier_pos"] = int(g.barrier_pos[slot, wid])
        if wid == 0 and pub is not None and status_code != W_DONE:
            queue.append(pub)
        body = task["body"]
        body["queue"] = queue
        body["exhausted"] = status_code == W_DONE
        body["state"] = {
            "rng": g.rngs[slot][wid].bit_generator.state,
            "shared_rng": shared_state,
            "p_idx": p,
            "it": int(g.it[slot]),
            "pending": 0.0,
            "batched": 0,
            "flushed": False,
            "skew": 1.0,
        }
    eng["ready"] = []
    for rec in eng["timers"]:
        rec["time"] = float(getattr(g, _TIMERS[rec["seq"]])[slot])


# ----------------------------------------------------------------------
# Import: NodeInstance snapshot dict -> values of one slot of a group
# ----------------------------------------------------------------------


def checkpoint_spec(state: object) -> StackSpec | None:
    """The spec of a mid-run ``NodeInstance`` checkpoint (what the host
    groups it by); ``None`` for payloads the importer never takes."""
    if not isinstance(state, dict) or state.get("version") != 1:
        return None
    cp = state.get("stack")
    if not isinstance(cp, NodeCheckpoint) or cp.version != CHECKPOINT_VERSION \
            or not cp.state.get("launched"):
        return None
    return cp.spec


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckpointError(f"checkpoint is not vector-representable: {what}")


def read_slot(prof: GroupProfile, state: dict) -> dict[str, object]:
    """Each :class:`VectorGroup` field's value, by name, for a fresh
    slot of a group of ``prof`` holding ``state``. Every check runs
    here, before any group exists, so a refused checkpoint
    (:class:`CheckpointError`) never writes to a group."""
    cfg = prof.cfg
    w = prof.n_workers
    spec = state["stack"].spec
    s = state["stack"].state

    # -- static structure must match a stock budget stack ---------------
    tmpl = _template_state(spec).state
    _expect(s.get("libmsr") == tmpl["libmsr"], "libmsr state differs")
    _expect(s.get("app") == tmpl["app"], "app knobs were tuned")
    taps = s.get("taps") or {}
    for name in ("power", "freq", "duty", "uncore"):
        tap = taps.get(name) or {}
        _expect(tap.get("times") == [], f"{name} tap has samples")
    _expect(MSRDevice._ratio_bits(cfg.f_nominal) ==
            tmpl["libmsr"]["msr"]["device"]["perf_ctl"],
            "perf_ctl was rewritten")

    # -- node ------------------------------------------------------------
    node = s["node"]
    _expect(node.get("version") == 1, "node snapshot version")
    cores = node["cores"]
    _expect(len(cores) == cfg.n_cores, "core count differs")
    freq = cores[0]["freq"]
    duty = cores[0]["duty"]
    _expect(freq in cfg.freq_ladder, "core frequency off the ladder")
    _expect(duty in cfg.duty_levels, "duty level off the grid")
    for core_id, core in enumerate(cores):
        _expect(core["freq"] == freq and core["duty"] == duty,
                "cores run at per-core operating points")
        if core_id >= w:
            _expect(core["mode"] == "idle" and core["compute_frac"] == 0.0
                    and core["bytes_rate"] == 0.0,
                    "a non-worker core is active")
        else:
            _expect(core["mode"] in _MODE_CODE, "unknown core mode")
    counters = node["counters"]
    for key in ("ins", "cyc", "l3"):
        _expect(all(x == 0.0 for x in counters[key][w:]),
                "a non-worker core accrued counters")
    _expect(node["dram_bw_cap"] is None, "a DRAM bandwidth cap is set")
    sample = node["last_sample"]
    _expect(sample is None or isinstance(sample, PowerSample),
            "unknown last_sample type")
    last = sample if sample is not None else \
        PowerSample(package=0.0, cores=0.0, uncore=0.0, dram=0.0)

    # -- firmware ---------------------------------------------------------
    fw = s["firmware"]
    _expect(fw.get("version") == 1, "firmware snapshot version")
    _expect(fw["dram_limit"] is None, "a DRAM power limit is set")

    # -- bus --------------------------------------------------------------
    bus = s["bus"]
    _expect(bus.get("version") == 1, "bus snapshot version")
    subs = bus["subs"]
    _expect(len(subs) == 1, "bus has extra subscribers")
    sub = subs[0]
    _expect(sub["topic"] == prof.topic and sub["hwm"] == MessageBus.HWM
            and not sub["closed"], "subscriber wiring differs")
    bus_queue = []
    for entry in sub["queue"]:
        _expect(isinstance(entry, (tuple, list)) and len(entry) == 2,
                "bus queue entry is not a (time, message) pair")
        t, msg = entry
        _expect(isinstance(msg, Message) and msg.time == t
                and msg.topic == prof.topic,
                "bus queue holds a delayed or foreign message")
        bus_queue.append((t, msg.value))

    # -- monitors / controller -------------------------------------------
    monitors = s["monitors"]
    _expect(set(monitors) == {prof.topic}, "monitored topics differ")
    mon = monitors[prof.topic]
    _expect(mon.get("version") == 1, "monitor snapshot version")
    ctl = s["controller"]
    _expect(isinstance(ctl, dict) and ctl.get("version") == 2
            and ctl.get("start") == tmpl["controller"]["start"]
            and "budget" in ctl and "applied" in ctl,
            "controller snapshot differs from a budget-driven one")
    kind, value = ctl["applied"]
    _expect(kind in ("set", "unset"), "unknown applied tri-state")
    # Restoring checks each series' name against the template's.
    mon_series = TimeSeries(tmpl["monitors"][prof.topic]["series"]["name"])
    mon_series.restore(mon["series"])
    cap_series = TimeSeries(tmpl["controller"]["cap_series"]["name"])
    cap_series.restore(ctl["cap_series"])
    budget = check_budget(ctl["budget"], CheckpointError)

    # -- engine -----------------------------------------------------------
    eng = s["engine"]
    _expect(eng.get("version") == 1, "engine snapshot version")
    _expect(eng["next_tid"] == w, "extra tasks were spawned")
    _expect(eng["next_timer_seq"] == 3, "extra timers were registered")
    _expect(eng["free_cores"] == list(range(cfg.n_cores - 1, w - 1, -1)),
            "core pinning differs")
    timers = {rec["seq"]: rec for rec in eng["timers"]}
    _expect(set(timers) == {0, 1, 2}, "timer set differs")
    periods = {0: RaplFirmware.CONTROL_INTERVAL, 1: prof.monitor_interval,
               2: CapController.INTERVAL}
    for seq, rec in timers.items():
        _expect(not rec["cancelled"], "a stock timer was cancelled")
        _expect(rec["period"] == periods[seq], "timer period differs")
    tasks = eng["tasks"]
    _expect(len(tasks) == w, "task count differs")

    pre_start = (all(t["status"] == "ready" for t in tasks)
                 and eng["ready"] == list(range(w)))
    if not pre_start:
        _expect(eng["ready"] == [], "tasks are mid-dispatch")

    p_idx = it = 0
    shared_state = None
    wstatus = np.full(w, W_RUNNING)
    frac = np.zeros(w)
    # cycles, bytes, instructions, misses of each running worker
    work_rows = np.zeros((4, w))
    barrier_pos = np.full(w, -1)
    arrivals: list[int] = []
    queued_pub = math.nan
    for wid, task in enumerate(tasks):
        _expect(task["tid"] == wid and task["core_id"] == wid
                and task["name"] == prof.task_name(wid),
                "task identity differs")
        _expect(task["wake_time"] == 0.0, "a task has slept")
        body = task["body"]
        _expect(body.get("version") == 1 and body.get("kind") == "SpmdBody",
                "body is not the plain SPMD loop")
        bstate = body["state"]
        _expect(bstate["pending"] == 0.0 and bstate["batched"] == 0
                and not bstate["flushed"],
                "batched reporting state is non-trivial")
        _expect(bstate["skew"] in (None, 1.0), "rank work skew is active")
        if wid == 0:
            p_idx, it = bstate["p_idx"], bstate["it"]
            shared_state = bstate["shared_rng"]
        else:
            _expect((bstate["p_idx"], bstate["it"]) == (p_idx, it),
                    "workers disagree on the loop cursor")
            _expect(bstate["shared_rng"] == shared_state,
                    "workers disagree on the shared factor stream")
        status = task["status"]
        queue = list(body["queue"])
        if pre_start:
            _expect(queue == [] and task["work"] is None
                    and not body["exhausted"], "pre-start body has state")
            continue
        _expect(status in _STATUS_CODE, f"task status {status!r}")
        code = _STATUS_CODE[status]
        _expect(body["exhausted"] == (code == W_DONE),
                "exhausted flag disagrees with status")
        if code == W_RUNNING:
            _expect(queue and queue[0] == _BARRIER,
                    "running task is not headed for the barrier")
            queue = queue[1:]
            work = task["work"]
            _expect(isinstance(work, Work) and work.instructions is not None,
                    "running task carries no regular work")
            work_rows[:, wid] = (work.cycles, work.bytes, work.ins,
                                 work.misses(cfg.cache_line))
        else:
            _expect(task["work"] is None, "idle task carries work")
            if code == W_SPINNING:
                _expect(isinstance(task["barrier_pos"], int),
                        "spinning task without barrier position")
                arrivals.append(task["barrier_pos"])
                barrier_pos[wid] = task["barrier_pos"]
        if wid == 0 and code != W_DONE:
            if queue:
                pub = queue.pop(0)
                _expect(isinstance(pub, Publish) and pub.topic == prof.topic,
                        "foreign directive in the publish slot")
                queued_pub = pub.value
        _expect(queue == [], "unrecognized directives queued")
        wstatus[wid] = code
        frac[wid] = task["frac_done"]

    _expect(sorted(arrivals) == list(range(len(arrivals))),
            "barrier arrival order is broken")
    # The object body starts a phase's shared stream in the fill that
    # enters the phase, so only a finished loop is left without one.
    _expect(pre_start or shared_state is not None
            or all(t["status"] == "done" for t in tasks),
            "a running loop has no shared factor stream")

    avgw = fw["avg_windowed"]
    return {
        **{field: s[section][entry]
           for section, pairs in _SCALARS.items() for entry, field in pairs},
        **{field: timers[seq]["time"] for seq, field in enumerate(_TIMERS)},
        "energy_mark": float(state["energy_mark"]),
        "freq_idx": cfg.ladder_index(freq),
        "duty_idx": list(cfg.duty_levels).index(duty),
        "core_mode": [_MODE_CODE[core["mode"]] for core in cores[:w]],
        "core_cf": [core["compute_frac"] for core in cores[:w]],
        "core_br": [core["bytes_rate"] for core in cores[:w]],
        "ctr_ins": counters["ins"][:w],
        "ctr_cyc": counters["cyc"][:w],
        "ctr_l3": counters["l3"][:w],
        "ls_valid": sample is not None,
        "ls_package": last.package,
        "ls_cores": last.cores,
        "ls_uncore": last.uncore,
        "ls_dram": last.dram,
        "fw_avgw": math.nan if avgw is None else avgw,
        "bus_rng": _generator_from(bus["rng"]),
        "bus_overflowed": sub["overflowed"],
        "pending": deque(bus_queue),
        "mon_series": mon_series,
        "mon_events": mon["events_seen"],
        "cap_series": cap_series,
        "pol_budget": budget,
        "pol_applied": (kind, None if kind == "unset" else value),
        "started": not pre_start,
        "p_idx": 0 if pre_start else p_idx,
        "it": 0 if pre_start else it,
        "queued_pub": queued_pub,
        "shared_rng": None if shared_state is None
        else _generator_from(shared_state),
        "rngs": [_generator_from(t["body"]["state"]["rng"]) for t in tasks],
        "barrier_pos": barrier_pos,
        "wstatus": wstatus,
        "frac": frac,
        "w_cycles": work_rows[0],
        "w_bytes": work_rows[1],
        "w_ins": work_rows[2],
        "w_miss": work_rows[3],
    }
