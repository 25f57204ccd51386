"""Checkpoint interop between the vector engine and :class:`NodeCheckpoint`.

The vector engine does not invent its own checkpoint format. A
vectorized slot exports the SAME ``NodeInstance.snapshot()`` payload the
object path writes — a template stack is assembled from the slot's spec
(which fixes every structural detail: libmsr whitelist, task/timer
registration order, tap series names) and the slot's dynamic state is
overlaid onto the template's snapshot leaves. The result restores into
either engine.

Importing goes the other way: :func:`try_import_checkpoint` strictly
validates that an object-engine checkpoint describes exactly the stack
shape the vector engine models (stock timers, no userspace pins, the
regular SPMD directive stream ...) and installs its state into a fresh
one-slot :class:`~repro.vector.engine.VectorGroup`, returned as its
:class:`~repro.vector.host.VectorNodeView`. ANY surprise raises
:class:`~repro.exceptions.CheckpointError`, which the host catches to
fall back to an object :class:`NodeInstance` — correctness never
depends on the importer accepting a checkpoint.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.exceptions import CheckpointError
from repro.hardware.msr import MSRDevice
from repro.hardware.power import PowerSample
from repro.nrm.policies import check_budget
from repro.runtime.engine import Publish, Work
from repro.stack.checkpoint import NodeCheckpoint
from repro.stack.spec import StackSpec
from repro.telemetry.pubsub import Message
from repro.vector.engine import (
    C_BUSY,
    C_IDLE,
    C_SPIN,
    VectorGroup,
    W_DONE,
    W_RUNNING,
    W_SPINNING,
)
from repro.vector.gate import build_profile, supports_fast_path
from repro.vector.host import VectorNodeView

__all__ = ["export_checkpoint", "import_checkpoint", "try_import_checkpoint"]

_BARRIER = "__barrier__"
_MODE_NAME = {C_IDLE: "idle", C_BUSY: "busy", C_SPIN: "spin"}
_MODE_CODE = {name: code for code, name in _MODE_NAME.items()}
_STATUS_NAME = {W_RUNNING: "running", W_SPINNING: "spinning", W_DONE: "done"}
_STATUS_CODE = {name: code for code, name in _STATUS_NAME.items()}


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
    :func:`try_import_checkpoint`)."""
    g: VectorGroup = view.group
    slot: int = view.slot
    # Rewind the generators past their look-ahead blocks first: the
    # overlays below read RNG states.
    g.flush_draws(slot)
    cp = _template_state(view.spec)
    state = cp.state
    _overlay_node(state["node"], g, slot)
    _overlay_firmware(state["firmware"], g, slot)
    _overlay_bus(state["bus"], g, slot)
    state["monitors"] = {g.topic: {
        "version": 1,
        "series": g.mon_series[slot].snapshot(),
        "events_seen": int(g.mon_events[slot]),
    }}
    state["controller"] = {
        "version": 1,
        "budget": g.pol_budget[slot],
        "applied": tuple(g.pol_applied[slot]),
        "cap_series": g.cap_series[slot].snapshot(),
    }
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
    node["now"] = float(g.now[slot])
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
    node["pkg_energy"] = float(g.pkg_energy[slot])
    node["dram_energy"] = float(g.dram_energy[slot])
    node["freq_limit"] = float(g.freq_limit[slot])
    node["uncore_scale"] = float(g.uncore_scale[slot])
    node["last_sample"] = (PowerSample(
        package=float(g.ls_package[slot]),
        cores=float(g.ls_cores[slot]),
        uncore=float(g.ls_uncore[slot]),
        dram=float(g.ls_dram[slot]),
    ) if g.ls_valid[slot] else None)


def _overlay_firmware(fw: dict, g: VectorGroup, slot: int) -> None:
    avgw = float(g.fw_avgw[slot])
    fw["limit"] = float(g.fw_limit[slot])
    fw["limit2"] = float(g.fw_limit2[slot])
    fw["enabled"] = bool(g.fw_enabled[slot])
    fw["ddcm_engaged"] = bool(g.fw_ddcm[slot])
    fw["window"] = float(g.fw_window[slot])
    fw["avg_windowed"] = None if math.isnan(avgw) else avgw
    fw["last_energy"] = float(g.fw_last_energy[slot])
    fw["last_time"] = float(g.fw_last_time[slot])


def _overlay_bus(bus: dict, g: VectorGroup, slot: int) -> None:
    bus["rng"] = g.bus_rng[slot].bit_generator.state
    bus["published"] = int(g.bus_published[slot])
    bus["dropped"] = int(g.bus_dropped[slot])
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
        rec["time"] = float(
            {0: g.t_rapl, 1: g.t_mon, 2: g.t_pol}[rec["seq"]][slot])


# ----------------------------------------------------------------------
# Import: NodeInstance snapshot dict -> one-slot vector group
# ----------------------------------------------------------------------


def try_import_checkpoint(node_id: int,
                          state: object) -> VectorNodeView | None:
    """Import ``state`` as a vectorized slot, or ``None`` when the
    checkpoint is not (provably) vector-representable — the caller then
    builds an object NodeInstance from the very same dict."""
    try:
        return import_checkpoint(node_id, state)
    except CheckpointError:
        return None


def import_checkpoint(node_id: int, state: object) -> VectorNodeView:
    """Strict import into a fresh one-slot group, returned as its view
    (raises :class:`CheckpointError` on any mismatch)."""
    if not isinstance(state, dict) or state.get("version") != 1:
        raise CheckpointError("not a NodeInstance snapshot")
    cp = state.get("stack")
    if not isinstance(cp, NodeCheckpoint) or cp.version != 1:
        raise CheckpointError("not a version-1 NodeCheckpoint")
    spec = cp.spec
    reason = supports_fast_path(spec)
    if reason is not None:
        raise CheckpointError(f"spec is not vectorizable: {reason}")
    if not cp.state.get("launched"):
        raise CheckpointError("unlaunched stacks restore via the object path")
    group = VectorGroup(build_profile(spec), [(node_id, spec)])
    _install_slot(group, 0, spec, cp.state)
    group.energy_mark[0] = float(state["energy_mark"])
    return VectorNodeView(group, 0, node_id, spec)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckpointError(f"checkpoint is not vector-representable: {what}")


def _install_slot(g: VectorGroup, slot: int, spec: StackSpec,
                  s: dict) -> None:
    cfg = g.cfg
    prof = g.profile
    w = g.n_workers

    # -- static structure must match a stock budget stack ---------------
    tmpl = _template_state(spec).state
    _expect(s.get("libmsr") == tmpl["libmsr"], "libmsr state differs")
    _expect(s.get("app") == tmpl["app"], "app knobs were tuned")
    taps = s.get("taps") or {}
    for name in ("freq", "duty", "uncore"):
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
    _expect(sub["topic"] == prof.topic and sub["hwm"] == 1000
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
    _expect(isinstance(ctl, dict) and ctl.get("version") == 1
            and "budget" in ctl and "applied" in ctl,
            "controller is not the budget-tracking policy")
    kind, _value = ctl["applied"]
    _expect(kind in ("set", "unset"), "unknown applied tri-state")

    # -- engine -----------------------------------------------------------
    eng = s["engine"]
    _expect(eng.get("version") == 1, "engine snapshot version")
    _expect(eng["next_tid"] == w, "extra tasks were spawned")
    _expect(eng["next_timer_seq"] == 3, "extra timers were registered")
    _expect(eng["free_cores"] == list(range(cfg.n_cores - 1, w - 1, -1)),
            "core pinning differs")
    timers = {rec["seq"]: rec for rec in eng["timers"]}
    _expect(set(timers) == {0, 1, 2}, "timer set differs")
    periods = {0: 0.01, 1: prof.monitor_interval, 2: 1.0}
    for seq, rec in timers.items():
        _expect(not rec["cancelled"], "a stock timer was cancelled")
        _expect(rec["period"] == periods[seq], "timer period differs")
    tasks = eng["tasks"]
    _expect(len(tasks) == w, "task count differs")

    pre_start = (all(t["status"] == "ready" for t in tasks)
                 and eng["ready"] == list(range(w)))
    if not pre_start:
        _expect(eng["ready"] == [], "tasks are mid-dispatch")

    p_idx = it = None
    shared_state = None
    arrivals: list[tuple[int, int]] = []
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
            g.w_cycles[slot, wid] = work.cycles
            g.w_bytes[slot, wid] = work.bytes
            g.w_ins[slot, wid] = work.ins
            g.w_miss[slot, wid] = work.misses(cfg.cache_line)
        else:
            _expect(task["work"] is None, "idle task carries work")
            if code == W_SPINNING:
                _expect(isinstance(task["barrier_pos"], int),
                        "spinning task without barrier position")
                arrivals.append((task["barrier_pos"], wid))
        if wid == 0 and code != W_DONE:
            if queue:
                pub = queue.pop(0)
                _expect(isinstance(pub, Publish) and pub.topic == prof.topic,
                        "foreign directive in the publish slot")
                queued_pub = pub.value
        _expect(queue == [], "unrecognized directives queued")
        g.wstatus[slot, wid] = code
        g.frac[slot, wid] = task["frac_done"]

    _expect(sorted(pos for pos, _ in arrivals) ==
            list(range(len(arrivals))), "barrier arrival order is broken")
    # The object body starts a phase's shared stream in the fill that
    # enters the phase, so only a finished loop is left without one.
    _expect(pre_start or shared_state is not None
            or all(t["status"] == "done" for t in tasks),
            "a running loop has no shared factor stream")

    # -- install ----------------------------------------------------------
    from repro.vector.engine import _generator_from

    # The imported generators start with empty look-ahead blocks.
    g.flush_draws(slot)
    g.now[slot] = node["now"]
    g.freq_idx[slot] = cfg.ladder_index(freq)
    _expect(float(cfg.freq_ladder[int(g.freq_idx[slot])]) == freq,
            "frequency does not quantize back")
    g.duty_idx[slot] = list(cfg.duty_levels).index(duty)
    g.freq_limit[slot] = node["freq_limit"]
    g.uncore_scale[slot] = node["uncore_scale"]
    g.pkg_energy[slot] = node["pkg_energy"]
    g.dram_energy[slot] = node["dram_energy"]
    for wid in range(w):
        core = cores[wid]
        g.core_mode[slot, wid] = _MODE_CODE[core["mode"]]
        g.core_cf[slot, wid] = core["compute_frac"]
        g.core_br[slot, wid] = core["bytes_rate"]
    g.ctr_ins[slot] = counters["ins"][:w]
    g.ctr_cyc[slot] = counters["cyc"][:w]
    g.ctr_l3[slot] = counters["l3"][:w]
    if sample is None:
        g.ls_valid[slot] = False
    else:
        g.ls_valid[slot] = True
        g.ls_package[slot] = sample.package
        g.ls_cores[slot] = sample.cores
        g.ls_uncore[slot] = sample.uncore
        g.ls_dram[slot] = sample.dram

    g.fw_limit[slot] = fw["limit"]
    g.fw_limit2[slot] = fw["limit2"]
    g.fw_enabled[slot] = fw["enabled"]
    g.fw_ddcm[slot] = fw["ddcm_engaged"]
    g.fw_window[slot] = fw["window"]
    avgw = fw["avg_windowed"]
    g.fw_avgw[slot] = math.nan if avgw is None else avgw
    g.fw_last_energy[slot] = fw["last_energy"]
    g.fw_last_time[slot] = fw["last_time"]

    g.bus_rng[slot] = _generator_from(bus["rng"])
    g.bus_published[slot] = bus["published"]
    g.bus_dropped[slot] = bus["dropped"]
    g.bus_overflowed[slot] = sub["overflowed"]
    g.pending[slot] = deque(bus_queue)

    g.mon_series[slot].restore(mon["series"])
    g.mon_events[slot] = mon["events_seen"]
    g.cap_series[slot].restore(ctl["cap_series"])
    g.pol_budget[slot] = check_budget(ctl["budget"], CheckpointError)
    g.pol_applied[slot] = ("unset", None) if kind == "unset" \
        else ("set", ctl["applied"][1])

    g.t_rapl[slot] = timers[0]["time"]
    g.t_mon[slot] = timers[1]["time"]
    g.t_pol[slot] = timers[2]["time"]

    g.started[slot] = not pre_start
    if pre_start:
        g.p_idx[slot] = 0
        g.it[slot] = 0
    else:
        g.p_idx[slot] = p_idx
        g.it[slot] = it
    g.queued_pub[slot] = queued_pub
    g.shared_rng[slot] = None if shared_state is None \
        else _generator_from(shared_state)
    g.rngs[slot] = [_generator_from(t["body"]["state"]["rng"])
                    for t in tasks]
    g.barrier_pos[slot] = -1
    for pos, wid in arrivals:
        g.barrier_pos[slot, wid] = pos
