"""Sharded epoch-lockstep execution over long-lived worker processes.

The lockstep invariant is that nodes interact *only* through
epoch-granular budget decisions, so a multi-node run is exact when
every node's independent engine advances one epoch at a time and
budgets are re-allocated between epochs. That makes the per-epoch
data flow tiny and explicit — budgets go down, trailing progress rates
and epoch energy come back up — while the heavy state (every node's
engine, firmware, bus, monitors) never moves. This module exploits
exactly that shape:

* :class:`ShardedLockstep` partitions nodes round-robin over ``shards``
  long-lived worker processes. Each worker *rebuilds* its shard's
  :class:`~repro.cluster.node_instance.NodeInstance`\\ s from picklable
  :class:`~repro.stack.spec.StackSpec`\\ s (or mid-run checkpoints, see
  :meth:`NodeInstance.snapshot`) and keeps them alive across epochs.
* Per epoch the parent turns one :class:`StepRequest` per node into a
  compact ``step2`` payload and gets bare float tuples back, which it
  expands into one :class:`StepResult` per node — a handful of floats
  either way. Requests are grouped by ``(target, windows)`` so those
  ride once per group instead of once per node, and budgets are
  shipped only when they differ from what the parent last sent that
  node (the cap controller re-applying an unchanged budget is a
  no-op, so skipping the send is exact).
* With ``shards=1`` no process is spawned: the lockstep's one shard,
  shard 0, is a node host in the parent, and every command goes through
  the same :func:`_serve` command table a worker runs — only without a
  pipe or pickling. The ``step2`` grouping, the budget de-duplication
  and the reply codec therefore run at every shard count, so serial and
  sharded results are identical *by construction*; the golden parity
  tests in ``tests/cluster`` and ``tests/scheduler`` pin this
  bit-for-bit.

Budget timing is preserved exactly: the cap controller applies
budgets on its next tick, so delivering a budget in the worker
immediately before the epoch's ``advance`` is indistinguishable from the
serial code delivering it between epochs.

``engine`` selects the node host each shard (and the serial path)
runs: ``"object"`` keeps one live stack per node (the reference
engine), ``"vector"`` batches eligible nodes into
:class:`~repro.vector.host.VectorEngine` structure-of-arrays groups
that advance in one numpy step per epoch. Both hosts expose the same
build/step/rate/telemetry/checkpoint surface and produce bit-identical
results (pinned by ``tests/vector``), so callers only pick a speed.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Sequence

from repro import obs
from repro.cluster.node_instance import NodeInstance
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ShardWorkerError,
    SimulationError,
)
from repro.obs import hostclock
from repro.stack.spec import StackSpec
from repro.telemetry.timeseries import TimeSeries

__all__ = [
    "StepRequest",
    "StepResult",
    "NodeTelemetry",
    "step_node",
    "step_result",
    "ShardedLockstep",
]


# ----------------------------------------------------------------------
# Wire types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StepRequest:
    """One node's marching orders for one epoch.

    Attributes
    ----------
    node_id:
        The node to advance.
    target:
        Absolute local time to advance the node's engine to.
    budget, set_budget:
        When ``set_budget`` is true, deliver ``budget`` (watts, or None
        for uncapped) to the node's cap controller before advancing.
        The flag distinguishes "no budget update this epoch" from
        "update to uncapped".
    windows:
        Trailing-rate windows (seconds) to evaluate *after* the advance;
        the results come back keyed by these exact floats.
    """

    node_id: int
    target: float
    budget: float | None = None
    set_budget: bool = False
    windows: tuple[float, ...] = ()


@dataclass(frozen=True)
class StepResult:
    """What one node reports back after an epoch step."""

    node_id: int
    now: float            #: node-local clock after the advance
    energy: float         #: package joules since the previous epoch mark
    cumulative: float     #: total progress units published so far
    rates: dict[float, float] = field(default_factory=dict)


@dataclass(frozen=True)
class NodeTelemetry:
    """Full telemetry pulled from a node (used at job completion)."""

    node_id: int
    now: float
    progress: TimeSeries       #: copy of the main monitor's rate series
    interval: float            #: the monitor's collection interval
    pkg_energy: float          #: lifetime package energy (J)
    frequency: float           #: current package frequency (Hz)


# ----------------------------------------------------------------------
# The shard-step function (shared by serial and worker paths)
# ----------------------------------------------------------------------


def step_node(node: NodeInstance, req: StepRequest) -> StepResult:
    """Advance one node by one epoch and report back.

    This is THE epoch step — the serial path and every shard worker run
    this same function, which is what makes sharded results identical to
    serial ones by construction.
    """
    if req.set_budget:
        node.receive_budget(req.budget)
    node.advance(req.target)
    return step_result(node, req)


def step_result(node: NodeInstance, req: StepRequest) -> StepResult:
    """What ``node`` reports for ``req`` once it has advanced: the
    tail of :func:`step_node`, which the vector host calls after its
    batched group advance."""
    rates = {w: node.recent_rate(w) for w in req.windows}
    return StepResult(
        node_id=node.node_id,
        now=node.now,
        energy=node.epoch_energy(),
        cumulative=node.cumulative_progress(),
        rates=rates,
    )


def _node_telemetry(node: NodeInstance) -> NodeTelemetry:
    return NodeTelemetry(
        node_id=node.node_id,
        now=node.now,
        progress=node.monitor.series.copy(),
        interval=node.monitor.interval,
        pkg_energy=node.node.pkg_energy,
        frequency=node.node.frequency,
    )


def _build_node(node_id: int, item) -> NodeInstance:
    if isinstance(item, StackSpec):
        return NodeInstance(node_id, item)
    return NodeInstance.from_checkpoint(item)


# ----------------------------------------------------------------------
# Node hosts (the engine seam)
# ----------------------------------------------------------------------


_ENGINES = ("object", "vector")


class _ObjectHost:
    """The reference node host: one live NodeInstance per node.

    This is exactly the per-node behaviour the lockstep always had,
    packaged as a host so the serial path and the shard workers select
    an engine instead of hard-coding one. :class:`repro.vector.host
    .VectorEngine` extends it: the same node table, holding vector slot
    views next to object nodes, with its own ``_adopt`` and ``step``.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, NodeInstance] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def _admit(self, items: Sequence[tuple[int, object]]
               ) -> list[tuple[int, object]]:
        """The entry check of every host's :meth:`build`: refuse an id
        that is taken or listed twice, and a checkpoint added under an
        id other than its own, before any of the batch is built."""
        items = list(items)
        taken = set(self._nodes)
        for node_id, item in items:
            if node_id in taken:
                raise ConfigurationError(f"node {node_id} already exists")
            taken.add(node_id)
            if isinstance(item, dict) and item.get("node_id") != node_id:
                raise CheckpointError(
                    f"checkpoint of node {item.get('node_id')!r} "
                    f"added as node {node_id}")
        return items

    def build(self, items: Sequence[tuple[int, object]]) -> None:
        """Adopt ``(node_id, StackSpec | checkpoint)`` pairs, all or
        nothing: a batch that fails partway leaves the host as it was."""
        items = self._admit(items)
        try:
            self._adopt(items)
        except BaseException:
            # _admit refused every id already held, so each batch id
            # found here now was built by this call
            self.remove([node_id for node_id, _ in items
                         if node_id in self._nodes])
            raise

    def _adopt(self, items: list[tuple[int, object]]) -> None:
        for node_id, item in items:
            self._nodes[node_id] = _build_node(node_id, item)

    def node(self, node_id: int) -> NodeInstance:
        return self._nodes[node_id]

    def remove(self, node_ids: Sequence[int]) -> None:
        for node_id in node_ids:
            del self._nodes[node_id]

    def step(self, requests: Sequence[StepRequest]) -> list[StepResult]:
        return [step_node(self._nodes[req.node_id], req)
                for req in requests]

    def rate(self, node_id: int, window: float) -> float:
        return self._nodes[node_id].recent_rate(window)

    def telemetry(self, node_id: int) -> NodeTelemetry:
        return _node_telemetry(self._nodes[node_id])

    def checkpoint(self, node_id: int) -> dict:
        return self._nodes[node_id].snapshot()


def _make_host(engine: str):
    """Build the node host for ``engine``, one of :data:`_ENGINES`
    (checked by :class:`ShardedLockstep`; the lazy import keeps the
    vector stack out of object-only processes)."""
    if engine == "vector":
        from repro.vector.host import VectorEngine

        return VectorEngine()
    return _ObjectHost()


# ----------------------------------------------------------------------
# The step wire
# ----------------------------------------------------------------------


def _decode_step_groups(groups) -> list[StepRequest]:
    """Expand a ``step2`` payload back into StepRequests.

    Each group is ``(target, windows, entries)``; an entry is a bare
    ``node_id`` (no budget change) or ``(node_id, budget)`` (deliver it).
    """
    requests: list[StepRequest] = []
    for target, windows, entries in groups:
        for entry in entries:
            if isinstance(entry, tuple):
                node_id, budget = entry
                requests.append(StepRequest(
                    node_id=node_id, target=target, budget=budget,
                    set_budget=True, windows=windows))
            else:
                requests.append(StepRequest(
                    node_id=entry, target=target, windows=windows))
    return requests


def _encode_step_replies(requests: Sequence[StepRequest],
                         results: Sequence[StepResult]) -> list[tuple]:
    """Strip StepResults to bare tuples, rates in window order."""
    return [(res.now, res.energy, res.cumulative,
             tuple(res.rates[w] for w in req.windows))
            for req, res in zip(requests, results)]


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _serve(host, cmd: str, payload) -> Any:
    """The shard command table: run one command on ``host`` and return
    its reply. Every shard serves through it — a worker process on what
    arrives over its pipe, shard 0 of a ``shards=1`` lockstep in-process."""
    if cmd == "build":
        host.build(payload)
        return None
    if cmd == "step2":
        requests = _decode_step_groups(payload)
        return _encode_step_replies(requests, host.step(requests))
    if cmd == "rates":
        return [host.rate(node_id, window) for node_id, window in payload]
    if cmd == "telemetry":
        return [host.telemetry(node_id) for node_id in payload]
    if cmd == "checkpoint":
        return [host.checkpoint(node_id) for node_id in payload]
    if cmd == "remove":
        host.remove(payload)
        return None
    raise SimulationError(f"unknown command {cmd!r}")


def _worker_main(conn, engine: str = "object") -> None:
    """Shard worker loop: own a node host, serve commands.

    Protocol: ``(command, payload)`` tuples over the pipe; every command
    gets exactly one ``("ok", result)`` or ``("error", traceback)``
    reply. ``close`` answers and ends the loop; everything else is
    :func:`_serve`'s.
    """
    host = _make_host(engine)
    while True:
        try:
            cmd, payload = conn.recv()
        except EOFError:  # parent died; nothing sane left to do
            return
        if cmd == "close":
            conn.send(("ok", None))
            return
        try:
            conn.send(("ok", _serve(host, cmd, payload)))
        except Exception:
            conn.send(("error", traceback.format_exc()))


def _worker_process(conn, engine: str, inherited) -> None:
    """Process entry of a shard worker: close the parent-side pipe ends
    the fork copied (this worker's own and every earlier worker's), then
    serve. With one of them left open the worker would hold its own
    pipe's write end, so ``conn.recv()`` could never raise ``EOFError``
    and the worker would outlive a killed parent."""
    for end in inherited:
        end.close()
    _worker_main(conn, engine)


# ----------------------------------------------------------------------
# Parent-side coordinator
# ----------------------------------------------------------------------


class ShardedLockstep:
    """Drive a set of lockstep nodes, optionally sharded over processes.

    Parameters
    ----------
    shards:
        1 = serial execution: shard 0 is a node host in this process
        (no subprocess at all); N >= 2 = N long-lived worker processes.
        A node's shard is a pure function of insertion order (round-
        robin, fixed for the node's life), and every shard count runs
        the same command table (:func:`_serve`).
    engine:
        Node host every shard (and the serial path) runs: ``"object"``
        (default) keeps one live stack per node, ``"vector"`` batches
        eligible nodes into numpy structure-of-arrays groups (see
        :mod:`repro.vector`). Results are bit-identical either way;
        ineligible nodes silently fall back to object stacks inside the
        vector host.
    """

    def __init__(self, shards: int = 1, *, engine: str = "object") -> None:
        # Assigned before any validation so close() — and therefore
        # __del__ — is safe on a partially constructed instance.
        self._closed = False
        self._workers: list = []
        self._pipes: list = []
        self._shard_of: dict[int, int] = {}
        self._budget_sent: dict[int, float | None] = {}
        self._next_shard = 0
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"engine must be one of {_ENGINES}, got {engine!r}")
        self.shards = shards
        self.engine = engine
        #: Per-shard wall seconds of the most recent sharded epoch step
        #: (send-complete to reply-arrival, host clock). Describe-only:
        #: it feeds the obs imbalance metrics, never a simulated
        #: quantity or a placement.
        self.shard_times: dict[int, float] = {}
        self._host = _make_host(engine) if shards == 1 else None
        if shards > 1:
            # fork is cheap, and the workers rebuild their nodes from
            # specs anyway; elsewhere use the platform default
            ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else None)
            try:
                for _ in range(shards):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_process,
                        args=(child_conn, engine, [*self._pipes, parent_conn]),
                        daemon=True)
                    proc.start()
                    child_conn.close()
                    self._workers.append(proc)
                    self._pipes.append(parent_conn)
            except BaseException:  # pragma: no cover - spawn failure
                self.close()
                raise

    # -- membership --------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._shard_of)

    def add_nodes(self, items: Sequence[tuple[int, object]]) -> None:
        """Build nodes from ``(node_id, StackSpec | checkpoint)`` pairs.

        Specs are rebuilt fresh; checkpoint dicts (from
        :meth:`NodeInstance.snapshot`) restore a node mid-run. Nodes are
        assigned to shards round-robin in insertion order.

        A batch is all or nothing: when any shard refuses its share,
        the shards that built theirs remove it again and the error is
        raised with the lockstep as it was — no id registered, the
        round-robin cursor unmoved.
        """
        per_shard: dict[int, list] = {}
        placed: dict[int, int] = {}
        cursor = self._next_shard
        for node_id, item in items:
            if node_id in self._shard_of or node_id in placed:
                raise ConfigurationError(f"node {node_id} already exists")
            placed[node_id] = shard = cursor % self.shards
            cursor += 1
            per_shard.setdefault(shard, []).append((node_id, item))
        if not per_shard:
            return
        # one batched build per shard, so a vector host can group its
        # whole share of the placement into shared arrays
        replies, failures = self._exchange("build", per_shard)
        if failures:
            built = {shard: [node_id for node_id, _ in per_shard[shard]]
                     for shard in replies}
            if built:
                # a shard that cannot take its share back is broken and
                # fails its next command on its own; the build's error
                # is the one to report
                self._exchange("remove", built)
            raise failures[min(failures)]
        self._shard_of.update(placed)
        self._next_shard = cursor

    def remove_nodes(self, node_ids: Sequence[int]) -> None:
        """Drop finished nodes (frees worker memory)."""
        per_shard: dict[int, list] = {}
        for node_id in node_ids:
            shard = self._shard_of.pop(node_id)
            self._budget_sent.pop(node_id, None)
            per_shard.setdefault(shard, []).append(node_id)
        if per_shard:
            self._dispatch("remove", per_shard)

    def local_nodes(self) -> dict[int, Any]:
        """The live nodes — serial mode only (with workers the nodes
        live in other processes and cannot be touched directly). Values
        are NodeInstances under the object engine and NodeInstance-shaped
        :class:`~repro.vector.host.VectorNodeView`\\ s (or fallbacks)
        under the vector engine."""
        if self.shards > 1:
            raise ConfigurationError(
                "live nodes are only addressable with shards=1; use "
                "step()/rates()/telemetry() in sharded mode")
        return {node_id: self._host.node(node_id)
                for node_id in self._shard_of}

    # -- the per-epoch exchange --------------------------------------------

    def step(self, requests: Sequence[StepRequest]) -> list[StepResult]:
        """Advance every requested node one epoch; results come back in
        request order. With workers, all shards advance concurrently —
        this is the parallel section."""
        per_shard: dict[int, list[StepRequest]] = {}
        for req in requests:
            per_shard.setdefault(self._shard_of[req.node_id], []).append(req)
        payloads: dict[int, list] = {}
        grouped: dict[int, list[StepRequest]] = {}
        for shard, reqs in per_shard.items():
            payloads[shard], grouped[shard] = self._step2_payload(reqs)
        try:
            replies = self._dispatch("step2", payloads)
        except BaseException:
            # a refused budget must go out again when re-sent; dropping
            # a node's entry only costs one re-send of an unchanged one
            for req in requests:
                self._budget_sent.pop(req.node_id, None)
            raise
        by_node: dict[int, StepResult] = {}
        for shard, rows in replies.items():
            for req, row in zip(grouped[shard], rows):
                now, energy, cumulative, rate_values = row
                by_node[req.node_id] = StepResult(
                    node_id=req.node_id, now=now, energy=energy,
                    cumulative=cumulative,
                    rates=dict(zip(req.windows, rate_values)))
        return [by_node[req.node_id] for req in requests]

    def _step2_payload(
        self, reqs: Sequence[StepRequest],
    ) -> tuple[list, list[StepRequest]]:
        """One shard's ``step2`` payload plus the requests in the order
        the worker will answer them (groups in first-seen order, entries
        in request order within each group).

        A budget entry is shipped only when it differs from the last one
        this parent delivered to that node — the cap controller stores
        the budget and applies it on its next tick, so re-sending an
        unchanged value is a provable no-op.
        """
        groups: list[tuple[float, tuple[float, ...], list]] = []
        members: list[list[StepRequest]] = []
        index: dict[tuple, int] = {}
        unset = object()
        for req in reqs:
            key = (req.target, req.windows)
            k = index.get(key)
            if k is None:
                k = index[key] = len(groups)
                groups.append((req.target, req.windows, []))
                members.append([])
            entries = groups[k][2]
            if req.set_budget:
                sent = self._budget_sent.get(req.node_id, unset)
                if sent is unset or sent != req.budget:
                    entries.append((req.node_id, req.budget))
                    self._budget_sent[req.node_id] = req.budget
                else:
                    entries.append(req.node_id)
            else:
                entries.append(req.node_id)
            members[k].append(req)
        ordered = [req for group in members for req in group]
        return groups, ordered

    def rates(self, pairs: Sequence[tuple[int, float]]) -> list[float]:
        """Trailing rates for ``(node_id, window)`` pairs, in order."""
        return self._gather("rates", pairs, key=lambda pair: pair[0])

    def telemetry(self, node_ids: Sequence[int]) -> dict[int, NodeTelemetry]:
        """Full telemetry for the given nodes (series copies included)."""
        node_ids = list(node_ids)
        return dict(zip(node_ids, self._gather("telemetry", node_ids)))

    def checkpoint(self, node_ids: Sequence[int]) -> dict[int, dict]:
        """Mid-run checkpoints (see :meth:`NodeInstance.snapshot`) for
        the given nodes — e.g. to resume them on another shard layout."""
        node_ids = list(node_ids)
        return dict(zip(node_ids, self._gather("checkpoint", node_ids)))

    def _gather(self, cmd: str, items: Sequence, key=None) -> list:
        """Scatter ``items`` to the shards of their nodes (``key(item)``,
        or the item itself, is the node id), run ``cmd`` once per
        shard, and return the per-item replies in ``items`` order."""
        per_shard: dict[int, list] = {}
        order: dict[int, list[int]] = {}
        for i, item in enumerate(items):
            shard = self._shard_of[item if key is None else key(item)]
            per_shard.setdefault(shard, []).append(item)
            order.setdefault(shard, []).append(i)
        out: list = [None] * len(items)
        for shard, values in self._dispatch(cmd, per_shard).items():
            for i, value in zip(order[shard], values):
                out[i] = value
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down. Idempotent, and safe against
        partially-started or already-dead workers — every pipe
        operation tolerates a broken peer."""
        if self._closed:
            return
        self._closed = True
        for pipe in self._pipes:
            try:
                pipe.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
        for pipe in self._pipes:
            try:
                pipe.recv()
            except (EOFError, OSError):
                pass
            try:
                pipe.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._workers = []
        self._pipes = []

    def __enter__(self) -> "ShardedLockstep":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- internals ---------------------------------------------------------

    def _worker_error(self, shard: int, cmd: str,
                      cause: BaseException) -> ShardWorkerError:
        """The typed error for a shard whose pipe broke during ``cmd``,
        with the worker's exit code when it has one (reaped first)."""
        exitcode = None
        if shard < len(self._workers):
            proc = self._workers[shard]
            proc.join(timeout=1.0)
            exitcode = proc.exitcode
        error = ShardWorkerError(shard, cmd, exitcode)
        error.__cause__ = cause
        return error

    def _dispatch(self, cmd: str, per_shard: dict[int, list]) -> dict[int, Any]:
        """Run ``cmd`` on every involved shard and return the replies;
        when any shard failed, raise the error of the lowest-numbered
        one instead (see :meth:`_exchange`)."""
        replies, failures = self._exchange(cmd, per_shard)
        if failures:
            raise failures[min(failures)]
        return replies

    def _exchange(self, cmd: str, per_shard: dict[int, list],
                  ) -> tuple[dict[int, Any], dict[int, Exception]]:
        """Run ``cmd`` on every involved shard: the replies of the
        shards that answered, and the error of each shard that failed.

        This is the one place that tells the in-process shard 0 of a
        ``shards=1`` lockstep from worker pipes. Shard 0 is served by
        :func:`_serve` directly: nothing crosses a process, so nothing
        is pickled, timed or traced, and a host error keeps its own
        type. Over pipes, sends complete before any receive, so all
        shards compute concurrently; a send that fails ends the scatter
        (later shards are not sent the command). Every shard that was
        sent the command is then heard out — its reply, or its EOF —
        as replies arrive (via :func:`multiprocessing.connection.wait`),
        so no answer is left in a pipe for the next command to read.
        A dead worker is a typed :class:`ShardWorkerError`; a
        worker-side exception ships back as a formatted traceback and
        becomes a :class:`SimulationError`. When every shard answered,
        each shard's send-to-reply wall time of a ``step2`` lands in
        :attr:`shard_times`, and while :mod:`repro.obs` tracing is
        enabled each direction's pickled size feeds the
        ``shard.pickle_bytes`` counter, one ``shard.payload`` instant
        per shard and the span's attributes — observation only, the
        bytes on the pipe are untouched.
        """
        if self._closed:
            raise SimulationError("ShardedLockstep is closed")
        replies: dict[int, Any] = {}
        failures: dict[int, Exception] = {}
        if self._host is not None:
            for shard, payload in per_shard.items():
                try:
                    replies[shard] = _serve(self._host, cmd, payload)
                except Exception as exc:
                    failures[shard] = exc
            return replies, failures
        tracer = obs.tracer()
        sizes_down: dict[int, int] = {}
        with tracer.span("shard.dispatch", cmd=cmd,
                         shards=len(per_shard)) as span:
            pending: dict[Any, int] = {}  # pipe → shard, for sent shards
            for shard, payload in per_shard.items():
                try:
                    if tracer.enabled:
                        sizes_down[shard] = len(pickle.dumps((cmd, payload)))
                    self._pipes[shard].send((cmd, payload))
                except OSError as exc:  # BrokenPipeError included
                    failures[shard] = self._worker_error(shard, cmd, exc)
                    break
                except Exception as exc:  # e.g. an unpicklable payload
                    failures[shard] = exc
                    break
                pending[self._pipes[shard]] = shard
            start = hostclock.perf_s()
            arrivals: dict[int, float] = {}
            while pending:
                for conn in _conn_wait(list(pending)):
                    shard = pending.pop(conn)
                    try:
                        status, value = conn.recv()
                    except (EOFError, OSError) as exc:
                        failures[shard] = self._worker_error(shard, cmd, exc)
                        continue
                    arrivals[shard] = hostclock.perf_s() - start
                    if status == "ok":
                        replies[shard] = value
                    else:
                        failures[shard] = SimulationError(
                            f"shard {shard} failed on {cmd!r}:\n{value}")
            if failures:
                return replies, failures
            if cmd == "step2":
                self._record_step_times(arrivals)
            if tracer.enabled:
                total_down = total_up = 0
                for shard in per_shard:
                    up = len(pickle.dumps(("ok", replies[shard])))
                    down = sizes_down[shard]
                    total_down += down
                    total_up += up
                    tracer.instant("shard.payload", cmd=cmd, shard=shard,
                                   bytes_down=down, bytes_up=up)
                span.set(bytes_down=total_down, bytes_up=total_up)
                registry = obs.metrics()
                registry.counter("shard.pickle_bytes",
                                 direction="down").inc(total_down)
                registry.counter("shard.pickle_bytes",
                                 direction="up").inc(total_up)
        return replies, failures

    def _record_step_times(self, arrivals: dict[int, float]) -> None:
        """Publish one epoch step's per-shard wall times (describe-only:
        the obs epoch-wall histogram and imbalance gauge)."""
        self.shard_times = dict(sorted(arrivals.items()))
        registry = obs.metrics()
        for shard, seconds in self.shard_times.items():
            registry.histogram("shard.epoch_wall_s",
                               shard=shard).observe(seconds)
        if len(self.shard_times) >= 2:
            slowest = max(self.shard_times.values())
            fastest = min(self.shard_times.values())
            registry.gauge("shard.imbalance").set(
                slowest / fastest if fastest > 0 else float("inf"))
