"""Fan independent simulation runs out over a process pool.

Every hot loop in the repo — the 5×-per-cap repeats of the Fig. 4
delta-progress protocol, cap-grid sweeps, multi-trace figures — is a
sequence of *independent* single-node runs. Live stacks hold Python
generators and cannot cross a process boundary, but their inputs can:
a run is fully described by plain data (a node config, an application
name and kwargs, a schedule, a seed — see
:class:`~repro.stack.spec.StackSpec`), so a worker process rebuilds the
stack from scratch and ships only the measured numbers back.

:class:`RunExecutor` is the one dispatch point: ``workers=1`` executes
the very same worker callable serially in-process, so parallel and
serial results are numerically identical by construction, and callers
never branch on the execution mode.

Determinism: every run carries its own seed in its item (plain
arithmetic such as ``seed + 101 * rep``), so no result depends on pool
size or completion order.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from repro import obs
from repro.exceptions import ConfigurationError, SimulationError

__all__ = ["RunExecutor", "default_workers", "cache_stats"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def cache_stats() -> dict[str, float]:
    """Result-cache statistics: always zero, since the cache was
    removed. Kept only while the benchmark harness still reads it."""
    return {"hits": 0, "misses": 0, "hit_rate": 0.0}


def default_workers() -> int:
    """A sensible worker count: the CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class RunExecutor:
    """Order-preserving map over independent runs, serial or pooled.

    Parameters
    ----------
    workers:
        Process count. ``1`` (the default) runs serially in-process —
        the fallback path and the reference for numerical identity.
        ``None`` selects :func:`default_workers`.
    cache_dir:
        Only ``None`` is accepted: the on-disk result cache was removed,
        and any other value raises
        :class:`~repro.exceptions.ConfigurationError`.

    The executor is stateless between calls: each :meth:`map` opens and
    closes its own pool, so an instance can be shared freely across
    sweep stages.
    """

    def __init__(self, workers: int | None = 1, *,
                 cache_dir: None = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        if cache_dir is not None:
            raise ConfigurationError("the result cache was removed")
        self.workers = workers

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[_T], _R],
            items: Iterable[_T]) -> list[_R]:
        """``[fn(item) for item in items]``, possibly across processes.

        ``fn`` must be a module-level callable and every item picklable
        when ``workers > 1`` (the serial path has no such constraint).
        Results come back in submission order. A worker process dying
        (OOM kill, segfault, interpreter abort) raises
        :class:`~repro.exceptions.SimulationError`; ordinary exceptions
        raised *by* ``fn`` propagate unchanged, exactly as in the
        serial path.
        """
        work: Sequence[_T] = list(items)
        tracer = obs.tracer()
        with tracer.span("executor.map",
                         fn=getattr(fn, "__qualname__", str(fn)),
                         items=len(work), workers=self.workers):
            if self.workers == 1 or len(work) <= 1:
                if not tracer.enabled:
                    return [fn(item) for item in work]
                # Serial fan-out: per-run spans, with the time each run
                # spent queued behind its predecessors as an attribute.
                start = tracer.now_ns()
                out = []
                for i, item in enumerate(work):
                    wait_ns = tracer.now_ns() - start
                    with tracer.span("executor.run", index=i,
                                     queue_wait_ms=wait_ns / 1e6):
                        out.append(fn(item))
                return out
            return self._pool_map(fn, work)

    def _pool_map(self, fn: Callable[[_T], _R],
                  work: Sequence[_T]) -> list[_R]:
        # fork is cheap and inherits the imported simulator; elsewhere
        # use the platform default
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        n = min(self.workers, len(work))
        try:
            with ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool, \
                    obs.tracer().span("executor.pool", items=len(work),
                                      workers=n):
                return list(pool.map(fn, work))
        except BrokenProcessPool as exc:
            raise SimulationError(
                f"a RunExecutor worker process died while mapping "
                f"{getattr(fn, '__name__', fn)!r} over {len(work)} runs "
                f"({n} workers, start method {ctx.get_start_method()!r}); "
                "the usual causes are the OOM killer or a native crash "
                "in a dependency"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunExecutor(workers={self.workers})"
