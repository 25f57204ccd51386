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

Determinism: per-run seeds must not depend on pool size or completion
order. :func:`derive_seed` derives a stable, collision-resistant seed
stream via ``np.random.default_rng([base_seed, run_index])`` — the same
(seed, index) pair always yields the same run seed, on any worker, in
any pool.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.exceptions import ConfigurationError, SimulationError

__all__ = ["RunExecutor", "derive_seed", "default_workers", "CACHE_ENV",
           "cache_stats", "reset_cache_stats"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable that opts :class:`RunExecutor` into result
#: caching when no explicit ``cache_dir`` is passed; its value is the
#: cache directory. ``python -m repro.experiments --no-cache`` clears it.
CACHE_ENV = "REPRO_RESULT_CACHE"

#: Bump when the cached payload layout changes; part of every digest, so
#: old entries simply stop matching instead of deserializing wrongly.
_CACHE_SCHEMA = 1

#: Marker distinguishing "not cached" from a legitimately-None result.
_MISS = object()

#: Process-wide result-cache tallies, accumulated by every
#: :class:`RunExecutor` regardless of whether tracing is enabled — the
#: figure harnesses print the hit rate from here (an explicit ROADMAP
#: ask). Plain deterministic counters: they describe the run, nothing
#: reads them back into a simulation.
_CACHE_TALLY = {"hits": 0, "misses": 0}


def cache_stats() -> dict[str, float]:
    """Process-wide result-cache statistics since the last reset.

    Returns ``{"hits", "misses", "hit_rate"}``; ``hit_rate`` is 0.0
    when there was no cached-executor activity at all.
    """
    hits = _CACHE_TALLY["hits"]
    misses = _CACHE_TALLY["misses"]
    total = hits + misses
    return {"hits": hits, "misses": misses,
            "hit_rate": hits / total if total else 0.0}


def reset_cache_stats() -> None:
    """Zero the process-wide cache tallies (start of a CLI invocation)."""
    _CACHE_TALLY["hits"] = 0
    _CACHE_TALLY["misses"] = 0


def derive_seed(base_seed: int, run_index: int) -> int:
    """Deterministic per-run seed, stable across pool sizes and hosts.

    Seeds the NumPy bit generator with the ``[base_seed, run_index]``
    key (SeedSequence hashes the pair), so distinct indices give
    independent streams and the mapping never depends on how runs are
    batched onto workers.
    """
    if run_index < 0:
        raise ConfigurationError(
            f"run_index must be non-negative, got {run_index}")
    rng = np.random.default_rng([int(base_seed), int(run_index)])
    return int(rng.integers(0, 2**31 - 1))


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
        Directory for content-keyed on-disk result caching. ``None``
        (default) consults the :data:`CACHE_ENV` environment variable;
        when neither is set, caching is off. A cache entry is keyed by
        the SHA-256 of the pickled ``(schema, fn module+qualname, item)``
        triple — for the common sweep shape, the item *is* a
        :class:`~repro.stack.spec.StackSpec` (or a ``(spec, seed)``
        tuple), so identical re-runs of a deterministic simulation are
        served from disk. Corrupt or unreadable entries fall back to
        recomputation; unpicklable items/results bypass the cache.

    The executor is stateless between calls: each :meth:`map` opens and
    closes its own pool, so an instance can be shared freely across
    sweep stages.
    """

    def __init__(self, workers: int | None = 1, *,
                 cache_dir: str | os.PathLike | None = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        if cache_dir is None:
            # The cache is a pure memoization layer: hits return the
            # same bytes the computation would produce, so the env
            # opt-in cannot change simulation results.
            cache_dir = os.environ.get(CACHE_ENV) or None  # repro-lint: disable=det-environ
        self.workers = workers
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None \
            else None

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

        With a cache directory configured, cached results are returned
        without executing ``fn``; only the misses are dispatched (and
        stored on the way back). Exceptions are never cached.
        """
        work: Sequence[_T] = list(items)
        tracer = obs.tracer()
        if self.cache_dir is None:
            with tracer.span("executor.map",
                             fn=getattr(fn, "__qualname__", str(fn)),
                             items=len(work), workers=self.workers,
                             cached=False):
                return self._execute(fn, work)
        with tracer.span("executor.map",
                         fn=getattr(fn, "__qualname__", str(fn)),
                         items=len(work), workers=self.workers,
                         cached=True) as span:
            keys = [self._cache_key(fn, item) for item in work]
            results: list = [_MISS] * len(work)
            misses: list[int] = []
            for i, key in enumerate(keys):
                if key is not None:
                    results[i] = self._cache_load(key)
                if results[i] is _MISS:
                    misses.append(i)
                else:
                    tracer.instant("executor.cache_hit", index=i)
            hits = len(work) - len(misses)
            _CACHE_TALLY["hits"] += hits
            _CACHE_TALLY["misses"] += len(misses)
            metrics = obs.metrics()
            metrics.counter("executor.runs", outcome="cached").inc(hits)
            metrics.counter("executor.runs",
                            outcome="computed").inc(len(misses))
            span.set(cache_hits=hits, cache_misses=len(misses))
            if misses:
                for i in misses:
                    tracer.instant("executor.cache_miss", index=i)
                computed = self._execute(fn, [work[i] for i in misses])
                for i, value in zip(misses, computed):
                    results[i] = value
                    if keys[i] is not None:
                        self._cache_store(keys[i], value)
            return results

    def _execute(self, fn: Callable[[_T], _R],
                 work: Sequence[_T]) -> list[_R]:
        tracer = obs.tracer()
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
        # fork is cheap and inherits the imported simulator; elsewhere
        # use the platform default
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        n = min(self.workers, len(work))
        try:
            with ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool, \
                    tracer.span("executor.pool", items=len(work), workers=n):
                return list(pool.map(fn, work))
        except BrokenProcessPool as exc:
            raise SimulationError(
                f"a RunExecutor worker process died while mapping "
                f"{getattr(fn, '__name__', fn)!r} over {len(work)} runs "
                f"({n} workers, start method {ctx.get_start_method()!r}); "
                "the usual causes are the OOM killer or a native crash "
                "in a dependency"
            ) from exc

    # -- result cache ------------------------------------------------------

    @staticmethod
    def _cache_key(fn: Callable, item) -> str | None:
        """Content digest of one run, or None when the item cannot be
        keyed (unpicklable) and must bypass the cache."""
        try:
            payload = pickle.dumps(
                (_CACHE_SCHEMA, fn.__module__, fn.__qualname__, item),
                protocol=4)
        except Exception:
            return None
        return hashlib.sha256(payload).hexdigest()

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _cache_load(self, key: str):
        try:
            with open(self._cache_path(key), "rb") as f:
                return pickle.load(f)
        except FileNotFoundError:
            return _MISS
        except Exception:
            # corrupt/truncated entry: recompute (and overwrite)
            return _MISS

    def _cache_store(self, key: str, value) -> None:
        """Best-effort atomic store: a failed write (unpicklable result,
        full disk, racing process) must never fail the run itself."""
        path = self._cache_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "wb") as f:
                pickle.dump(value, f, protocol=4)
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunExecutor(workers={self.workers}, "
                f"cache_dir={self.cache_dir!r})")
