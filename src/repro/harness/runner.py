"""Sweep engine: fan experiments out over a warm process pool.

Every figure in the evaluation is a sweep of independent, seeded
:class:`~repro.harness.experiment.Experiment` runs, so the natural unit
of parallelism is one experiment per worker process.  Workers return
:class:`~repro.harness.experiment.ExperimentSummary` objects — the slim,
picklable slice of a run — never the live server, which keeps the
transfer cheap and the parent's memory flat over long sweeps.

:func:`run_sweep` is the one engine: it splits cache hits from misses,
picks serial or warm-pool dispatch, and resolves every miss through one
attempt loop (retry, timeout, failure).  :func:`run_experiments` is the
strict form — no retries, and the first failure re-raises its original
exception.

The pool is *warm*: created once per session (first parallel call) and
reused by every subsequent sweep until :func:`shutdown_pool` (registered
via ``atexit``, wrapped by :func:`pool_session`).  Short sweeps no
longer pay pool spawn on every call, and tasks no longer carry pickled
experiments: each batch is broadcast once through a spool file tagged
with a generation counter, workers memoize the table per generation,
and the per-task payload is a ``(generation, index, attempt)`` tuple.
Fork hosts additionally inherit all read-only module state (configs,
policies) for free at pool creation.

Guarantees:

* **Determinism** — an experiment carries its own seeds; a worker process
  replays it identically to a serial run (the determinism regression test
  compares the two fingerprints byte for byte).
* **Ordered results** — summaries come back in the order the experiments
  were given, regardless of completion order.
* **Graceful fallback** — ``jobs <= 1``, a single experiment without a
  timeout to enforce, or a host where process pools cannot be created
  (sandboxes without ``fork`` / semaphores) all run in-process with
  identical results.
* **Containment** — a sweep timeout terminates and discards the session
  pool (a wedged worker cannot be reclaimed); the next parallel call
  transparently warms a fresh one.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import pickle
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..cache import resolve_cache
from .experiment import Experiment, ExperimentSummary, run_experiment


def default_jobs() -> int:
    """Worker count when the caller asks for "all cores" (``jobs=None``)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_experiment_summary(experiment: Experiment) -> ExperimentSummary:
    """Run one experiment and reduce it to a summary, releasing the server."""
    result = run_experiment(experiment)
    summary = result.summary()
    result.drop_server()
    return summary


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------

# Worker-side state.  ``_worker_init`` runs once per worker process and
# records where batches are spooled; ``_worker_table`` memoizes the most
# recently loaded batch so the spool file is read once per (worker,
# generation), not once per task.
_worker_spool: Optional[str] = None
_worker_generation: int = -1
_worker_table: List[Experiment] = []


def _worker_init(spool_path: str) -> None:
    global _worker_spool
    _worker_spool = spool_path


def _worker_experiment(generation: int, index: int) -> Experiment:
    global _worker_generation, _worker_table
    if generation != _worker_generation:
        assert _worker_spool is not None, "worker used before initialization"
        with open(_worker_spool, "rb") as fh:
            spooled_generation, table = pickle.load(fh)
        if spooled_generation != generation:
            # A new batch was broadcast while this stale task sat queued;
            # its result has no consumer, so failing loudly is safe.
            raise RuntimeError(
                f"stale pool task: generation {generation} requested but "
                f"generation {spooled_generation} is spooled"
            )
        _worker_generation, _worker_table = spooled_generation, table
    return _worker_table[index]


def _run_attempt(experiment: Experiment, attempt: int) -> ExperimentSummary:
    """One attempt at one experiment: apply harness faults, then run it."""
    _apply_harness_faults(experiment, attempt)
    return run_experiment_summary(experiment)


def _run_indexed_attempt(task: Tuple[int, int, int]) -> ExperimentSummary:
    """Pool entry point: ``(generation, index, attempt)``."""
    generation, index, attempt = task
    return _run_attempt(_worker_experiment(generation, index), attempt)


class WarmPool:
    """A reusable process pool fed through a generation-tagged spool file.

    ``broadcast`` pickles the batch *once* to the spool file; ``submit``
    then dispatches ``(generation, index, attempt)`` tuples.
    Workers reload the table only when the generation changes, so a
    thousand-experiment sweep pickles its experiments once rather than a
    thousand times, and repeat sweeps over the same pool pay no spawn.
    """

    def __init__(self, workers: int):
        self.workers = workers
        fd, spool_path = tempfile.mkstemp(prefix="repro-sweep-", suffix=".table")
        os.close(fd)
        self.spool_path = spool_path
        self.generation = 0
        self.batches_dispatched = 0
        try:
            self._pool = multiprocessing.get_context().Pool(
                workers, initializer=_worker_init, initargs=(spool_path,)
            )
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(spool_path)
            raise

    def broadcast(self, experiments: Sequence[Experiment]) -> int:
        """Publish a batch to the workers; returns its generation tag."""
        self.generation += 1
        staged = f"{self.spool_path}.{self.generation}"
        with open(staged, "wb") as fh:
            pickle.dump(
                (self.generation, list(experiments)),
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        # Atomic swap: a worker opening the spool sees either the old
        # complete table or the new complete table, never a torn write.
        os.replace(staged, self.spool_path)
        self.batches_dispatched += 1
        return self.generation

    def submit(self, generation: int, index: int, attempt: int):
        """Async dispatch of one sweep attempt; returns the pool handle."""
        return self._pool.apply_async(
            _run_indexed_attempt, ((generation, index, attempt),)
        )

    def close(self, terminate: bool = False) -> None:
        if terminate:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()
        with contextlib.suppress(OSError):
            os.unlink(self.spool_path)


_session_pool: Optional[WarmPool] = None

#: Introspection of the most recent dispatch decision (read by the bench
#: harness to record the dispatch mode alongside throughput numbers).
last_dispatch: Dict[str, Any] = {}


def _note_dispatch(mode: str, workers: int, batch: int) -> None:
    last_dispatch.clear()
    last_dispatch.update({"mode": mode, "workers": workers, "batch": batch})


def get_pool(jobs: Optional[int]) -> Optional[WarmPool]:
    """Return the warm session pool, creating or growing it as needed.

    Returns ``None`` when ``jobs <= 1`` or the host cannot create process
    pools — callers fall back to the serial path.  A pool wider than
    requested is reused as-is (idle workers are free); a narrower one is
    replaced so ``jobs`` is always an upper bound honored by capacity.
    """
    global _session_pool
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1:
        return None
    pool = _session_pool
    if pool is not None and pool.workers >= jobs:
        return pool
    if pool is not None:
        shutdown_pool()
    try:
        _session_pool = WarmPool(jobs)
    except (OSError, PermissionError, ValueError):
        # No semaphores / fork support (restricted sandbox): no pool.
        _session_pool = None
    return _session_pool


def shutdown_pool(terminate: bool = False) -> None:
    """Tear down the session pool (idempotent; re-warmed on next use)."""
    global _session_pool
    pool = _session_pool
    _session_pool = None
    if pool is not None:
        pool.close(terminate=terminate)


atexit.register(shutdown_pool)


@contextlib.contextmanager
def pool_session(jobs: Optional[int] = None) -> Iterator[Optional[WarmPool]]:
    """Scope a warm pool to a ``with`` block: pre-warm, run, tear down.

    The CLI and the validation harness wrap their sweeps in this so a
    multi-figure session shares one pool and still exits clean.
    """
    pool = get_pool(jobs)
    try:
        yield pool
    finally:
        shutdown_pool()


# ----------------------------------------------------------------------
# resilient sweeps
# ----------------------------------------------------------------------


class InjectedCrash(RuntimeError):
    """Raised by a worker whose experiment carries a ``harness.crash``
    fault — the deterministic stand-in for a worker that dies mid-sweep."""


def _apply_harness_faults(experiment: Experiment, attempt: int) -> None:
    """Execute the ``harness.*`` fault kinds for one worker attempt.

    ``harness.crash`` raises before the simulation starts; ``magnitude``
    is the number of attempts that crash (0 = every attempt, so the
    experiment can never succeed).  ``harness.hang`` sleeps ``magnitude``
    wall seconds, which is how the timeout path is tested without a real
    wedge.  ``probability`` gates each fault with a draw derived from
    ``(plan seed, spec index, attempt)`` so retries re-roll
    deterministically.
    """
    plan = experiment.server.fault_plan
    for i, spec in plan.specs_for("harness"):
        if spec.probability < 1.0:
            draw = random.Random((plan.rng_seed(i) << 7) ^ attempt).random()
            if draw >= spec.probability:
                continue
        if spec.kind == "harness.crash":
            crashing = int(spec.magnitude)
            if crashing == 0 or attempt <= crashing:
                raise InjectedCrash(
                    f"injected worker crash (attempt {attempt})"
                )
        elif spec.kind == "harness.hang":
            time.sleep(spec.magnitude)


@dataclass
class SweepRecord:
    """The fate of one experiment inside a resilient sweep."""

    name: str
    #: "ok", "retried" (succeeded after >= 1 crash), "cached" (served
    #: from the result cache, no simulation), "timeout", "failed".
    status: str
    attempts: int
    error: Optional[str] = None
    wall_seconds: float = 0.0
    #: The exception of a "failed" record, as raised; re-raised by
    #: :func:`run_experiments` (the manifest carries only ``error``).
    exception: Optional[BaseException] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "retried", "cached")


@dataclass
class SweepResult:
    """Partial-result report of one sweep: every experiment is accounted
    for, whether it produced a summary or not.

    ``summaries[i]`` is ``None`` exactly when ``records[i]`` reports a
    timeout or failure, so positional pairing with the input experiments
    is preserved even through losses.
    """

    summaries: List[Optional[ExperimentSummary]] = field(default_factory=list)
    records: List[SweepRecord] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over every record (absent statuses omitted)."""
        out: Dict[str, int] = {}
        for rec in self.records:
            out[rec.status] = out.get(rec.status, 0) + 1
        return out

    @property
    def num_failed(self) -> int:
        return sum(1 for rec in self.records if not rec.succeeded)

    @property
    def exit_code(self) -> int:
        """0 = all succeeded; 1 = partial failure; 2 = nothing succeeded."""
        if self.num_failed == 0:
            return 0
        if self.num_failed == len(self.records):
            return 2
        return 1

    def failure_manifest(self) -> Dict[str, Any]:
        """A JSON-able report of the sweep's losses (for CI artifacts)."""
        return {
            "total": len(self.records),
            "counts": self.counts(),
            "exit_code": self.exit_code,
            "failures": [
                {
                    "name": rec.name,
                    "status": rec.status,
                    "attempts": rec.attempts,
                    "error": rec.error,
                    "wall_seconds": round(rec.wall_seconds, 3),
                }
                for rec in self.records
                if not rec.succeeded
            ],
        }


class _InlineAttempt:
    """The serial stand-in for a pool handle: runs the attempt on ``get``.

    Serial execution cannot interrupt a wedged simulation the way the
    pool's ``get(timeout)`` can, so a timeout is detected after the fact:
    an attempt that *exceeded* its budget raises the same
    :class:`multiprocessing.TimeoutError`.
    """

    def __init__(self, experiment: Experiment, attempt: int) -> None:
        self.experiment = experiment
        self.attempt = attempt

    def get(self, timeout_s: Optional[float]) -> ExperimentSummary:
        start = time.perf_counter()
        summary = _run_attempt(self.experiment, self.attempt)
        if timeout_s is not None and time.perf_counter() - start > timeout_s:
            raise multiprocessing.TimeoutError
        return summary


def run_sweep(
    experiments: Iterable[Experiment],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    retry_backoff_s: float = 0.05,
    cache=None,
) -> SweepResult:
    """Run a sweep that survives crashed, hung, and failing experiments.

    Every experiment resolves to a :class:`SweepRecord`: crashes are
    retried up to ``retries`` extra attempts with linear backoff, a
    worker that exceeds ``timeout_s`` wall seconds is abandoned and
    reported as ``timeout``, and the rest of the sweep completes
    regardless.

    ``jobs=1`` (the default) runs in-process; ``jobs=None`` uses one
    worker per available core.  The warm session pool is used when
    ``jobs > 1`` and there is more than one experiment to run or a
    timeout to enforce; a host without process pools degrades to the
    serial path, where timeouts are detected after the fact rather than
    enforced.  Both paths produce identical summaries for seeded
    experiments.

    ``cache`` is consulted *before* dispatch: ``cache=None`` (default)
    uses the process-default cache if one is installed
    (:func:`repro.cache.set_default_cache`), ``cache=False`` disables
    caching for this call.  Hits skip simulation entirely and are
    reported with status ``"cached"`` (``attempts=0``); clean first-try
    results are stored.  A hit's fingerprint is byte-identical to a cold
    run's.  Experiments whose fault plan carries ``harness.*`` kinds are
    *uncacheable by design* — their crashes and hangs act on this
    runner, so they force-miss on every sweep and are never stored,
    keeping resilience paths live.

    A timeout poisons the pool — the wedged worker still occupies a
    slot — so the session pool is terminated and discarded; the next
    parallel call warms a fresh one.
    """
    batch = list(experiments)
    result = SweepResult(
        summaries=[None] * len(batch),
        records=[None] * len(batch),  # type: ignore[list-item] - all filled
    )
    resolved = resolve_cache(cache)
    misses: List[int] = []
    for index, exp in enumerate(batch):
        summary = resolved.get(exp) if resolved is not None else None
        if summary is None:
            misses.append(index)
            continue
        summary.status = "cached"
        summary.attempts = 0
        result.summaries[index] = summary
        result.records[index] = SweepRecord(name=exp.name, status="cached", attempts=0)
    if not misses:
        _note_dispatch("cached", 0, len(batch))
        return result

    if jobs is None:
        jobs = default_jobs()
    todo = [batch[index] for index in misses]
    pool = None
    if jobs > 1 and (len(todo) > 1 or timeout_s is not None):
        pool = get_pool(jobs)
    if pool is None:
        _note_dispatch("serial", 1, len(todo))

        def submit(slot: int, attempt: int):
            return _InlineAttempt(todo[slot], attempt)

    else:
        _note_dispatch("warm-pool", pool.workers, len(todo))
        generation = pool.broadcast(todo)

        def submit(slot: int, attempt: int):
            return pool.submit(generation, slot, attempt)

    timed_out = False
    handles = [submit(slot, 1) for slot in range(len(todo))]
    for slot, (index, exp, handle) in enumerate(zip(misses, todo, handles)):
        attempts = 1
        start = time.perf_counter()
        while True:
            try:
                summary = handle.get(timeout_s)
            except multiprocessing.TimeoutError:
                # A pooled worker is still wedged in its slot; remaining
                # handles are drained first, then the pool is torn down.
                timed_out = True
                record = SweepRecord(
                    name=exp.name,
                    status="timeout",
                    attempts=attempts,
                    error=f"no result within {timeout_s}s",
                )
            except Exception as exc:  # noqa: BLE001 - report, don't die
                if attempts <= retries:
                    time.sleep(retry_backoff_s * attempts)
                    attempts += 1
                    handle = submit(slot, attempts)
                    continue
                record = SweepRecord(
                    name=exp.name,
                    status="failed",
                    attempts=attempts,
                    error=f"{type(exc).__name__}: {exc}",
                )
                record.exception = exc
            else:
                summary.status = "ok" if attempts == 1 else "retried"
                summary.attempts = attempts
                record = SweepRecord(
                    name=exp.name, status=summary.status, attempts=attempts
                )
                result.summaries[index] = summary
                if resolved is not None and attempts == 1:
                    resolved.put(exp, summary)
            record.wall_seconds = time.perf_counter() - start
            result.records[index] = record
            break
    if timed_out and pool is not None:
        shutdown_pool(terminate=True)
    return result


def run_experiments(
    experiments: Iterable[Experiment], jobs: int = 1, cache=None
) -> List[ExperimentSummary]:
    """Run a batch of experiments, ``jobs`` at a time, preserving order.

    The strict form of :func:`run_sweep` (same dispatch and ``cache``
    semantics, hits included): no retries, and if any experiment fails,
    the first failure's original exception is re-raised once the batch
    has resolved.
    """
    sweep = run_sweep(experiments, jobs=jobs, retries=0, cache=cache)
    for record in sweep.records:
        if record.exception is not None:
            raise record.exception
    return sweep.summaries  # type: ignore[return-value] - none failed

def run_named_experiments(
    named: Sequence[Tuple[str, Experiment]], jobs: int = 1, cache=None
) -> Dict[str, ExperimentSummary]:
    """Run ``(key, experiment)`` pairs and return ``{key: summary}``.

    The figure harness builds its result dictionaries this way: declare
    the whole sweep up front, fan it out, then index summaries by key.
    Insertion order of the dict follows the input order.  ``cache``
    follows :func:`run_experiments`.
    """
    summaries = run_experiments([exp for _, exp in named], jobs=jobs, cache=cache)
    return {key: summary for (key, _), summary in zip(named, summaries)}
