"""Process-parallel sweep of (rack, policy) simulation work items.

Sharding layer for :func:`repro.experiments.largescale.compare_policies`
and :func:`~repro.experiments.largescale.table1` and their streaming
variants.  Design constraints (DESIGN.md "Performance architecture"):

* **Spawn-safe** — the pool always uses the ``spawn`` start method (the
  only one portable across platforms and safe with threaded parents),
  so the worker is a module-level function and every payload pickles.
* **Seed-sharded** — the preferred unit of work is a
  :class:`RackSpec` (fleet config + rack index, ~100 bytes on the
  wire); the worker regenerates the rack's trace locally from its
  spawned seed stream (:func:`repro.traces.synthetic.generate_fleet_rack`),
  byte-identical to the driver materializing it.  Plain
  :class:`~repro.traces.schema.RackTrace` payloads are still accepted
  for pre-materialized fleets.
* **Shared state ships once** — the :class:`PowerModel` is sent to each
  worker through the executor initializer, not serialized into every
  job.
* **Streaming, deterministic merge** — :func:`iter_rack_policy_results`
  yields results in exact submission-slot order (a bounded reorder
  buffer holds early completions), so downstream aggregation folds
  floats in the serial order and never holds more than the in-flight
  window of results, no matter how large the fleet.
* **Fail fast** — a worker exception cancels every queued job
  (``cancel_futures``) instead of letting the rest of the grid run to
  completion before the error surfaces.
* ``workers=1`` short-circuits to a plain in-process loop — no pool, no
  pickling — which is also the serial path the byte-identity tests
  compare against.
"""

from __future__ import annotations

import gc
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from multiprocessing import get_context
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.cluster.power import DEFAULT_POWER_MODEL, PowerModel
from repro.traces.schema import RackTrace
from repro.traces.synthetic import FleetConfig, generate_fleet_rack

if TYPE_CHECKING:
    from repro.experiments.largescale import RackSimResult

__all__ = [
    "RackSpec",
    "RackPolicyJob",
    "resolve_workers",
    "iter_rack_policy_results",
    "run_rack_policy_jobs",
    "run_jobs",
]

_P = TypeVar("_P")
_R = TypeVar("_R")


@dataclass(frozen=True)
class RackSpec:
    """Recipe for one rack: everything a worker needs to regenerate its
    trace locally, instead of receiving the arrays over a pipe."""

    config: FleetConfig
    rack_index: int

    def materialize(self, power_model: PowerModel = DEFAULT_POWER_MODEL
                    ) -> RackTrace:
        """Expand to the rack's trace — byte-identical wherever run."""
        return generate_fleet_rack(self.config, self.rack_index,
                                   power_model=power_model)


#: What a job may carry: a spec (preferred — tiny, worker expands it) or
#: an already-materialized trace (pre-built fleets; whole arrays pickle).
RackSource = Union[RackSpec, RackTrace]


@dataclass(frozen=True)
class RackPolicyJob:
    """One unit of work: one policy simulated over one rack.

    ``slot`` is the submission index over the flattened (rack, policy)
    grid; the driver uses it to re-establish serial order when results
    complete out of order.  The shared :class:`PowerModel` is *not* part
    of the job — it ships once per worker via the pool initializer.
    """

    slot: int
    policy: str
    rack: RackSource


# Per-worker state installed by the pool initializer / warmed lazily.
_WORKER_POWER_MODEL: Optional[PowerModel] = None
#: Most recently expanded rack, keyed by its spec: consecutive policies
#: of one rack usually land on the same worker (jobs are submitted
#: rack-major), so the trace is regenerated once, not once per policy.
_WORKER_RACK_CACHE: Optional[tuple[RackSpec, RackTrace]] = None


def _init_worker(power_model: PowerModel) -> None:
    """Pool initializer: receive the shared power model exactly once."""
    global _WORKER_POWER_MODEL
    _WORKER_POWER_MODEL = power_model


def _expand(rack: RackSource, power_model: PowerModel) -> RackTrace:
    """Materialize a spec (with a one-slot per-worker cache) or pass a
    pre-built trace through."""
    global _WORKER_RACK_CACHE
    if isinstance(rack, RackTrace):
        return rack
    if _WORKER_RACK_CACHE is not None and _WORKER_RACK_CACHE[0] == rack:
        return _WORKER_RACK_CACHE[1]
    trace = rack.materialize(power_model)
    _WORKER_RACK_CACHE = (rack, trace)
    return trace


def _run_job(job: RackPolicyJob) -> "tuple[int, RackSimResult]":
    # Module-level so the spawn start method can pickle it by reference.
    from repro.core.policies import make_policy
    from repro.experiments.largescale import simulate_rack

    power_model = _WORKER_POWER_MODEL
    if power_model is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker used before its initializer ran")
    trace = _expand(job.rack, power_model)
    policy = make_policy(job.policy, len(trace.servers))
    result = simulate_rack(trace, policy, power_model=power_model)
    return job.slot, result


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` → usable CPUs; explicit values must be >= 1.

    "Usable" honors the scheduler affinity mask
    (``os.sched_getaffinity``): in cgroup/cpuset-limited CI containers
    ``os.cpu_count()`` reports the host's cores and would oversubscribe
    the pool.  Platforms without affinity fall back to ``cpu_count``.
    """
    if workers is None:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def run_jobs(fn: "Callable[[_P], _R]", payloads: "Iterable[_P]", *,
             workers: Optional[int] = 1) -> "list[_R]":
    """Run ``fn`` over ``payloads``, returning results in payload order.

    The generic sharding primitive behind the multi-trial and
    matched-variant experiment sweeps (``repro chaos/recovery/faults/
    oversub --workers N``): ``fn`` must be a module-level function and
    every payload must pickle (the pool always uses the ``spawn`` start
    method).  Results are gathered future-by-future in submission order,
    so the merge is deterministic at any worker count; ``workers=1``
    short-circuits to a plain in-process loop — the byte-identity
    baseline.  A worker exception cancels everything still queued.
    """
    items = list(payloads)
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(items) <= 1:
        results: "list[_R]" = []
        for item in items:
            results.append(fn(item))
            # A finished job's platform is cyclic (Core._server <->
            # Server.cores, bound-method accrual and flush hooks), so
            # reference counting never frees it.  Collect here so peak
            # memory does not depend on when a full collection happens
            # to fire.
            gc.collect()
        return results
    with ProcessPoolExecutor(max_workers=min(n_workers, len(items)),
                             mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def iter_rack_policy_results(
        racks: Iterable[RackSource], policy_names: Sequence[str], *,
        power_model: PowerModel = DEFAULT_POWER_MODEL,
        workers: Optional[int] = 1,
        max_inflight: Optional[int] = None,
) -> "Iterator[tuple[int, str, RackSimResult]]":
    """Simulate the (rack, policy) grid, yielding ``(rack_slot,
    policy_name, result)`` in exact submission order.

    ``racks`` may be a lazy iterable of specs: the driver materializes
    nothing beyond the in-flight window, so memory stays bounded while
    the fleet scales.  Results completing out of order wait in a
    reorder buffer (never larger than the window) until every earlier
    slot has been emitted — consumers therefore fold floats in the same
    order as the ``workers=1`` loop, byte-identically.

    A worker exception cancels all queued jobs and re-raises promptly.
    """
    names = tuple(policy_names)
    if not names:
        raise ValueError("need at least one policy name")
    n_workers = resolve_workers(workers)

    if n_workers == 1:
        from repro.core.policies import make_policy
        from repro.experiments.largescale import simulate_rack

        for rack_slot, rack in enumerate(racks):
            trace = (rack.materialize(power_model)
                     if isinstance(rack, RackSpec) else rack)
            for name in names:
                policy = make_policy(name, len(trace.servers))
                yield rack_slot, name, simulate_rack(
                    trace, policy, power_model=power_model)
        return

    window = max_inflight if max_inflight is not None else 4 * n_workers
    if window < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
    jobs = (RackPolicyJob(slot=rack_slot * len(names) + j, policy=name,
                          rack=rack)
            for rack_slot, rack in enumerate(racks)
            for j, name in enumerate(names))

    ready: "dict[int, RackSimResult]" = {}
    emit_next = 0

    def drain(done: "set[Future[tuple[int, RackSimResult]]]") -> None:
        for fut in done:
            slot, result = fut.result()  # re-raises worker exceptions
            ready[slot] = result

    def emit() -> "Iterator[tuple[int, str, RackSimResult]]":
        nonlocal emit_next
        while emit_next in ready:
            result = ready.pop(emit_next)
            rack_slot, j = divmod(emit_next, len(names))
            emit_next += 1
            yield rack_slot, names[j], result

    with ProcessPoolExecutor(max_workers=n_workers,
                             mp_context=get_context("spawn"),
                             initializer=_init_worker,
                             initargs=(power_model,)) as pool:
        pending: "set[Future[tuple[int, RackSimResult]]]" = set()
        try:
            for job in jobs:
                while len(pending) >= window:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    drain(done)
                    yield from emit()
                pending.add(pool.submit(_run_job, job))
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                drain(done)
                yield from emit()
        except BaseException:
            # Fail fast: a worker error (or the consumer abandoning the
            # generator) must not let the rest of the grid run to
            # completion behind the scenes.
            for fut in pending:
                fut.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_rack_policy_jobs(
        racks: Sequence[RackSource], policy_names: Sequence[str], *,
        power_model: PowerModel = DEFAULT_POWER_MODEL,
        workers: Optional[int] = 1,
        max_inflight: Optional[int] = None,
) -> "list[dict[str, RackSimResult]]":
    """Simulate every (rack, policy) pair and collect everything.

    Returns one ``{policy: RackSimResult}`` dict per rack, in input rack
    order, regardless of worker completion order.  This materializes the
    full result grid — fine for pre-built fleets; fleet-scale sweeps
    should consume :func:`iter_rack_policy_results` and fold instead.
    """
    merged: "list[dict[str, RackSimResult]]" = [{} for _ in racks]
    for rack_slot, name, result in iter_rack_policy_results(
            racks, policy_names, power_model=power_model, workers=workers,
            max_inflight=max_inflight):
        merged[rack_slot][name] = result
    return merged
