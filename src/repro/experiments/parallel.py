"""Process-parallel sharding of experiment work items.

Every sharded run — the Table-I fleet sweep
(:func:`repro.experiments.largescale.table1_streaming` and
:func:`~repro.experiments.largescale.compare_policies_streaming`) and the
multi-trial / matched-variant sweeps behind ``repro chaos/recovery/
faults/oversub --workers N`` — goes through one pool generator,
:func:`iter_jobs`.  Design constraints (DESIGN.md "Performance
architecture"):

* **Spawn-safe** — the pool always uses the ``spawn`` start method (the
  only one portable across platforms and safe with threaded parents),
  so every job function is module-level and every payload pickles.
* **Ordered and windowed** — at most ``max_inflight`` jobs are
  submitted ahead of the oldest unfinished one, and results are yielded
  in submission order.  Consumers therefore fold floats in the serial
  order, byte-identically at any worker count, and a lazy payload
  iterable is pulled no further ahead than the window.
* **Fail fast** — a worker exception (or the consumer abandoning the
  generator) cancels every queued job instead of letting the rest of
  the grid run to completion before the error surfaces.
* ``workers=1`` short-circuits to a plain in-process loop — no pool, no
  pickling — which is also the serial path the byte-identity tests
  compare against.
* **Seed-sharded fleet sweep** — a Table-I job is a :class:`RackSpec`
  (fleet config + rack index, ~100 bytes on the wire) and a policy
  name; the job regenerates the rack's trace from its spawned seed
  stream (:func:`repro.traces.synthetic.generate_fleet_rack`),
  byte-identical to the driver materializing it.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
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
)

from repro.traces.schema import RackTrace
from repro.traces.synthetic import FleetConfig, generate_fleet_rack

if TYPE_CHECKING:
    from repro.experiments.largescale import RackSimResult

__all__ = [
    "RackSpec",
    "resolve_workers",
    "iter_jobs",
    "run_jobs",
    "iter_rack_policy_results",
]

_P = TypeVar("_P")
_R = TypeVar("_R")


@dataclass(frozen=True)
class RackSpec:
    """Recipe for one rack: everything a worker needs to regenerate its
    trace locally, instead of receiving the arrays over a pipe."""

    config: FleetConfig
    rack_index: int

    def materialize(self) -> RackTrace:
        """Expand to the rack's trace — byte-identical wherever run."""
        return generate_fleet_rack(self.config, self.rack_index)


#: Most recently expanded rack, keyed by its spec: a rack's policies are
#: submitted consecutively and usually land on the same process, so the
#: trace is regenerated once, not once per policy.
_WORKER_RACK_CACHE: Optional[tuple[RackSpec, RackTrace]] = None


def _run_job(job: "tuple[RackSpec, str]") -> "RackSimResult":
    # Module-level so the spawn start method can pickle it by reference.
    from repro.core.policies import make_policy
    from repro.experiments.largescale import simulate_rack

    global _WORKER_RACK_CACHE
    spec, name = job
    if _WORKER_RACK_CACHE is None or _WORKER_RACK_CACHE[0] != spec:
        _WORKER_RACK_CACHE = (spec, spec.materialize())
    trace = _WORKER_RACK_CACHE[1]
    return simulate_rack(trace, make_policy(name, len(trace.servers)))


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


def iter_jobs(fn: "Callable[[_P], _R]", payloads: "Iterable[_P]", *,
              workers: Optional[int] = 1,
              max_inflight: Optional[int] = None) -> "Iterator[_R]":
    """Yield ``fn(payload)`` for each payload, in payload order.

    ``workers=1`` is an in-process loop.  Otherwise ``fn`` runs in a
    ``spawn`` process pool with a FIFO window of at most
    ``max_inflight`` (default ``4 * workers``) submitted jobs; the
    oldest job's result is yielded before another payload is pulled, so
    ``payloads`` may be a lazy iterable of any length.  Any exception —
    from a worker or from the consumer closing the generator — cancels
    every queued job and re-raises.
    """
    n_workers = resolve_workers(workers)
    window = max_inflight if max_inflight is not None else 4 * n_workers
    if window < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
    if n_workers == 1:
        for payload in payloads:
            yield fn(payload)
        return
    with ProcessPoolExecutor(max_workers=n_workers,
                             mp_context=get_context("spawn")) as pool:
        inflight: "deque[Future[_R]]" = deque()
        try:
            for payload in payloads:
                if len(inflight) >= window:
                    yield inflight.popleft().result()
                inflight.append(pool.submit(fn, payload))
            while inflight:
                yield inflight.popleft().result()
        except BaseException:
            for future in inflight:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_jobs(fn: "Callable[[_P], _R]", payloads: "Iterable[_P]", *,
             workers: Optional[int] = 1) -> "list[_R]":
    """Run ``fn`` over ``payloads`` through :func:`iter_jobs` and return
    the results in payload order.

    The sharding entry point of the multi-trial and matched-variant
    experiment sweeps (``repro chaos/recovery/faults/oversub --workers
    N``); never starts more workers than there are payloads.
    """
    items = list(payloads)
    n_workers = min(resolve_workers(workers), max(1, len(items)))
    results: "list[_R]" = []
    for result in iter_jobs(fn, items, workers=n_workers):
        results.append(result)
        # A finished job's platform is cyclic (Core._server <->
        # Server.cores, bound-method accrual and flush hooks), so
        # reference counting never frees it.  Collect here so peak
        # memory does not depend on when a full collection happens
        # to fire.
        gc.collect()
    return results


def iter_rack_policy_results(
        racks: Iterable[RackSpec], policy_names: Sequence[str], *,
        workers: Optional[int] = 1,
        max_inflight: Optional[int] = None,
) -> "Iterator[tuple[int, str, RackSimResult]]":
    """Simulate the (rack, policy) grid rack-major, yielding
    ``(rack_slot, policy_name, result)`` in submission order.

    ``racks`` may be a lazy iterable of specs: nothing beyond the
    :func:`iter_jobs` window is expanded or held, so driver memory stays
    bounded while the fleet scales, and consumers fold floats in the
    ``workers=1`` order at any worker count.
    """
    names = tuple(policy_names)
    if not names:
        raise ValueError("need at least one policy name")
    jobs = ((spec, name) for spec in racks for name in names)
    for slot, result in enumerate(iter_jobs(_run_job, jobs,
                                            workers=workers,
                                            max_inflight=max_inflight)):
        rack_slot, j = divmod(slot, len(names))
        yield rack_slot, names[j], result
