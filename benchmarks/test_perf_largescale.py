"""Macro-benchmark: vectorized Table-I sweep vs the scalar reference
(ISSUE 5 tentpole).

The scalar oracle (``simulate_rack_reference``) walks the trace one
5-minute tick at a time; the fast path plans week/segment-sized NumPy
blocks and falls back to scalar ticks only around warnings/caps.  Both
paths are *bit-identical* (see tests/experiments/test_fastpath.py), so
this benchmark times the same Table-I (rack, policy) grid three ways —
scalar, vectorized, and vectorized through the process-pool harness —
asserts every (rack, policy) result is equal across all three, and
records the speedup.

The CI gate is 3x (shared runners are noisy); quiet machines record
4-6x depending on load (the sweep includes SmartOClock+OSub, whose
admitted headroom raises cap counts on the high-power class — cap
ticks are the scalar-fallback path).
"""

import time

from repro.core.policies import make_policy
from repro.experiments.largescale import (
    TABLE1_POLICIES,
    cluster_class_fleet_configs,
    simulate_rack_reference,
)
from repro.experiments.parallel import RackSpec, iter_rack_policy_results

#: Same generator/seed family as the shared ``table1_results`` CI fleet,
#: at a third of the racks: the scalar reference is what's being timed,
#: and 18 racks of it would dominate the whole benchmark session.
N_RACKS = 2
WEEKS = 3
SEED = 1


def sweep(specs, workers):
    """One ``{policy: RackSimResult}`` dict per rack, in rack order."""
    merged = [{} for _ in specs]
    for rack_slot, name, result in iter_rack_policy_results(
            specs, TABLE1_POLICIES, workers=workers):
        merged[rack_slot][name] = result
    return merged


def test_vectorized_sweep_speedup(record_result):
    configs = cluster_class_fleet_configs(n_racks=N_RACKS, weeks=WEEKS,
                                          seed=SEED)
    specs = [RackSpec(config=config, rack_index=i)
             for config in configs.values()
             for i in range(config.n_racks)]

    start = time.perf_counter()
    vectorized = sweep(specs, workers=1)
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    reference = []
    for spec in specs:
        rack = spec.materialize()
        reference.append({name: simulate_rack_reference(
                              rack, make_policy(name, len(rack.servers)))
                          for name in TABLE1_POLICIES})
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = sweep(specs, workers=2)
    pooled_s = time.perf_counter() - start

    # All three paths must agree exactly — every (rack, policy)
    # RackSimResult, field by field with == — before any timing is
    # worth recording.
    for r, rack_results in enumerate(reference):
        for name in TABLE1_POLICIES:
            assert vectorized[r][name] == rack_results[name], (r, name)
    assert pooled == vectorized

    speedup = reference_s / vectorized_s
    n_racks_total = len(specs)
    print(f"\nTable-I sweep, {n_racks_total} racks x "
          f"{len(TABLE1_POLICIES)} policies x "
          f"{WEEKS} weeks: scalar {reference_s:.2f} s, "
          f"vectorized {vectorized_s:.2f} s ({speedup:.1f}x), "
          f"2-worker pool {pooled_s:.2f} s")
    record_result("perf_largescale",
                  reference_s=reference_s,
                  vectorized_s=vectorized_s,
                  speedup=speedup,
                  pool_workers=2,
                  pooled_s=pooled_s,
                  racks=n_racks_total,
                  weeks=WEEKS)
    # CI floor (acceptance target is 5x on a quiet machine; shared
    # runners get the conservative gate).
    assert speedup >= 3.0
