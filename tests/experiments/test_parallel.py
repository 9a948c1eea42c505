"""Parallel sweep harness: sharded runs must be byte-identical to serial.

The process-pool tests here spawn real worker processes (the ``spawn``
start method — the same code path the CI perf smoke job uses), so they
are kept small: two racks, two policies, coarse telemetry.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.platform import SmartOClockPlatform
from repro.core.policies import make_policy
from repro.experiments.largescale import (
    compare_policies_streaming,
    format_table1,
    simulate_rack,
    table1_streaming,
)
from repro.experiments.parallel import (
    RackSpec,
    iter_jobs,
    iter_rack_policy_results,
    resolve_workers,
    run_jobs,
)
from repro.traces.synthetic import (
    FleetConfig,
    generate_fleet,
    generate_fleet_rack,
)

SMALL_CONFIG = FleetConfig(n_racks=2, weeks=2, seed=21, interval_s=900.0,
                           servers_per_rack_min=5, servers_per_rack_max=5,
                           p99_util_beta=(2.0, 2.0),
                           p99_util_range=(0.85, 0.95))


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(SMALL_CONFIG)


def specs_of(config):
    return [RackSpec(config=config, rack_index=i)
            for i in range(config.n_racks)]


def sweep(specs, policy_names, **kwargs):
    """Collect ``iter_rack_policy_results`` into one ``{policy: result}``
    dict per rack, in rack order."""
    merged = [{} for _ in specs]
    for rack_slot, name, result in iter_rack_policy_results(
            specs, policy_names, **kwargs):
        merged[rack_slot][name] = result
    return merged


class TestResolveWorkers:
    def test_none_uses_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)

    def test_none_prefers_affinity_over_cpu_count(self, monkeypatch):
        """cgroup/cpuset-limited CI: the affinity mask (2 usable CPUs)
        must win over the host-wide cpu_count (8)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(None) == 2

    def test_none_falls_back_to_cpu_count(self, monkeypatch):
        """Platforms without sched_getaffinity use cpu_count."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(None) == 6

    def test_oserror_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity")
        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_workers(None) == 5


class TestSerialSharding:
    def test_results_keyed_by_rack_and_policy(self, small_fleet):
        merged = sweep(specs_of(SMALL_CONFIG), ("Central", "SmartOClock"),
                       workers=1)
        assert len(merged) == len(small_fleet.racks)
        for rack, per_policy in zip(small_fleet.racks, merged):
            assert set(per_policy) == {"Central", "SmartOClock"}
            for result in per_policy.values():
                assert result.rack_id == rack.rack_id

    def test_bad_inflight_rejected(self):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="max_inflight"):
                sweep(specs_of(SMALL_CONFIG), ("Central",),
                      workers=workers, max_inflight=0)


class TestWindowBound:
    def test_payloads_pulled_lazily(self):
        """The pool pulls no more than one payload past the window
        before the oldest result is yielded."""
        pulled = []

        def payloads():
            for i in range(20):
                pulled.append(i)
                yield i

        results = iter_jobs(abs, payloads(), workers=2, max_inflight=2)
        first = next(results)
        pulled_at_first = len(pulled)
        assert [first] + list(results) == list(range(20))
        assert pulled_at_first <= 2 + 1


class TestProcessPoolByteIdentity:
    """workers=N must reproduce workers=1 exactly — same counters, same
    floats, same rendered table — regardless of completion order."""

    def test_jobs_identical(self):
        specs = specs_of(SMALL_CONFIG)
        serial = sweep(specs, ("Central", "SmartOClock"), workers=1)
        pooled = sweep(specs, ("Central", "SmartOClock"), workers=2,
                       max_inflight=2)
        assert pooled == serial

    @pytest.mark.parametrize(("workers", "max_inflight"),
                             [(2, None), (2, 3), (4, 3)])
    def test_compare_policies_identical(self, workers, max_inflight):
        """The online merge folds in submission-slot order: pooled
        scores are byte-identical to the serial sweep."""
        names = ("NoWarning", "SmartOClock")
        serial = compare_policies_streaming(SMALL_CONFIG, names, workers=1)
        pooled = compare_policies_streaming(SMALL_CONFIG, names,
                                            workers=workers,
                                            max_inflight=max_inflight)
        assert pooled == serial

    def test_table1_rendering_identical(self):
        configs = {"Tiny": SMALL_CONFIG}
        serial = table1_streaming(configs, workers=1)
        pooled = table1_streaming(configs, workers=2)
        assert pooled == serial
        assert format_table1(pooled) == format_table1(serial)


def assert_rack_traces_equal(a, b):
    assert a.rack_id == b.rack_id
    assert a.region == b.region
    assert a.power_limit_watts == b.power_limit_watts
    assert len(a.servers) == len(b.servers)
    for sa, sb in zip(a.servers, b.servers):
        assert sa.server_id == sb.server_id
        assert np.array_equal(sa.times, sb.times)
        assert np.array_equal(sa.power_watts, sb.power_watts)
        assert np.array_equal(sa.utilization, sb.utilization)
        assert np.array_equal(sa.oc_cores, sb.oc_cores)


class TestSeedShardedIdentity:
    """The seed-sharding contract: a rack regenerated from
    ``(fleet_seed, rack_index)`` is byte-identical to the rack the
    driver produced inside ``generate_fleet`` — and therefore so is
    every simulation result computed from it, wherever it ran."""

    def test_spec_materializes_driver_rack(self, small_fleet):
        for i, rack in enumerate(small_fleet.racks):
            spec = RackSpec(config=SMALL_CONFIG, rack_index=i)
            assert_rack_traces_equal(spec.materialize(), rack)

    def test_rack_independent_of_fleet_size(self):
        """Rack i's stream must not depend on how many siblings were
        generated before it (the old sequential-rng coupling)."""
        grown = FleetConfig(n_racks=4, weeks=2, seed=21, interval_s=900.0,
                            servers_per_rack_min=5, servers_per_rack_max=5,
                            p99_util_beta=(2.0, 2.0),
                            p99_util_range=(0.85, 0.95))
        assert_rack_traces_equal(generate_fleet_rack(grown, 1),
                                 generate_fleet_rack(SMALL_CONFIG, 1))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="outside fleet"):
            generate_fleet_rack(SMALL_CONFIG, SMALL_CONFIG.n_racks)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("max_inflight", [1, None])
    def test_worker_expansion_matches_driver(self, small_fleet, workers,
                                             max_inflight):
        """Sweeping RackSpecs (workers expand the traces locally) equals
        simulating the driver-materialized racks directly, for every
        (workers, max_inflight) combination."""
        names = ("Central", "SmartOClock")
        from_specs = sweep(specs_of(SMALL_CONFIG), names, workers=workers,
                           max_inflight=max_inflight)
        from_traces = [{name: simulate_rack(
                            rack, make_policy(name, len(rack.servers)))
                        for name in names}
                       for rack in small_fleet.racks]
        assert from_specs == from_traces


class TestFailFast:
    """A worker exception must surface promptly and cancel queued jobs
    instead of letting the rest of the grid run to completion."""

    def test_serial_path_raises(self):
        with pytest.raises(KeyError, match="Bogus"):
            sweep(specs_of(SMALL_CONFIG), ("Central", "Bogus"), workers=1)

    def test_pool_poisoned_policy_raises(self):
        """Poisoned policy on a multi-rack grid: the sweep dies on the
        first failed job, with queued work cancelled (the sweep would
        take many times longer if the remaining grid ran out)."""
        config = FleetConfig(n_racks=6, weeks=2, seed=7, interval_s=1800.0,
                             servers_per_rack_min=3, servers_per_rack_max=3)
        with pytest.raises(KeyError, match="Bogus"):
            sweep(specs_of(config), ("Bogus", "Central"), workers=2,
                  max_inflight=2)

    def test_generator_raises_before_later_slots(self):
        """Consuming the stream: the error arrives as soon as its slot
        would, not after the whole grid."""
        config = FleetConfig(n_racks=4, weeks=2, seed=7, interval_s=1800.0,
                             servers_per_rack_min=3, servers_per_rack_max=3)
        specs = specs_of(config)
        seen = []
        with pytest.raises(KeyError, match="Bogus"):
            for rack_slot, name, _result in iter_rack_policy_results(
                    specs, ("Central", "Bogus"), workers=2,
                    max_inflight=2):
                seen.append((rack_slot, name))
        # Slot order means nothing after the poisoned slot was emitted.
        assert all(name == "Central" for _slot, name in seen)


def _platform_job(seed):
    """Build and tick a one-server platform; hand back only a weak
    reference to its server."""
    rack = Rack(f"r{seed}", 2000.0)
    server = Server(f"s{seed}", DEFAULT_POWER_MODEL)
    rack.add_server(server)
    dc = Datacenter()
    dc.add_rack(rack)
    platform = SmartOClockPlatform(dc)
    server.place_vm(VirtualMachine(4, utilization=0.5))
    platform.tick(0.0, 10.0)
    return weakref.ref(server)


class TestSerialJobsFreed:
    def test_finished_platforms_are_collected(self):
        """A finished job's platform is reference-cyclic; the serial loop
        must free it even when automatic collection never fires."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            refs = run_jobs(_platform_job, [0, 1], workers=1)
            # Checked before re-enabling: an automatic collection could
            # otherwise free the platforms and hide a leak.
            alive = [ref() is not None for ref in refs]
        finally:
            if was_enabled:
                gc.enable()
        assert alive == [False, False]
