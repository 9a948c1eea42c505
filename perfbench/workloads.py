"""The benchmark's four workloads, built from a seed through the public
``repro`` API.

Each workload is a :class:`Job`: ``run`` is the entry call the benchmark
times, ``canonical`` renders its output for the digest, ``safe`` is the
workload's own safety verdict, and ``server_ticks`` is the simulated
work (servers x control ticks) the entry call completes.  Importing this
module imports the program; the child process does so inside its
set-up window.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import (
    GlobalWIAgent,
    MetricsTriggerPolicy,
)
from repro.experiments.faults import (
    FaultScenarioConfig,
    fault_injection_experiment,
    format_fault_report,
)
from repro.experiments.largescale import (
    TABLE1_POLICIES,
    cluster_class_fleet_configs,
    format_table1,
    table1_streaming,
)
from repro.experiments.recovery import (
    RecoveryScenarioConfig,
    format_recovery_report,
    recovery_experiment,
)

# Input sizes: each entry call takes a few seconds on a 2-CPU box, so a
# run of the benchmark repeats it several times and reports medians.
RECOVERY_DURATION_S = 400.0   # checkpoint rounds at 0 s and 300 s, restore at 200 s
FAULTS_DURATION_S = 1200.0
TABLE1_RACKS = 2              # per cluster class
TABLE1_WEEKS = 3              # every rack refits its templates twice
TABLE1_SERVERS_PER_RACK = 28  # fixed, so the simulated work is known
FLEET_RACKS = 2
FLEET_SERVERS = 10            # per rack
FLEET_VM_CORES = 24
FLEET_TICK_S = 30.0
FLEET_TICKS = 7 * 86400 // 30  # one simulated week
FLEET_DAY_TICKS = 86400 // 30
FLEET_SLO_MS = 10.0

# The canonical output is compared to 1e-9 like the program's own
# envelope checks (format_fault_report, RecoveryExperimentResult.safe).
_ENVELOPE = 1.0 + 1e-9


@dataclass
class Job:
    run: Callable[[], Any]
    canonical: Callable[[Any], str]
    safe: Callable[[Any], bool]
    server_ticks: int


def _platform_server_ticks(cluster: Any, variants: int) -> int:
    servers = (cluster.n_lc_servers + cluster.n_ml_servers
               + cluster.n_scaleout_servers)
    return variants * servers * int(cluster.duration_s / cluster.tick_s)


def recovery(seed: int) -> Job:
    config = RecoveryScenarioConfig(duration_s=RECOVERY_DURATION_S,
                                    seed=seed)
    return Job(
        run=lambda: recovery_experiment(config, workers=1),
        canonical=lambda result: format_recovery_report(result,
                                                        as_json=True),
        safe=lambda result: result.safe,
        server_ticks=_platform_server_ticks(config.cluster_config(), 3))


def faults(seed: int) -> Job:
    config = FaultScenarioConfig(duration_s=FAULTS_DURATION_S, seed=seed)
    return Job(
        run=lambda: fault_injection_experiment(config, workers=1),
        canonical=format_fault_report,
        safe=lambda result:
            result.faulted.peak_rack_power_fraction <= _ENVELOPE,
        server_ticks=_platform_server_ticks(config.cluster_config(), 2))


def table1(seed: int) -> Job:
    configs = {
        name: dataclasses.replace(
            config, servers_per_rack_min=TABLE1_SERVERS_PER_RACK,
            servers_per_rack_max=TABLE1_SERVERS_PER_RACK)
        for name, config in cluster_class_fleet_configs(
            n_racks=TABLE1_RACKS, weeks=TABLE1_WEEKS, seed=seed).items()}
    # Week 1 is each policy's first history window; weeks 2..N score.
    ticks = (TABLE1_WEEKS - 1) * 7 * 86400 // 300
    return Job(
        run=lambda: table1_streaming(configs, workers=1),
        canonical=format_table1,
        safe=lambda result: list(result) == list(configs) and all(
            list(rows) == list(TABLE1_POLICIES)
            for rows in result.values()),
        server_ticks=(len(configs) * TABLE1_RACKS * len(TABLE1_POLICIES)
                      * TABLE1_SERVERS_PER_RACK * ticks))


# ---------------------------------------------------------------------------
# fleet-week: an idle-heavy platform fleet where the control plane
# dominates (no latency model, no lifecycle).
# ---------------------------------------------------------------------------

@dataclass
class _FleetRack:
    rack: Rack
    agent: GlobalWIAgent       # the rack's one active service
    vm: VirtualMachine
    hot_utilization: float
    cold_utilization: float
    phase_ticks: int           # where the rack's daily hot half starts


def _build_fleet(seed: int) -> tuple[SmartOClockPlatform, list[_FleetRack]]:
    """Two racks of 20 servers: one overclock-hungry service per rack,
    the other servers loaded but control-idle.  Per-server utilizations
    and each rack's load phase come from the seed; the rack limit sits
    at 1.08x the rack's busy draw at turbo."""
    rng = np.random.default_rng(seed)
    model = DEFAULT_POWER_MODEL
    turbo = model.plan.turbo_ghz
    datacenter = Datacenter("perfbench")
    platform_racks: list[tuple[Rack, list[Server], np.ndarray]] = []
    for r in range(FLEET_RACKS):
        utilizations = rng.uniform(0.5, 0.7, FLEET_SERVERS)
        utilizations[0] = rng.uniform(0.75, 0.85)  # the service, hot
        busy = sum(model.uniform_server_watts(float(u), turbo,
                                              FLEET_VM_CORES)
                   for u in utilizations)
        rack = Rack(f"r{r}", 1.08 * busy)
        servers = [Server(f"r{r}s{s}", model) for s in range(FLEET_SERVERS)]
        for server in servers:
            rack.add_server(server)
        datacenter.add_rack(rack)
        platform_racks.append((rack, servers, utilizations))
    platform = SmartOClockPlatform(
        datacenter, SmartOClockConfig(control_interval_s=FLEET_TICK_S))
    fleet: list[_FleetRack] = []
    for rack, servers, utilizations in platform_racks:
        vms = []
        for server, utilization in zip(servers, utilizations):
            vm = VirtualMachine(FLEET_VM_CORES, name=f"{server.server_id}-vm",
                                priority=10, workload=server.server_id,
                                utilization=float(utilization))
            server.place_vm(vm)
            vms.append(vm)
        name = f"svc-{rack.rack_id}"
        agent = platform.register_service(
            name, metrics_policy=MetricsTriggerPolicy(
                start_fraction=0.7, stop_fraction=0.2, consecutive=2))
        platform.attach_vm(name, vms[0],
                           target_freq_ghz=DEFAULT_POWER_MODEL.plan
                           .overclock_max_ghz, priority=10)
        fleet.append(_FleetRack(
            rack=rack, agent=agent, vm=vms[0],
            hot_utilization=float(utilizations[0]),
            cold_utilization=float(rng.uniform(0.45, 0.55)),
            phase_ticks=int(rng.integers(0, FLEET_DAY_TICKS))))
    return platform, fleet


def _run_fleet(platform: SmartOClockPlatform,
               fleet: list[_FleetRack]) -> dict[str, Any]:
    """One simulated week: square-wave load per rack (hot half-day,
    latency pressure for the grant pipeline), a gOA cycle every day."""
    racks = [entry.rack for entry in fleet]
    power: list[list[float]] = []
    peak_fraction = 0.0
    for i in range(FLEET_TICKS):
        now = i * FLEET_TICK_S
        for entry in fleet:
            hot = (i + entry.phase_ticks) % FLEET_DAY_TICKS \
                < FLEET_DAY_TICKS // 2
            entry.vm.set_utilization(entry.hot_utilization if hot
                                     else entry.cold_utilization)
            entry.agent.observe(now, 8.0 if hot else 2.0, FLEET_SLO_MS)
        platform.tick(now, FLEET_TICK_S)
        if i and i % FLEET_DAY_TICKS == 0:
            platform.force_budget_update(now)
        tick_power = [rack.power_watts() for rack in racks]
        power.append(tick_power)
        peak_fraction = max(peak_fraction, *(
            watts / rack.power_limit_watts
            for watts, rack in zip(tick_power, racks)))
    return {
        "grant_statistics": platform.grant_statistics(),
        "channel_statistics": platform.channel_statistics(),
        "cap_events": platform.total_cap_events(),
        "warnings": platform.total_warnings(),
        "peak_rack_power_fraction": peak_fraction,
        "power_trajectory": power,
        "wear": [counter.state_dict()
                 for soa in platform.soas.values()
                 for counter in soa.wear_counters],
        "cores": [(core.busy_seconds, core.overclock_seconds)
                  for rack in racks for server in rack.servers
                  for core in server.cores],
    }


def fleet_week(seed: int) -> Job:
    platform, fleet = _build_fleet(seed)
    return Job(
        run=lambda: _run_fleet(platform, fleet),
        canonical=lambda observables: json.dumps(observables,
                                                 sort_keys=True),
        safe=lambda observables:
            observables["peak_rack_power_fraction"] <= _ENVELOPE,
        server_ticks=FLEET_RACKS * FLEET_SERVERS * FLEET_TICKS)


WORKLOADS: dict[str, Callable[[int], Job]] = {
    "recovery": recovery,
    "faults": faults,
    "table1": table1,
    "fleet-week": fleet_week,
}
