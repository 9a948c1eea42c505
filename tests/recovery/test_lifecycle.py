"""ServerLifecycleManager: forced crashes, hazard crashes, evacuation,
quarantine enforcement, sOA process restarts, and gOA membership."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.platform import SmartOClockPlatform
from repro.core.types import RejectionReason
from repro.core.workload_intelligence import MetricsTriggerPolicy
from repro.faults.injector import FaultInjector
from repro.faults.spec import (
    CheckpointCorruptionFault,
    FaultPlan,
    ServerCrashFault,
    SoaRestart,
    window,
)
from repro.recovery.lifecycle import ServerLifecycleManager
from repro.reliability.hazard import HazardModel

TURBO = DEFAULT_POWER_MODEL.plan.turbo_ghz

# Hazard so small it never fires in a short run: keeps the lifecycle
# manager attached without perturbing the scenario under test.
NULL_HAZARD = HazardModel(base_failures_per_year=1e-12)


def build(n_servers=3, rack_limit=3000.0, plan=None, hazard=None, seed=7):
    rack = Rack("r0", rack_limit)
    servers = [Server(f"s{i}", DEFAULT_POWER_MODEL)
               for i in range(n_servers)]
    for s in servers:
        rack.add_server(s)
    dc = Datacenter()
    dc.add_rack(rack)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan=plan, seed=seed)
    platform = SmartOClockPlatform(dc, fault_injector=injector,
                                   hazard_model=hazard, recovery_seed=seed)
    return platform, servers


def attach(platform, servers, index=0, n_cores=4, utilization=0.5):
    vm = VirtualMachine(n_cores, utilization=utilization)
    servers[index].place_vm(vm)
    platform.register_service(
        "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
    local = platform.attach_vm("svc", vm)
    return vm, local


def run(platform, end_s, tick_s=10.0):
    now = 0.0
    while now <= end_s:
        platform.tick(now, dt=tick_s)
        now += tick_s


class TestForcedCrash:
    @pytest.fixture()
    def scenario(self):
        plan = FaultPlan(server_crashes=(
            ServerCrashFault(window(100.0, 110.0), server_id="s0"),))
        platform, servers = build(plan=plan)
        vm, local = attach(platform, servers)
        return platform, servers, vm, local

    def test_crash_takes_server_down_and_back(self, scenario):
        platform, servers, vm, local = scenario
        run(platform, 90.0)
        assert not servers[0].offline
        run_from = 100.0
        platform.tick(run_from, dt=10.0)  # the crash tick
        soa = platform.soas["s0"]
        assert servers[0].offline
        assert not soa.alive
        assert servers[0].power_watts() == 0.0
        assert vm.vm_id not in servers[0].vms
        # Recovery: forced window end (110) < crash + restart delay (220).
        for now in range(110, 231, 10):
            platform.tick(float(now), dt=10.0)
        assert not servers[0].offline
        assert soa.alive

    def test_vm_evacuates_to_same_rack_survivor(self, scenario):
        platform, servers, vm, local = scenario
        run(platform, 170.0)
        # Placed again after vm_restart_delay_s (60): on s1 or s2.
        hosts = [s.server_id for s in servers if vm.vm_id in s.vms]
        assert hosts and hosts[0] in ("s1", "s2")
        # The Local WI agent follows its VM to the new sOA.
        assert local.soa.server.server_id == hosts[0]

    def test_downtime_and_counters(self, scenario):
        platform, servers, vm, local = scenario
        run(platform, 400.0)
        lifecycle = platform.lifecycle
        lifecycle.finish(400.0)
        assert lifecycle.server_downtime.downtime_s("s0") == \
            pytest.approx(120.0)  # 100 → 220 (crash + restart delay)
        assert lifecycle.vm_downtime.total_downtime_s == pytest.approx(60.0)
        counters = lifecycle.counters
        assert counters.server_crashes == 1
        assert counters.forced_crashes == 1
        assert counters.hazard_crashes == 0
        assert counters.vms_evacuated == 1
        assert counters.server_restarts == 1
        assert counters.soa_restarts == 1
        assert counters.restores_from_checkpoint == 1  # checkpoint at t=0

    def test_rack_power_consistent_while_server_offline(self, scenario):
        platform, servers, vm, local = scenario
        run(platform, 150.0)
        rack = platform.datacenter.racks["r0"]
        assert servers[0].offline
        assert rack.power_watts() == \
            pytest.approx(rack.recompute_power_watts())


class TestQuarantine:
    @pytest.fixture()
    def scenario(self):
        # Two forced crashes on the rack's only server: the second trips
        # the default policy (2 crashes within 3600 s → 1800 s cooldown).
        plan = FaultPlan(server_crashes=(
            ServerCrashFault(window(100.0, 110.0), server_id="s0"),
            ServerCrashFault(window(300.0, 310.0), server_id="s0")))
        platform, servers = build(n_servers=1, plan=plan)
        vm, local = attach(platform, servers)
        run(platform, 430.0)
        return platform, servers, vm, local

    def test_single_server_rack_retries_until_self_recovers(self, scenario):
        platform, servers, vm, local = scenario
        # No same-rack donor exists: the placer retries until the crashed
        # server itself comes back, then the VM lands on it again.
        assert platform.lifecycle.counters.evacuation_retries >= 1
        assert vm.vm_id in servers[0].vms

    def test_repeat_offender_blocked_until_cooldown(self, scenario):
        platform, servers, vm, local = scenario
        soa = platform.soas["s0"]
        assert soa.alive
        assert soa.quarantined_until == pytest.approx(2100.0)  # 300 + 1800
        decision = local.start(430.0)
        assert not decision.granted
        assert decision.reason is RejectionReason.QUARANTINED
        assert soa.requests_rejected_quarantine == 1
        assert platform.grant_statistics()["rejected_quarantine"] == 1
        assert platform.fault_counters()["quarantines"] == 1

    def test_grants_resume_after_cooldown(self, scenario):
        platform, servers, vm, local = scenario
        decision = local.start(2150.0)
        assert decision.granted


class TestHazardCrash:
    def test_certain_hazard_kills_every_server(self):
        platform, servers = build(
            hazard=HazardModel(base_failures_per_year=1e12), seed=3)
        platform.tick(0.0, dt=10.0)
        assert all(s.offline for s in servers)
        counters = platform.lifecycle.counters
        assert counters.hazard_crashes == 3
        assert counters.forced_crashes == 0
        merged = platform.fault_counters()
        assert merged["server_crashes"] == 3
        assert merged["messages_dropped"] == 0  # injector keys present

    def test_crash_draw_deterministic_per_event(self):
        platform, _ = build(hazard=NULL_HAZARD, seed=11)
        again, _ = build(hazard=NULL_HAZARD, seed=11)
        other, _ = build(hazard=NULL_HAZARD, seed=12)
        draw = platform.lifecycle._crash_draw("s0", 100.0, 0.5)
        assert draw == again.lifecycle._crash_draw("s0", 100.0, 0.5)
        draws = {seed: p.lifecycle._crash_draw("s0", 100.0, 0.5)
                 for seed, p in ((11, platform), (12, other))}
        assert isinstance(draws[12], bool)  # may or may not match seed 11
        assert platform.lifecycle._crash_draw("s0", 100.0, 0.0) is False
        assert platform.lifecycle._crash_draw("s0", 100.0, 1.0) is True


class TestSoaProcessRestart:
    def test_soa_dies_and_restores_with_server_up(self):
        plan = FaultPlan(soa_restarts=(
            SoaRestart(at_s=50.0, server_id="s0"),))
        platform, servers = build(n_servers=2, plan=plan)
        run(platform, 60.0)
        soa = platform.soas["s0"]
        assert not soa.alive
        assert not servers[0].offline           # the *server* never died
        assert servers[0].power_watts() > 0.0
        run_from = 70.0
        while run_from <= 90.0:
            platform.tick(run_from, dt=10.0)
            run_from += 10.0
        assert soa.alive                         # restored after 30 s
        counters = platform.lifecycle.counters
        assert counters.soa_restarts == 1
        assert counters.server_crashes == 0
        assert counters.server_restarts == 0
        assert counters.restores_from_checkpoint == 1


class TestCorruptedRestore:
    def test_corrupted_checkpoint_cold_starts_and_is_audited(self):
        plan = FaultPlan(
            soa_restarts=(SoaRestart(at_s=50.0, server_id="s0"),),
            checkpoint_corruptions=(CheckpointCorruptionFault(
                window(0.0, 1000.0), corrupt_prob=1.0, server_id="s0"),))
        platform, servers = build(n_servers=2, plan=plan)
        run(platform, 90.0)
        soa = platform.soas["s0"]
        assert soa.alive                         # restarted regardless
        counters = platform.lifecycle.counters
        assert counters.soa_restarts == 1
        assert counters.restores_from_checkpoint == 0
        assert counters.restores_cold == 1       # fell back to cold start
        assert counters.restores_corrupted == 1
        report = platform.lifecycle.restore_reports[-1]
        assert report.checkpoint_corrupted
        assert report.cold_start
        merged = platform.fault_counters()
        assert merged["checkpoints_corrupted"] >= 1
        assert merged["checkpoint_corruption_detected"] == 1

    def test_clean_checkpoints_unaffected_by_other_servers_fault(self):
        plan = FaultPlan(
            soa_restarts=(SoaRestart(at_s=50.0, server_id="s1"),),
            checkpoint_corruptions=(CheckpointCorruptionFault(
                window(0.0, 1000.0), corrupt_prob=1.0, server_id="s0"),))
        platform, servers = build(n_servers=2, plan=plan)
        run(platform, 90.0)
        counters = platform.lifecycle.counters
        assert counters.restores_from_checkpoint == 1
        assert counters.restores_corrupted == 0
        assert not platform.lifecycle.restore_reports[-1].checkpoint_corrupted


class TestCheckpointCadence:
    def test_checkpoints_taken_on_interval(self):
        platform, servers = build(hazard=NULL_HAZARD)
        run(platform, 600.0)
        lifecycle = platform.lifecycle
        # Cadence 300 s, 3 alive servers: t = 0, 300, 600.
        assert lifecycle.counters.checkpoints_taken == 9
        for sid in ("s0", "s1", "s2"):
            assert lifecycle.store.has_checkpoint(sid)


class TestGoaMembership:
    def test_dead_soa_marked_and_budget_redistributed(self):
        platform, servers = build(hazard=NULL_HAZARD)
        for i in range(5):
            platform.tick(i * 300.0, dt=300.0)
        platform.force_budget_update(1200.0)
        goa = platform.goas["r0"]
        assert goa.assignment is not None
        assert "s0" in goa.assignment.budgets
        platform.soas["s0"].crash(1250.0)
        platform.force_budget_update(1500.0)     # miss 1
        platform.force_budget_update(1800.0)     # miss 2 → dead
        assert goa.dead_servers == ["s0"]
        assert goa.servers_marked_dead == 1
        assert "s0" not in goa.assignment.budgets
        assert set(goa.assignment.budgets) == {"s1", "s2"}
        merged = platform.fault_counters()
        assert merged["servers_marked_dead"] == 1

    def test_restored_soa_revives_membership(self):
        platform, servers = build(hazard=NULL_HAZARD)
        for i in range(5):
            platform.tick(i * 300.0, dt=300.0)
        platform.force_budget_update(1200.0)
        platform.soas["s0"].crash(1250.0)
        platform.force_budget_update(1500.0)
        platform.force_budget_update(1800.0)
        goa = platform.goas["r0"]
        assert goa.dead_servers == ["s0"]
        platform.soas["s0"].restart(2000.0, None)
        platform.force_budget_update(2100.0)
        assert goa.dead_servers == []
        assert goa.servers_revived == 1
        assert "s0" in goa.assignment.budgets


def per_core_hazard_inputs(soa):
    """The hazard inputs read core by core: every counter read flushes
    the wear ledger, every core's voltage is evaluated."""
    wear_ratio = max((c.wear_ratio for c in soa.wear_counters), default=0.0)
    plan = soa.server.plan
    volts = max((plan.voltage(core.freq_ghz) for core in soa.server.cores),
                default=plan.voltage(plan.turbo_ghz))
    return wear_ratio, volts


OPS = st.lists(
    st.tuples(st.sampled_from(["tick", "tick", "freq", "util", "place",
                               "remove"]),
              st.integers(min_value=0, max_value=2),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=40)


class TestHazardInputs:
    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_equal_to_per_core_form(self, ops):
        platform, servers = build(hazard=NULL_HAZARD)
        attach(platform, servers, n_cores=8, utilization=0.6)
        plan = DEFAULT_POWER_MODEL.plan
        lifecycle = platform.lifecycle
        now = 0.0
        for step, (kind, index, x) in enumerate(ops):
            server = servers[index]
            vms = sorted(server.vms.values(), key=lambda v: v.vm_id)
            if kind == "tick":
                platform.tick(now, dt=10.0)
                now += 10.0
            elif kind == "freq" and vms:
                # Anywhere from base to the overclock ceiling.
                server.set_vm_frequency(vms[0], plan.base_ghz + x * (
                    plan.overclock_max_ghz - plan.base_ghz))
            elif kind == "util" and vms:
                vms[-1].set_utilization(max(0.05, x))
            elif kind == "place" and server.free_cores >= 4:
                server.place_vm(VirtualMachine(4, utilization=max(0.05, x)))
            elif kind == "remove" and vms:
                server.remove_vm(vms[-1])
            for soa in platform.soas.values():
                # Alternate which form flushes the pending ledger first.
                if step % 2:
                    new = lifecycle._hazard_inputs(soa)
                    old = per_core_hazard_inputs(soa)
                else:
                    old = per_core_hazard_inputs(soa)
                    new = lifecycle._hazard_inputs(soa)
                assert new == old
