"""Checkpoint/restore of sOA durable state: store semantics, grant
revocation rules, stale-margin re-derivation, the bit-identical
round-trip property, and the composed checkpoint body (shared
assignment fragment, byte-equal to one whole-body encode)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.power import DEFAULT_POWER_MODEL
from repro.cluster.topology import Datacenter, Rack, Server, VirtualMachine
from repro.core.config import SmartOClockConfig
from repro.core.platform import SmartOClockPlatform
from repro.core.workload_intelligence import MetricsTriggerPolicy
from repro.core.budgets import BudgetAssignment
from repro.recovery.checkpoint import (
    DurableStore,
    GoaCheckpoint,
    RestoreReport,
    SoaCheckpoint,
    _flip_byte,
    reference_body,
)

TURBO = DEFAULT_POWER_MODEL.plan.turbo_ghz
WEEK = 7 * 24 * 3600.0


def build(config=None, n_servers=3, rack_limit=3000.0):
    rack = Rack("r0", rack_limit)
    servers = [Server(f"s{i}", DEFAULT_POWER_MODEL)
               for i in range(n_servers)]
    for s in servers:
        rack.add_server(s)
    dc = Datacenter()
    dc.add_rack(rack)
    return SmartOClockPlatform(dc, config=config), servers


def overclocked_platform(config=None, utilization=0.8):
    """A platform whose s0 holds one active grant after the first tick."""
    platform, servers = build(config=config)
    vm = VirtualMachine(8, utilization=utilization)
    servers[0].place_vm(vm)
    service = platform.register_service(
        "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
    platform.attach_vm("svc", vm)
    service.observe(0.0, 9.5, 10.0)
    platform.tick(10.0, dt=10.0)
    soa = platform.soas["s0"]
    assert soa.is_overclocking(vm.vm_id)
    return platform, soa, vm


def checkpoint(server_id="s0", taken_at=100.0, marker=1.0):
    return SoaCheckpoint(server_id=server_id, taken_at=taken_at,
                         payload={"marker": marker})


class TestDurableStore:
    def test_save_load_roundtrip(self):
        store = DurableStore()
        assert not store.has_checkpoint("s0")
        assert store.load("s0") is None
        assert store.checkpoints_loaded == 0  # misses are not loads
        cp = checkpoint()
        store.save(cp)
        assert store.has_checkpoint("s0")
        assert store.load("s0") is cp
        assert store.checkpoints_saved == 1
        assert store.checkpoints_loaded == 1

    def test_latest_checkpoint_wins(self):
        store = DurableStore()
        store.save(checkpoint(taken_at=100.0, marker=1.0))
        newer = checkpoint(taken_at=200.0, marker=2.0)
        store.save(newer)
        assert store.load("s0") is newer
        assert store.checkpoints_saved == 2

    def test_servers_do_not_share_slots(self):
        store = DurableStore()
        store.save(checkpoint("s0"))
        assert not store.has_checkpoint("s1")


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert checkpoint().fingerprint() == checkpoint().fingerprint()

    def test_payload_sensitivity(self):
        assert checkpoint(marker=1.0).fingerprint() != \
            checkpoint(marker=2.0).fingerprint()

    def test_timestamp_sensitivity(self):
        assert checkpoint(taken_at=1.0).fingerprint() != \
            checkpoint(taken_at=2.0).fingerprint()


class TestRestoreReport:
    def report(self, **kwargs):
        defaults = dict(server_id="s0", restored_at=10.0,
                        checkpoint_taken_at=5.0, grants_kept=0,
                        grants_revoked=0, assignment_age_s=None,
                        stale_margin=0.0, checkpoint_budget_watts=None,
                        restored_budget_watts=None)
        defaults.update(kwargs)
        return RestoreReport(**defaults)

    def test_cold_start(self):
        assert self.report(checkpoint_taken_at=None).cold_start
        assert not self.report().cold_start

    def test_overgranted_requires_budget_excess(self):
        assert not self.report().overgranted  # no budgets restored
        assert not self.report(checkpoint_budget_watts=100.0,
                               restored_budget_watts=95.0).overgranted
        assert self.report(checkpoint_budget_watts=100.0,
                           restored_budget_watts=100.1).overgranted


class TestCorruptionDetection:
    def corrupting(self, when=lambda key, taken_at: True):
        return DurableStore(corruption_hook=when)

    def test_healthy_load_verified_is_identity(self):
        store = DurableStore()
        cp = checkpoint()
        store.save(cp)
        load = store.load_verified("s0")
        assert load.checkpoint is cp
        assert not load.corrupted
        assert store.checkpoints_loaded == 1
        assert store.corruption_detected == 0

    def test_corrupted_save_fails_verification(self):
        store = self.corrupting()
        store.save(checkpoint())
        assert store.checkpoints_saved == 1
        assert store.checkpoints_corrupted == 1
        load = store.load_verified("s0")
        assert load.checkpoint is None
        assert load.corrupted
        assert store.corruption_detected == 1
        assert store.checkpoints_loaded == 0  # a failed load is not a load
        # The convenience loader agrees: corrupted reads as missing.
        assert store.load("s0") is None

    def test_missing_is_not_corrupted(self):
        load = DurableStore().load_verified("s0")
        assert load.checkpoint is None and not load.corrupted

    def test_selective_corruption_spares_other_keys(self):
        store = self.corrupting(lambda key, taken_at: key == "s0")
        store.save(checkpoint("s0"))
        store.save(checkpoint("s1"))
        assert store.load_verified("s0").corrupted
        clean = store.load_verified("s1")
        assert clean.checkpoint is not None and not clean.corrupted

    def test_newer_clean_save_replaces_corrupted_one(self):
        toggle = [True]
        store = self.corrupting(lambda key, taken_at: toggle[0])
        store.save(checkpoint(taken_at=100.0))
        toggle[0] = False
        good = checkpoint(taken_at=200.0, marker=2.0)
        store.save(good)
        load = store.load_verified("s0")
        assert load.checkpoint is good and not load.corrupted


class TestGoaCheckpoints:
    def goa_checkpoint(self, rack_id="r0", epoch=3):
        return GoaCheckpoint(rack_id=rack_id, taken_at=50.0,
                             payload={"epoch": epoch})

    def test_goa_key_namespace(self):
        assert DurableStore.goa_key("r0") == "goa:r0"

    def test_save_load_roundtrip(self):
        store = DurableStore()
        cp = self.goa_checkpoint()
        store.save_goa(cp)
        load = store.load_goa("r0")
        assert load.checkpoint is cp and not load.corrupted
        assert store.load_goa("r1").checkpoint is None

    def test_goa_keys_do_not_collide_with_server_ids(self):
        store = DurableStore()
        store.save(checkpoint("r0"))  # a server named like a rack
        store.save_goa(self.goa_checkpoint("r0"))
        assert isinstance(store.load("r0"), SoaCheckpoint)
        assert isinstance(store.load_goa("r0").checkpoint, GoaCheckpoint)

    def test_corrupted_goa_checkpoint_detected(self):
        store = DurableStore(
            corruption_hook=lambda key, taken_at: key.startswith("goa:"))
        store.save_goa(self.goa_checkpoint())
        load = store.load_goa("r0")
        assert load.checkpoint is None and load.corrupted
        assert store.corruption_detected == 1


class TestSoaRestore:
    def test_valid_grant_survives_restart(self):
        platform, soa, vm = overclocked_platform()
        cp = soa.build_checkpoint(10.0)
        soa.crash(15.0)
        assert not soa.alive and soa.active_grants == 0
        report = soa.restart(20.0, cp)
        assert soa.alive
        assert report.grants_kept == 1 and report.grants_revoked == 0
        assert soa.is_overclocking(vm.vm_id)
        assert vm.freq_ghz > TURBO

    def test_unprovable_naive_grant_is_revoked(self):
        # NaiveOClock grants carry no deadline (granted_until=None): a
        # restored ledger cannot prove them valid, so they are revoked
        # and the VM is forced back to turbo.
        naive = SmartOClockConfig().as_naive()
        platform, soa, vm = overclocked_platform(config=naive)
        cp = soa.build_checkpoint(10.0)
        soa.crash(15.0)
        report = soa.restart(20.0, cp)
        assert report.grants_kept == 0 and report.grants_revoked == 1
        assert not soa.is_overclocking(vm.vm_id)
        assert vm.freq_ghz == TURBO

    def test_grant_for_departed_vm_is_revoked(self):
        platform, soa, vm = overclocked_platform()
        cp = soa.build_checkpoint(10.0)
        soa.crash(15.0)
        soa.server.remove_vm(vm)
        report = soa.restart(20.0, cp)
        assert report.grants_kept == 0 and report.grants_revoked == 1

    def test_expired_grant_is_revoked(self):
        platform, soa, vm = overclocked_platform()
        cp = soa.build_checkpoint(10.0)
        soa.crash(15.0)
        deadline = cp.payload["grants"][str(vm.vm_id)]["granted_until"]
        report = soa.restart(deadline + 1.0, cp)
        assert report.grants_kept == 0 and report.grants_revoked == 1
        assert vm.freq_ghz == TURBO

    def test_cold_start_without_checkpoint(self):
        platform, soa, vm = overclocked_platform()
        soa.crash(15.0)
        report = soa.restart(20.0, None)
        assert report.cold_start
        assert soa.alive and soa.active_grants == 0
        assert soa._assignment is None

    def test_restart_clears_stale_quarantine_projection(self):
        platform, soa, vm = overclocked_platform()
        soa.quarantined_until = 1e9
        soa.crash(15.0)
        soa.restart(20.0, None)
        # The risk controller re-imposes real quarantines; a restart must
        # not resurrect the cached projection on its own.
        assert soa.quarantined_until is None

    def test_restored_assignment_rederives_stale_margin(self):
        platform, soa, vm = overclocked_platform()
        assignment = platform.goas["r0"].recompute_budgets(10.0)
        assert assignment is not None
        cp = soa.build_checkpoint(10.0)
        soa.crash(15.0)
        # The outage outlasts the staleness grace: the assignment comes
        # back pre-derated, never above the checkpointed budget.
        restore_at = 10.0 + 2.0 * WEEK
        report = soa.restart(restore_at, cp)
        assert report.assignment_age_s == pytest.approx(2.0 * WEEK)
        assert report.stale_margin > 0.0
        assert report.checkpoint_budget_watts is not None
        assert report.restored_budget_watts is not None
        assert report.restored_budget_watts < report.checkpoint_budget_watts
        assert not report.overgranted


class TestRoundTripProperty:
    @given(n_ticks=st.integers(min_value=1, max_value=25),
           utilization=st.floats(min_value=0.2, max_value=1.0),
           overclock=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_checkpoint_restore_checkpoint_bit_identical(
            self, n_ticks, utilization, overclock):
        platform, servers = build()
        vm = VirtualMachine(8, utilization=utilization)
        servers[0].place_vm(vm)
        service = platform.register_service(
            "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
        platform.attach_vm("svc", vm)
        if overclock:
            service.observe(0.0, 9.5, 10.0)
        now = 0.0
        for i in range(n_ticks):
            now = i * 10.0
            platform.tick(now, dt=10.0)
        soa = platform.soas["s0"]
        before = soa.build_checkpoint(now)
        soa.crash(now)
        soa.restart(now, before)
        after = soa.build_checkpoint(now)
        assert before.payload == after.payload
        assert before.fingerprint() == after.fingerprint()


def pushed_platform(utilization=0.8):
    """``overclocked_platform`` with a budget assignment pushed to every
    sOA on the rack."""
    platform, soa, vm = overclocked_platform(utilization=utilization)
    assert platform.goas["r0"].recompute_budgets(10.0) is not None
    return platform, soa, vm


def assert_composed_matches_reference(checkpoint):
    body = checkpoint.canonical_body()
    assert body == reference_body(checkpoint)
    assert checkpoint.fingerprint() == hashlib.sha256(
        reference_body(checkpoint)).hexdigest()


class TestComposedBody:
    def test_plain_payload_matches_reference(self):
        assert_composed_matches_reference(checkpoint())

    @given(n_ticks=st.integers(min_value=1, max_value=20),
           utilization=st.floats(min_value=0.2, max_value=1.0),
           overclock=st.booleans(),
           push=st.booleans(),
           crash_restore=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_composed_equals_whole_encode(self, n_ticks, utilization,
                                          overclock, push, crash_restore):
        platform, servers = build()
        vm = VirtualMachine(8, utilization=utilization)
        servers[0].place_vm(vm)
        service = platform.register_service(
            "svc", metrics_policy=MetricsTriggerPolicy(consecutive=1))
        platform.attach_vm("svc", vm)
        if overclock:
            service.observe(0.0, 9.5, 10.0)
        now = 0.0
        for i in range(n_ticks):
            now = i * 10.0
            platform.tick(now, dt=10.0)
        if push:
            assert platform.goas["r0"].recompute_budgets(now) is not None
        if crash_restore:
            soa = platform.soas["s0"]
            saved = soa.build_checkpoint(now)
            soa.crash(now)
            soa.restart(now + 5.0, saved)
        for soa in platform.soas.values():
            cp = soa.build_checkpoint(now + 10.0)
            assert (cp.payload["assignment"] is None) == (not push)
            assert_composed_matches_reference(cp)


class TestSharedAssignmentFragment:
    def test_rack_shares_one_form_per_push(self):
        platform, soa, vm = pushed_platform()
        round_one = [s.build_checkpoint(20.0)
                     for s in platform.soas.values()]
        forms = [cp.payload["assignment"]["budgets"] for cp in round_one]
        assert len(forms) == 3
        assert all(form is forms[0] for form in forms)
        # A later round under the same assignment still shares it.
        again = platform.soas["s1"].build_checkpoint(30.0)
        assert again.payload["assignment"]["budgets"] is forms[0]
        # A push with a higher epoch brings a new form.
        epoch = round_one[0].payload["assignment"]["epoch"]
        assert platform.goas["r0"].recompute_budgets(40.0) is not None
        newer = platform.soas["s0"].build_checkpoint(50.0)
        assert newer.payload["assignment"]["epoch"] > epoch
        assert newer.payload["assignment"]["budgets"] is not forms[0]
        for cp in round_one + [again, newer]:
            assert_composed_matches_reference(cp)


def _section_span(body, payload, section):
    """[start, end) of ``section``'s value inside the encoded body."""
    fragment = json.dumps(payload[section], sort_keys=True,
                          separators=(",", ":"), default=dict).encode()
    start = body.index(f'"{section}":'.encode() + fragment) \
        + len(section) + 3
    return start, start + len(fragment)


class TestSectionCorruption:
    SECTIONS = ("wear_counters", "epoch_budgets", "templates", "grants",
                "assignment")

    @pytest.mark.parametrize("section", SECTIONS)
    def test_flip_in_each_section_is_detected(self, section):
        platform, soa, vm = pushed_platform()
        payload = soa.build_checkpoint(20.0).payload
        assert payload["grants"] and payload["assignment"] is not None
        # Taken-at values of one printed width keep every span fixed.
        candidates = [float(t) for t in range(1000, 10000)]
        body = SoaCheckpoint("s0", candidates[0], payload).canonical_body()
        start, end = _section_span(body, payload, section)
        for taken_at in candidates:
            cp = SoaCheckpoint("s0", taken_at, payload)
            flipped = _flip_byte(cp.canonical_body(), "s0", taken_at)
            index = next(i for i, (a, b) in enumerate(
                zip(flipped, cp.canonical_body())) if a != b)
            if start <= index < end:
                break
        else:
            pytest.fail(f"no taken_at flips a byte of {section}")
        store = DurableStore(corruption_hook=lambda key, at: True)
        store.save(cp)
        load = store.load_verified("s0")
        assert load.corrupted and load.checkpoint is None
        soa.crash(taken_at)
        report = soa.restart(taken_at + 1.0, load.checkpoint)
        assert report.cold_start
        assert soa._assignment is None and soa.active_grants == 0


class TestReadOnlyAssignment:
    def test_budget_arrays_reject_in_place_writes(self):
        assignment = BudgetAssignment(
            slot_s=300.0, budgets={"a": np.array([1.0, 2.0])})
        with pytest.raises(ValueError):
            assignment.budgets["a"][0] = 5.0
        with pytest.raises(ValueError):
            assignment.budgets["a"] += 1.0

    def test_pushed_assignment_is_read_only(self):
        platform, soa, vm = pushed_platform()
        series = soa._assignment.budgets["s0"]
        with pytest.raises(ValueError):
            series[0] = 0.0
