"""FaultInjector: determinism, counters, and hook behaviour."""

import pytest

from repro.core.messaging import Envelope, MessageChannel
from repro.faults import FaultInjector, FaultPlan, GoaOutage, MessageFault
from repro.faults.spec import (
    CheckpointCorruptionFault,
    FaultWindow,
    MispredictionFault,
    TelemetryDropout,
)
from repro.recovery.checkpoint import DurableStore, SoaCheckpoint


def lossy_plan(drop=0.5, delay=0.0):
    return FaultPlan(message_faults=(
        MessageFault(FaultWindow(0.0, 1000.0), drop_prob=drop,
                     delay_s=delay),))


class TestDeterminism:
    def test_same_seed_same_fates(self):
        """The whole point: one plan + one seed = one fault schedule."""
        def fates(seed):
            injector = FaultInjector(lossy_plan(), seed=seed)
            return [injector.message_fate(
                "r0", Envelope("budget_push", "r0", f"s{i}", t)).dropped
                for i in range(8) for t in (10.0, 400.0, 999.0)]
        assert fates(7) == fates(7)
        assert fates(7) != fates(8)  # and the seed actually matters

    def test_fate_independent_of_draw_order(self):
        """Decisions key on event identity, not a shared stream: asking
        about extra events must not change other events' fates."""
        e1 = Envelope("budget_push", "r0", "s0", 10.0)
        e2 = Envelope("budget_push", "r0", "s1", 10.0)
        a = FaultInjector(lossy_plan(), seed=3)
        b = FaultInjector(lossy_plan(), seed=3)
        a.message_fate("r0", e1)
        assert (a.message_fate("r0", e2).dropped
                == b.message_fate("r0", e2).dropped)

    def test_telemetry_drop_deterministic(self):
        plan = FaultPlan(telemetry_dropouts=(
            TelemetryDropout(FaultWindow(0.0, 1000.0), drop_prob=0.5),))
        def drops(seed):
            injector = FaultInjector(plan, seed=seed)
            return [injector.telemetry_drop("s0", t * 10.0)
                    for t in range(40)]
        assert drops(1) == drops(1)
        assert any(drops(1)) and not all(drops(1))


class TestFates:
    def test_certain_drop_and_certain_delivery(self):
        injector = FaultInjector(lossy_plan(drop=1.0))
        fate = injector.message_fate(
            "r0", Envelope("budget_push", "r0", "s0", 1.0))
        assert fate.dropped
        fate = injector.message_fate(
            "r0", Envelope("budget_push", "r0", "s0", 2000.0))  # outside
        assert not fate.dropped and fate.delay_s == 0.0

    def test_delay_without_drop(self):
        injector = FaultInjector(lossy_plan(drop=0.0, delay=25.0))
        fate = injector.message_fate(
            "r0", Envelope("budget_push", "r0", "s0", 1.0))
        assert not fate.dropped
        assert fate.delay_s == 25.0
        # The channel that suffers the delay is what counts it.
        channel = MessageChannel(injector.channel_hook("r0"))
        assert channel.send(Envelope("budget_push", "r0", "s0", 1.0),
                            lambda at: None)
        assert (channel.delayed, channel.dropped, channel.in_flight) == \
            (1, 0, 1)

    def test_goa_down_counts_missed_cycles(self):
        plan = FaultPlan(goa_outages=(
            GoaOutage(FaultWindow(100.0, 200.0), rack_id="r0"),))
        injector = FaultInjector(plan)
        assert not injector.goa_down("r0", 50.0)
        assert injector.goa_down("r0", 150.0)
        assert not injector.goa_down("r1", 150.0)
        assert injector.counters.goa_cycles_missed == 1

    def test_prediction_hook_scales_and_counts(self):
        plan = FaultPlan(mispredictions=(
            MispredictionFault(FaultWindow(0.0, 100.0), scale=0.8,
                               server_id="s0"),))
        injector = FaultInjector(plan)
        hook = injector.prediction_hook("s0")
        assert hook(50.0) == pytest.approx(0.8)
        assert hook(150.0) == 1.0
        other = injector.prediction_hook("s1")
        assert other(50.0) == 1.0
        assert injector.counters.predictions_skewed == 1

    def test_checkpoint_corruption_window_and_selector(self):
        plan = FaultPlan(checkpoint_corruptions=(
            CheckpointCorruptionFault(FaultWindow(100.0, 200.0),
                                      corrupt_prob=1.0, server_id="s0"),))
        injector = FaultInjector(plan)
        assert injector.checkpoint_corruption("s0", 150.0)
        assert not injector.checkpoint_corruption("s0", 250.0)  # outside
        assert not injector.checkpoint_corruption("s1", 150.0)  # other key
        # The store the hook is installed on counts the rotted saves.
        store = DurableStore(corruption_hook=injector.corruption_hook())
        for key, taken_at in (("s0", 150.0), ("s0", 250.0), ("s1", 150.0)):
            store.save(SoaCheckpoint(key, taken_at, {"t": taken_at}))
        assert store.checkpoints_corrupted == 1

    def test_checkpoint_corruption_wildcard_covers_goa_keys(self):
        plan = FaultPlan(checkpoint_corruptions=(
            CheckpointCorruptionFault(FaultWindow(0.0, 100.0)),))
        injector = FaultInjector(plan)
        assert injector.checkpoint_corruption("goa:r0", 50.0)
        assert injector.checkpoint_corruption("s3", 50.0)

    def test_checkpoint_corruption_deterministic_per_event(self):
        plan = FaultPlan(checkpoint_corruptions=(
            CheckpointCorruptionFault(FaultWindow(0.0, 1000.0),
                                      corrupt_prob=0.5),))

        def fates(seed):
            injector = FaultInjector(plan, seed=seed)
            return [injector.checkpoint_corruption(f"s{i}", t * 100.0)
                    for i in range(4) for t in range(10)]

        assert fates(5) == fates(5)
        assert fates(5) != fates(6)
        assert any(fates(5)) and not all(fates(5))

    def test_corruption_hook_counts_like_direct_calls(self):
        plan = FaultPlan(checkpoint_corruptions=(
            CheckpointCorruptionFault(FaultWindow(0.0, 100.0)),))
        injector = FaultInjector(plan)
        hook = injector.corruption_hook()
        assert hook("s0", 10.0) == injector.checkpoint_corruption("s0", 10.0)
        store = DurableStore(corruption_hook=hook)
        store.save(SoaCheckpoint("s0", 10.0, {"t": 10.0}))
        assert store.checkpoints_corrupted == 1
        assert store.load_verified("s0").corrupted

    def test_counters_as_dict_keys(self):
        counters = FaultInjector(FaultPlan()).counters.as_dict()
        # Drops, delays and corruption are counted by the channel and
        # the durable store, not copied here.
        assert set(counters) == {
            "goa_cycles_missed", "telemetry_dropped", "predictions_skewed"}
