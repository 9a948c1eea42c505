"""Property tests: randomized chaos FaultPlans vs counter accounting.

For any plan :func:`repro.faults.chaos.generate_plan` can draw, the
channel's conservation identity must hold, the channel and store
counters must agree with what the endpoints actually observed, and
replaying the same seed must be bit-identical.  These are the bookkeeping contracts the chaos
sweep's reports (and CI's double-run diff) rest on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messaging import (
    BUDGET_PUSH,
    GOA_HEARTBEAT,
    PROFILE_PULL,
    Envelope,
    MessageChannel,
)
from repro.faults import FaultInjector
from repro.faults.chaos import generate_plan
from repro.recovery.checkpoint import DurableStore, SoaCheckpoint

SERVERS = ("s0", "s1", "s2")
DURATION = 1800.0
TICK = 30.0
TICKS = int(DURATION / TICK)


def drive(seed):
    """One deterministic message/checkpoint workload under the seeded
    random plan: pushes, pulls and heartbeats every tick, checkpoint
    saves on a cadence, a verified load of every key at the end."""
    plan = generate_plan(seed, duration_s=DURATION, server_ids=SERVERS,
                         tick_s=TICK)
    injector = FaultInjector(plan, seed=seed)
    channel = MessageChannel(injector.channel_hook("r0"))
    store = DurableStore(corruption_hook=injector.corruption_hook())
    log = []
    for i in range(TICKS):
        t = i * TICK
        channel.pump(t)
        for sid in SERVERS:
            channel.send(
                Envelope(BUDGET_PUSH, "r0/goa0", sid, t),
                lambda at, s=sid: log.append(("push", s, at)))
            profile = channel.request(
                Envelope(PROFILE_PULL, "r0/goa0", sid, t),
                lambda s=sid: ("profile", s))
            log.append(("pull", sid, t, profile is not None))
        channel.send(
            Envelope(GOA_HEARTBEAT, "r0/goa0", "r0/goa1", t),
            lambda at: log.append(("hb", at)))
        if i % 10 == 0:
            for sid in SERVERS:
                store.save(SoaCheckpoint(sid, t, {"t": t}))
    loads = {sid: store.load_verified(sid) for sid in SERVERS}
    return injector, channel, store, loads, log


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_counters_consistent_under_any_plan(seed):
    injector, channel, store, loads, log = drive(seed)

    # Conservation: every send is delivered, dropped, a failed pull, or
    # still in flight — nothing double-counted, nothing lost.
    assert channel.sent == (channel.delivered + channel.dropped
                            + channel.failed_pulls + channel.in_flight)
    assert channel.sent == TICKS * (2 * len(SERVERS) + 1)

    # The channel's counts agree with the observed event log.
    delivered_sends = sum(1 for e in log if e[0] in ("push", "hb"))
    successful_pulls = sum(1 for e in log if e[0] == "pull" and e[3])
    assert channel.delivered == delivered_sends + successful_pulls

    # Corruption: the store detected exactly the keys whose latest save
    # was corrupted.
    assert store.corruption_detected == \
        sum(1 for load in loads.values() if load.corrupted)
    for load in loads.values():
        assert load.corrupted == (load.checkpoint is None)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_same_seed_replays_bit_identical(seed):
    first = drive(seed)
    second = drive(seed)
    assert first[0].counters.as_dict() == second[0].counters.as_dict()
    for attr in ("sent", "delivered", "dropped", "delayed",
                 "failed_pulls", "in_flight"):
        assert getattr(first[1], attr) == getattr(second[1], attr)
    for attr in ("checkpoints_corrupted", "corruption_detected"):
        assert getattr(first[2], attr) == getattr(second[2], attr)
    assert first[4] == second[4]  # the full observed event log
