#!/usr/bin/env python3
"""Tour of the §VI wear-counter extension: online wear counters in place
of the offline 10% overclocking budget.

Run with::

    python examples/extensions_tour.py
"""

from repro.cluster import DEFAULT_POWER_MODEL
from repro.reliability import CoreWearoutCounter, OnlineWearBudget

MAX = DEFAULT_POWER_MODEL.plan.overclock_max_ghz
HOUR = 3600.0


def online_wear() -> None:
    print("=== online wear counters vs the offline 10% budget ===")
    v_oc = DEFAULT_POWER_MODEL.plan.voltage(MAX)
    for util in (0.25, 0.5, 0.85):
        counter = CoreWearoutCounter()
        counter.accumulate(48 * HOUR, util, 1.05)
        budget = OnlineWearBudget(counter, warmup_seconds=0.0)
        fraction = budget.sustainable_fraction(util, v_oc)
        verdict = "more than" if fraction > 0.10 else "less than"
        print(f"core at {util:.0%} utilization: counters allow "
              f"{fraction:5.1%} overclocking — {verdict} the offline 10%")


if __name__ == "__main__":
    online_wear()
