"""Measurement and checking support shared by both simulators.

The reproduction has two time-stepped simulators, and no event engine:
the trace-driven fleet sweep behind Table I and Fig. 15
(:mod:`repro.experiments.largescale`) and the tick-driven gOA/sOA
platform (:class:`repro.core.platform.SmartOClockPlatform`).  This
package holds what they measure with: metric collectors for
percentiles, CDFs, RMSE and time-weighted averages
(:mod:`repro.sim.metrics`), and the per-tick safety-invariant monitor
used by chaos runs (:mod:`repro.sim.monitors`).
"""

from repro.sim.metrics import (
    Cdf,
    Histogram,
    RunningStats,
    TimeWeightedValue,
    percentile,
    rmse,
)

__all__ = [
    "Cdf",
    "Histogram",
    "RunningStats",
    "TimeWeightedValue",
    "percentile",
    "rmse",
]
