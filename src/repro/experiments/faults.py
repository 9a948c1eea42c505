"""Fault-injection scenario: the paper's graceful-degradation claim.

§III Q5 / §IV-C argue SmartOClock is decentralized: when the gOA or its
communication path fails, sOAs keep enforcing their last-known budgets
and the rack stays inside its capping envelope — overclocking *quality*
degrades (stale budgets, missed demand shifts), rack *safety* does not.

This scenario runs two matched SmartOClock clusters on the identical
load trace and seed: one fault-free, one under a :class:`FaultPlan`
combining a gOA outage through the load peak, a lossy/delayed budget
channel, telemetry dropouts, and misprediction skew.  The comparison
reports cap events, SLO violations, grant throughput and the peak
post-enforcement rack draw; the run is deterministic, so CI can assert
bit-identical output across repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.experiments.cluster import ClusterConfig, EnvironmentResult, run_environment
from repro.experiments.parallel import run_jobs
from repro.faults import (
    FaultPlan,
    GoaOutage,
    MessageFault,
    MispredictionFault,
    TelemetryDropout,
)
from repro.faults.spec import FaultWindow

__all__ = [
    "FaultScenarioConfig",
    "FaultExperimentResult",
    "default_fault_plan",
    "fault_injection_experiment",
    "format_fault_report",
]


@dataclass(frozen=True)
class FaultScenarioConfig:
    """Knobs for the faulted-vs-fault-free comparison."""

    duration_s: float = 3600.0
    tick_s: float = 10.0
    seed: int = 0
    # The rack limit is mildly constrained so the capping envelope is a
    # live constraint rather than unreachable headroom.
    rack_limit_factor: float = 1.05
    # Faults: the gOA dies as the load peak begins and stays dead; the
    # channel is lossy and slow before that; telemetry flakes through the
    # first half; templates underpredict during the peak.
    message_drop_prob: float = 0.5
    message_delay_s: float = 30.0
    telemetry_drop_prob: float = 0.3
    misprediction_scale: float = 0.9

    def __post_init__(self) -> None:
        # NaN passes every comparison below, so check finiteness first.
        if not math.isfinite(self.duration_s):
            raise ValueError(f"duration_s must be finite: {self.duration_s}")
        if self.duration_s < 6 * self.tick_s:
            raise ValueError("scenario too short to contain its phases")
        if not 0.0 <= self.message_drop_prob <= 1.0:
            raise ValueError(
                f"message_drop_prob must be in [0, 1]: "
                f"{self.message_drop_prob}")

    def cluster_config(self) -> ClusterConfig:
        """The matched cluster both runs share (peak in the middle
        third, so the outage window overlaps the interesting part)."""
        return ClusterConfig(
            duration_s=self.duration_s,
            tick_s=self.tick_s,
            peak_start_s=self.duration_s / 3.0,
            peak_duration_s=self.duration_s / 3.0,
            rack_limit_factor=self.rack_limit_factor,
            seed=self.seed)

    @property
    def outage_start_s(self) -> float:
        return self.duration_s / 3.0


def default_fault_plan(config: FaultScenarioConfig) -> FaultPlan:
    """The scenario's composite failure: every fault class at once."""
    outage = FaultWindow(config.outage_start_s, config.duration_s)
    pre_outage = FaultWindow(0.0, config.outage_start_s)
    faults = FaultPlan(
        goa_outages=(GoaOutage(outage),),
        message_faults=(MessageFault(
            pre_outage, drop_prob=config.message_drop_prob,
            delay_s=config.message_delay_s),),
        telemetry_dropouts=(TelemetryDropout(
            FaultWindow(0.0, config.duration_s / 2.0),
            drop_prob=config.telemetry_drop_prob),),
        mispredictions=(MispredictionFault(
            FaultWindow(config.outage_start_s, config.duration_s),
            scale=config.misprediction_scale),),
    )
    return faults


@dataclass(frozen=True)
class FaultExperimentResult:
    """Matched fault-free vs faulted SmartOClock runs."""

    fault_free: EnvironmentResult
    faulted: EnvironmentResult
    plan: FaultPlan

    def metrics(self) -> dict[str, dict[str, float]]:
        """Flat numeric summary (also the determinism fingerprint: two
        runs with the same config and seed must produce this exactly)."""
        out: dict[str, dict[str, float]] = {}
        for name, result in (("fault_free", self.fault_free),
                             ("faulted", self.faulted)):
            row: dict[str, float] = {
                "cap_events": float(result.cap_events),
                "grants": float(result.overclock_grants),
                "rejections": float(result.overclock_rejections),
                "scale_outs": float(result.scale_outs),
                "missed_slo_ticks_fraction":
                    result.missed_slo_ticks_fraction,
                "peak_rack_power_fraction":
                    result.peak_rack_power_fraction,
                "total_energy_mj": result.total_energy_j / 1e6,
            }
            for cls, metrics in result.per_class.items():
                row[f"p99_ms_{cls}"] = metrics.p99_ms
                row[f"missed_slo_{cls}"] = metrics.missed_slo_fraction
            if result.faults is not None:
                for key, value in result.faults.items():
                    row[key] = float(value)
            out[name] = row
        return out


def _fault_job(payload: "tuple[FaultScenarioConfig, Optional[FaultPlan]]"
               ) -> EnvironmentResult:
    """Spawn-safe variant worker: fault-free (plan None) or faulted."""
    config, plan = payload
    cluster = config.cluster_config()
    if plan is None:
        return run_environment("SmartOClock", cluster,
                               label="SmartOClock/fault-free")
    return run_environment("SmartOClock", cluster, fault_plan=plan,
                           label="SmartOClock/faulted")


def fault_injection_experiment(
        config: Optional[FaultScenarioConfig] = None, *,
        plan: Optional[FaultPlan] = None,
        workers: Optional[int] = 1) -> FaultExperimentResult:
    """Run the matched pair.  ``plan`` overrides the default composite
    fault plan (pass a plan with only a gOA outage to isolate it); the
    plan is resolved here and shipped in the payload, so both workers
    see the identical plan object state."""
    config = config or FaultScenarioConfig()
    plan = plan if plan is not None else default_fault_plan(config)
    fault_free, faulted = run_jobs(
        _fault_job, [(config, None), (config, plan)], workers=workers)
    return FaultExperimentResult(fault_free=fault_free, faulted=faulted,
                                 plan=plan)


def format_fault_report(result: FaultExperimentResult) -> str:
    """Fixed-precision text report (stable across repeated runs)."""
    metrics = result.metrics()
    rows = sorted(set(metrics["fault_free"]) | set(metrics["faulted"]))
    lines = [f"{'metric':<28}{'fault-free':>14}{'faulted':>14}"]
    for key in rows:
        cells = []
        for name in ("fault_free", "faulted"):
            value = metrics[name].get(key)
            cells.append("-" if value is None else f"{value:.6g}")
        lines.append(f"{key:<28}{cells[0]:>14}{cells[1]:>14}")
    faulted = result.faulted
    safe = faulted.peak_rack_power_fraction <= 1.0 + 1e-9
    lines.append(
        "degradation: "
        + ("graceful (rack stayed within the capping envelope)" if safe
           else "UNSAFE (post-enforcement draw exceeded the rack limit)"))
    return "\n".join(lines)
