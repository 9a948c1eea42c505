"""The layer table of the traced run: which public entry points of each
``src/repro`` layer are timed, and what each layer's numbers mean.

Every later performance change cites these names.  ``moves`` says which
end-to-end metric a change to the layer should move, on which workload;
``still`` says on which workloads it should not move.  ``ACTIVE`` lists,
per workload, the layers that must record calls, and ``IDLE`` the layers
that must record none: a rename in ``src/`` fails the traced run instead
of silently zeroing a layer.

Entry points are written ``module:Class.method`` (wrapped on the class
and on every subclass that overrides it) or ``module:function`` (patched
in every loaded ``repro`` module that binds the name, i.e. where callers
look it up).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    name: str
    entry_points: tuple[str, ...]
    moves: str
    still: str
    #: Keep every call as a span.  False for per-server-per-tick
    #: boundaries, which keep per-layer aggregates only.
    spans: bool = False


LAYERS: tuple[Layer, ...] = (
    Layer("recovery.checkpoint",
          ("repro.recovery.checkpoint:SoaCheckpoint.canonical_body",
           "repro.recovery.checkpoint:DurableStore.save",
           "repro.recovery.checkpoint:DurableStore.load_verified",
           "repro.core.soa:ServerOverclockingAgent.build_checkpoint",
           "repro.core.soa:ServerOverclockingAgent.restart"),
          moves="wall_s, peak_rss_mib on recovery",
          still="faults, table1, fleet-week", spans=True),
    Layer("recovery.lifecycle",
          ("repro.recovery.lifecycle:ServerLifecycleManager.tick",),
          moves="wall_s on recovery", still="faults, fleet-week"),
    Layer("reliability.hazard",
          ("repro.reliability.hazard:HazardModel.tick_failure_probability",),
          moves="wall_s on recovery", still="faults, table1, fleet-week"),
    Layer("workloads.microservices",
          ("repro.workloads.microservices:"
           "MicroserviceDeployment.p99_latency_ms",),
          moves="wall_s on faults, recovery", still="table1, fleet-week"),
    Layer("experiments.cluster.aggregate",
          ("repro.experiments.cluster:LatencyAggregator.p99_ms",
           "repro.experiments.cluster:LatencyAggregator.mean_ms",
           "repro.experiments.cluster:LatencyAggregator.missed_slo_fraction"),
          moves="wall_s on faults, recovery", still="table1, fleet-week",
          spans=True),
    Layer("experiments.cluster",
          ("repro.experiments.cluster:run_environment",),
          moves="- (run_environment's own tick loop)", still="-", spans=True),
    Layer("core.platform",
          ("repro.core.platform:SmartOClockPlatform.tick",
           "repro.core.platform:SmartOClockPlatform.force_budget_update"),
          moves="wall_s on fleet-week (the platform loop's own work)",
          still="table1"),
    Layer("core.workload_intelligence",
          ("repro.core.workload_intelligence:GlobalWIAgent.observe",),
          moves="wall_s on fleet-week", still="table1"),
    Layer("core.soa",
          ("repro.core.soa:ServerOverclockingAgent.control_tick",
           "repro.core.soa:ServerOverclockingAgent.telemetry_tick",
           "repro.core.soa:ServerOverclockingAgent.handle_request"),
          moves="sim_server_ticks_per_s on fleet-week", still="table1"),
    Layer("cluster.topology",
          ("repro.cluster.topology:Server.advance",),
          moves="sim_server_ticks_per_s on fleet-week", still="table1"),
    Layer("cluster.capping",
          ("repro.cluster.capping:RackPowerManager.sample",),
          moves="wall_s on fleet-week", still="table1"),
    Layer("core.goa",
          ("repro.core.goa:GlobalOverclockingAgent.update",),
          moves="wall_s on fleet-week, faults", still="table1", spans=True),
    Layer("core.messaging",
          ("repro.core.messaging:MessageChannel.send",
           "repro.core.messaging:MessageChannel.request",
           "repro.core.messaging:MessageChannel.pump"),
          moves="wall_s on faults", still="table1"),
    Layer("prediction.templates",
          ("repro.prediction.predictor:TemplateStore.record",
           "repro.prediction.predictor:TemplateStore.record_series",
           "repro.prediction.predictor:TemplateStore.predict",
           "repro.prediction.predictor:TemplateStore.predict_or",
           "repro.prediction.predictor:TemplateStore.recompute",
           "repro.prediction.templates:build_template",
           "repro.prediction.templates:predict_series_batch"),
          moves="wall_s on table1 (batch week fits) and fleet-week "
                "(incremental appends and point predictions)",
          still="-"),
    Layer("traces.synthetic",
          ("repro.traces.synthetic:generate_fleet_rack",
           "repro.experiments.parallel:RackSpec.materialize"),
          moves="wall_s on table1", still="platform workloads", spans=True),
    Layer("core.policies.plan",
          ("repro.core.policies:TracePolicy.begin_week",
           "repro.core.policies:TracePolicy.begin_week_fast",
           "repro.core.policies:TracePolicy.plan_segment"),
          moves="wall_s on table1", still="platform workloads"),
    Layer("core.policies.decide",
          ("repro.core.policies:TracePolicy.decide",
           "repro.core.policies:TracePolicy.fast_decide"),
          moves="wall_s on table1 (the scalar cap-tick fallback)",
          still="platform workloads"),
    Layer("experiments.largescale",
          ("repro.experiments.largescale:simulate_rack",),
          moves="wall_s on table1 (block build and consume)",
          still="platform workloads", spans=True),
    Layer("experiments.parallel",
          ("repro.experiments.parallel:iter_rack_policy_results",
           "repro.experiments.largescale:PolicyAccumulator.add"),
          moves="wall_s on table1", still="platform workloads", spans=True),
)

_CONTROL = ("core.platform", "core.workload_intelligence", "core.soa",
            "cluster.topology", "cluster.capping", "core.goa",
            "prediction.templates")
_PLATFORM = ("workloads.microservices", "experiments.cluster.aggregate",
             "experiments.cluster") + _CONTROL
_RECOVERY = ("recovery.checkpoint", "recovery.lifecycle",
             "reliability.hazard")

ACTIVE: dict[str, tuple[str, ...]] = {
    "recovery": _PLATFORM + _RECOVERY,
    "faults": _PLATFORM + ("core.messaging",),
    "table1": ("prediction.templates", "traces.synthetic",
               "core.policies.plan", "core.policies.decide",
               "experiments.largescale", "experiments.parallel"),
    "fleet-week": _CONTROL,
}

IDLE: dict[str, tuple[str, ...]] = {
    "recovery": (),
    "faults": _RECOVERY,
    "table1": ("core.soa", "cluster.capping",
               "workloads.microservices") + _RECOVERY,
    "fleet-week": _RECOVERY,
}
