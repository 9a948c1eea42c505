"""SmartOClock: the paper's contribution.

A distributed overclocking-management platform (paper §IV) built from:

* Workload Intelligence agents (:mod:`repro.core.workload_intelligence`) —
  metric- and schedule-based overclocking triggers with deployment-level
  aggregation and corrective actions;
* prediction-based admission control (:mod:`repro.core.admission`);
* heterogeneous rack-power budgeting (:mod:`repro.core.budgets`);
* decentralized enforcement: per-server prioritized feedback loop
  (:mod:`repro.core.enforcement`) plus explore/exploit beyond stale budgets
  (:mod:`repro.core.exploration`);
* the Server and Global Overclocking Agents (:mod:`repro.core.soa`,
  :mod:`repro.core.goa`) and the composed platform
  (:mod:`repro.core.platform`);
* the §V-B comparison policies (:mod:`repro.core.policies`).
"""

from repro.core.config import SmartOClockConfig
from repro.core.types import (
    AdmissionDecision,
    ExhaustionKind,
    ExhaustionSignal,
    OverclockRequest,
    RejectionReason,
    RequestKind,
    ServerProfileReport,
)
from repro.core.budgets import compute_heterogeneous_budgets, BudgetAssignment
from repro.core.enforcement import FeedbackLoop
from repro.core.exploration import ExplorationController, ExplorationPhase
from repro.core.soa import ServerOverclockingAgent
from repro.core.goa import GlobalOverclockingAgent
from repro.core.workload_intelligence import (
    GlobalWIAgent,
    LocalWIAgent,
    MetricsTriggerPolicy,
    OverclockSchedule,
)
from repro.core.platform import SmartOClockPlatform

__all__ = [
    "SmartOClockConfig",
    "RequestKind",
    "OverclockRequest",
    "AdmissionDecision",
    "RejectionReason",
    "ExhaustionKind",
    "ExhaustionSignal",
    "ServerProfileReport",
    "compute_heterogeneous_budgets",
    "BudgetAssignment",
    "FeedbackLoop",
    "ExplorationController",
    "ExplorationPhase",
    "ServerOverclockingAgent",
    "GlobalOverclockingAgent",
    "MetricsTriggerPolicy",
    "OverclockSchedule",
    "LocalWIAgent",
    "GlobalWIAgent",
    "SmartOClockPlatform",
]
