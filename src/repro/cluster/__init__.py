"""Datacenter cluster substrate.

Models the physical plant SmartOClock manages: the datacenter → rack →
server → VM → core topology (:mod:`repro.cluster.topology`), the per-core
DVFS / voltage model (:mod:`repro.cluster.frequency`), the server power
model (:mod:`repro.cluster.power`), and the rack power-capping subsystem
with warning messages and prioritized throttling
(:mod:`repro.cluster.capping`).
"""

from repro.cluster.frequency import FrequencyPlan, DEFAULT_FREQUENCY_PLAN
from repro.cluster.power import PowerModel, DEFAULT_POWER_MODEL
from repro.cluster.topology import Core, Datacenter, Rack, Server, VirtualMachine
from repro.cluster.placement import (
    PlacementError,
    PowerAwarePlacer,
    ResourceCentricPlacer,
)
from repro.cluster.capping import (
    CapEvent,
    FairShareThrottler,
    RackPowerManager,
    PrioritizedThrottler,
    WarningMessage,
)

__all__ = [
    "FrequencyPlan",
    "DEFAULT_FREQUENCY_PLAN",
    "PowerModel",
    "DEFAULT_POWER_MODEL",
    "Core",
    "Datacenter",
    "Rack",
    "Server",
    "VirtualMachine",
    "PlacementError",
    "PowerAwarePlacer",
    "ResourceCentricPlacer",
    "CapEvent",
    "FairShareThrottler",
    "RackPowerManager",
    "PrioritizedThrottler",
    "WarningMessage",
]
