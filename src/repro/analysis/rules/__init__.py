"""Built-in lint rules.  Importing this package registers them all."""

from __future__ import annotations

from repro.analysis.rules.determinism import NondeterminismRule
from repro.analysis.rules.durable import DurableStateWriteRule
from repro.analysis.rules.handlers import HandlerHygieneRule
from repro.analysis.rules.power import PowerCacheWriteRule
from repro.analysis.rules.purity import PurityStatelessTickRule
from repro.analysis.rules.spawnsafe import SpawnPurityRule
from repro.analysis.rules.tickloop import TickLoopAllocationRule
from repro.analysis.rules.units import UnitMismatchRule

__all__ = [
    "DurableStateWriteRule",
    "HandlerHygieneRule",
    "NondeterminismRule",
    "PowerCacheWriteRule",
    "PurityStatelessTickRule",
    "SpawnPurityRule",
    "TickLoopAllocationRule",
    "UnitMismatchRule",
]
