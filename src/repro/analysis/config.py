"""Lint configuration: rule selection plus per-rule knobs.

The defaults below are the one place this repository's lint settings
live: ``repro lint`` runs ``LintConfig()`` narrowed by its
``--select``/``--ignore`` flags.  Extend ``DEFAULT_POWER_FIELDS`` when
adding cached power state to ``repro/cluster/topology.py``, and
``DEFAULT_DURABLE_FIELDS`` when adding state to the sOA checkpoint
payload (``repro/recovery/checkpoint.py``).  Tests point rules at
fixtures by overriding the fields directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "DEFAULT_DURABLE_FIELDS",
    "DEFAULT_HOT_PATH_MODULES",
    "DEFAULT_POLICY_BASE_CLASSES",
    "DEFAULT_POWER_FIELDS",
    "DEFAULT_WORKER_ENTRYPOINTS",
    "LintConfig",
]

# Backing fields of the incremental power-accounting caches
# (repro.cluster.topology).  A write to any of these from outside the
# owning object bypasses the delta-updating setters and silently
# corrupts cached wattage.
DEFAULT_POWER_FIELDS = frozenset({
    "_freq_ghz",
    "_vm_id",
    "_utilization",
    "_background_watts",
    "_dynamic_watts",
    "_power_watts",
    "_total_watts",
})

# Backing fields of the sOA's *durable* (checkpointed) state: wear
# counters, epoch budgets, template history, the grant ledger and the
# last budget assignment (repro.recovery.checkpoint).  A write from
# outside the owning object bypasses the accounting methods, so the
# next checkpoint persists state the control plane never computed.
DEFAULT_DURABLE_FIELDS = frozenset({
    "_grants",
    "_assignment",
    "_assignment_received_at",
    "_times",
    "_values",
    "_template",
    "_epoch_index",
    "_carryover",
    "_consumed",
    "_reserved",
    "_elapsed_seconds",
    "_busy_seconds",
    "_overclock_seconds",
    "_wear_seconds",
})

# Module path suffixes tagged *hot path*: per-tick inner loops whose
# throughput the vectorized fast path depends on.  The
# tick-loop-allocation rule flags per-iteration NumPy allocations there.
# core/goa_ha.py runs on every platform tick (heartbeats + lease
# checks), so the HA layer is held to the same no-allocation bar.
# cluster/topology.py and cluster/capping.py carry the lazy-accrual
# fast path (Server.advance, _flush_accrual, _restore_step) — per-tick
# code expected to allocate O(changes), not O(cores).
DEFAULT_HOT_PATH_MODULES = (
    "experiments/largescale.py",
    "core/policies.py",
    "core/goa_ha.py",
    "cluster/topology.py",
    "cluster/capping.py",
)

# Class names whose subclasses carry the fast-path purity contract
# (tick_stateless).  Matching is by name against the approximate MRO,
# so a fixture's local ``TracePolicy`` stub counts.
DEFAULT_POLICY_BASE_CLASSES = frozenset({"TracePolicy"})

# Functions executed inside pool workers under the spawn start method.
# The seed-sharded contract (rack i is a pure function of
# ``(fleet_seed, i)``) requires them to touch no mutable module globals
# beyond the sanctioned worker-local None-sentinels.  Dotted specs match
# ``module.qualname``; bare names match that qualname in any module.
# Add new worker/initializer functions here when a sweep grows another
# process-pool entrypoint.
DEFAULT_WORKER_ENTRYPOINTS = frozenset({
    "repro.experiments.parallel._run_job",
    "repro.experiments.chaos._trial_job",
    "repro.experiments.recovery._recovery_job",
    "repro.experiments.faults._fault_job",
    "repro.experiments.oversubscription._stress_job",
})


@dataclass(frozen=True)
class LintConfig:
    """Engine-wide configuration passed to every rule.

    ``select`` of ``None`` means "all registered rules"; ``ignore`` is
    subtracted afterwards.  ``determinism_modules`` of ``None`` applies
    the nondeterminism rule everywhere (the repo-wide convention);
    a tuple restricts it to modules whose path contains any entry.
    """

    select: Optional[frozenset[str]] = None
    ignore: frozenset[str] = frozenset()
    power_fields: frozenset[str] = DEFAULT_POWER_FIELDS
    durable_fields: frozenset[str] = DEFAULT_DURABLE_FIELDS
    hot_path_modules: tuple[str, ...] = DEFAULT_HOT_PATH_MODULES
    determinism_modules: Optional[tuple[str, ...]] = None
    policy_base_classes: frozenset[str] = DEFAULT_POLICY_BASE_CLASSES
    worker_entrypoints: frozenset[str] = DEFAULT_WORKER_ENTRYPOINTS

    def enabled(self, rule_id: str) -> bool:
        """True when ``rule_id`` should run under this configuration."""
        if rule_id in self.ignore:
            return False
        return self.select is None or rule_id in self.select
