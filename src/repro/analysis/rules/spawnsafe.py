"""Rule ``spawn-purity``: pool workers touch no mutable module globals.

The seed-sharded sweep (DESIGN.md "Layer 3") promises that rack ``i``
is a pure function of ``(fleet_seed, i)`` — that is what makes results
independent of worker count, scheduling order, and the spawn start
method's re-import of every module in the child.  A worker entrypoint
that reads a mutable module global computed in the *parent* breaks the
promise silently: under ``fork`` it sees the parent's value, under
``spawn`` it sees the re-imported default, and the sweep's output
depends on which.

Entrypoints come from ``LintConfig.worker_entrypoints`` (dotted
``module.qualname`` specs, or bare function names matched in any
module): every process-pool worker and initializer in
:mod:`repro.experiments`.  Their *transitive* effect summaries must
contain no read or write of a mutable module global, with one
sanctioned exception: the worker-local **None-sentinel** idiom
(``_CACHE = None`` at module level, rebound only through ``global``
inside the worker functions) is per-process state that spawn
re-initializes to ``None`` in every child, so it cannot leak parent
state.

Unpicklable-closure hazards are prevented structurally rather than
flagged: an entrypoint spec can only name a module-level function
(nested functions have no importable address), and module-level
functions pickle by reference under spawn.  Diagnostics anchor at the
offending read/write statement, which may sit in a helper far from the
entrypoint — the summary's propagated source site keeps the location.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["SpawnPurityRule"]

_GLOBAL_KINDS = {"global-read": "reads", "global-write": "writes"}


@register
class SpawnPurityRule(Rule):
    rule_id = "spawn-purity"
    description = ("worker entrypoint transitively touches a mutable "
                   "module global, breaking the seed-sharded contract")

    def check(self, ctx: ModuleContext, index: ProjectIndex,
              config: LintConfig) -> Iterator[Diagnostic]:
        analysis = index.effect_analysis()
        seen: set[tuple[int, str, str]] = set()
        for spec in sorted(config.worker_entrypoints):
            for key in analysis.entrypoints_matching(spec):
                entry = f"{key[0]}.{key[1]}"
                for effect in sorted(analysis.effects_of(key)):
                    verb = _GLOBAL_KINDS.get(effect.kind)
                    if verb is None:
                        continue
                    if analysis.is_none_sentinel(effect.name):
                        continue
                    # Effects only arise from linted files, so each site
                    # is reported exactly once: by its own module's ctx.
                    if effect.path != ctx.path:
                        continue
                    dedup = (effect.line, effect.kind, effect.name)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    via = "" if effect.origin == key[1] else \
                        f" (reached via {effect.origin})"
                    yield self.diagnostic(
                        ctx, effect.line, 0,
                        f"worker entrypoint {entry} transitively {verb} "
                        f"mutable module global {effect.name}{via}; rack "
                        f"results must be a pure function of "
                        f"(fleet_seed, i) — pass the value through the "
                        f"job payload or use the worker-local "
                        f"None-sentinel idiom")