"""Rule ``purity-stateless-tick``.

The vectorized fast path (DESIGN.md "Performance architecture") trusts
a self-declared contract flag on ``TracePolicy`` subclasses:
``tick_stateless = True`` promises ``decide`` (and the ``fast_decide``
entry the fast path actually calls) mutates nothing and draws no
randomness — the engine may then replay decisions out of order, batch
them across ticks, and skip the policy entirely on cached segments.

A policy that breaks the promise produces *silently wrong* fleet
results: nothing crashes, the numbers are just not the numbers the
sequential engine would have produced.  This rule checks the promise
against the interprocedural effect analysis
(:mod:`repro.analysis.effects`): effects are propagated through helper
calls with ``self``/``super`` dispatch resolved in each concrete
class's MRO, so a mutation hidden two helpers deep in a base class
still surfaces — anchored at the raw mutating statement when it lives
in the file being linted, at the class header otherwise.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

if TYPE_CHECKING:
    from repro.analysis.effects import ClassIndex, Effect, EffectAnalysis

__all__ = ["PurityStatelessTickRule"]

#: Methods the fast path may call on a stateless policy each tick.
_TICK_METHODS = ("decide", "fast_decide")


def _describe(effect: "Effect") -> str:
    if effect.kind == "self-write":
        return f"writes self.{effect.name}"
    if effect.kind == "param-mutation":
        return f"mutates parameter {effect.name!r} in place"
    if effect.kind == "global-write":
        return f"writes module global {effect.name}"
    return effect.name  # rng: already a human-readable description


@register
class PurityStatelessTickRule(Rule):
    rule_id = "purity-stateless-tick"
    description = ("policy declares tick_stateless = True but its decide "
                   "path transitively mutates state or draws randomness")

    def check(self, ctx: ModuleContext, index: ProjectIndex,
              config: LintConfig) -> Iterator[Diagnostic]:
        analysis = index.effect_analysis()
        classes = analysis.classes
        from repro.analysis.effects import IMPURE_KINDS
        for node in ctx.nodes_of_type(ast.ClassDef):
            assert isinstance(node, ast.ClassDef)
            key = (ctx.module, node.name)
            info = classes.classes.get(key)
            if info is None or info.node is not node:
                continue  # nested class, or shadowed duplicate name
            if node.name in config.policy_base_classes:
                continue
            if not (classes.ancestor_names(key) & config.policy_base_classes):
                continue
            flag = classes.class_attr(key, "tick_stateless")
            if flag is None or flag[0] is not True:
                continue
            inherited = self._inherited_sites(analysis, classes, config, key)
            seen: set[tuple[str, int]] = set()
            for method in _TICK_METHODS:
                for effect in sorted(analysis.method_effects(key, method)):
                    if effect.kind not in IMPURE_KINDS:
                        continue
                    site = (effect.path, effect.line)
                    if site in seen or site in inherited:
                        continue
                    seen.add(site)
                    where = (f" (in {effect.origin} at "
                             f"{effect.path}:{effect.line})"
                             if effect.path != ctx.path else
                             f" (in {effect.origin})"
                             if effect.origin != f"{node.name}.{method}"
                             else "")
                    line = effect.line if effect.path == ctx.path \
                        else node.lineno
                    yield self.diagnostic(
                        ctx, line, node.col_offset,
                        f"{node.name} declares tick_stateless = True but "
                        f"{method}() transitively "
                        f"{_describe(effect)}{where}; the vectorized fast "
                        f"path would silently diverge — fix the effect or "
                        f"declare tick_stateless = False")

    def _inherited_sites(self, analysis: "EffectAnalysis",
                         classes: "ClassIndex", config: LintConfig,
                         key: tuple[str, str]) -> set[tuple[str, int]]:
        """Effect sites already chargeable to a stateless ancestor —
        re-flagging them on every subclass would turn one offending
        statement into a diagnostic per descendant."""
        from repro.analysis.effects import IMPURE_KINDS
        sites: set[tuple[str, int]] = set()
        for ancestor in classes.mro(key)[1:]:
            if ancestor[1] in config.policy_base_classes:
                continue
            if ancestor not in classes.classes:
                continue
            flag = classes.class_attr(ancestor, "tick_stateless")
            if flag is None or flag[0] is not True:
                continue
            for method in _TICK_METHODS:
                for effect in analysis.method_effects(ancestor, method):
                    if effect.kind in IMPURE_KINDS:
                        sites.add((effect.path, effect.line))
        return sites
