"""Rule ``tick-loop-allocation``: no per-iteration NumPy allocation in
hot-path modules.

The vectorized simulation fast path (DESIGN.md "Performance
architecture") gets its speed from touching NumPy once per *segment*,
not once per tick.  An ``np.zeros``/``np.full``/``np.stack`` call inside
a loop in one of the hot-path modules (``LintConfig.hot_path_modules``)
allocates a fresh array every iteration — exactly the churn the fast
path was built to remove, and the kind of regression a correctness
test never catches.  Hoist the buffer out of the loop and
reuse it (``np.copyto``, the ``out=`` parameter) or pre-compute the
values segment-at-a-time.

Per-segment allocations that are genuinely needed (a loop over *plans*,
not ticks) can be sanctioned with a same-line
``# oclint: disable=tick-loop-allocation`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import LintConfig
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

__all__ = ["TickLoopAllocationRule"]

#: numpy callables that always allocate a new array sized by their
#: input.  Element-wise ufuncs are excluded: with ``out=`` they are the
#: sanctioned way to reuse a hoisted buffer.
_ALLOCATORS = frozenset({
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "array", "asarray", "ascontiguousarray", "asfortranarray",
    "stack", "vstack", "hstack", "dstack", "column_stack",
    "concatenate", "tile", "repeat",
    "arange", "linspace", "meshgrid",
})

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)


@register
class TickLoopAllocationRule(Rule):
    rule_id = "tick-loop-allocation"
    description = ("NumPy allocation inside a loop in a hot-path module; "
                   "hoist the buffer (np.copyto / out=) or pre-compute "
                   "per segment")

    def check(self, ctx: ModuleContext, index: ProjectIndex,
              config: LintConfig) -> Iterator[Diagnostic]:
        if not config.hot_path_modules:
            return
        if not ctx.path_matches(config.hot_path_modules):
            return
        aliases = ctx.module_aliases
        imported = ctx.imported_names
        # Each call is visited exactly once via the node index; the loop
        # containment test climbs the parent chain instead of re-walking
        # every loop body.
        for node in ctx.nodes_of_type(ast.Call):
            assert isinstance(node, ast.Call)
            name = self._allocator_name(node, aliases, imported)
            if name is None:
                continue
            if not any(isinstance(ancestor, _LOOP_NODES)
                       for ancestor in ctx.ancestors(node)):
                continue
            yield self.diagnostic(
                ctx, node.lineno, node.col_offset,
                f"np.{name}() allocates a fresh array every loop "
                f"iteration in a hot-path module; hoist the buffer "
                f"out of the loop or compute it segment-at-a-time")

    def _allocator_name(self, call: ast.Call, aliases: dict[str, str],
                        imported: dict[str, tuple[str, str]]) -> str | None:
        func = call.func
        # np.zeros(...) through a module alias.
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                aliases.get(func.value.id) == "numpy" and \
                func.attr in _ALLOCATORS:
            return func.attr
        # from numpy import zeros → zeros(...)
        if isinstance(func, ast.Name):
            origin = imported.get(func.id)
            if origin is not None and origin[0] == "numpy" and \
                    origin[1] in _ALLOCATORS:
                return origin[1]
        return None
