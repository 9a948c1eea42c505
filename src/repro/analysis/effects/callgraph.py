"""Module-global tables and the cross-module class index.

Two structures the effect analysis hangs off:

* :class:`ModuleGlobals` — per-module classification of module-level
  names: which are *mutable* (bound to a dict/list/set literal or a
  mutable-constructor call), which are *rebound* from function scope
  via ``global`` statements, and which follow the sanctioned
  worker-local **None-sentinel** pattern (``NAME = None`` at module
  level, assigned only through ``global`` inside worker functions — the
  idiom :mod:`repro.experiments.parallel` uses for per-process caches).
* :class:`ClassIndex` — every class in the linted tree with its base
  classes resolved across modules (same-module names, ``from``-imports,
  ``module_alias.Class``), an approximate MRO linearization, method
  lookup through that MRO (including the ``super()`` "start after this
  class" variant), and class-body constants so rules can read the
  *effective* value of contract flags like ``tick_stateless``.

The MRO here is a naive left-to-right depth-first linearization, not
C3 — indistinguishable for the single-inheritance hierarchies this
codebase uses, and close enough for a linter on anything else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.analysis.context import ModuleContext

from repro.analysis.effects.summary import FunctionKey

__all__ = ["ClassIndex", "ClassInfo", "ClassKey", "ModuleGlobals"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: (module, class name)
ClassKey = tuple[str, str]

_MUTABLE_CONSTRUCTOR_NAMES = frozenset({
    "dict", "list", "set", "bytearray",
    "defaultdict", "deque", "OrderedDict", "Counter", "ChainMap",
})


def _is_mutable_value(node: ast.expr) -> bool:
    """True when a module-level binding's value is a mutable container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CONSTRUCTOR_NAMES
        if isinstance(func, ast.Attribute):
            return func.attr in _MUTABLE_CONSTRUCTOR_NAMES
    return False


@dataclass
class ModuleGlobals:
    """Classification of one module's top-level names."""

    module: str
    path: str
    #: every module-level bound name (values, defs, classes)
    bindings: set[str] = field(default_factory=set)
    #: bound to a mutable container literal / constructor call
    mutable_literal: set[str] = field(default_factory=set)
    #: named in a ``global`` statement somewhere in the module
    rebound: set[str] = field(default_factory=set)
    #: every module-level binding is literally ``None`` (worker-local
    #: sentinel idiom; rebinding happens via ``global`` in the worker)
    none_sentinel: set[str] = field(default_factory=set)
    #: name → line of its first module-level binding
    lines: dict[str, int] = field(default_factory=dict)

    @property
    def tracked(self) -> set[str]:
        """Names whose reads/writes the extractor records as effects."""
        return self.mutable_literal | self.rebound

    @classmethod
    def scan(cls, ctx: ModuleContext) -> "ModuleGlobals":
        table = cls(module=ctx.module, path=ctx.path)
        non_none: set[str] = set()
        maybe_none: set[str] = set()

        def bind(name: str, value: Optional[ast.expr],
                 line: int) -> None:
            table.bindings.add(name)
            table.lines.setdefault(name, line)
            if value is None:
                return
            if _is_mutable_value(value):
                table.mutable_literal.add(name)
            if isinstance(value, ast.Constant) and value.value is None:
                maybe_none.add(name)
            else:
                non_none.add(name)

        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name_node in _target_names(target):
                        bind(name_node.id, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                bind(stmt.target.id, stmt.value, stmt.lineno)
            elif isinstance(stmt, ast.AugAssign) and \
                    isinstance(stmt.target, ast.Name):
                bind(stmt.target.id, None, stmt.lineno)
            elif isinstance(stmt, (*_FUNCTION_NODES, ast.ClassDef)):
                table.bindings.add(stmt.name)
        for node in ctx.nodes_of_type(ast.Global):
            assert isinstance(node, ast.Global)
            table.rebound.update(node.names)
        table.none_sentinel = maybe_none - non_none
        return table


def _target_names(target: ast.expr) -> Iterator[ast.Name]:
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


@dataclass
class ClassInfo:
    """One class definition with resolved bases and contract constants."""

    key: ClassKey
    node: ast.ClassDef
    path: str
    base_refs: list[ClassKey] = field(default_factory=list)
    #: base names we could not resolve inside the linted tree
    #: (``Protocol``, third-party classes, subscripted generics …)
    unresolved_base_names: list[str] = field(default_factory=list)
    #: method name → function key, own body only
    methods: dict[str, FunctionKey] = field(default_factory=dict)
    #: simple class-body constants: ``tick_stateless = True`` and kin
    class_consts: dict[str, object] = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.key[0]

    @property
    def name(self) -> str:
        return self.key[1]


class ClassIndex:
    """Every class in the project, with MRO-aware lookups."""

    def __init__(self) -> None:
        self.classes: dict[ClassKey, ClassInfo] = {}
        self._by_name: dict[str, list[ClassKey]] = {}
        self._mro_cache: dict[ClassKey, tuple[ClassKey, ...]] = {}

    @classmethod
    def build(cls, contexts: list[ModuleContext]) -> "ClassIndex":
        index = cls()
        for ctx in contexts:
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    index._add_class(ctx, node)
        for ctx in contexts:
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    index._resolve_bases(ctx, node)
        return index

    def _add_class(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        key: ClassKey = (ctx.module, node.name)
        info = ClassInfo(key=key, node=node, path=ctx.path)
        for item in node.body:
            if isinstance(item, _FUNCTION_NODES):
                info.methods[item.name] = (ctx.module,
                                           f"{node.name}.{item.name}")
            elif isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name) \
                    and isinstance(item.value, ast.Constant):
                info.class_consts[item.targets[0].id] = item.value.value
            elif isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name) and \
                    isinstance(item.value, ast.Constant):
                info.class_consts[item.target.id] = item.value.value
        self.classes[key] = info
        self._by_name.setdefault(node.name, []).append(key)

    def _resolve_bases(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        info = self.classes[(ctx.module, node.name)]
        for base in node.bases:
            resolved = self._resolve_base(ctx, base)
            if resolved is not None:
                info.base_refs.append(resolved)
            else:
                name = _base_name(base)
                if name is not None:
                    info.unresolved_base_names.append(name)

    def _resolve_base(self, ctx: ModuleContext,
                      base: ast.expr) -> Optional[ClassKey]:
        if isinstance(base, ast.Subscript):  # Generic[T] and friends
            base = base.value
        if isinstance(base, ast.Name):
            key = (ctx.module, base.id)
            if key in self.classes:
                return key
            imported = ctx.imported_names.get(base.id)
            if imported is not None and imported in self.classes:
                return imported
            candidates = self._by_name.get(base.id, [])
            if len(candidates) == 1:
                return candidates[0]
            return None
        if isinstance(base, ast.Attribute) and \
                isinstance(base.value, ast.Name):
            module = ctx.module_aliases.get(base.value.id)
            if module is not None and (module, base.attr) in self.classes:
                return (module, base.attr)
        return None

    # ------------------------------------------------------------------
    # lookups

    def mro(self, key: ClassKey) -> tuple[ClassKey, ...]:
        """Approximate linearization: left-to-right DFS, first-seen wins."""
        cached = self._mro_cache.get(key)
        if cached is not None:
            return cached
        order: list[ClassKey] = []
        seen: set[ClassKey] = set()
        stack = [key]

        def visit(k: ClassKey) -> None:
            if k in seen:
                return
            seen.add(k)
            order.append(k)
            info = self.classes.get(k)
            if info is not None:
                for base in info.base_refs:
                    visit(base)

        visit(key)
        del stack
        result = tuple(order)
        self._mro_cache[key] = result
        return result

    def resolve_method(self, key: ClassKey, name: str,
                       after: Optional[ClassKey] = None,
                       ) -> Optional[FunctionKey]:
        """First class in ``key``'s MRO defining ``name``.

        With ``after`` set, skip every class up to and including it —
        the ``super().name(...)`` resolution as seen from a method
        defined on ``after``, dispatched on an instance of ``key``.
        """
        skipping = after is not None
        for ancestor in self.mro(key):
            if skipping:
                if ancestor == after:
                    skipping = False
                continue
            info = self.classes.get(ancestor)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def class_attr(self, key: ClassKey, name: str,
                   ) -> Optional[tuple[object, ClassKey]]:
        """Effective class-body constant ``name`` through the MRO:
        (value, defining class), or None when no ancestor sets it."""
        for ancestor in self.mro(key):
            info = self.classes.get(ancestor)
            if info is not None and name in info.class_consts:
                return info.class_consts[name], ancestor
        return None

    def ancestor_names(self, key: ClassKey) -> set[str]:
        """Names of every class in the MRO plus unresolved base names
        hanging off it — what "is a subclass of X" tests run against."""
        names: set[str] = set()
        for ancestor in self.mro(key):
            names.add(ancestor[1])
            info = self.classes.get(ancestor)
            if info is not None:
                names.update(info.unresolved_base_names)
        return names


def _base_name(base: ast.expr) -> Optional[str]:
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None
