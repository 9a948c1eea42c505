"""Every module under ``src/repro`` is reached from the command line.

Walks static imports, module-level and function-level, from
:mod:`repro.cli` (and ``python -m repro``'s ``__main__``).  A package
``__init__``'s re-exports do not count as use: importing
``repro.traces.synthetic`` runs ``repro/traces/__init__.py``, but that
does not put whatever the ``__init__`` re-exports into any command.
Only what is actually taken from a package counts:

* ``from pkg import name`` uses the module ``name`` is re-exported
  from (e.g. ``from repro.faults import FaultPlan``);
* ``import pkg`` uses the whole ``__init__`` — this is how the lint
  registry loads :mod:`repro.analysis.rules` to register every rule.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOTS = ("repro.cli", "repro.__main__")


def _modules() -> dict[str, Path]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _from_target(name: str, node: ast.ImportFrom) -> str:
    """Absolute module a ``from ... import`` in module ``name`` reads."""
    if not node.level:
        return node.module or ""
    package = name.split(".") if _is_package(name) else name.split(".")[:-1]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(name: str) -> list[tuple[str, "str | None"]]:
    """``(module, imported name or None)`` for every import statement,
    at any depth, in module ``name``."""
    tree = ast.parse(MODULES[name].read_text(), str(MODULES[name]))
    out: list[tuple[str, "str | None"]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _from_target(name, node)
            out.extend((target, alias.name) for alias in node.names)
    return out


def _uses(module: str, attr: "str | None") -> list[tuple[str, bool]]:
    """``(module, whole)`` pairs one import reaches.  ``whole`` marks a
    module whose own imports count as use too."""
    if module not in MODULES:
        return []
    if attr is None or not _is_package(module):
        return [(module, attr is None or not _is_package(module))]
    if f"{module}.{attr}" in MODULES:
        return [(module, False), (f"{module}.{attr}", True)]
    # A name the package re-exports: follow it to its source module.
    for source, name in _imports(module):
        if name == attr:
            return [(module, False)] + _uses(source, attr)
    return [(module, False)]


def reached_modules() -> set[str]:
    reached: set[str] = set()
    followed: set[str] = set()
    frontier = [(root, True) for root in ROOTS if root in MODULES]
    while frontier:
        name, whole = frontier.pop()
        reached.add(name)
        if not whole or name in followed:
            continue
        followed.add(name)
        for module, attr in _imports(name):
            frontier.extend(_uses(module, attr))
    # Importing a module runs every enclosing package's ``__init__``.
    for name in list(reached):
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return reached


def test_every_module_is_reached_from_the_cli():
    unreached = sorted(set(MODULES) - reached_modules())
    assert unreached == [], (
        f"modules no command imports: {unreached}; wire each into a "
        f"command or delete it with its tests")


def test_reexports_alone_do_not_count():
    # repro/sim/__init__.py re-exports repro.sim.metrics; the package
    # being reached (as the parent of repro.sim.monitors) is not a use.
    assert _uses("repro.sim", "percentile") == [
        ("repro.sim", False), ("repro.sim.metrics", True)]
    assert _uses("repro.analysis.rules", None) == [
        ("repro.analysis.rules", True)]
