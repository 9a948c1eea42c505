"""The acceptance gate: the repository's own sources lint clean.

Any PR that introduces a direct backing-field write, unseeded
randomness, a unit-suffix mismatch, a mutable-default handler, or an
impure fast-path policy or pool worker fails here.  Full annotation is
checked by mypy in CI, not by this gate.
"""

from pathlib import Path

from repro.analysis import LintConfig, lint_paths
from repro.analysis.registry import all_rules
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
REPO_SRC = REPO / "src"


def test_src_tree_lints_clean():
    result = lint_paths([REPO_SRC])
    formatted = "\n".join(d.format() for d in result.diagnostics)
    assert result.exit_code == 0, f"repo must lint clean:\n{formatted}"
    # Sanity: the run actually covered the tree.
    assert result.files_checked > 50


def test_src_tree_clean_under_repo_config():
    # The repo's config is the default one, and it names the real worker
    # entrypoints and hot-path modules, so this exercises the effect rules
    # against the actual policy and worker code -- the same run as
    # ``repro lint src``.
    config = LintConfig()
    assert "repro.experiments.parallel._run_job" in config.worker_entrypoints
    assert "repro.experiments.chaos._trial_job" in config.worker_entrypoints
    assert "core/policies.py" in config.hot_path_modules
    result = lint_paths([REPO_SRC], config)
    formatted = "\n".join(d.format() for d in result.diagnostics)
    assert result.exit_code == 0, f"repo must lint clean:\n{formatted}"


def test_effect_rules_are_registered_and_enabled():
    assert {"purity-stateless-tick", "spawn-purity"} <= set(all_rules())


def test_cli_entry_point_on_src(capsys):
    assert main(["lint", str(REPO_SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 diagnostic(s)" in out
