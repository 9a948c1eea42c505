"""``repro lint`` — command-line front end for the lint engine.

Usage::

    repro lint src                      # lint a tree, exit 0/1/2
    repro lint src --select unit-mismatch
    repro lint src --ignore unit-mismatch --format json
    repro lint --list-rules

Every run uses the built-in :class:`~repro.analysis.config.LintConfig`
defaults, narrowed by the ``--select``/``--ignore`` flags.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.config import LintConfig
from repro.analysis.engine import lint_paths
from repro.analysis.registry import all_rules

__all__ = ["configure_parser", "run"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint``'s arguments to its subparser."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", metavar="RULE", action="append",
                        default=None,
                        help="run only these rules (repeatable)")
    parser.add_argument("--ignore", metavar="RULE", action="append",
                        default=None,
                        help="skip these rules (repeatable)")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="diagnostic output format (github emits "
                             "workflow ::error annotations)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")


def run(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` and return the process exit code."""
    rules = all_rules()
    if args.list_rules:
        width = max(map(len, rules), default=0) + 2
        for rule_id in sorted(rules):
            print(f"{rule_id:<{width}}{rules[rule_id].description}")
        return 0
    for flag in ("select", "ignore"):
        for rule_id in getattr(args, flag) or ():
            if rule_id not in rules:
                known = ", ".join(sorted(rules))
                print(f"error: unknown rule {rule_id!r} (known: {known})")
                return 2
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}")
        return 2
    config = LintConfig(
        select=frozenset(args.select) if args.select else None,
        ignore=frozenset(args.ignore or ()))
    result = lint_paths(paths, config)
    if args.format == "json":
        envelope = {
            "files_checked": result.files_checked,
            "parse_errors": result.parse_errors,
            "exit_code": result.exit_code,
            "diagnostics": [d.as_dict() for d in result.diagnostics],
        }
        print(json.dumps(envelope, indent=2))
    elif args.format == "github":
        for diagnostic in result.diagnostics:
            print(diagnostic.format_github())
        # The summary line is for the job log; annotations above are
        # what the runner surfaces on the PR diff.
        noun = "file" if result.files_checked == 1 else "files"
        print(f"{result.files_checked} {noun} checked, "
              f"{len(result.diagnostics)} diagnostic(s)")
    else:
        for diagnostic in result.diagnostics:
            print(diagnostic.format())
        noun = "file" if result.files_checked == 1 else "files"
        print(f"{result.files_checked} {noun} checked, "
              f"{len(result.diagnostics)} diagnostic(s)")
    return result.exit_code
