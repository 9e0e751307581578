"""Command line for the invariant checker.

``python -m repro.lint [paths] [--select CODES] [--list-rules]``

Exit status is 0 when every finding is suppressed, 1 when actionable
findings remain, 2 on usage errors (nonexistent target, a target with
no Python files, unknown rule code), so the command slots directly
into CI.  Finding paths are relative to the current directory.  Every
run lints from scratch and writes no file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from .engine import run
from .rules import all_rules

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based invariant checker for the repro codebase.")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        scope = " (cross-file)" if rule.cross_file else ""
        print(f"{rule.code}  {rule.name}{scope}")
        print(f"        {rule.summary}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    select = ([code.strip() for code in args.select.split(",") if code.strip()]
              if args.select else None)
    try:
        result = run(args.paths, select=select)
    except (ReproError, OSError) as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2

    for finding in result.findings:
        print(finding.format())
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    print(f"repro.lint: {status} in {result.files_checked} file(s)")
    return 0 if result.ok else 1
