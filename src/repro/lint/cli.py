"""Command line for the invariant checker.

``python -m repro.lint [paths] [--select CODES] [--baseline FILE]
[--format text|json]``

Exit status is 0 when every finding is suppressed or baselined, 1 when
actionable findings remain, 2 on usage errors (nonexistent target, a
target with no Python files, unknown rule code), so the command slots
directly into CI.

Runs are incremental by default: per-file results are cached in
``.repro-lint-cache.json`` keyed on content hashes, and unchanged
files skip parsing entirely (``--no-cache`` opts out, ``--cache FILE``
relocates the cache).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ReproError
from .baseline import write_baseline
from .engine import run
from .output import findings_to_json
from .rules import all_rules

__all__ = ["DEFAULT_CACHE", "build_parser", "main"]

#: Where incremental per-file results live unless ``--cache`` says else.
DEFAULT_CACHE = ".repro-lint-cache.json"


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
    parser.add_argument("--baseline", metavar="FILE", type=Path,
                        help="baseline file of grandfathered findings")
    parser.add_argument("--write-baseline", metavar="FILE", type=Path,
                        help="write current findings to FILE and exit 0")
    parser.add_argument("--root", metavar="DIR", type=Path,
                        help="directory findings paths are relative to "
                             "(default: current directory)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    parser.add_argument("--cache", metavar="FILE", type=Path,
                        default=Path(DEFAULT_CACHE),
                        help=f"incremental result cache "
                             f"(default: {DEFAULT_CACHE})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-finding output; summary only")
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        scope = " (cross-file)" if rule.scope == "project" else ""
        print(f"{rule.code}  {rule.name}{scope}")
        print(f"        {rule.summary}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    select = ([code.strip() for code in args.select.split(",") if code.strip()]
              if args.select else None)
    cache = None if args.no_cache else args.cache
    try:
        result = run(args.paths, select=select, baseline=args.baseline,
                     root=args.root, cache=cache)
    except ReproError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        count = write_baseline(args.write_baseline,
                               result.findings + result.baselined)
        print(f"wrote {count} baseline entries to {args.write_baseline}")
        return 0

    if args.fmt == "json":
        print(findings_to_json(result.findings, result.baselined,
                               files_checked=result.files_checked,
                               files_reused=result.files_reused))
        return 0 if result.ok else 1

    if not args.quiet:
        for finding in result.findings:
            print(finding.format())
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    suffix = (f", {len(result.baselined)} baselined"
              if result.baselined else "")
    if result.files_reused:
        suffix += f", {result.files_reused} cached"
    print(f"repro.lint: {status} in {result.files_checked} file(s){suffix}")
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
