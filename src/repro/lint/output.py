"""Machine-readable rendering of a lint run.

Besides the default one-line-per-finding text, :func:`findings_to_json`
gives a compact document for scripting (``repro lint --format json |
python -m json.tool``).  It is a pure function of the
:class:`~repro.lint.engine.LintResult`; nothing touches the filesystem.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence

from .findings import Finding

__all__ = ["findings_to_json"]


def _finding_dict(finding: Finding) -> Dict[str, Any]:
    return {"path": finding.path, "line": finding.line,
            "code": finding.code, "message": finding.message}


def findings_to_json(findings: Sequence[Finding],
                     baselined: Sequence[Finding] = (),
                     files_checked: int = 0,
                     files_reused: int = 0) -> str:
    """The whole run as one JSON document (stable key order)."""
    payload = {
        "files_checked": files_checked,
        "files_reused": files_reused,
        "findings": [_finding_dict(f) for f in findings],
        "baselined": [_finding_dict(f) for f in baselined],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
