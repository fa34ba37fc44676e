"""Machine-readable run reports: one schema for every subcommand."""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Dict, List, NamedTuple, Optional

SCHEMA = "amalgams-report/1"

STATUSES = ("pass", "fail", "inconclusive")


class CheckResult(NamedTuple):
    name: str
    status: str  # one of STATUSES, checked by emit_report and parse_report
    data: dict


def _check_status(status: str) -> None:
    if status not in STATUSES:
        raise ValueError(f"unknown status {status!r}")


def emit_report(command: str, seed: int, checks: List[CheckResult],
                budgets: Optional[Dict[str, int]] = None) -> dict:
    counts = {s: 0 for s in STATUSES}
    for c in checks:
        _check_status(c.status)
        counts[c.status] += 1
    doc = {
        "schema": SCHEMA,
        "command": command,
        "seed": seed,
        "budgets": dict(budgets or {}),
        "counts": counts,
        "checks": [{"name": c.name, "status": c.status, "data": c.data}
                   for c in checks],
    }
    return doc


def parse_report(doc: dict) -> List[CheckResult]:
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown report schema {doc.get('schema')!r}")
    for c in doc["checks"]:
        _check_status(c["status"])
    return [CheckResult(c["name"], c["status"], c.get("data", {}))
            for c in doc["checks"]]


def exit_status(doc: dict, escalate_inconclusive: bool = False) -> int:
    counts = doc["counts"]
    if counts["fail"]:
        return 1
    if escalate_inconclusive and counts["inconclusive"]:
        return 2
    return 0


def write_report(doc: dict, out_path=None) -> None:
    """Write the report to out_path, or to stdout, as indented JSON with
    sorted keys and a closing newline.

    A report holds what its checks decided, not their input, so it
    stays small whatever the size of the words or fixtures it read, and
    its text is built in memory and written at once (``json.dump``
    would write it a token at a time)."""
    with open(out_path, "w") if out_path else \
            contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
