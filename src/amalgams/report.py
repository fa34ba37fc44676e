"""Machine-readable run reports: one schema for every subcommand."""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

SCHEMA = "amalgams-report/1"

STATUSES = ("pass", "fail", "inconclusive")


@dataclass
class CheckResult:
    name: str
    status: str
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


def emit_report(command: str, seed: int, checks: List[CheckResult],
                budgets: Optional[Dict[str, int]] = None) -> dict:
    counts = {s: 0 for s in STATUSES}
    for c in checks:
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
    return [CheckResult(c["name"], c["status"], c.get("data", {}))
            for c in doc["checks"]]


def exit_status(doc: dict, escalate_inconclusive: bool = False) -> int:
    counts = doc["counts"]
    if counts["fail"]:
        return 1
    if escalate_inconclusive and counts["inconclusive"]:
        return 2
    return 0


WRITE_BATCH = 4096  # chunks held before they are written out


def write_report(doc: dict, out_path=None) -> None:
    """Write the report to out_path, or to stdout, as the bytes of
    ``json.dump(doc, fh, sort_keys=True, indent=2)`` and a newline.

    The stdlib writes indented JSON only with its pure-Python encoder,
    one generator step per token. ``encode`` builds the same text in
    chunks instead, one per value or container end, written out in
    batches of ``WRITE_BATCH``, so the whole text of a large report is
    never held in memory."""
    with open(out_path, "w") if out_path else \
            contextlib.nullcontext(sys.stdout) as fh:
        out: List[str] = []

        def encode(o, nl: str) -> None:
            """Append the JSON text of o to out; ``nl`` is a newline and
            the indent of the line o starts on."""
            if isinstance(o, dict):
                items, brackets = sorted(o.items()), "{}"
            elif isinstance(o, (list, tuple)):
                items, brackets = zip(itertools.repeat(None), o), "[]"
            else:
                text = _scalar(o)
                if text is None:
                    raise TypeError(f"Object of type {type(o).__name__} "
                                    f"is not JSON serializable")
                out.append(text)
                return
            if not o:
                out.append(brackets)
                return
            inner = nl + "  "
            sep = brackets[0] + inner
            for key, value in items:
                if brackets == "{}":
                    sep += _key(key) + ": "
                # str and int values, most of a large report, are
                # written here without a call each
                cls = value.__class__
                if cls is str:
                    out.append(sep + encode_basestring_ascii(value))
                elif cls is int:
                    out.append(sep + int.__repr__(value))
                else:
                    out.append(sep)
                    encode(value, inner)
                sep = "," + inner
                if len(out) >= WRITE_BATCH:
                    fh.write("".join(out))
                    out.clear()
            out.append(nl + brackets[1])

        encode(doc, "\n")
        out.append("\n")
        fh.write("".join(out))


def _scalar(o) -> Optional[str]:
    """The JSON text of a scalar as the stdlib writes it, None for any
    other value."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    return None


def _key(key) -> str:
    """A dict key as the stdlib writes it: a string, or the text of a
    float, bool, None or int key, quoted."""
    if not isinstance(key, str):
        text = _scalar(key)
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = text
    return encode_basestring_ascii(key)
