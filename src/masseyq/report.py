"""Reports: one structured result object per command invocation.

A report carries the command name, a coarse status, the exit code and a
JSON-friendly payload in which every rational number is a string such
as "3/2", so serialization is exact.  Rendering the same report twice
gives identical bytes, and a rendered report parses back to an equal
report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .errors import (
    AlgebraError,
    BudgetError,
    ConsistencyError,
    DegreeCapError,
    ParseError,
    PremiseError,
    UndefinedProductError,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_BUDGET = 5
EXIT_VANISHES = 10
EXIT_UNDEFINED = 11
EXIT_PREMISE = 12
EXIT_FINDINGS = 13

STATUS_OK = "ok"
STATUS_PREMISE = "premise-failed"
STATUS_INVALID = "invalid-input"
STATUS_CAP = "cap-too-small"
STATUS_BUDGET = "over-budget"
STATUS_INTERNAL = "internal"

# What a failed request reports: exception class -> status, exit code and
# payload extras, each read off the attribute of the same name (_ for -)
# and left out when None.  The nearest class on the exception's MRO
# decides, so a ConsistencyError is internal although it is an AlgebraError.
_OUTCOMES: dict[type, tuple[str, int, tuple[str, ...]]] = {
    ParseError: (STATUS_INVALID, EXIT_PARSE, ()),
    PremiseError: (STATUS_PREMISE, EXIT_PREMISE, ()),
    UndefinedProductError: (STATUS_PREMISE, EXIT_UNDEFINED, ()),
    DegreeCapError: (STATUS_CAP, EXIT_CAP, ("required-cap",)),
    BudgetError: (STATUS_BUDGET, EXIT_BUDGET, ("required-size", "size-limit")),
    ConsistencyError: (STATUS_INTERNAL, EXIT_INTERNAL, ()),
    AlgebraError: (STATUS_INVALID, EXIT_INVALID, ()),
    ValueError: (STATUS_INVALID, EXIT_INVALID, ()),
    OSError: (STATUS_INVALID, EXIT_INVALID, ()),
}

_STATUSES = (STATUS_OK, *dict.fromkeys(entry[0] for entry in _OUTCOMES.values()))


class Outcome(NamedTuple):
    status: str
    exit_code: int
    payload: dict


def outcome(exc: BaseException) -> Optional[Outcome]:
    """The table's status, exit code and payload for ``exc``, or None."""
    for cls in type(exc).__mro__:
        if cls in _OUTCOMES:
            status, exit_code, extras = _OUTCOMES[cls]
            payload = {"error": str(exc)}
            for key in extras:
                value = getattr(exc, key.replace("-", "_"))
                if value is not None:
                    payload[key] = value
            return Outcome(status, exit_code, payload)
    return None


@dataclass
class Report:
    command: str
    status: str
    exit_code: int
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown report status {self.status!r}")

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "payload": self.payload,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# human rendering helpers
# ---------------------------------------------------------------------------


def format_table(rows: Sequence[Sequence[str]], header: Sequence[str]) -> str:
    """Fixed-width text table under a header and a rule; every row padded
    to the widest cell."""
    all_rows = [list(header)] + [list(r) for r in rows]
    ncols = max(len(r) for r in all_rows)
    for r in all_rows:
        r.extend([""] * (ncols - len(r)))
    widths = [max(len(r[i]) for r in all_rows) for i in range(ncols)]
    lines = []
    for k, r in enumerate(all_rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * widths[i] for i in range(ncols)).rstrip())
    return "\n".join(lines)

