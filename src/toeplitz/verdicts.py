"""Decision records for limsup-style criteria.

Periodic-tail codings admit exact verdicts: every witness sequence indexed
by the kappa-jump positions is eventually periodic, so limsups reduce to a
maximum over one detected cycle.  Generator-backed codings only ever earn
horizon-qualified verdicts; asymptotic claims are never made from a finite
scan.  `Verdict` is the one record: the (B) and alpha-repetitivity verdicts
subclass it with their extra witnesses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Status(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


def trend_of(values) -> str:
    """Coarse monotonicity flag of a finite sample: increasing/decreasing/..."""
    values = list(values)
    if len(values) < 2:
        return "stable"
    ups = sum(1 for a, b in zip(values, values[1:]) if b > a)
    downs = sum(1 for a, b in zip(values, values[1:]) if b < a)
    if ups and not downs:
        return "increasing"
    if downs and not ups:
        return "decreasing"
    if not ups and not downs:
        return "stable"
    return "mixed"


@dataclass(frozen=True)
class Verdict:
    """Three-valued decision with its numeric witness sequence."""

    status: Status
    kind: str  # "exact" | "horizon-estimate"
    witness: tuple
    period: Optional[tuple[int, int]] = None  # (start index, cycle length)
    trend: Optional[str] = None
