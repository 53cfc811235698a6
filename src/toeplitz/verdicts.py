"""Decision records for limsup-style criteria.

Periodic-tail codings admit exact verdicts: every witness sequence indexed
by the kappa-jump positions is eventually periodic, so limsups reduce to a
maximum over one detected cycle.  Generator-backed codings only ever earn
horizon-qualified verdicts; asymptotic claims are never made from a finite
scan.  `Verdict` holds the five fields every verdict has.  The (B) and
alpha-repetitivity records are flat NamedTuples that repeat those five, in
the same order, before their extra witnesses, so `*verdict` starts either.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


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


class Verdict(NamedTuple):
    """Three-valued decision with its numeric witness sequence."""

    status: Status
    kind: str  # "exact" | "horizon-estimate"
    witness: tuple
    period: Optional[tuple[int, int]] = None  # (start index, cycle length)
    trend: Optional[str] = None
