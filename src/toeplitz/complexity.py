"""Closed-form subword complexity and growth of simple Toeplitz subshifts.

Writing q(k) = |p(k)| + 1 = n_0 ... n_k and A_k for the tail alphabets, the
factor count p(L) is piecewise affine in L.  Each band |p(k-1)| + 1 <= L <=
|p(k)| (|p(-1)| = 0) reads one `words.Level` record, the same partition the
palindrome formula and the de Bruijn annotations use; p(0) = 1 counts the
empty word.  Inside a band the formula dispatches on n_k = 2 versus n_k > 2,
with correction terms driven by the indicators a_{k-1} in A_k and a_k in
A_{k+1}.  At the checkpoints L = q(k) the count is

    (|A_k| - 1) q(k) + [a_k in A_{k+1}] q(k-1).

Both level k, extended by one length, and level k+1 give this value at
q(k), because |A_k| = |A_{k+1}| + [a_k not in A_{k+1}]; so the band edge
may sit on either side of the checkpoint, and here it sits below.

The growth R(L) = p(L+1) - p(L) counts right-special branching and is what
the de Bruijn module cross-checks degree sums against.  All arithmetic is
exact (Python ints, fractions for quotients).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coding import Coding, stabilization_index
from .language import factor_counts
from .words import DEFAULT_BUDGET, Level, level, level_at


def band_complexity(lv: Level, length: int) -> int:
    """p(length) for a length in the band of level lv, or 0."""
    if length == 0:
        return 1
    if lv.n == 2:
        size_prev = lv.size + (not lv.prev_in)
        value = (lv.size_next - 1) * length \
            + (size_prev - lv.size_next) * (lv.p1 + 1)
        if lv.prev_in:
            if length <= lv.p - lv.p2:
                value += length - lv.p1 + lv.p2
            else:
                value += lv.p1 + 1
        return value

    value = (lv.p1 + 1) + (lv.size - 1) * length
    if length <= 2 * lv.p1 - lv.p2 + 1:
        value += lv.prev_in * (length - 2 * lv.p1 + lv.p2 - 1)
    elif length > lv.p - lv.p1:
        value -= (not lv.stays) * (length - lv.p + lv.p1)
    return value


def band_growth(lv: Level, length: int) -> int:
    """R(length) for a length in the band of level lv, or 0."""
    growth = lv.size - 1
    if lv.p - lv.p1 <= length:
        growth -= lv.size - lv.size_next
    if lv.p1 + 1 <= length <= 2 * lv.p1 - lv.p2:
        growth += lv.prev_in
    return growth


def complexity_formula(c: Coding, length: int) -> int:
    """Exact factor count p(length) by the closed formulas."""
    if length < 0:
        raise IndexError("length must be >= 0")
    return band_complexity(level(c, length), length)


def growth_formula(c: Coding, length: int) -> int:
    """R(length) = p(length + 1) - p(length), piecewise constant per band."""
    if length < 0:
        raise IndexError("length must be >= 0")
    return band_growth(level(c, length), length)


def checkpoint_complexity(c: Coding, k: int) -> int:
    """p(|p(k)| + 1) in closed form."""
    lv = level_at(c, k)
    return (lv.size - 1) * (lv.p + 1) + lv.stays * (lv.p1 + 1)


@dataclass(frozen=True)
class QuotientExtrema:
    """Extremes of p(L)/L over the band |p(k-1)|+2 <= L <= |p(k)|+1."""

    level: int
    max_value: Fraction
    argmax_length: int
    min_lower_bound: Fraction


def quotient_extrema(c: Coding, k: int) -> QuotientExtrema:
    """Exact band extremes of p(L)/L, valid once the alphabet has stabilized.

    The maximum |A_ev| - (n_{k-1} - 1)/(2 n_{k-1} - 1) is attained at
    L = 2|p(k-1)| - |p(k-2)| + 1 and never exceeds |A_ev| - 1/3; the minimum
    stays strictly above |A_ev| - 1.
    """
    if k < stabilization_index(c) + 1:
        raise ValueError(
            f"quotient extrema need k >= N_ev + 1 = {stabilization_index(c) + 1}"
        )
    lv = level_at(c, k)  # k > N_ev, so lv.size = |A_ev|
    n_prev = c.period(k - 1)
    max_value = lv.size - Fraction(n_prev - 1, 2 * n_prev - 1)
    argmax = 2 * lv.p1 - lv.p2 + 1
    lower = min(lv.size - Fraction(lv.n - 1, lv.n),
                lv.size - Fraction(n_prev - 1, n_prev))
    return QuotientExtrema(k, max_value, argmax, lower)


@dataclass(frozen=True)
class ComplexityRow:
    length: int
    formula: int
    growth: int
    oracle: Optional[int] = None


def profile(c: Coding, max_length: int, with_oracle: bool = False,
            budget: int = DEFAULT_BUDGET) -> list[ComplexityRow]:
    """Per-L table of formula, growth and (optionally) oracle counts."""
    counts = factor_counts(c, max_length, budget) if with_oracle else None
    rows, lv = [], level_at(c, 0)
    for L in range(max_length + 1):
        if lv.p < L:
            lv = level_at(c, lv.k + 1)
        rows.append(ComplexityRow(L, band_complexity(lv, L), band_growth(lv, L),
                                  None if counts is None else counts[L]))
    return rows
