"""Closed-form subword complexity and growth of simple Toeplitz subshifts.

Writing q(k) = |p(k)| + 1 = n_0 ... n_k and A_k for the tail alphabets, the
factor count p(L) is piecewise affine in L.  Up to L = q(0) + 1 it is
(|A_0| - 1) L plus a boundary term.  Inside each band q(k-1) + 1 < L <=
q(k) + 1 the formula dispatches on n_k = 2 versus n_k > 2, with correction
terms driven by the indicators a_{k-1} in A_k and a_k in A_{k+1}.  At the
checkpoints L = q(k) the count is

    (|A_k| - 1) q(k) + [a_k in A_{k+1}] q(k-1).

The growth R(L) = p(L+1) - p(L) counts right-special branching and is what
the de Bruijn module cross-checks degree sums against.  All arithmetic is
exact (Python ints, fractions for quotients).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coding import Coding, eventual_alphabet, stabilization_index, tail_alphabet
from .language import factor_counts
from .words import DEFAULT_BUDGET, block_length, governing_level


def _ind(flag: bool) -> int:
    return 1 if flag else 0


def complexity_formula(c: Coding, length: int) -> int:
    """Exact factor count p(length) by the closed formulas."""
    if length < 0:
        raise IndexError("length must be >= 0")
    if length == 0:
        return 1
    a0 = len(tail_alphabet(c, 0))
    p0 = block_length(c, 0)
    if length <= p0:
        return (a0 - 1) * length + 1
    if length == p0 + 1:
        in_a1 = c.letter(0) in tail_alphabet(c, 1)
        return (a0 - 1) * length + _ind(in_a1)

    k = governing_level(c, length, 1)
    pk = block_length(c, k)
    pk1 = block_length(c, k - 1)
    pk2 = block_length(c, k - 2)
    ak_prev_in = c.letter(k - 1) in tail_alphabet(c, k)
    ak_in_next = c.letter(k) in tail_alphabet(c, k + 1)
    size_k = len(tail_alphabet(c, k))

    if c.period(k) == 2:
        size_km1 = len(tail_alphabet(c, k - 1))
        size_kp1 = len(tail_alphabet(c, k + 1))
        value = (size_kp1 - 1) * length + (size_km1 - size_kp1) * (pk1 + 1)
        if ak_prev_in:
            if length <= pk - pk2:
                value += length - pk1 + pk2
            else:
                value += pk1 + 1
        return value

    value = (pk1 + 1) + (size_k - 1) * length
    if length <= 2 * pk1 - pk2 + 1:
        value += _ind(ak_prev_in) * (length - 2 * pk1 + pk2 - 1)
    elif length <= pk - pk1:
        pass
    else:
        value -= _ind(not ak_in_next) * (length - pk + pk1)
    return value


def growth_formula(c: Coding, length: int) -> int:
    """R(length) = p(length + 1) - p(length), piecewise constant per band."""
    if length < 0:
        raise IndexError("length must be >= 0")
    p0 = block_length(c, 0)
    if length <= p0 - 1:
        return len(tail_alphabet(c, 0)) - 1
    if length == p0:
        return len(tail_alphabet(c, 1)) - 1

    k = governing_level(c, length, 0)
    pk = block_length(c, k)
    pk1 = block_length(c, k - 1)
    pk2 = block_length(c, k - 2)
    growth = len(tail_alphabet(c, k)) - 1
    if pk - pk1 <= length <= pk:
        growth -= len(tail_alphabet(c, k)) - len(tail_alphabet(c, k + 1))
    if pk1 + 1 <= length <= 2 * pk1 - pk2:
        growth += _ind(c.letter(k - 1) in tail_alphabet(c, k))
    return growth


def checkpoint_complexity(c: Coding, k: int) -> int:
    """p(|p(k)| + 1) in closed form."""
    if k < 0:
        raise IndexError("level must be >= 0")
    in_next = c.letter(k) in tail_alphabet(c, k + 1)
    return (len(tail_alphabet(c, k)) - 1) * (block_length(c, k) + 1) + _ind(
        in_next
    ) * (block_length(c, k - 1) + 1)


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
    size_ev = len(eventual_alphabet(c))
    n_prev = c.period(k - 1)
    n_cur = c.period(k)
    max_value = size_ev - Fraction(n_prev - 1, 2 * n_prev - 1)
    argmax = 2 * block_length(c, k - 1) - block_length(c, k - 2) + 1
    lower = min(
        size_ev - Fraction(n_cur - 1, n_cur),
        size_ev - Fraction(n_prev - 1, n_prev),
    )
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
    return [
        ComplexityRow(L, complexity_formula(c, L), growth_formula(c, L),
                      None if counts is None else counts[L])
        for L in range(max_length + 1)
    ]
