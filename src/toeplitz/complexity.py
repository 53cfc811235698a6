"""Closed-form subword complexity and growth of simple Toeplitz subshifts.

Writing q(k) = |p(k)| + 1 = n_0 ... n_k and A_k for the tail alphabets, the
factor count p(L) is piecewise affine in L.  Each band |p(k-1)| + 1 <= L <=
|p(k)| (|p(-1)| = 0) reads one `words.Level` record, the same partition the
palindrome formula and the de Bruijn annotations use; p(0) = 1 counts the
empty word.  Inside a band the formula is one affine expression plus two
correction terms, one per de Bruijn event of `Level`: the secondary branch
vertex v2 exists (`has_v2`, possible only when a_{k-1} is in A_k), and v1
loses its a_k arc (not `keeps_ak`, possible only when a_k is not in
A_{k+1}).  At the checkpoints L = q(k) the count is

    (|A_k| - 1) q(k) + [a_k in A_{k+1}] q(k-1).

Both level k, extended by one length, and level k+1 give this value at
q(k), because |A_k| = |A_{k+1}| + [a_k not in A_{k+1}]; so the band edge
may sit on either side of the checkpoint, and here it sits below.

The growth R(L) = p(L+1) - p(L) counts right-special branching and is what
the de Bruijn module cross-checks degree sums against.  All arithmetic is
exact (Python ints).
"""

from __future__ import annotations

from typing import Iterator

from .coding import Coding
from .errors import TooSmall
from .language import factor_counts
from .words import DEFAULT_BUDGET, Level, Row, bands, level


def band_complexity(lv: Level, length: int) -> int:
    """p(length) for a length in the band of level lv, or 0.

    p(L) sums the growth below L, but each correction term vanishes where
    its event turns, so both events may be read at L itself.
    """
    return (lv.p1 + 1) + (lv.size - 1) * length \
        + lv.has_v2(length) * (length - 2 * lv.p1 + lv.p2 - 1) \
        - (not lv.keeps_ak(length)) * (length - lv.p + lv.p1)


def band_growth(lv: Level, length: int) -> int:
    """R(length) for a length in the band of level lv, or 0."""
    return lv.size - 1 + lv.has_v2(length) - (not lv.keeps_ak(length))


def complexity_formula(c: Coding, length: int) -> int:
    """Exact factor count p(length) by the closed formulas."""
    if length < 0:
        raise TooSmall("length must be >= 0")
    return band_complexity(level(c, length), length)


def growth_formula(c: Coding, length: int) -> int:
    """R(length) = p(length + 1) - p(length), piecewise constant per band."""
    if length < 0:
        raise TooSmall("length must be >= 0")
    return band_growth(level(c, length), length)


def profile(c: Coding, max_length: int, with_oracle: bool = False,
            budget: int = DEFAULT_BUDGET) -> Iterator[Row]:
    """Per-L rows of formula, (optionally) oracle counts and growth, made as
    they are read.  A coding too short for the table and the oracle's
    budget fail here, before the first row."""
    level(c, max_length)
    counts = factor_counts(c, max_length, budget) if with_oracle else None
    return (Row(L, band_complexity(lv, L), None if counts is None else counts[L],
                band_growth(lv, L)) for L, lv in bands(c, max_length))
