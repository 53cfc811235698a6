"""Blocks p(k), prefixes of the one-sided limit word, and hole arithmetic.

The level-k block sits between two consecutive holes of the k-th periodic
approximant and obeys

    p(0) = a_0^{n_0 - 1},   p(k+1) = (p(k) a_{k+1})^{n_{k+1} - 1} p(k),

so |p(k)| + 1 = n_0 * ... * n_k.  Every p(k) is a prefix of p(k+1), which
pins down a unique one-sided infinite word; its factor set is the language
of the subshift, so that word is the canonical representative here.  Words
are bytes of letter indices (alphabets are capped at 255 letters).

A `Level` holds the level-k constants that every closed formula reads,
`level` finds the one that governs a length, and `bands` walks them for a
per-length table of `Row` records.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .coding import Coding, checked_record, scaled_length, tail_alphabet
from .errors import DEFAULT_BUDGET, BudgetExceeded, InvalidShift


def block(c: Coding, k: int, budget: int = DEFAULT_BUDGET) -> bytes:
    """The block p(k): the limit word's first |p(k)| = n_0 * ... * n_k - 1 symbols."""
    if k < 0:
        raise IndexError("block level must be >= 0")
    length = scaled_length(c, k) - 1
    if length > budget:
        raise BudgetExceeded(
            f"|p({k})| = {length} exceeds the budget of {budget} symbols"
        )
    return word_prefix(c, length, budget)


def block_length(c: Coding, k: int) -> int:
    """|p(k)| without materializing anything; |p(-1)| = 0."""
    return scaled_length(c, k) - 1


class Level(NamedTuple):
    """The constants of the band |p(k-1)| + 1 <= L <= |p(k)|.

    Block lengths below level 0 are 0.  Every formula reads the band's two
    de Bruijn events here: `has_v2` and `keeps_ak`.
    """

    k: int
    p: int  # |p(k)|
    p1: int  # |p(k-1)|
    p2: int  # |p(k-2)|
    a: int  # a_k
    size: int  # |A_k|
    size_next: int  # |A_{k+1}|
    prev_in: bool  # a_{k-1} in A_k; False at k = 0
    stays: bool  # a_k in A_{k+1}

    def has_v2(self, length: int) -> bool:
        """Is there a secondary branch vertex v2 (needs |p(k-1)| < length)?"""
        return self.prev_in and length <= 2 * self.p1 - self.p2

    def keeps_ak(self, length: int) -> bool:
        """Does the branch vertex v1 keep its a_k arc?"""
        return self.stays or length < self.p - self.p1


def level_at(c: Coding, k: int) -> Level:
    """The `Level` record of level k."""
    if k < 0:
        raise IndexError("level must be >= 0")
    here, nxt = tail_alphabet(c, k), tail_alphabet(c, k + 1)
    return Level(k, block_length(c, k), block_length(c, k - 1),
                 block_length(c, max(k - 2, -1)), c.letter(k),
                 len(here), len(nxt), k > 0 and c.letter(k - 1) in here,
                 c.letter(k) in nxt)


def level(c: Coding, length: int) -> Level:
    """The record of the least k with |p(k)| >= length.

    Stepping exact block lengths hits band boundaries exactly; logarithms
    would risk picking the wrong level at L = |p(k)|.
    """
    k, scaled = 0, c.period(0)
    while scaled - 1 < length:
        k += 1
        scaled *= c.period(k)
    return level_at(c, k)


def bands(c: Coding, max_length: int) -> Iterator[tuple[int, Level]]:
    """(L, level(c, L)) for L = 0..max_length in one walk over the levels.

    |p(k+1)| > |p(k)| + 1, so each length moves at most one level on.
    """
    lv = level_at(c, 0)
    for L in range(max_length + 1):
        if lv.p < L:
            lv = level_at(c, lv.k + 1)
        yield L, lv


class Row(NamedTuple):
    """One length of a formula-vs-oracle table, in its CSV column order."""

    length: int
    formula: Optional[int]
    oracle: Optional[int]
    growth: Optional[int] = None


def word_prefix(c: Coding, length: int, budget: int = DEFAULT_BUDGET) -> bytes:
    """The first `length` symbols of the one-sided limit word.

    p(k) = (p(k-1) a_k)^{n_k - 1} p(k-1) starts with repetitions of the
    chunk p(k-1) a_k, so stopping them once `length` symbols are there is
    exact and materializes O(length) symbols however long p(k) is.
    """
    if length < 0:
        raise IndexError("prefix length must be >= 0")
    if length > budget:
        raise BudgetExceeded(
            f"prefix of length {length} exceeds the budget of {budget} symbols"
        )
    prefix, k = bytes([c.letter(0)]) * min(length, c.period(0) - 1), 0
    while len(prefix) < length:
        k += 1
        chunk = prefix + bytes([c.letter(k)])
        reps = min(c.period(k) - 1, -(-length // len(chunk)))
        prefix = chunk * reps + prefix
    return prefix[:length]


class UndeterminedPart(checked_record("UndeterminedPart", "modulus offset")):
    """Residue class modulus*Z + offset of the holes of an approximant."""

    __slots__ = ()

    def __new__(cls, modulus: int, offset: int) -> "UndeterminedPart":
        if not 0 <= offset < modulus:
            raise ValueError("offset must lie in [0, modulus)")
        return super().__new__(cls, modulus, offset)

    def __contains__(self, position: int) -> bool:
        return position % self.modulus == self.offset


def undetermined_part(c: Coding, k: int, shifts) -> UndeterminedPart:
    """Hole positions of the k-th approximant for hole shifts r_0..r_k.

    The holes form n_0*...*n_k Z + [r_0 + sum_j r_j n_0*...*n_{j-1}]:
    exactly one undetermined position per period.
    """
    shifts = tuple(shifts)
    if len(shifts) != k + 1:
        raise InvalidShift(f"expected {k + 1} shifts r_0..r_{k}, got {len(shifts)}")
    for j, r in enumerate(shifts):
        if not 0 <= r < c.period(j):
            raise InvalidShift(f"r_{j} = {r} outside [0, {c.period(j)})")
    modulus = scaled_length(c, k)
    offset, stride = 0, 1
    for j, r in enumerate(shifts):
        offset += r * stride
        stride *= c.period(j)
    return UndeterminedPart(modulus, offset % modulus)
