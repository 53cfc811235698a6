"""The Boshernitzan condition (B) and empirical cylinder-frequency floors.

(B) asks limsup L * eta(L) > 0, where eta(L) is the smallest invariant
measure of a length-L cylinder.  For simple Toeplitz subshifts this is
equivalent to the existence of indices k_r -> infinity along which

    prod_{j = k_r + 1}^{kappa(k_r - 1) - 1} n_j

stays bounded, and it suffices to look along the kappa-jump positions m_i,
whose triples (m_i, kappa(m_i), kappa(m_i - 1)) `coding.jumps` hands out.
Periodic tails make that witness sequence eventually periodic, so (B) is
always satisfied there and the verdict is exact.  Generator tails get a
horizon-qualified verdict only.  When |A_ev| = 3 the criterion reads
liminf_i n_{m_i + 1} < infinity, and `liminf_criterion` judges n_{m_i + 1}
by the same bounded-subsequence rule as the products.  It restates the
product verdict rather than checking it: at a jump with |A_{m_i}| = 3,
kappa(m_i - 1) = m_i + 2 (were a_{m_i + 2} not the third letter, it would
be a_{m_i}, and kappa would not jump at m_i), so the product is
n_{m_i + 1} itself.  The two sequences differ only at the jumps before the
alphabet stabilises at N_ev.

eta itself is estimated empirically from letter frequencies in a long
prefix; the invariant measure is never represented.  `estimate_eta` imports
`fractions`, `language` and `words` where it runs, so a verdict alone loads
none of them.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Optional

from .coding import (
    Coding,
    eventual_alphabet,
    period_product,
    verdict_jumps,
)
from .errors import DEFAULT_BUDGET, PrefixTooShort
from .verdicts import Status, Verdict, trend_of

if TYPE_CHECKING:
    from fractions import Fraction


class BoshVerdict(NamedTuple):
    """The (B) verdict on the witness products, one per jump index m_i:
    `Verdict`'s fields, then the liminf criterion."""

    status: Status
    kind: str
    witness: tuple
    period: Optional[tuple[int, int]]
    trend: Optional[str]
    liminf_criterion: Optional[Status]  # only for |A_ev| = 3


def _bounded_evidence(values: tuple, cycle) -> Verdict:
    """Bounded-subsequence evidence for `values` sampled at the jump indices.

    On a periodic tail (`cycle` set) the sequence is eventually periodic,
    so the answer is an exact yes.  Otherwise a value recurring into the
    last half of the scan counts as detected evidence; without one the
    verdict is inconclusive.  A horizon estimate carries the values' trend.
    """
    if cycle is not None:
        return Verdict(Status.SATISFIED, "exact", values, period=cycle)
    first: dict[int, int] = {}
    for pos, value in enumerate(values):
        first.setdefault(value, pos)
    half = len(values) // 2
    recurring = any(first[value] < pos
                    for pos, value in enumerate(values[half:], half))
    status = Status.SATISFIED if recurring else Status.INCONCLUSIVE
    return Verdict(status, "horizon-estimate", values, trend=trend_of(values))


def bosh_verdict(c: Coding, horizon: int = 12) -> BoshVerdict:
    """Decide (B) exactly for periodic tails, horizon-qualified otherwise.

    The witness products prod_{j = m_i + 1}^{kappa(m_i - 1) - 1} n_j go
    through `_bounded_evidence`; when |A_ev| = 3 so do the periods
    n_{m_i + 1}, and that status is the `liminf_criterion`.
    """
    ev3 = len(eventual_alphabet(c)) == 3
    jumps, cycle = verdict_jumps(c, horizon)
    verdict = _bounded_evidence(tuple(
        period_product(c, m + 1, before) for m, _, before in jumps), cycle)
    liminf = _bounded_evidence(tuple(c.period(m + 1) for m, _, _ in jumps),
                               cycle).status if ev3 else None
    return BoshVerdict(*verdict, liminf)


class EtaEstimate(NamedTuple):
    """Empirical minimum cylinder frequency at word length L."""

    length: int
    min_frequency: Fraction
    prefix_length: int
    rarest: Optional[bytes] = None


def estimate_eta(c: Coding, length: int, prefix_length: int,
                 budget: int = DEFAULT_BUDGET) -> EtaEstimate:
    """min over length-L factors of their frequency in a length-M prefix.

    Demands M >= 10 * (|p(k)| + 1) for the governing level k, and that every
    factor actually occurs in the prefix, so the estimate is a genuine
    frequency rather than a truncation artifact.
    """
    from fractions import Fraction

    from .language import language
    from .words import level, word_prefix

    if length == 0:
        return EtaEstimate(0, Fraction(1), prefix_length)
    needed = 10 * (level(c, length - 1).p + 1)
    if prefix_length < needed:
        raise PrefixTooShort(
            f"need a prefix of at least {needed} symbols for L={length}, "
            f"got {prefix_length}"
        )
    # the charged factor set first: the uncharged counts below hold a
    # subset of its words
    factors = language(c, length, budget)
    prefix = word_prefix(c, prefix_length, budget)
    windows = prefix_length - length + 1
    totals = Counter(prefix[i:i + length] for i in range(windows))
    worst = min(factors, key=totals.__getitem__)
    if totals[worst] == 0:
        raise PrefixTooShort(
            f"factor {c.alphabet.render(worst)} never occurs in the first "
            f"{prefix_length} symbols; increase the prefix length"
        )
    return EtaEstimate(length, Fraction(totals[worst], windows),
                       prefix_length, worst)
