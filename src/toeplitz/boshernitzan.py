"""The Boshernitzan condition (B) and empirical cylinder-frequency floors.

(B) asks limsup L * eta(L) > 0, where eta(L) is the smallest invariant
measure of a length-L cylinder.  For simple Toeplitz subshifts this is
equivalent to the existence of indices k_r -> infinity along which

    prod_{j = k_r + 1}^{kappa(k_r - 1) - 1} n_j

stays bounded, and it suffices to look along the kappa-jump positions m_i.
Periodic tails make that witness sequence eventually periodic, so (B) is
always satisfied there and the verdict is exact.  Generator tails get a
horizon-qualified verdict only.  When |A_ev| = 3 the product criterion
collapses to liminf_i n_{m_i + 1} < infinity, which is reported alongside
as a consistency check.

eta itself is estimated empirically from letter frequencies in a long
prefix; the invariant measure is never represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from .coding import (
    Coding,
    eventual_alphabet,
    jump_indices,
    kappa,
    period_product,
    verdict_jumps,
)
from .errors import PrefixTooShort
from .language import language
from .verdicts import Status, Verdict, trend_of
from .words import (DEFAULT_BUDGET, block_length, governing_level, occurrences,
                    word_prefix)


@dataclass(frozen=True)
class BoshWitness:
    """The bounded-subsequence witness at jump index i."""

    index: int
    product: int


def _witness_product(c: Coding, m: int) -> int:
    return period_product(c, m + 1, kappa(c, m - 1))


def bosh_products(c: Coding, horizon: int) -> list[BoshWitness]:
    """prod_{j = m_i + 1}^{kappa(m_i - 1) - 1} n_j for i = 1..horizon."""
    jumps = islice(jump_indices(c), 1, None)
    return [BoshWitness(i, _witness_product(c, m))
            for i, m in zip(range(1, horizon + 1), jumps)]


def _liminf_criterion_exact(c: Coding, jumps, cycle) -> Status:
    """|A_ev| = 3 specialization: (B) iff liminf_i n_{m_i+1} < infinity."""
    values = [c.period(m + 1) for m in jumps[cycle[0] - 1:sum(cycle) - 1]]
    return Status.SATISFIED if min(values) < float("inf") else Status.VIOLATED


@dataclass(frozen=True)
class BoshVerdict:
    verdict: Verdict
    liminf_criterion: Optional[Status]  # only for |A_ev| = 3

    @property
    def status(self) -> Status:
        return self.verdict.status


def bosh_verdict(c: Coding, horizon: int = 12) -> BoshVerdict:
    """Decide (B) exactly for periodic tails, horizon-qualified otherwise.

    A periodic tail makes the witness products eventually periodic, hence a
    bounded subsequence always exists and (B) holds.  For generator tails a
    value recurring into the last half of the scan counts as detected
    bounded-subsequence evidence; otherwise the verdict is inconclusive and
    carries the trend of the scanned products.
    """
    ev3 = len(eventual_alphabet(c)) == 3
    jumps, cycle = verdict_jumps(c, horizon)
    products = tuple(_witness_product(c, m) for m in jumps)
    if cycle is not None:
        verdict = Verdict(Status.SATISFIED, "exact", products, period=cycle)
        liminf = _liminf_criterion_exact(c, jumps, cycle) if ev3 else None
        return BoshVerdict(verdict, liminf)

    seen_at: dict[int, list[int]] = {}
    for pos, value in enumerate(products):
        seen_at.setdefault(value, []).append(pos)
    recurring = any(
        len(positions) >= 2 and positions[-1] >= len(products) // 2
        for positions in seen_at.values()
    )
    if recurring:
        verdict = Verdict(Status.SATISFIED, "horizon-estimate", products,
                          trend=trend_of(products), horizon=horizon)
    else:
        verdict = Verdict(Status.INCONCLUSIVE, "horizon-estimate", products,
                          trend=trend_of(products), horizon=horizon)
    return BoshVerdict(verdict, None)


@dataclass(frozen=True)
class EtaEstimate:
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
    if length == 0:
        return EtaEstimate(0, Fraction(1), prefix_length)
    k = governing_level(c, length)
    needed = 10 * (block_length(c, k) + 1)
    if prefix_length < needed:
        raise PrefixTooShort(
            f"need a prefix of at least {needed} symbols for L={length}, "
            f"got {prefix_length}"
        )
    prefix = word_prefix(c, prefix_length, budget)
    words = language(c, length, budget).words
    totals = [len(occurrences(prefix, w)) for w in words]
    windows = prefix_length - length + 1
    worst = min(range(len(words)), key=lambda idx: totals[idx])
    if totals[worst] == 0:
        raise PrefixTooShort(
            f"factor {words[worst]!r} never occurs in the first "
            f"{prefix_length} symbols; increase the prefix length"
        )
    return EtaEstimate(length, Fraction(totals[worst], windows),
                       prefix_length, words[worst])
