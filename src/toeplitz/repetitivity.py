"""Repetitivity: closed formula, containment oracle, and alpha-verdicts.

R(L) is the least window size whose every factor contains every length-L
factor.  With m_i the kappa-jump positions, the closed form holds for all
L >= |p(m_1)| - |p(m_1 - 1)| + 1 and reads, per band i,

    R(L) = 2|p(kappa(m_i)-1)| + 1 - |p(m_i)| + |p(m_i - 1)| + L
                for |p(m_i)| - |p(m_i-1)| + 1 <= L <= |p(m_i)| + 1,
    R(L) = 2|p(kappa(m_i)-1)| + 1 + L
                for |p(m_i)| + 2 <= L <= |p(m_{i+1})| - |p(m_{i+1}-1)|.

Below the validity range the formula refuses (OutOfTheoremRange) and the
oracle stands alone.  The oracle never assumes the formula: it brackets the
answer by doubling and then bisects the monotone containment predicate.

A subshift is alpha-repetitive when 0 < limsup_i (n_0...n_{kappa(m_i)-1}) /
(n_0...n_{m_i})^alpha < infinity; alpha = 1 (linear repetitivity) reduces to
boundedness of prod_{j=m_i+1}^{kappa(m_i)-1} n_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .coding import (
    Coding,
    kappa,
    log_scaled_length,
    m_cycle,
    m_sequence,
)
from .errors import BudgetExceeded, OutOfTheoremRange
from .language import enclosing_words, language
from .verdicts import Status, Verdict, trend_of
from .words import DEFAULT_BUDGET, block_length, occurrences


def _band_index(c: Coding, length: int) -> int:
    """The i >= 1 whose formula band contains `length`."""

    def band_start(i: int) -> int:
        m = m_sequence(c, i)
        return block_length(c, m) - block_length(c, m - 1) + 1

    if length < band_start(1):
        raise OutOfTheoremRange(
            f"formula valid only for L >= {band_start(1)}, got {length}"
        )
    i = 1
    while band_start(i + 1) <= length:
        i += 1
    return i


def repetitivity_formula(c: Coding, length: int) -> int:
    """Closed-form R(length) within the theorem's validity range."""
    if length < 1:
        raise IndexError("repetitivity lengths start at 1")
    i = _band_index(c, length)
    m = m_sequence(c, i)
    top = 2 * block_length(c, kappa(c, m) - 1) + 1
    if length <= block_length(c, m) + 1:
        return top - block_length(c, m) + block_length(c, m - 1) + length
    return top + length


def formula_valid_from(c: Coding) -> int:
    """First length covered by the closed formula."""
    m1 = m_sequence(c, 1)
    return block_length(c, m1) - block_length(c, m1 - 1) + 1


def _window_contains_all(host: bytes, words, window: int) -> bool:
    """Does every length-`window` factor of `host` contain every word?"""
    last_start = len(host) - window
    for word in words:
        slack = window - len(word)
        occ = occurrences(host, word)
        if not occ or occ[0] > slack:
            return False
        if occ[-1] < last_start:
            return False
        for t, t_next in zip(occ, occ[1:]):
            if t_next - t >= slack + 2 and t + 1 <= last_start:
                return False
    return True


def repetitivity_oracle(c: Coding, length: int, budget: int = DEFAULT_BUDGET,
                        cap: Optional[int] = None) -> int:
    """Minimal window size containing every length-`length` factor.

    Exponential bracketing plus bisection over the monotone predicate
    "every window of that size works"; `cap` bounds the search (and is the
    only place a formula value may enter, as a safety limit).
    """
    if length < 1:
        raise IndexError("repetitivity lengths start at 1")
    inner = language(c, length, budget).words

    def check(window: int) -> bool:
        return all(_window_contains_all(host, inner, window)
                   for host in enclosing_words(c, window, budget))

    limit = cap if cap is not None else budget
    hi = 2 * length + 2
    while not check(hi):
        hi *= 2
        if hi > limit:
            raise BudgetExceeded(
                f"containment scan for L={length} exceeded the cap of {limit}"
            )
    lo = length  # R(L) > L always: distinct factors of equal length exist
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if check(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class AlphaVerdict:
    """Alpha-repetitivity decision with its sampled witness sequences.

    `log_ratios` are log(n_0...n_{kappa(m_i)-1}) / log(n_0...n_{m_i}): the
    exponent alpha at which the criterion ratio would be constant.
    `products` are the linear-repetitivity witnesses
    prod_{j=m_i+1}^{kappa(m_i)-1} n_j and `kappa_gaps` are kappa(m_i) - m_i.
    """

    alpha: Fraction
    kind: str
    status: Status
    log_ratios: tuple[float, ...]
    products: tuple[int, ...]
    kappa_gaps: tuple[int, ...]
    period: Optional[tuple[int, int]] = None
    trend: Optional[str] = None
    horizon: Optional[int] = None  # jump indices scanned on generator tails


def _witness_samples(c: Coding, count: int):
    log_ratios, products, gaps = [], [], []
    for i in range(1, count + 1):
        m = m_sequence(c, i)
        top = kappa(c, m)
        product = 1
        for j in range(m + 1, top):
            product *= c.period(j)
        products.append(product)
        gaps.append(top - m)
        log_ratios.append(log_scaled_length(c, top - 1) / log_scaled_length(c, m))
    return tuple(log_ratios), tuple(products), tuple(gaps)


def alpha_verdict(c: Coding, alpha: Union[int, Fraction],
                  horizon: int = 12) -> AlphaVerdict:
    """Decide alpha-repetitivity exactly (periodic tails) or report a trend.

    Exact reasoning: the witness products are eventually periodic, hence
    bounded, so the criterion ratio behaves like (n_0...n_{m_i})^{1-alpha}
    up to bounded factors.  That gives alpha = 1 satisfied always and
    alpha > 1 violated (the limsup collapses to zero).
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha-repetitivity is defined for alpha >= 1")
    if c.is_exact:
        start, cycle = m_cycle(c)
        count = max(horizon, start + cycle)
        log_ratios, products, gaps = _witness_samples(c, count)
        status = Status.SATISFIED if alpha == 1 else Status.VIOLATED
        return AlphaVerdict(alpha, "exact", status, log_ratios, products,
                            gaps, period=(start, cycle))
    log_ratios, products, gaps = _witness_samples(c, horizon)
    return AlphaVerdict(alpha, "horizon-estimate", Status.INCONCLUSIVE,
                        log_ratios, products, gaps,
                        trend=trend_of(log_ratios), horizon=horizon)


def linear_repetitivity_verdict(c: Coding, horizon: int = 12) -> Verdict:
    """Linear repetitivity = alpha-repetitivity at alpha = 1."""
    av = alpha_verdict(c, 1, horizon)
    return Verdict(av.status, av.kind, av.products, av.period, av.trend)


@dataclass(frozen=True)
class RepetitivityRow:
    length: int
    formula: Optional[int]
    oracle: int


def report(c: Coding, max_length: int,
           budget: int = DEFAULT_BUDGET) -> list[RepetitivityRow]:
    """Per-L table of formula (where defined) and oracle values."""
    rows = []
    for length in range(1, max_length + 1):
        try:
            formula: Optional[int] = repetitivity_formula(c, length)
        except OutOfTheoremRange:
            formula = None
        cap = 4 * formula if formula is not None else None
        oracle = repetitivity_oracle(c, length, budget, cap)
        rows.append(RepetitivityRow(length, formula, oracle))
    return rows
