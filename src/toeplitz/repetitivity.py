"""Repetitivity: closed formula, gap-scan oracle, and alpha-verdicts.

R(L) is the least window size whose every factor contains every length-L
factor.  With m_i the kappa-jump positions, the closed form holds for all
L >= |p(m_1)| - |p(m_1 - 1)| + 1 and reads, per band i,

    R(L) = 2|p(kappa(m_i)-1)| + 1 - |p(m_i)| + |p(m_i - 1)| + L
                for |p(m_i)| - |p(m_i-1)| + 1 <= L <= |p(m_i)| + 1,
    R(L) = 2|p(kappa(m_i)-1)| + 1 + L
                for |p(m_i)| + 2 <= L <= |p(m_{i+1})| - |p(m_{i+1}-1)|.

Below the validity range the formula refuses (OutOfTheoremRange) and the
oracle stands alone.  The oracle never consults the formula: R(L) is one
more than the longest factor missing some length-L factor, read off the gaps
between occurrences (return words, after Durand 1998) in one slide per host.
Each slide also lists its host's factors, and their union is the factor set.
Both sides read the jump triples (m_i, kappa(m_i), kappa(m_i - 1)) of
`coding.jumps`: the formula finds its band there, the verdicts their witnesses.

A subshift is alpha-repetitive when 0 < limsup_i (n_0...n_{kappa(m_i)-1}) /
(n_0...n_{m_i})^alpha < infinity; alpha = 1 (linear repetitivity) reduces to
boundedness of prod_{j=m_i+1}^{kappa(m_i)-1} n_j.  `alpha_verdict` returns
one `Verdict` record whose witness is that product sequence, so its verdict
at alpha = 1 is the linear-repetitivity verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .coding import (
    Coding,
    jumps,
    log_scaled_length,
    period_product,
    verdict_jumps,
)
from .errors import OutOfTheoremRange
from .language import enclosing_words
from .verdicts import Status, Verdict, trend_of
from .words import DEFAULT_BUDGET, block_length, level


def _band(c: Coding, length: int) -> tuple[int, int, int]:
    """|p(m_i)|, |p(m_i - 1)| and |p(kappa(m_i) - 1)| for the band of `length`.

    The band of m_i, i >= 1, runs from |p(m_i)| - |p(m_i - 1)| + 1 up to the
    start of the next one.
    """
    band = None
    for m, top, _ in jumps(c):
        start = block_length(c, m) - block_length(c, m - 1) + 1
        if start > length:
            break
        band = m, top
    if band is None:
        raise OutOfTheoremRange(
            f"formula valid only for L >= {start}, got {length}")
    m, top = band
    return block_length(c, m), block_length(c, m - 1), block_length(c, top - 1)


def repetitivity_formula(c: Coding, length: int) -> int:
    """Closed-form R(length) within the theorem's validity range."""
    if length < 1:
        raise IndexError("repetitivity lengths start at 1")
    p, p1, top = _band(c, length)
    return 2 * top + 1 + length - (p - p1 if length <= p + 1 else 0)


def formula_valid_from(c: Coding) -> int:
    """First length covered by the closed formula."""
    m = next(jumps(c))[0]
    return block_length(c, m) - block_length(c, m - 1) + 1


def _slide(host: bytes, length: int) -> tuple[dict[bytes, int], int]:
    """Each length-`length` factor's last start in `host`, and the longest
    factor of `host` that misses one of them.

    The longest factors missing w run between consecutive starts of w, the
    start -1 standing for the host's start, or on from w's last start.
    """
    last: dict[bytes, int] = {}
    widest = 0
    for i in range(len(host) - length + 1):
        w = host[i:i + length]
        gap = i - last.get(w, -1)
        if gap > widest:
            widest = gap
        last[w] = i
    return last, max(widest + length - 2, len(host) - 1 - min(last.values()))


def repetitivity_oracle(c: Coding, length: int,
                        budget: int = DEFAULT_BUDGET) -> int:
    """Minimal window size containing every length-`length` factor.

    R(L) is one more than the longest factor that misses some length-L
    factor w.  Within a host p(K) a p(K) the longest w-free factors run
    between consecutive occurrences of w or out to the host's ends, and one
    slide per host reads them for every w.  The hosts hold every length-L
    factor between them, so a host without some factor is free of it
    throughout.  Hosts at level K contain every factor up to length
    |p(K)| + 1, so an answer of at most |p(K)| + 1 is exact; a larger one is
    a lower bound, and the hosts are rescanned at the level that covers it.
    """
    if length < 1:
        raise IndexError("repetitivity lengths start at 1")
    window = length + 1
    while True:
        hosts = enclosing_words(c, window, budget)
        slides = [_slide(host, length) for host in hosts]
        factors = len(set().union(*(last for last, _ in slides)))
        need = 1 + max(miss if len(last) == factors else len(host)
                       for host, (last, miss) in zip(hosts, slides))
        if need <= level(c, window - 1).p + 1:
            return need
        window = need


@dataclass(frozen=True, kw_only=True)
class AlphaVerdict(Verdict):
    """Alpha-repetitivity decision with its sampled witness sequences.

    `witness` holds the linear-repetitivity witnesses
    prod_{j=m_i+1}^{kappa(m_i)-1} n_j, so the verdict at alpha = 1 is the
    linear-repetitivity verdict.  `log_ratios` are
    log(n_0...n_{kappa(m_i)-1}) / log(n_0...n_{m_i}): the exponent alpha at
    which the criterion ratio would be constant; their trend is the `trend`
    of a horizon estimate.  `kappa_gaps` are kappa(m_i) - m_i.
    """

    alpha: Fraction
    log_ratios: tuple[float, ...]
    kappa_gaps: tuple[int, ...]


def _witness_samples(c: Coding, jumps):
    log_ratios, products, gaps = [], [], []
    for m, top, _ in jumps:
        products.append(period_product(c, m + 1, top))
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
    jumps, cycle = verdict_jumps(c, horizon)
    log_ratios, products, gaps = _witness_samples(c, jumps)
    if cycle is not None:
        status = Status.SATISFIED if alpha == 1 else Status.VIOLATED
        kind, trend = "exact", None
    else:
        status, kind = Status.INCONCLUSIVE, "horizon-estimate"
        trend = trend_of(log_ratios)
    return AlphaVerdict(status=status, kind=kind, witness=products,
                        period=cycle, trend=trend, alpha=alpha,
                        log_ratios=log_ratios, kappa_gaps=gaps)


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
        rows.append(RepetitivityRow(length, formula,
                                    repetitivity_oracle(c, length, budget)))
    return rows
