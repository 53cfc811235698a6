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
between occurrences (return words, after Durand 1998) in one slide over the
host word of `language.host_word`.
Both sides read the jump triples (m_i, kappa(m_i), kappa(m_i - 1)) of
`coding.jumps`: the formula finds its band there, the verdicts their witnesses.

A subshift is alpha-repetitive when 0 < limsup_i (n_0...n_{kappa(m_i)-1}) /
(n_0...n_{m_i})^alpha < infinity; alpha = 1 (linear repetitivity) reduces to
boundedness of prod_{j=m_i+1}^{kappa(m_i)-1} n_j.  `alpha_verdict` returns
one `AlphaVerdict` record whose witness is that product sequence, so its
verdict at alpha = 1 is the linear-repetitivity verdict.

The two paths import their own layers where they start: the formula and the
oracle table load `words` and `language`, `alpha_verdict` loads `fractions`
and `verdicts`, so a launch that takes one path compiles none of the other's.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Union

from .coding import Coding, jumps, period_product, verdict_jumps
from .errors import DEFAULT_BUDGET, OutOfTheoremRange, TooSmall

if TYPE_CHECKING:
    from fractions import Fraction

    from .verdicts import Status
    from .words import Row


def _bands(c: Coding) -> Iterator[tuple[int, int, int, int]]:
    """(start, |p(m_i)|, |p(m_i - 1)|, |p(kappa(m_i) - 1)|) for i = 1, 2, ...

    The band of m_i runs from start = |p(m_i)| - |p(m_i - 1)| + 1 up to the
    start of the next one.
    """
    from .words import block_length

    for m, top, _ in jumps(c):
        p, p1 = block_length(c, m), block_length(c, m - 1)
        yield p - p1 + 1, p, p1, block_length(c, top - 1)


def _band_value(band: tuple[int, int, int, int], length: int) -> int:
    _, p, p1, top = band
    return 2 * top + 1 + length - (p - p1 if length <= p + 1 else 0)


def repetitivity_formula(c: Coding, length: int) -> int:
    """Closed-form R(length) within the theorem's validity range."""
    if length < 1:
        raise TooSmall("repetitivity lengths start at 1")
    band = None
    for ahead in _bands(c):
        if ahead[0] > length:
            break
        band = ahead
    if band is None:
        raise OutOfTheoremRange(
            f"formula valid only for L >= {ahead[0]}, got {length}")
    return _band_value(band, length)


def formula_valid_from(c: Coding) -> int:
    """First length covered by the closed formula."""
    return next(_bands(c))[0]


def _longest_miss(word: bytes, length: int) -> int:
    """The longest factor of `word` missing one of its `length`-factors.

    The longest factors missing w run between consecutive starts of w, the
    start -1 standing for the word's start, or on from w's last start.
    """
    last: dict[bytes, int] = {}
    widest = 0
    for i in range(len(word) - length + 1):
        w = word[i:i + length]
        gap = i - last.get(w, -1)
        if gap > widest:
            widest = gap
        last[w] = i
    return max(widest + length - 2, len(word) - 1 - min(last.values()))


def _least_window(c: Coding, length: int, window: int, budget: int) -> int:
    """`repetitivity_oracle` from the host word covering `window`, which may
    be any size up to R(length): the exactness test ignores it."""
    from .language import host_word
    from .words import level

    while True:
        need = 1 + _longest_miss(host_word(c, window, budget), length)
        if need <= level(c, window - 1).p + 1:
            return need
        window = level(c, window - 1).p + 2  # one level up


def repetitivity_oracle(c: Coding, length: int,
                        budget: int = DEFAULT_BUDGET) -> int:
    """Minimal window size containing every length-`length` factor.

    R(L) is one more than the longest factor that misses some length-L
    factor w.  Within the host word p(K) a_1 p(K) ... a_m p(K) the longest
    w-free factors run between consecutive occurrences of w or out to the
    word's ends, and one slide reads them for every w.  The word's factors
    up to length |p(K)| + 1 are the language's, so an answer of at most
    |p(K)| + 1 is exact.  A larger miss may span two hosts and bound
    nothing, so the word is rescanned one level up.
    """
    if length < 1:
        raise TooSmall("repetitivity lengths start at 1")
    return _least_window(c, length, length + 1, budget)


class AlphaVerdict(NamedTuple):
    """Alpha-repetitivity decision with its sampled witness sequences.

    The first five fields are `verdicts.Verdict`'s.  `witness` holds the
    linear-repetitivity witnesses prod_{j=m_i+1}^{kappa(m_i)-1} n_j, so the
    verdict at alpha = 1 is the linear-repetitivity verdict.  `log_ratios` are
    log(n_0...n_{kappa(m_i)-1}) / log(n_0...n_{m_i}): the exponent alpha at
    which the criterion ratio would be constant; their trend is the `trend`
    of a horizon estimate.  `kappa_gaps` are kappa(m_i) - m_i.
    """

    status: Status
    kind: str
    witness: tuple
    period: Optional[tuple[int, int]]
    trend: Optional[str]
    alpha: Fraction
    log_ratios: tuple[float, ...]
    kappa_gaps: tuple[int, ...]


def _witness_samples(c: Coding, jumps):
    """The witness products, kappa gaps and log ratios along the jumps.

    `logs[k]` is log(n_0 * ... * n_k), stable even when the product is
    astronomically big.  One running list serves every jump (m < kappa(m)),
    so the walk is linear in the horizon; its logs are added left to right
    in plain floats, the same bits on every Python, where `sum` compensates
    its rounding from 3.12 on and would change the printed log ratios.
    """
    log_ratios, products, gaps, logs = [], [], [], []
    for m, top, _ in jumps:
        products.append(period_product(c, m + 1, top))
        gaps.append(top - m)
        while len(logs) < top:
            logs.append((logs[-1] if logs else 0.0)
                        + math.log(c.period(len(logs))))
        log_ratios.append(logs[top - 1] / logs[m])
    return tuple(log_ratios), tuple(products), tuple(gaps)


def alpha_verdict(c: Coding, alpha: Union[int, Fraction],
                  horizon: int = 12) -> AlphaVerdict:
    """Decide alpha-repetitivity exactly (periodic tails) or report a trend.

    Exact reasoning: the witness products are eventually periodic, hence
    bounded, so the criterion ratio behaves like (n_0...n_{m_i})^{1-alpha}
    up to bounded factors.  That gives alpha = 1 satisfied always and
    alpha > 1 violated (the limsup collapses to zero).
    """
    from fractions import Fraction

    from .verdicts import Status, trend_of

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


def report(c: Coding, max_length: int,
           budget: int = DEFAULT_BUDGET) -> list[Row]:
    """Per-L table of formula (where defined) and oracle values.

    One walk over the bands serves every length, as `words.bands` walks
    the levels; band starts strictly increase, so each length
    moves at most one band on.  R never decreases, so each length's
    oracle scan starts at the window where the previous one ended.
    """
    from .words import Row

    rows, kappa_bands, window = [], _bands(c), 2
    band, ahead = None, next(kappa_bands)
    for length in range(1, max_length + 1):
        if ahead[0] <= length:
            band, ahead = ahead, next(kappa_bands)
        formula = None if band is None else _band_value(band, length)
        window = _least_window(c, length, max(window, length + 1), budget)
        rows.append(Row(length, formula, window))
    return rows
