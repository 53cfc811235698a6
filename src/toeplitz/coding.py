"""Coding sequences for simple Toeplitz subshifts.

A simple Toeplitz subshift is determined by two sequences: letters (a_k) with
a_k != a_{k+1} and period lengths (n_k) with n_k >= 2.  The hole-shift
sequence (r_k) only moves the reference point inside the subshift and is
therefore not part of a ``Coding``.

A letter is an ``int``: its index in ``coding.alphabet``, and its byte value
in words.  ``alphabet[i]`` is the name of letter i, and names are used only
to parse and render.  ``c.letter(k)``, ``tail_alphabet`` and
``eventual_alphabet`` hand out letters as ints.

Two tail backends are supported.  A ``PeriodicTail`` repeats a finite cycle
of entries forever, which makes every derived quantity exactly computable
from one cycle.  A ``GeneratorTail`` carries a finite materialized stretch of
entries produced by a named rule; derived quantities are then only certified
up to that horizon.

The module also houses the two combinatorial gadgets used by the
repetitivity and Boshernitzan machinery: ``kappa(k)``, the first index by
which every letter of the tail alphabet A_{k+1} has been seen again, and
``jumps``, one walk over the indices m_i where kappa strictly increases that
hands out kappa(m_i) and kappa(m_i - 1) with them, so neither consumer calls
``kappa`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Union

from .errors import AllLettersEqual, EmptyCoding, HorizonExceeded

MAX_ALPHABET = 255


@dataclass(frozen=True)
class Alphabet:
    """Letter names; a letter is its index here and its byte value in words."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not 0 < len(self.names) <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("letter names must be unique")

    @classmethod
    def from_names(cls, names) -> "Alphabet":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __getitem__(self, letter: int) -> str:
        return self.names[letter]

    def by_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def render(self, word: bytes) -> str:
        """Word as letter names: concatenated when all names are single chars."""
        names = [self.names[b] for b in word]
        if all(len(n) == 1 for n in self.names):
            return "".join(names)
        return " ".join(names)


@dataclass(frozen=True)
class CodingEntry:
    """One step of the coding: insert letter a_k with period n_k."""

    letter: int
    period: int

    def __post_init__(self):
        if self.period < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")


@dataclass(frozen=True)
class PeriodicTail:
    entries: tuple[CodingEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise EmptyCoding("periodic tail needs at least one entry")


@dataclass(frozen=True)
class GeneratorTail:
    """Finite materialized stretch of a named generator rule.

    ``recurrent`` is the set of letter ids the rule promises to emit
    infinitely often, with the contract that *every* letter it ever emits
    belongs to that set.  Without it, tail alphabets cannot be certified
    from a finite scan and the corresponding queries raise HorizonExceeded.
    """

    name: str
    entries: tuple[CodingEntry, ...]
    recurrent: Union[frozenset[int], None] = None

    def __post_init__(self):
        if not self.entries:
            raise EmptyCoding("generator tail materialized no entries")
        if self.recurrent is not None and any(
                e.letter not in self.recurrent for e in self.entries):
            raise ValueError(
                f"generator '{self.name}' emitted letters outside its "
                "declared recurrent alphabet"
            )

    @property
    def horizon(self) -> int:
        return len(self.entries)


Tail = Union[PeriodicTail, GeneratorTail]


@dataclass(frozen=True)
class Coding:
    """The pair of sequences (a_k), (n_k), split into preperiod and tail."""

    alphabet: Alphabet
    preperiod: tuple[CodingEntry, ...]
    tail: Tail

    def __post_init__(self):
        for e in self.preperiod + self.tail.entries:
            if not 0 <= e.letter < len(self.alphabet):
                raise ValueError(f"letter {e.letter} not in alphabet")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.tail, PeriodicTail)

    @property
    def horizon(self) -> Union[int, None]:
        """Number of addressable indices k, or None when unbounded."""
        if isinstance(self.tail, GeneratorTail):
            return len(self.preperiod) + self.tail.horizon
        return None

    def entry(self, k: int) -> CodingEntry:
        if k < 0:
            raise IndexError(f"coding index must be >= 0, got {k}")
        pre = self.preperiod
        if k < len(pre):
            return pre[k]
        j = k - len(pre)
        if isinstance(self.tail, PeriodicTail):
            return self.tail.entries[j % len(self.tail.entries)]
        if j >= self.tail.horizon:
            raise HorizonExceeded(
                f"index {k} beyond generator horizon of {self.horizon} entries",
                horizon=self.horizon,
            )
        return self.tail.entries[j]

    def letter(self, k: int) -> int:
        return self.entry(k).letter

    def period(self, k: int) -> int:
        return self.entry(k).period

    @property
    def is_normalized(self) -> bool:
        """Consecutive letters distinct, including junction and cyclic wrap."""
        seq = self.preperiod + self.tail.entries
        for a, b in zip(seq, seq[1:]):
            if a.letter == b.letter:
                return False
        if isinstance(self.tail, PeriodicTail):
            t = self.tail.entries
            if len(t) == 1 or t[-1].letter == t[0].letter:
                return False
            if len({e.letter for e in t}) < 2:
                return False
        return True

    def spec_string(self) -> str:
        """The `pre | tail` spec of this coding.

        A periodic coding parses back to the letter names and periods of its
        normal form, though letter indices may be renumbered.  A generator
        tail is recorded by name only: its horizon and periods are not kept.
        """
        pre = " ".join(f"{self.alphabet[e.letter]}:{e.period}"
                       for e in self.preperiod)
        if isinstance(self.tail, PeriodicTail):
            t = " ".join(f"{self.alphabet[e.letter]}:{e.period}"
                         for e in self.tail.entries)
        else:
            t = f"@{self.tail.name}"
        return f"{pre} | {t}".strip()


def _merge(a: CodingEntry, b: CodingEntry) -> CodingEntry:
    # filling (a^{m-1}?) into (a^{n-1}?) yields (a^{nm-1}?): periods multiply
    return CodingEntry(a.letter, a.period * b.period)


def _stack_merge(entries) -> list[CodingEntry]:
    out: list[CodingEntry] = []
    for e in entries:
        if out and out[-1].letter == e.letter:
            out[-1] = _merge(out[-1], e)
        else:
            out.append(e)
    return out


def normalize(raw: Coding) -> Coding:
    """Canonical form: merge equal adjacent letters by multiplying periods.

    Merges are applied inside the preperiod, across the preperiod-tail
    junction and, for periodic tails, across the cyclic wrap.  A wrap merge
    is resolved by unrolling one tail copy into the preperiod, so the new
    cycle starts at the merged entry.  A tail whose letters all coincide
    collapses to a periodic word and is rejected.
    """
    pre = _stack_merge(raw.preperiod)

    if isinstance(raw.tail, GeneratorTail):
        gen = _stack_merge(raw.tail.entries)
        while pre and gen and pre[-1].letter == gen[0].letter:
            pre[-1] = _merge(pre[-1], gen[0])
            gen = gen[1:]
        if not gen:
            raise AllLettersEqual("generator entries merged away entirely")
        tail: Tail = GeneratorTail(raw.tail.name, tuple(gen), raw.tail.recurrent)
        return Coding(raw.alphabet, tuple(pre), tail)

    cyc = _stack_merge(raw.tail.entries)
    if len({e.letter for e in cyc}) < 2:
        raise AllLettersEqual(
            "tail uses a single letter; the resulting word is periodic"
        )
    if cyc[0].letter == cyc[-1].letter:
        # wrap merge: unroll the entries E[0] .. E[-2] into the preperiod and
        # restart the cycle at the folded entry E[-1]*E[0]
        head, folded = cyc[:-1], _merge(cyc[-1], cyc[0])
        if pre and pre[-1].letter == head[0].letter:
            pre[-1] = _merge(pre[-1], head[0])
            head = head[1:]
        pre.extend(head)
        cyc = [folded] + cyc[1:-1]
    elif pre and pre[-1].letter == cyc[0].letter:
        # junction merge: absorb the first tail entry, rotate the cycle by one
        pre[-1] = _merge(pre[-1], cyc[0])
        cyc = cyc[1:] + cyc[:1]
    out = Coding(raw.alphabet, tuple(pre), PeriodicTail(tuple(cyc)))
    assert out.is_normalized
    return out


def tail_alphabet(c: Coding, k: int) -> frozenset[int]:
    """A_k = {a_j : j >= k}, certified exactly or via the generator contract."""
    if k < 0:
        raise IndexError("tail alphabet index must be >= 0")
    rest = {e.letter for e in c.preperiod[k:]}
    if isinstance(c.tail, PeriodicTail):
        return frozenset(rest | {e.letter for e in c.tail.entries})
    if c.tail.recurrent is None:
        raise HorizonExceeded(
            f"generator '{c.tail.name}' declares no recurrent alphabet; "
            "tail alphabets cannot be certified",
            horizon=c.horizon,
        )
    return frozenset(rest | c.tail.recurrent)


def eventual_alphabet(c: Coding) -> frozenset[int]:
    """A_ev: the letters occurring infinitely often in (a_k)."""
    if isinstance(c.tail, PeriodicTail):
        return frozenset(e.letter for e in c.tail.entries)
    return tail_alphabet(c, len(c.preperiod))


def stabilization_index(c: Coding) -> int:
    """N_ev: least k with a_j in A_ev and A_j = A_ev for every j >= k."""
    ev = eventual_alphabet(c)
    n_ev = 0
    for j, e in enumerate(c.preperiod):
        if e.letter not in ev:
            n_ev = j + 1
    return n_ev


def kappa(c: Coding, k: int) -> int:
    """kappa(k) = min{j > k : {a_{k+1}, ..., a_j} = A_{k+1}}."""
    target = tail_alphabet(c, k + 1)
    seen: set[int] = set()
    j = k
    while seen != target:
        j += 1
        seen.add(c.letter(j))
    return j


def jumps(c: Coding) -> Iterator[tuple[int, int, int]]:
    """(m_i, kappa(m_i), kappa(m_i - 1)) for i = 1, 2, ..., with m_0 = 0.

    m_i is the i-th index where kappa strictly increases.  kappa never
    decreases, so kappa(m_i - 1) is the value it held before the jump.  One
    forward walk over k; it ends only where kappa does (a generator horizon
    raises HorizonExceeded).
    """
    before = kappa(c, 0)
    for k in count(1):
        if (top := kappa(c, k)) > before:
            yield k, top, before
            before = top


def m_sequence(c: Coding, i: int) -> int:
    """m_i: 0 for i = 0, else the index of the i-th triple of `jumps`.

    Once the tail alphabet has stabilized this coincides with the backward
    recursion m_{i+1} = max{j <= kappa(m_i) : {a_j..a_{kappa(m_i)}} = A_{m_i+1}};
    while letters are still dropping out of the tail alphabet only the jump
    characterization keeps kappa constant on [m_i, m_{i+1} - 1] and
    a_{m_i} = a_{kappa(m_i)}, which is what every consumer here relies on.
    """
    if i < 0:
        raise IndexError("m-sequence index must be >= 0")
    return next(islice(jumps(c), i - 1, None))[0] if i else 0


def m_cycle(c: Coding) -> tuple[int, int]:
    """(start, length) such that all (m_i)-indexed data repeats for i >= start.

    Only periodic tails admit an exact cycle.  Once m_i lands past the
    preperiod, everything derived from index m_i - 1 onward depends only on
    (m_i - preperiod) mod tail length, so a repeated residue closes the cycle.
    The cycle is found within 2 * (preperiod + tail length) steps.
    """
    if not c.is_exact:
        raise ValueError("m-cycle detection requires a periodic tail")
    pre_len = len(c.preperiod)
    t = len(c.tail.entries)
    seen: dict[int, int] = {}
    for i, (m, _, _) in enumerate(jumps(c), start=1):
        if m >= pre_len + 1:
            res = (m - pre_len) % t
            if res in seen:
                return seen[res], i - seen[res]
            seen[res] = i
        if i + 1 > 4 * (pre_len + t) + 8:
            raise AssertionError("m-cycle detector exceeded its guaranteed bound")


def verdict_jumps(c: Coding, horizon: int
                  ) -> tuple[tuple[tuple[int, int, int], ...],
                             Union[tuple[int, int], None]]:
    """The first `size` triples of `jumps`, and the m-cycle (None if inexact).

    size is `horizon` on generator tails and max(horizon, start + length)
    on periodic ones, so an exact verdict sees at least one whole cycle.
    """
    cycle = m_cycle(c) if c.is_exact else None
    size = horizon if cycle is None else max(horizon, sum(cycle))
    return tuple(islice(jumps(c), size)), cycle


def scaled_length(c: Coding, k: int) -> int:
    """n_0 * ... * n_k, i.e. |p(k)| + 1; equals 1 for k = -1."""
    if k < -1:
        raise IndexError("level must be >= -1")
    return period_product(c, 0, k + 1)


def period_product(c: Coding, lo: int, hi: int) -> int:
    """n_lo * ... * n_{hi-1}; 1 for an empty range."""
    return math.prod(c.period(j) for j in range(lo, hi))


def log_scaled_length(c: Coding, k: int) -> float:
    """log(n_0 * ... * n_k), stable even when the product is astronomically big."""
    return sum(math.log(c.period(j)) for j in range(k + 1))
