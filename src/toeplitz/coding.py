"""Coding sequences for simple Toeplitz subshifts.

A simple Toeplitz subshift is determined by two sequences: letters (a_k) with
a_k != a_{k+1} and period lengths (n_k) with n_k >= 2.  The hole-shift
sequence (r_k) only moves the reference point inside the subshift and is
therefore not part of a ``Coding``.

A letter is an ``int``: its index in ``coding.alphabet``, and its byte value
in words.  ``alphabet.names[i]`` is the name of letter i, and names are used
only to parse and render.  ``c.letter(k)``, ``tail_alphabet`` and
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
``kappa`` itself.  ``verdict_jumps`` takes the triples a verdict samples and,
on a periodic tail, finds their cycle in the same walk.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import count
from typing import Iterator, Union

from .errors import AllLettersEqual, EmptyCoding, HorizonExceeded, TooSmall

MAX_ALPHABET = 255


def checked_record(typename: str, field_names: str) -> type:
    """A namedtuple base whose `_make`, and with it `_replace` and
    `copy.replace`, builds through the subclass's field-checking `__new__`."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class Alphabet(checked_record("Alphabet", "names")):
    """Letter names; a letter is its index here and its byte value in words."""

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...]) -> "Alphabet":
        if not 0 < len(names) <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}")
        if len(set(names)) != len(names):
            raise ValueError("letter names must be unique")
        return super().__new__(cls, names)

    @classmethod
    def from_names(cls, names) -> "Alphabet":
        return cls(tuple(names))

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


class CodingEntry(checked_record("CodingEntry", "letter period")):
    """One step of the coding: insert letter a_k with period n_k."""

    __slots__ = ()

    def __new__(cls, letter: int, period: int) -> "CodingEntry":
        if period < 2:
            raise ValueError(f"period must be >= 2, got {period}")
        return super().__new__(cls, letter, period)


class PeriodicTail(checked_record("PeriodicTail", "entries")):
    __slots__ = ()

    def __new__(cls, entries: tuple[CodingEntry, ...]) -> "PeriodicTail":
        if not entries:
            raise EmptyCoding("periodic tail needs at least one entry")
        return super().__new__(cls, entries)


class GeneratorTail(checked_record("GeneratorTail", "name entries recurrent")):
    """Finite materialized stretch of a named generator rule.

    ``recurrent`` is the set of letter ids the rule promises to emit
    infinitely often, with the contract that *every* letter it ever emits
    belongs to that set.  Tail alphabets are read from it, since no finite
    scan could certify them.
    """

    __slots__ = ()

    def __new__(cls, name: str, entries: tuple[CodingEntry, ...],
                recurrent: frozenset[int]) -> "GeneratorTail":
        if not entries:
            raise EmptyCoding("generator tail materialized no entries")
        if any(e.letter not in recurrent for e in entries):
            raise ValueError(
                f"generator '{name}' emitted letters outside its "
                "declared recurrent alphabet"
            )
        return super().__new__(cls, name, entries, recurrent)

    @property
    def horizon(self) -> int:
        return len(self.entries)


Tail = Union[PeriodicTail, GeneratorTail]


class Coding(checked_record("Coding", "alphabet preperiod tail")):
    """The pair of sequences (a_k), (n_k), split into preperiod and tail."""

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, preperiod: tuple[CodingEntry, ...],
                tail: Tail) -> "Coding":
        letters = [e.letter for e in preperiod + tail.entries]
        if isinstance(tail, GeneratorTail):
            letters += sorted(tail.recurrent)
        for letter in letters:
            if not 0 <= letter < len(alphabet.names):
                raise ValueError(f"letter {letter} not in alphabet")
        return super().__new__(cls, alphabet, preperiod, tail)

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
            raise TooSmall(f"coding index must be >= 0, got {k}")
        pre = self.preperiod
        if k < len(pre):
            return pre[k]
        j = k - len(pre)
        if isinstance(self.tail, PeriodicTail):
            return self.tail.entries[j % len(self.tail.entries)]
        if j >= self.tail.horizon:
            raise HorizonExceeded(
                f"index {k} beyond generator horizon of {self.horizon} entries")
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
            # equal neighbours above already rule out a longer one-letter cycle
            if len(t) == 1 or t[-1].letter == t[0].letter:
                return False
        return True

    def spec_string(self) -> str:
        """The `pre | tail` spec of this coding.

        A periodic coding parses back to the letter names and periods of its
        normal form, though letter indices may be renumbered.  A generator
        tail is recorded by name only: its horizon and periods are not kept.
        """
        pre = " ".join(f"{self.alphabet.names[e.letter]}:{e.period}"
                       for e in self.preperiod)
        if isinstance(self.tail, PeriodicTail):
            t = " ".join(f"{self.alphabet.names[e.letter]}:{e.period}"
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
        # gen[1], if any, differs from gen[0]: at most one entry merges
        if pre and pre[-1].letter == gen[0].letter:
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
        pre = _stack_merge(pre + cyc[:-1])
        cyc = [_merge(cyc[-1], cyc[0])] + cyc[1:-1]
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
        raise TooSmall("tail alphabet index must be >= 0")
    rest = {e.letter for e in c.preperiod[k:]}
    if isinstance(c.tail, PeriodicTail):
        return frozenset(rest | {e.letter for e in c.tail.entries})
    return frozenset(rest | c.tail.recurrent)


def eventual_alphabet(c: Coding) -> frozenset[int]:
    """A_ev: the letters occurring infinitely often in (a_k)."""
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


def verdict_jumps(c: Coding, horizon: int
                  ) -> tuple[tuple[tuple[int, int, int], ...],
                             Union[tuple[int, int], None]]:
    """The first `size` triples of `jumps`, and the m-cycle (None if inexact).

    Only periodic tails admit an exact cycle (start, length) such that all
    (m_i)-indexed data repeats for i >= start.  Once m_i lands past the
    preperiod, everything derived from index m_i - 1 onward depends only on
    (m_i - preperiod) mod tail length, so a repeated residue closes the
    cycle, within 2 * (preperiod + tail length) steps.  The same walk
    collects the triples: size is `horizon` on generator tails and
    max(horizon, start + length) on periodic ones, so an exact verdict sees
    at least one whole cycle.  A generator tail with fewer than `horizon`
    jumps in its materialized entries raises HorizonExceeded naming both.
    """
    pre_len, t = len(c.preperiod), len(c.tail.entries)
    taken, seen, cycle = [], {}, None
    walk = jumps(c)
    try:
        while len(taken) < horizon or (c.is_exact and cycle is None):
            taken.append(triple := next(walk))
            if c.is_exact and cycle is None and triple[0] > pre_len:
                i = len(taken)
                start = seen.setdefault((triple[0] - pre_len) % t, i)
                if start < i:
                    cycle = start, i - start
    except HorizonExceeded:
        raise HorizonExceeded(
            f"horizon {horizon} exceeds the {len(taken)} kappa jumps in "
            f"the generator's {c.horizon} materialized entries") from None
    return tuple(taken), cycle


def scaled_length(c: Coding, k: int) -> int:
    """n_0 * ... * n_k, i.e. |p(k)| + 1; equals 1 for k = -1."""
    if k < -1:
        raise TooSmall("level must be >= -1")
    return period_product(c, 0, k + 1)


def period_product(c: Coding, lo: int, hi: int) -> int:
    """n_lo * ... * n_{hi-1}; 1 for an empty range."""
    return math.prod(c.period(j) for j in range(lo, hi))

