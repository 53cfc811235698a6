"""Exact factor enumeration: the oracle every closed-form module is tested against.

Every factor of length at most |p(k)| + 1 occurs inside p(k) a p(k) for some
letter a in the tail alphabet A_{k+1}, so sliding a window over those few
explicit words enumerates the language exhaustively.  Words are kept sorted
by letter id (bytes order), which makes CLI output and graph layouts stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coding import Coding, Letter, tail_alphabet
from .errors import WordNotInLanguage
from .words import DEFAULT_BUDGET, block, governing_level


@dataclass(frozen=True)
class LanguageSet:
    """All length-L factors of the subshift, sorted."""

    length: int
    words: tuple[bytes, ...]

    @cached_property
    def words_set(self) -> frozenset[bytes]:
        return frozenset(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: bytes) -> bool:
        return word in self.words_set

    def __iter__(self):
        return iter(self.words)


def host_word(c: Coding, k: int, letter_id: int,
              budget: int = DEFAULT_BUDGET) -> bytes:
    """The word p(k) a p(k) for the letter with id `letter_id`."""
    p = block(c, k, budget)
    return p + bytes([letter_id]) + p


def enclosing_words(c: Coding, length: int,
                    budget: int = DEFAULT_BUDGET) -> list[bytes]:
    """The words p(k) a p(k), a in A_{k+1}, that exhaust factors up to `length`."""
    k = governing_level(c, length)
    return [host_word(c, k, a, budget)
            for a in sorted(tail_alphabet(c, k + 1).ids)]


def language(c: Coding, length: int,
             budget: int = DEFAULT_BUDGET) -> LanguageSet:
    """The exact set of length-`length` factors; {empty word} for length 0."""
    if length < 0:
        raise IndexError("word length must be >= 0")
    if length == 0:
        return LanguageSet(0, (b"",))
    return LanguageSet(length, tuple(sorted({
        w[i:i + length]
        for w in enclosing_words(c, length, budget)
        for i in range(len(w) - length + 1)
    })))


def right_extensions(c: Coding, word: bytes,
                     budget: int = DEFAULT_BUDGET) -> frozenset[Letter]:
    """Letters b with word*b in the language; nonempty for language members."""
    if word not in language(c, len(word), budget):
        raise WordNotInLanguage(f"{word!r} is not a factor of the subshift")
    longer = language(c, len(word) + 1, budget).words_set
    return frozenset(
        letter for letter in c.alphabet
        if word + bytes([letter.id]) in longer
    )


def prefix_factor_set(c: Coding, length: int, prefix: bytes) -> frozenset[bytes]:
    """Length-`length` factors of an explicit prefix; independent cross-check."""
    if length == 0:
        return frozenset((b"",))
    return frozenset(
        prefix[i:i + length] for i in range(len(prefix) - length + 1)
    )
