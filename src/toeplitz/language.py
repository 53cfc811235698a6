"""Exact factor and palindrome oracles: what every closed formula is tested against.

Every factor of length at most |p(k)| + 1 occurs inside p(k) a p(k) for some
letter a in the tail alphabet A_{k+1} (the enclosing-words lemma), so one
host word p(k) a_1 p(k) a_2 ... a_m p(k) holds the whole language up to that
length.  The repetitivity oracle slides over it itself; two oracle tiers
here read it, and neither ever sees a formula value:

- `language` slides a window of one length over the host word and returns
  the sorted factor set.  It is the small-L reference and the source of words
  for de Bruijn graphs and right extensions.  Words are kept sorted by
  letter id (bytes order), which makes CLI output and graph layouts stable.
- `factor_counts` and `palindrome_counts` answer every length up to a bound
  in one pass: a generalized suffix automaton (Blumer et al., "The smallest
  automaton recognizing the subwords of a text", 1985) counts the factors and
  an eertree (Rubinchik and Shur, "EERTREE: an efficient data structure for
  processing palindromes in strings", 2015) the palindromes.  Their states
  count against the symbol budget.
"""

from __future__ import annotations

from itertools import accumulate

from .coding import Coding, tail_alphabet
from .errors import TooSmall, WordNotInLanguage, charge
from .words import DEFAULT_BUDGET, block, level


def host_word(c: Coding, length: int, budget: int = DEFAULT_BUDGET) -> bytes:
    """p(k) a_1 p(k) a_2 ... a_m p(k), a_1 < ... < a_m the letters of A_{k+1},
    for the least k with |p(k)| + 1 >= `length`.

    The letters stand |p(k)| + 1 apart, so a window of at most that length
    meets at most one of them and lies inside one host p(k) a_i p(k): up to
    that length the word's factors are exactly the language's.  The block,
    then the whole word, count against `budget` before the word is joined.
    """
    k = level(c, length - 1).k
    p = block(c, k, budget)
    letters = sorted(tail_alphabet(c, k + 1))
    size = (len(letters) + 1) * len(p) + len(letters)
    charge(size, budget, f"the level-{k} host word of {size} symbols",
           " symbols")
    return p.join([b"", *(bytes([a]) for a in letters), b""])


def language(c: Coding, length: int,
             budget: int = DEFAULT_BUDGET) -> tuple[bytes, ...]:
    """The sorted length-`length` factors; (empty word,) for length 0.

    Distinct words times `length` count against `budget` as the set grows.
    """
    if length < 0:
        raise TooSmall("word length must be >= 0")
    if length == 0:
        return (b"",)
    what = f"the length-{length} factor set"
    factors: set[bytes] = set()
    w = host_word(c, length, budget)
    for i in range(len(w) - length + 1):
        factors.add(w[i:i + length])
        charge(len(factors) * length, budget, what, " symbols")
    return tuple(sorted(factors))


def _host_symbols(c: Coding, length: int) -> int:
    """Total length of the hosts p(k) a p(k) in `host_word(c, length)`."""
    lv = level(c, length - 1)
    return lv.size_next * (2 * lv.p + 1)


def factor_counts(c: Coding, max_len: int,
                  budget: int = DEFAULT_BUDGET) -> list[int]:
    """p(L) for every L <= max_len from one generalized suffix automaton.

    Each host p(k) a p(k) is a slice of the host word inserted from the
    root, so `last` never joins two hosts.  A state stands for the factors
    of lengths len(link) + 1 .. len, and adding those intervals into a
    difference array counts each factor once.
    """
    if max_len < 0:
        raise TooSmall("word length must be >= 0")
    states = 2 * _host_symbols(c, max_len)
    charge(states, budget,
           f"the suffix automaton needs up to {states} states, which")
    size, link, nxt = [0], [-1], [{}]

    def split(p: int, a: int) -> int:
        """The state reached from p by a, cut to length size[p] + 1."""
        q = nxt[p][a]
        if size[q] == size[p] + 1:
            return q
        clone = len(size)
        size.append(size[p] + 1)
        link.append(link[q])
        nxt.append(dict(nxt[q]))
        while p != -1 and nxt[p].get(a) == q:
            nxt[p][a] = clone
            p = link[p]
        link[q] = clone
        return clone

    w, step = host_word(c, max_len, budget), level(c, max_len - 1).p + 1
    for start in range(0, len(w) - step, step):
        last = 0
        for a in w[start:start + 2 * step - 1]:
            if a in nxt[last]:
                last = split(last, a)
                continue
            cur = len(size)
            size.append(size[last] + 1)
            link.append(0)
            nxt.append({})
            p = last
            while p != -1 and a not in nxt[p]:
                nxt[p][a] = cur
                p = link[p]
            if p != -1:
                link[cur] = split(p, a)
            last = cur

    diff = [0] * (max_len + 2)
    diff[0], diff[1] = 1, -1  # the empty word
    for state in range(1, len(size)):
        lo, hi = size[link[state]] + 1, min(size[state], max_len)
        if lo <= hi:
            diff[lo] += 1
            diff[hi + 1] -= 1
    return list(accumulate(diff[:-1]))


def palindrome_counts(c: Coding, max_len: int,
                      budget: int = DEFAULT_BUDGET) -> list[int]:
    """Palindromic factors of every length L <= max_len from one eertree.

    One pass over the host word: its palindromes up to max_len are the
    language's, and counting the nodes of each length counts each once.
    """
    if max_len < 0:
        raise TooSmall("word length must be >= 0")
    states = _host_symbols(c, max_len) + 2
    charge(states, budget, f"the eertree needs up to {states} states, which")
    # node 0 is the imaginary root of length -1, node 1 the empty palindrome
    size, link, nxt = [-1, 0], [0, 0], [{}, {}]
    w = host_word(c, max_len, budget)

    def extendable(v: int, i: int) -> int:
        """The longest suffix palindrome at or below v that w[i] wraps."""
        while True:
            j = i - size[v] - 1
            if j >= 0 and w[j] == w[i]:
                return v
            v = link[v]

    counts, last = [1] + [0] * max_len, 1
    for i, a in enumerate(w):
        v = extendable(last, i)
        if a in nxt[v]:
            last = nxt[v][a]
            continue
        last = len(size)
        size.append(size[v] + 2)
        link.append(1 if v == 0 else nxt[extendable(link[v], i)][a])
        nxt.append({})
        nxt[v][a] = last
        if size[last] <= max_len:
            counts[size[last]] += 1
    return counts


def right_extensions(c: Coding, word: bytes,
                     budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Letters b with word*b in the language; nonempty for language members.

    Every factor extends to the right, so the longer factors alone tell
    whether `word` is a factor at all.
    """
    extensions = frozenset(
        w[-1] for w in language(c, len(word) + 1, budget) if w[:-1] == word
    )
    if not extensions:
        raise WordNotInLanguage(f"{word!r} is not a factor of the subshift")
    return extensions

