"""Exact factor and palindrome oracles: what every closed formula is tested against.

Every factor of length at most |p(k)| + 1 occurs inside p(k) a p(k) for some
letter a in the tail alphabet A_{k+1} (the enclosing-words lemma), so those
few explicit hosts, built around one shared p(k), hold the whole language up
to that length.  The repetitivity oracle slides over them itself; two
oracle tiers here read them, and neither ever sees a formula value:

- `language` slides a window of one length over the hosts and returns the
  sorted factor set.  It is the small-L reference and the source of words
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
from .errors import BudgetExceeded, WordNotInLanguage
from .words import DEFAULT_BUDGET, block, level


def enclosing_words(c: Coding, length: int,
                    budget: int = DEFAULT_BUDGET) -> list[bytes]:
    """The words p(k) a p(k), a in A_{k+1}, that exhaust factors up to `length`.

    p(k) is built once and shared by every host.
    """
    k = level(c, length - 1).k
    p = block(c, k, budget)
    return [p + bytes([a]) + p for a in sorted(tail_alphabet(c, k + 1))]


def language(c: Coding, length: int,
             budget: int = DEFAULT_BUDGET) -> tuple[bytes, ...]:
    """The sorted length-`length` factors; (empty word,) for length 0.

    Distinct words times `length` count against `budget` as the set grows.
    """
    if length < 0:
        raise IndexError("word length must be >= 0")
    if length == 0:
        return (b"",)
    most = budget // length
    factors: set[bytes] = set()
    for w in enclosing_words(c, length, budget):
        for i in range(len(w) - length + 1):
            factors.add(w[i:i + length])
            if len(factors) > most:
                raise BudgetExceeded(f"the length-{length} factor set exceeds "
                                     f"the budget of {budget} symbols")
    return tuple(sorted(factors))


def _host_symbols(c: Coding, length: int) -> int:
    """Total length of `enclosing_words(c, length)`, without building them."""
    lv = level(c, length - 1)
    return lv.size_next * (2 * lv.p + 1)


def _check_states(structure: str, states: int, budget: int) -> None:
    if states > budget:
        raise BudgetExceeded(
            f"{structure} needs up to {states} states, which exceeds the "
            f"budget of {budget}"
        )


def factor_counts(c: Coding, max_len: int,
                  budget: int = DEFAULT_BUDGET) -> list[int]:
    """p(L) for every L <= max_len from one generalized suffix automaton.

    Each host is inserted from the root, so `last` never joins two hosts.
    A state stands for the factors of lengths len(link) + 1 .. len, and
    adding those intervals into a difference array counts each factor once.
    """
    if max_len < 0:
        raise IndexError("word length must be >= 0")
    _check_states("the suffix automaton", 2 * _host_symbols(c, max_len), budget)
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

    for host in enclosing_words(c, max_len, budget):
        last = 0
        for a in host:
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

    The suffix pointer restarts at the empty palindrome on each host.  A
    palindrome met in several hosts reaches the same node, so counting the
    nodes of each length counts each palindrome once.
    """
    if max_len < 0:
        raise IndexError("word length must be >= 0")
    _check_states("the eertree", _host_symbols(c, max_len) + 2, budget)
    # node 0 is the imaginary root of length -1, node 1 the empty palindrome
    size, link, nxt = [-1, 0], [0, 0], [{}, {}]

    def extendable(v: int, host: bytes, i: int) -> int:
        """The longest suffix palindrome at or below v that host[i] wraps."""
        while True:
            j = i - size[v] - 1
            if j >= 0 and host[j] == host[i]:
                return v
            v = link[v]

    counts = [1] + [0] * max_len
    for host in enclosing_words(c, max_len, budget):
        last = 1
        for i, a in enumerate(host):
            v = extendable(last, host, i)
            if a in nxt[v]:
                last = nxt[v][a]
                continue
            last = len(size)
            size.append(size[v] + 2)
            link.append(1 if v == 0 else nxt[extendable(link[v], host, i)][a])
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


def prefix_factor_set(length: int, prefix: bytes) -> frozenset[bytes]:
    """Length-`length` factors of an explicit prefix; independent cross-check."""
    return frozenset(
        prefix[i:i + length] for i in range(len(prefix) - length + 1)
    )
