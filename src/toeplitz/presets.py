"""Coding-spec parsing, named generators and the preset registry.

Spec grammar (CLI and files)::

    spec    := entries "|" entries
             | entries "|" "@" name [ "(" args ")" ]
    entries := (letter ":" int)*

Left of the bar is the preperiod, right of it either a periodic tail cycle
or a named generator.  Examples::

    a:2 | x:2 y:2 z:2        four-letter coding with constant period 2
    | @liuqu                 letter sequence (ab)c(ab)^2 d(ab)^3 c ...

Generator periods default to 2 everywhere and can be overridden with a
cyclic pattern (the CLI's --periods flag).
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, Sequence

from .coding import (
    Alphabet,
    Coding,
    CodingEntry,
    GeneratorTail,
    PeriodicTail,
    normalize,
)
from .errors import EmptyCoding

_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9_]*):(\d+)$")
_REFERENCE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)(?:\((.*)\))?$")

DEFAULT_GENERATOR_HORIZON = 512


def _liuqu_letters(count: int) -> list[str]:
    """(ab) c (ab)^2 d (ab)^3 c (ab)^4 d ... truncated to `count` letters."""
    out: list[str] = []
    for run in itertools.count(1):
        out.extend(["a", "b"] * run)
        out.append("c" if run % 2 == 1 else "d")
        if len(out) >= count:
            return out[:count]


def liuqu(horizon: int = DEFAULT_GENERATOR_HORIZON,
          periods: Sequence[int] = (2,)) -> Coding:
    """The four-letter coding whose subshift never satisfies condition (B)."""
    if horizon < 1:
        raise ValueError(f"liuqu needs at least one entry, got {horizon}")
    alphabet = Alphabet.from_names("abcd")
    cycle = itertools.cycle(periods)
    entries = tuple(
        CodingEntry(alphabet.by_name(name), next(cycle))
        for name in _liuqu_letters(horizon)
    )
    tail = GeneratorTail("liuqu", entries, recurrent=frozenset(range(4)))
    return Coding(alphabet, (), tail)


def grigorchuk() -> Coding:
    """Letters a,x,y,z,x,y,z,... with constant period 2."""
    return parse_coding_spec("a:2 | x:2 y:2 z:2")


def l_grigorchuk(*ls: int) -> Coding:
    """Letters a,x,y,z,x,y,z,... with periods 2, 2^l1, 2^l2, ...

    The finite exponent list repeats cyclically; the tail cycle closes after
    lcm(3, len(ls)) entries.
    """
    if not ls:
        raise EmptyCoding("l-grigorchuk needs at least one exponent")
    if any(l < 1 for l in ls):
        raise ValueError("l-grigorchuk exponents must be >= 1")
    alphabet = Alphabet.from_names("axyz")
    xyz = [alphabet.by_name(n) for n in "xyz"]
    count = math.lcm(3, len(ls))
    tail = tuple(
        CodingEntry(xyz[j % 3], 2 ** ls[j % len(ls)]) for j in range(count)
    )
    pre = (CodingEntry(alphabet.by_name("a"), 2),)
    return Coding(alphabet, pre, PeriodicTail(tail))


# name -> builder(horizon, periods=...) for `@name` and `@name(horizon)`
GENERATORS: dict[str, Callable[..., Coding]] = {"liuqu": liuqu}


def _parse_reference(text: str, flag: str) -> tuple[str, list[int]]:
    """Split `name` or `name(i,j,...)` into the name and its arguments.

    Every argument is a positive integer: l-grigorchuk exponents and
    generator horizons alike.
    """
    m = _REFERENCE.match(text.strip())
    if not m:
        raise ValueError(f"{flag}: bad reference {text!r}")
    name, argtext = m.groups()
    fields = argtext.split(",") if argtext else []
    if not all(f.strip().isdecimal() and int(f) > 0 for f in fields):
        raise ValueError(f"{flag}: arguments of {name} must be positive "
                         f"integers, got {argtext!r}")
    return name, [int(f) for f in fields]


def _parse_entries(text: str, flag: str) -> list[tuple[str, int]]:
    out = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"{flag}: bad entry {token!r}, expected letter:int")
        out.append((m.group(1), int(m.group(2))))
    return out


def _coding(names, pre_tokens, tail_tokens, tail=None) -> Coding:
    """The normalized coding over `names` and then the tokens' new names.

    A generator's own names come first, so its letter indices, and with
    them its `tail`, stay valid; without a `tail` the tokens make one.
    """
    alphabet = Alphabet.from_names(dict.fromkeys(
        [*names, *(n for n, _ in pre_tokens + tail_tokens)]))

    def entries(tokens):
        return tuple(CodingEntry(alphabet.by_name(n), p) for n, p in tokens)

    tail = tail or PeriodicTail(entries(tail_tokens))
    return normalize(Coding(alphabet, entries(pre_tokens), tail))


def parse_coding_spec(text: str, periods: Sequence[int] = (2,),
                      flag: str = "--coding") -> Coding:
    """Parse `pre | tail` into a normalized Coding.

    `periods` is the cyclic period pattern for generator tails; explicit
    periodic tails carry their own periods.  A generator has no preperiod
    of its own, so the spec's preperiod is the coding's.
    """
    if text.count("|") != 1:
        raise ValueError(f"{flag}: spec needs exactly one '|' separator")
    left, right = text.split("|")
    pre_tokens = _parse_entries(left, flag)
    right = right.strip()

    if right.startswith("@"):
        name, args = _parse_reference(right[1:], flag)
        if name not in GENERATORS:
            known = ", ".join(sorted(GENERATORS))
            raise ValueError(f"{flag}: unknown generator @{name} (known: {known})")
        if len(args) > 1:
            raise ValueError(f"{flag}: @{name} takes at most one argument, "
                             f"the horizon, got {right!r}")
        base = GENERATORS[name](*args, periods=tuple(periods))
        return _coding(base.alphabet.names, pre_tokens, [], base.tail)

    tail_tokens = _parse_entries(right, flag)
    if not tail_tokens:
        raise EmptyCoding(f"{flag}: tail must not be empty")
    return _coding([], pre_tokens, tail_tokens)


def preset(name: str, periods: Sequence[int] = (2,)) -> Coding:
    """Resolve a preset name like `grigorchuk` or `l-grigorchuk(1,2)`."""
    base, args = _parse_reference(name, "--preset")
    if base == "grigorchuk" and not args:
        return grigorchuk()
    if base == "l-grigorchuk" and args:
        return l_grigorchuk(*args)
    if base == "liuqu" and len(args) <= 1:
        return liuqu(*args, periods=tuple(periods))
    raise ValueError(f"--preset: unknown preset {name.strip()!r} "
                     f"(known: {', '.join(PRESET_NAMES)})")


PRESET_NAMES = ("grigorchuk", "l-grigorchuk(l1,l2,...)", "liuqu")
