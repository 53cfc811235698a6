"""Shared fixtures: named codings, the randomized periodic battery and a
hypothesis strategy for normalized periodic codings."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import toeplitz
from toeplitz.coding import (Alphabet, Coding, CodingEntry, GeneratorTail,
                             PeriodicTail, normalize)
from toeplitz.presets import grigorchuk, liuqu, parse_coding_spec

BATTERY_SEED = 20250808
BATTERY_SIZE = 56

# codings whose tail alphabet shrinks at several levels
SHRINKING = [
    "e:2 d:3 c:2 | a:2 b:3",     # alphabet drops 5 -> 4 -> 3 -> 2
    "e:4 d:2 c:3 | a:3 b:2",
    "c:2 d:2 | a:2 b:2",         # drops while periods stay minimal
    "d:3 c:4 | b:2 a:4 b:3 a:2",
    "c:3 | x:2 y:2 z:2",         # one dropout, three-letter eventual
]


def child_env() -> dict[str, str]:
    """The environment with this `toeplitz` package's directory first on
    PYTHONPATH, so a child interpreter imports the same code."""
    src = str(Path(toeplitz.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def random_periodic_coding(rng: random.Random) -> Coding:
    """Valid-by-construction coding: alphabet 2-5, n in {2,3,4}, pre <= 3, tail <= 4."""
    size = rng.randint(2, 5)
    alphabet = Alphabet.from_names("abcde"[:size])
    # a 2-letter alphabet admits no odd cyclically-distinct tail
    tail_len = rng.choice([2, 4]) if size == 2 else rng.randint(2, 4)
    while True:
        ids = [rng.randrange(size) for _ in range(tail_len)]
        if all(ids[i] != ids[(i + 1) % tail_len] for i in range(tail_len)):
            break
    pre_len = rng.randint(0, 3)
    pre_ids: list[int] = []
    follower = ids[0]
    for _ in range(pre_len):  # built backwards so every junction stays distinct
        choice = rng.choice([l for l in range(size) if l != follower])
        pre_ids.append(choice)
        follower = choice
    pre_ids.reverse()
    periods = [rng.choice([2, 3, 4]) for _ in range(pre_len + tail_len)]
    pre = tuple(
        CodingEntry(l, n) for l, n in zip(pre_ids, periods[:pre_len])
    )
    tail = PeriodicTail(tuple(
        CodingEntry(l, n) for l, n in zip(ids, periods[pre_len:])
    ))
    return Coding(alphabet, pre, tail)


@st.composite
def periodic_codings(draw) -> Coding:
    """Normalized codings: alphabet 2-4, preperiod <= 2, tail 2-4.

    Each entry draws a period of 2 or 3, but `normalize` merges equal
    neighbouring letters and multiplies their periods, so periods above 3
    occur (up to 54, as in `c:54 | a:2 c:18`); a test that walks every L up
    to some |p(k)| should cap its range.
    """
    alphabet = Alphabet.from_names("abcd"[:draw(st.integers(2, 4))])
    entries = st.builds(CodingEntry, st.sampled_from(range(len(alphabet.names))),
                        st.integers(2, 3))
    pre = draw(st.lists(entries, max_size=2))
    tail = draw(st.lists(entries, min_size=2, max_size=4))
    assume(len({e.letter for e in tail}) >= 2)
    return normalize(Coding(alphabet, tuple(pre), PeriodicTail(tuple(tail))))


def squaring_coding() -> Coding:
    """Three-letter generator cycle (kappa gap 3) with n_{j+1} = n_j^2.

    The telescoped alpha = 4 criterion ratio is the constant n_0 * n_1 = 8.
    """
    alphabet = Alphabet.from_names("xyz")
    entries = tuple(
        CodingEntry(j % 3, 2 ** (2 ** j)) for j in range(14)
    )
    return Coding(alphabet, (), GeneratorTail("squaring", entries,
                                              recurrent=frozenset(range(3))))


def make_battery(count: int = BATTERY_SIZE, seed: int = BATTERY_SEED):
    rng = random.Random(seed)
    return [random_periodic_coding(rng) for _ in range(count)]


@pytest.fixture(scope="session")
def grig() -> Coding:
    return grigorchuk()


@pytest.fixture(scope="session")
def two_letter() -> Coding:
    return parse_coding_spec("| x:2 y:2")


@pytest.fixture(scope="session")
def liu_qu() -> Coding:
    return liuqu()


@pytest.fixture(scope="session")
def battery() -> list[Coding]:
    return make_battery()
