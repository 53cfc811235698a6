"""Condition (B): product witnesses, verdicts, and empirical eta floors."""

import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from conftest import SHRINKING, make_battery, squaring_coding
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toeplitz.boshernitzan import (
    bosh_verdict,
    estimate_eta,
)
from toeplitz.coding import (Alphabet, Coding, CodingEntry, GeneratorTail,
                             eventual_alphabet, jumps, normalize,
                             period_product, stabilization_index,
                             tail_alphabet)
from toeplitz.errors import BudgetExceeded, HorizonExceeded, PrefixTooShort
from toeplitz.language import language
from toeplitz.presets import grigorchuk, l_grigorchuk, parse_coding_spec
from toeplitz.verdicts import Status, trend_of


def alternating_coding() -> Coding:
    """Three-letter generator x, y, z, x, y, z, ... with constant period 2."""
    ab = Alphabet.from_names("xyz")
    entries = tuple(CodingEntry(j % 3, 2) for j in range(64))
    return Coding(ab, (), GeneratorTail("cycle", entries,
                                        recurrent=frozenset(range(3))))


class TestProducts:
    def test_grigorchuk_constant_two(self, grig):
        assert bosh_verdict(grig, 8).witness[:8] == (2,) * 8

    def test_two_letter_empty_product(self, two_letter):
        assert bosh_verdict(two_letter, 6).witness[:6] == (1,) * 6

    def test_liuqu_strictly_increasing(self, liu_qu):
        values = list(bosh_verdict(liu_qu, 8).witness[:8])
        assert all(b > a for a, b in zip(values, values[1:]))
        # every index is a separator boundary: the gap grows by 2 each time
        assert values == [2 ** (2 * i + 2) for i in range(1, 9)]

    def test_indices_start_at_one(self, liu_qu):
        # the first witness is taken at m_1, not at m_0
        assert bosh_verdict(liu_qu, 3).witness == (16, 64, 256)


def jump_witnesses(c: Coding, count: int = 40) -> list:
    """(m_i, |A_{m_i}|, kappa(m_i - 1), product, n_{m_i + 1}) for the
    first `count` jumps, or for as many as a generator's entries hold."""
    out = []
    try:
        for m, _, before in islice(jumps(c), count):
            out.append((m, len(tail_alphabet(c, m)), before,
                        period_product(c, m + 1, before), c.period(m + 1)))
    except HorizonExceeded:
        pass
    return out


@st.composite
def three_letter_generators(draw) -> Coding:
    """A generator tail over x, y, z, each at least once, behind a
    preperiod over six letters."""
    alphabet = Alphabet.from_names("xyzuvw")

    def entries(letters, **size):
        return draw(st.lists(st.builds(CodingEntry, st.sampled_from(letters),
                                       st.integers(2, 4)), **size))

    tail = entries(range(3), min_size=3, max_size=40)
    assume({e.letter for e in tail} == {0, 1, 2})
    pre = entries(range(6), max_size=6)
    return normalize(Coding(alphabet, tuple(pre), GeneratorTail(
        "random", tuple(tail), recurrent=frozenset(range(3)))))


class TestThreeLetterJumps:
    """At a jump m_i with |A_{m_i}| = 3, kappa(m_i - 1) = m_i + 2: were
    a_{m_i + 2} not the third letter it would be a_{m_i}, and kappa(m_i)
    would equal kappa(m_i - 1).  So the witness product is n_{m_i + 1}."""

    @staticmethod
    def assert_identity(c: Coding) -> int:
        hits = 0
        for m, size, before, product, period in jump_witnesses(c):
            if size == 3:
                hits += 1
                assert before == m + 2 and product == period, (c, m)
        return hits

    def test_periodic_families(self):
        codings = [*make_battery(), *map(parse_coding_spec, SHRINKING),
                   grigorchuk(), l_grigorchuk(1, 3), l_grigorchuk(1, 2)]
        assert sum(map(self.assert_identity, codings)) >= 800

    @settings(max_examples=300, deadline=None)
    @given(c=three_letter_generators())
    def test_generator_tails(self, c):
        self.assert_identity(c)

    def test_fails_before_the_alphabet_settles(self):
        # |A_1| = 4 at the jump m_1 = 1: the product n_2 n_3 is not n_2
        c = parse_coding_spec(SHRINKING[-1])
        assert len(eventual_alphabet(c)) == 3 and stabilization_index(c) == 3
        assert jump_witnesses(c, 1) == [(1, 4, 4, 4, 2)]


class TestVerdicts:
    def test_grigorchuk_satisfied(self, grig):
        bv = bosh_verdict(grig)
        assert bv.status is Status.SATISFIED
        assert bv.kind == "exact"
        assert bv.liminf_criterion is Status.SATISFIED  # |A_ev| = 3 check

    def test_two_letter_always_satisfied(self, two_letter):
        bv = bosh_verdict(two_letter)
        assert bv.status is Status.SATISFIED
        assert bv.liminf_criterion is None  # |A_ev| = 2: nothing to compare

    def test_liuqu_inconclusive_with_increasing_trend(self, liu_qu):
        bv = bosh_verdict(liu_qu, horizon=8)
        assert bv.status is Status.INCONCLUSIVE
        assert bv.kind == "horizon-estimate"
        assert bv.trend == "increasing"

    def test_battery_satisfied_with_periodic_witness(self, battery):
        for c in battery:
            bv = bosh_verdict(c)
            assert bv.status is Status.SATISFIED
            start, cycle = bv.period
            witness = bv.witness
            for i in range(start, min(start + cycle, len(witness) - cycle)):
                assert witness[i - 1] == witness[i - 1 + cycle]

    def test_liminf_agreement_on_three_letter_battery(self, battery):
        hits = 0
        for c in battery:
            if len(eventual_alphabet(c)) != 3:
                continue
            hits += 1
            bv = bosh_verdict(c)
            assert bv.liminf_criterion is bv.status is Status.SATISFIED
        assert hits >= 5

    def test_recurring_generator_products_earn_satisfied(self):
        # alternating three-letter generator: products recur, so the scan
        # finds its constant-value subsequence
        bv = bosh_verdict(alternating_coding(), horizon=10)
        assert bv.status is Status.SATISFIED
        assert bv.kind == "horizon-estimate"

    @pytest.mark.parametrize("build, status", [
        (alternating_coding, Status.SATISFIED),
        (squaring_coding, Status.INCONCLUSIVE),
    ], ids=["alternating", "squaring"])
    def test_liminf_criterion_on_three_letter_generators(self, build, status):
        # |A_ev| = 3: the periods n_{m_i + 1} are judged by the same rule as
        # the products, so squaring periods leave the criterion inconclusive
        bv = bosh_verdict(build(), horizon=6)
        assert bv.status is status
        assert bv.liminf_criterion is bv.status

    @pytest.mark.parametrize("values, trend", [
        ((1, 2, 2, 5), "increasing"), ((3, 1), "decreasing"),
        ((2, 2, 2), "stable"), ((1, 3, 2), "mixed"), ((7,), "stable"),
        ((), "stable"),
    ])
    def test_trend_flags(self, values, trend):
        assert trend_of(values) == trend


class TestEta:
    def test_length_zero_is_certain(self, grig):
        assert estimate_eta(grig, 0, 100).min_frequency == 1

    def test_grigorchuk_rarest_letter(self, grig):
        # z fills one hole class per level 3, 6, 9, ...: frequency
        # sum 2^-(3t+4) = 1/14
        eta = estimate_eta(grig, 1, 8192)
        assert grig.alphabet.render(eta.rarest) == "z"
        assert abs(eta.min_frequency - Fraction(1, 14)) <= Fraction(1, 140)

    def test_bounded_by_uniform_share(self, grig, battery):
        for c in [grig] + list(battery[:4]):
            eta = estimate_eta(c, 2, 8192)
            assert 0 < eta.min_frequency <= Fraction(1, len(language(c, 2)))

    def test_scaled_floor_stays_positive(self, grig):
        # L * eta(L) along L = 2^k: consistent with the satisfied verdict
        for k in range(6):
            L = 2 ** k
            eta = estimate_eta(grig, L, 1 << 14)
            assert L * eta.min_frequency > Fraction(1, 32)

    def test_prefix_too_short_rejected(self, grig):
        with pytest.raises(PrefixTooShort):
            estimate_eta(grig, 16, 100)  # needs 10 * (|p(3)| + 1) = 160

    def test_factor_set_is_charged_before_the_prefix_is_counted(self, grig):
        # counting the 10**6 windows first peaked at about 80 MiB before the
        # factor set refused; the set alone refuses at about 17 MiB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as refused:
                estimate_eta(grig, 5000, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == ("the length-5000 factor set exceeds "
                                      "the budget of 16777216 symbols")
        assert peak < 24 * 2**20
