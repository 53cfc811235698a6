"""Condition (B): product witnesses, verdicts, and empirical eta floors."""

from fractions import Fraction

import pytest
from conftest import squaring_coding

from toeplitz.boshernitzan import (
    bosh_verdict,
    estimate_eta,
)
from toeplitz.coding import (Alphabet, Coding, CodingEntry, GeneratorTail,
                             eventual_alphabet)
from toeplitz.errors import PrefixTooShort
from toeplitz.language import language
from toeplitz.verdicts import Status


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
