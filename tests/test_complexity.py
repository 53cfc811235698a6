"""Complexity formulas against the exact enumeration oracle."""

from fractions import Fraction

import pytest
from oracles import quotient_extrema

from toeplitz.complexity import complexity_formula, growth_formula, profile
from toeplitz.coding import eventual_alphabet, stabilization_index, tail_alphabet
from toeplitz.language import factor_counts, language
from toeplitz.presets import l_grigorchuk, parse_coding_spec
from toeplitz.words import block_length


class TestGrigorchukGolden:
    def test_printed_small_values(self, grig):
        assert [complexity_formula(grig, L) for L in range(5)] == [1, 4, 6, 8, 10]

    def test_oracle_confirms_band_two(self, grig):
        assert [complexity_formula(grig, L) for L in (5, 6, 7, 8)] == [13, 16, 18, 20]
        assert [len(language(grig, L)) for L in (5, 6, 7, 8)] == [13, 16, 18, 20]

    def test_printed_piecewise_branches(self, grig):
        # 3L+1, then 3L, then 2L+2, then per band k: 3L - 2^k + 2^{k-1} / 2L + 2^k
        assert complexity_formula(grig, 1) == 4 and complexity_formula(grig, 2) == 6
        for L in (3, 4):
            assert complexity_formula(grig, L) == 2 * L + 2
        for k in (2, 3, 4):
            for L in range(2 ** k + 1, 2 ** (k + 1) - 2 ** (k - 1) + 1):
                assert complexity_formula(grig, L) == 3 * L - 2 ** k + 2 ** (k - 1)
            for L in range(2 ** (k + 1) - 2 ** (k - 1) + 1, 2 ** (k + 1) + 1):
                assert complexity_formula(grig, L) == 2 * L + 2 ** k


class TestAgainstOracle:
    def test_battery_small_lengths(self, battery):
        for c in battery[:14]:
            top = block_length(c, 2) + 1
            for L in range(min(top, 40) + 1):
                assert complexity_formula(c, L) == len(language(c, L)), \
                    (c.spec_string(), L)

    def test_big_period_coding(self):
        c = parse_coding_spec("a:2 | x:5 y:2 x:3 z:4")
        for L in range(0, block_length(c, 3) + 2):
            assert complexity_formula(c, L) == len(language(c, L))

    def test_two_letter(self, two_letter):
        for L in range(0, 34):
            assert complexity_formula(two_letter, L) == len(language(two_letter, L))


class TestGrowth:
    def test_initial_band(self, battery):
        for c in battery[:10]:
            p0 = block_length(c, 0)
            size0 = len(tail_alphabet(c, 0))
            for L in range(p0):
                assert growth_formula(c, L) == size0 - 1

    def test_grigorchuk_examples(self, grig):
        assert growth_formula(grig, 1) == 2       # |A_1| - 1 at L = |p(0)|
        assert growth_formula(grig, 4) == 3       # oracle: p(5) - p(4) = 3

    def test_telescoping(self, battery, grig):
        for c in list(battery[:14]) + [grig]:
            total = 1
            for L in range(40):
                assert complexity_formula(c, L) == total
                total += growth_formula(c, L)

    def test_matches_oracle_differences(self, battery):
        for c in battery[:8]:
            for L in range(18):
                assert growth_formula(c, L) == \
                    len(language(c, L + 1)) - len(language(c, L))


def checkpoint(c, k):
    """q(k) = |p(k)| + 1 and p(q(k)) = (|A_k| - 1) q(k) + [a_k in A_{k+1}] q(k-1)."""
    q = block_length(c, k) + 1
    stays = c.letter(k) in tail_alphabet(c, k + 1)
    return q, (len(tail_alphabet(c, k)) - 1) * q \
        + stays * (block_length(c, k - 1) + 1)


class TestCheckpoints:
    def test_grigorchuk(self, grig):
        assert complexity_formula(grig, block_length(grig, 0) + 1) == 6
        assert complexity_formula(grig, block_length(grig, 2) + 1) == 20

    def test_two_letter_closed_form(self, two_letter):
        # |A| = 2 keeps the indicator on: (|p(k)|+1) + (|p(k-1)|+1)
        for k in range(5):
            q = block_length(two_letter, k) + 1
            want = q + (block_length(two_letter, k - 1) + 1)
            assert complexity_formula(two_letter, q) == want
            assert len(language(two_letter, q)) == want

    def test_checkpoints_and_quotients_match_the_oracle(self, battery, grig):
        # every band N_ev + 1 <= k <= 6: p(|p(k)| + 1) and the exact
        # quotients p(L)/L over |p(k-1)| + 2 <= L <= |p(k)| + 1
        bands = 0
        for c in list(battery) + [grig, l_grigorchuk(1, 3)]:
            counts = factor_counts(c, block_length(c, 6) + 1)
            for k in range(stabilization_index(c) + 1, 7):
                q, want = checkpoint(c, k)
                assert counts[q] == want
                top, argmax, lower = quotient_extrema(c, k)
                lo = block_length(c, k - 1) + 2
                quotients = [Fraction(counts[L], L) for L in range(lo, q + 1)]
                assert max(quotients) == top
                assert quotients[argmax - lo] == top
                assert min(quotients) >= lower
                bands += 1
        assert bands == 306

    def test_equals_formula_at_checkpoint_lengths(self, battery):
        for c in battery[:14]:
            for k in range(4):
                q, want = checkpoint(c, k)
                assert complexity_formula(c, q) == want


class TestQuotients:
    def test_grigorchuk_band_two(self, grig):
        top, argmax, _ = quotient_extrema(grig, 2)
        assert top == Fraction(8, 3)
        assert argmax == 6
        assert Fraction(len(language(grig, 6)), 6) == Fraction(8, 3)

    def test_constant_two_bound(self, grig):
        for k in range(2, 7):
            assert quotient_extrema(grig, k)[0] == 3 - Fraction(1, 3)

    def test_bounds_hold_exactly(self, battery):
        for c in battery[:10]:
            size_ev = len(eventual_alphabet(c))
            k = stabilization_index(c) + 1
            top, argmax, lower = quotient_extrema(c, k + 1)
            assert lower > size_ev - 1
            assert top <= size_ev - Fraction(1, 3)
            lo = block_length(c, k) + 2
            hi = block_length(c, k + 1) + 1
            quotients = [
                Fraction(complexity_formula(c, L), L) for L in range(lo, hi + 1)
            ]
            assert max(quotients) == top
            assert quotients[argmax - lo] == top
            assert min(quotients) >= lower

    def test_sandwich(self, battery):
        for c in battery[:10]:
            size_ev = len(eventual_alphabet(c))
            k = stabilization_index(c) + 1
            lo = block_length(c, k) + 2
            hi = block_length(c, k + 1) + 1
            for L in range(lo, min(hi, lo + 40) + 1):
                value = complexity_formula(c, L)
                assert (size_ev - 1) * L < value
                assert value <= (size_ev - Fraction(1, 3)) * L

    def test_requires_stabilized_level(self, grig):
        with pytest.raises(ValueError):
            quotient_extrema(grig, 1)


def test_profile_equals_the_per_length_functions(battery, grig, two_letter):
    for c in list(battery) + [grig, two_letter, l_grigorchuk(1, 3)]:
        top = min(block_length(c, 4) + 2, 300)
        assert [(r.formula, r.growth) for r in profile(c, top)] == \
            [(complexity_formula(c, L), growth_formula(c, L))
             for L in range(top + 1)]


def test_profile_rows(grig):
    rows = list(profile(grig, 6, with_oracle=True))
    assert [r.formula for r in rows] == [1, 4, 6, 8, 10, 13, 16]
    assert all(r.oracle == r.formula for r in rows)
    assert all(
        r.growth == rows[i + 1].formula - r.formula
        for i, r in enumerate(rows[:-1])
    )
