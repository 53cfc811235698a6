"""Repetitivity formula vs gap-scan oracle, and alpha-repetitivity verdicts."""

from fractions import Fraction

import pytest
from conftest import periodic_codings, squaring_coding
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz.coding import kappa, m_sequence
from toeplitz.errors import OutOfTheoremRange
from toeplitz.language import language, prefix_factor_set
from toeplitz.presets import grigorchuk, l_grigorchuk
from toeplitz.repetitivity import (
    _slide,
    alpha_verdict,
    formula_valid_from,
    repetitivity_formula,
    repetitivity_oracle,
    report,
)
from toeplitz.verdicts import Status
from toeplitz.words import block_length


class TestGrigorchukFormula:
    def test_validity_threshold(self, grig):
        assert formula_valid_from(grig) == 3
        with pytest.raises(OutOfTheoremRange):
            repetitivity_formula(grig, 2)

    def test_first_band(self, grig):
        assert repetitivity_formula(grig, 3) == 32
        assert repetitivity_formula(grig, 4) == 33

    def test_banded_closed_form(self, grig):
        # R(L) = 2^{i+4} - 2^{i+1} + 2^i - 1 + L on [2^i + 1, 2^{i+1}]
        for i in (1, 2, 3):
            for L in range(2 ** i + 1, 2 ** (i + 1) + 1):
                want = 2 ** (i + 4) - 2 ** (i + 1) + 2 ** i - 1 + L
                assert repetitivity_formula(grig, L) == want


class TestOracle:
    def test_grigorchuk_length_one(self, grig):
        assert repetitivity_oracle(grig, 1) == 16

    @settings(max_examples=60, deadline=None)
    @given(c=periodic_codings(), length=st.integers(1, 3))
    def test_oracle_is_the_least_containing_window(self, c, length):
        r = repetitivity_oracle(c, length)
        inner = language(c, length)
        assert all(all(w in u for w in inner) for u in language(c, r))
        assert any(any(w not in u for w in inner) for u in language(c, r - 1))

    def test_matches_formula_on_three_bands(self, grig):
        for L in range(3, 17):
            assert repetitivity_oracle(grig, L) == repetitivity_formula(grig, L)

    @pytest.mark.parametrize("c", [grigorchuk(), l_grigorchuk(1, 3)],
                             ids=["grigorchuk", "l-grigorchuk(1,3)"])
    def test_matches_formula_at_every_length_to_128(self, c):
        for L in range(formula_valid_from(c), 129):
            assert repetitivity_oracle(c, L) == repetitivity_formula(c, L), L

    def test_strictly_monotone(self, grig):
        values = [repetitivity_oracle(grig, L) for L in range(1, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_always_exceeds_length(self, battery):
        for c in battery[:6]:
            for L in (1, 2, 3):
                assert repetitivity_oracle(c, L) > L


def longest_miss_by_definition(host: bytes, words) -> int:
    """The longest substring of `host` missing some word, by brute force."""
    return max(j - i for i in range(len(host) + 1)
               for j in range(i, len(host) + 1)
               if any(w not in host[i:j] for w in words))


def longest_miss(host: bytes, words) -> int:
    """The oracle's value for one host: the slide's longest miss, or the
    whole host when some word never occurs in it."""
    last, miss = _slide(host, len(words[0]))
    return miss if len(last) == len(words) else len(host)


class TestLongestMiss:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4),
           letters=st.integers(2, 3))
    def test_matches_the_definition(self, data, length, letters):
        def strings(lo, hi):
            return st.lists(st.integers(0, letters - 1), min_size=lo,
                            max_size=hi).map(bytes)

        host = data.draw(strings(length, 14))
        extra = data.draw(st.lists(strings(length, length), max_size=2))
        words = tuple(sorted(prefix_factor_set(length, host) | set(extra)))
        assert longest_miss(host, words) == \
            longest_miss_by_definition(host, words)

    @pytest.mark.parametrize("host, words, want", [
        (b"abab", (b"ab", b"ba", b"bb"), 4),  # bb never occurs
        (b"aaaa", (b"aa",), 1),  # overlapping occurrences
        (b"abaab", (b"aa", b"ab", b"ba"), 3),  # ab at both ends
        (b"abba", (b"a", b"b"), 2),  # a at both ends
        (b"aab", (b"a", b"b"), 2),  # only the stretch before b's first start
        (b"baa", (b"a", b"b"), 2),  # only the stretch after b's last start
    ], ids=["absent-word", "overlapping", "both-ends", "both-ends-letter",
            "before-first", "after-last"])
    def test_pinned_cases(self, host, words, want):
        assert longest_miss(host, words) == want
        assert longest_miss_by_definition(host, words) == want


def proposition_bounds_hold(c, i):
    """The four one-sided bounds around the band edges of index i."""
    m = m_sequence(c, i)
    top = block_length(c, kappa(c, m) - 1) + 1
    top_prev = block_length(c, kappa(c, m - 1) - 1) + 1
    lo_len = block_length(c, m) - block_length(c, m - 1)
    checks = [
        repetitivity_oracle(c, lo_len + 1) >= 2 * top,
        repetitivity_oracle(c, block_length(c, m) + 2)
        >= 2 * top + block_length(c, m) + 1,
        repetitivity_oracle(c, lo_len)
        <= 2 * top_prev + lo_len - 1,
        repetitivity_oracle(c, block_length(c, m) + 1)
        <= 2 * top + block_length(c, m - 1),
    ]
    return all(checks)


class TestPropositionBounds:
    def test_grigorchuk_two_sided_jumps(self, grig):
        for i in (1, 2):
            assert proposition_bounds_hold(grig, i)

    def test_branch_jump_size(self):
        # a coding whose second branch is nonempty: crossing |p(m_i)| + 1 ->
        # |p(m_i)| + 2 jumps by 1 + |p(m_i)| - |p(m_i - 1)|
        from toeplitz.presets import parse_coding_spec

        c = parse_coding_spec("| x:3 y:3")
        i = 1
        m = m_sequence(c, i)
        at = block_length(c, m) + 1
        assert repetitivity_formula(c, at + 1) - repetitivity_formula(c, at) \
            == 1 + block_length(c, m) - block_length(c, m - 1)
        assert repetitivity_oracle(c, at + 1) - repetitivity_oracle(c, at) \
            == 1 + block_length(c, m) - block_length(c, m - 1)


class TestAlphaVerdicts:
    def test_grigorchuk_linear(self, grig):
        av = alpha_verdict(grig, 1)
        assert av.status is Status.SATISFIED and av.kind == "exact"
        assert set(av.kappa_gaps) == {3}
        assert av.period is not None

    def test_grigorchuk_alpha_two_fails(self, grig):
        assert alpha_verdict(grig, 2).status is Status.VIOLATED
        assert alpha_verdict(grig, Fraction(3, 2)).status is Status.VIOLATED

    def test_alpha_below_one_rejected(self, grig):
        with pytest.raises(ValueError):
            alpha_verdict(grig, Fraction(1, 2))

    def test_battery_always_linearly_repetitive(self, battery):
        for c in battery:
            verdict = alpha_verdict(c, 1)
            assert verdict.status is Status.SATISFIED
            assert verdict.kind == "exact"
            start, cycle = verdict.period
            witness = verdict.witness
            for i in range(start, min(start + cycle, len(witness) - cycle)):
                assert witness[i - 1] == witness[i - 1 + cycle]

    def test_generator_never_claims(self, liu_qu):
        av = alpha_verdict(liu_qu, 1, horizon=8)
        assert av.status is Status.INCONCLUSIVE
        assert av.kind == "horizon-estimate"
        assert len(av.log_ratios) == 8 and av.trend is not None


class TestSquaringPeriods:
    def test_criterion_ratio_is_constant(self):
        c = squaring_coding()
        alpha = 4
        for i in range(1, 5):
            m = m_sequence(c, i)
            num = 1
            for j in range(kappa(c, m)):
                num *= c.period(j)
            den = 1
            for j in range(m + 1):
                den *= c.period(j)
            assert num == 8 * den ** alpha

    def test_verdict_stays_horizon_qualified(self):
        av = alpha_verdict(squaring_coding(), 4, horizon=4)
        assert av.kind == "horizon-estimate"
        assert av.status is Status.INCONCLUSIVE


def test_report_stitches_oracle_below_threshold(grig):
    rows = report(grig, 5)
    assert [r.formula for r in rows[:2]] == [None, None]
    assert [r.oracle for r in rows[:2]] == [16, 17]
    for r in rows[2:]:
        assert r.formula == r.oracle
