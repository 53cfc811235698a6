"""Repetitivity formula vs gap-scan oracle, and alpha-repetitivity verdicts."""

import signal
import tracemalloc
from fractions import Fraction

import pytest
from conftest import periodic_codings, squaring_coding
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import m_sequence, prefix_factor_set

from toeplitz.coding import kappa
from toeplitz.errors import OutOfTheoremRange
from toeplitz.language import language
from toeplitz import repetitivity
from toeplitz.presets import grigorchuk, l_grigorchuk, parse_coding_spec
from toeplitz.repetitivity import (
    _longest_miss,
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
        oracle = [repetitivity_oracle(c, L) for L in range(1, 129)]
        for L in range(formula_valid_from(c), 129):
            assert oracle[L - 1] == repetitivity_formula(c, L), L
        # `report` starts each length's scan where the previous one ended
        assert [r.oracle for r in report(c, 128)] == oracle

    def test_report_carries_windows_on_liuqu(self, liu_qu):
        budget = 1 << 20
        assert [r.oracle for r in report(liu_qu, 16, budget)] == \
            [repetitivity_oracle(liu_qu, L, budget) for L in range(1, 17)]

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


class TestLongestMiss:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4),
           letters=st.integers(2, 3))
    def test_matches_the_definition(self, data, length, letters):
        host = data.draw(st.lists(st.integers(0, letters - 1), min_size=length,
                                  max_size=14).map(bytes))
        words = prefix_factor_set(length, host)
        assert _longest_miss(host, length) == \
            longest_miss_by_definition(host, words)

    @pytest.mark.parametrize("host, words, want", [
        (b"aaaa", (b"aa",), 1),  # overlapping occurrences
        (b"abaab", (b"aa", b"ab", b"ba"), 3),  # ab at both ends
        (b"abba", (b"a", b"b"), 2),  # a at both ends
        (b"aab", (b"a", b"b"), 2),  # only the stretch before b's first start
        (b"baa", (b"a", b"b"), 2),  # only the stretch after b's last start
    ], ids=["overlapping", "both-ends", "both-ends-letter", "before-first",
            "after-last"])
    def test_pinned_cases(self, host, words, want):
        assert set(words) == prefix_factor_set(len(words[0]), host)
        assert _longest_miss(host, len(words[0])) == want
        assert longest_miss_by_definition(host, words) == want


@pytest.mark.parametrize("c, length", [
    (grigorchuk(), 1),
    (l_grigorchuk(1, 3), 1),
    (parse_coding_spec("b:4 c:2 | a:2 c:3"), 2),
], ids=["grigorchuk", "l-grigorchuk(1,3)", "b:4 c:2 | a:2 c:3"])
def test_oracle_climbs_one_level_per_rescan(monkeypatch, c, length):
    # a miss longer than |p(K)| + 1 may span two hosts of the host word and
    # bound nothing, so the rescan moves up one level, not to that length
    import toeplitz.language

    built, real = [], toeplitz.language.block
    monkeypatch.setattr(toeplitz.language, "block",
                        lambda c, k, *rest: built.append(k) or real(c, k, *rest))
    repetitivity_oracle(c, length)
    assert built == [0, 1, 2, 3]


def test_oracle_memory_is_one_slide_over_the_host_word():
    # one dict over the host word peaks near 2.7 MiB at L = 1000 (CPython
    # 3.11); one dict per host p(K) a p(K) took 15.9 MiB
    tracemalloc.start()
    try:
        assert repetitivity_oracle(grigorchuk(), 1000) == 8679
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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

    def test_long_horizon_is_linear(self, grig):
        def walking(*_):
            raise TimeoutError("alpha_verdict at horizon 4000 took over 2 s")

        # the walk is linear in the horizon, well under a second here; one
        # quadratic in it takes several
        previous = signal.signal(signal.SIGALRM, walking)
        signal.alarm(2)
        try:
            av = alpha_verdict(grig, 1, 4000)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(av.log_ratios) == 4000 and av.status is Status.SATISFIED


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


@pytest.mark.parametrize("c", [grigorchuk(), l_grigorchuk(1, 3)],
                         ids=["grigorchuk", "l-grigorchuk(1,3)"])
def test_report_formula_column_walks_the_bands(monkeypatch, c):
    # the oracle is stubbed out: this pins the one band walk of `report`
    # against the per-length search of `repetitivity_formula`
    monkeypatch.setattr(repetitivity, "_least_window", lambda *_: 0)
    want = []
    for length in range(1, 1025):
        try:
            want.append(repetitivity_formula(c, length))
        except OutOfTheoremRange:
            want.append(None)
    assert [r.formula for r in report(c, 1024)] == want
    start = formula_valid_from(c)
    assert want[:start - 1] == [None] * (start - 1) and None not in want[start - 1:]
