"""Exact factor enumeration and its self-consistency properties."""

import pytest
from conftest import periodic_codings
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import palindrome_oracle, prefix_factor_set

from toeplitz.coding import kappa, tail_alphabet
from toeplitz.complexity import complexity_formula, profile
from toeplitz.debruijn import palindrome_profile
from toeplitz.errors import BudgetExceeded, WordNotInLanguage
from toeplitz.language import (
    factor_counts,
    host_word,
    language,
    palindrome_counts,
    right_extensions,
)
from toeplitz.presets import l_grigorchuk
from toeplitz.words import block, block_length, level, word_prefix


def words_of(c, length):
    return {c.alphabet.render(w) for w in language(c, length)}


def test_submodule_import_binds_the_module():
    import sys

    import toeplitz.language as module

    assert module is sys.modules["toeplitz.language"]


class TestLanguage:
    def test_empty_word_level(self, grig):
        assert language(grig, 0) == (b"",)

    def test_grigorchuk_letters(self, grig):
        assert words_of(grig, 1) == {"a", "x", "y", "z"}

    def test_grigorchuk_pairs(self, grig):
        assert words_of(grig, 2) == {"ax", "xa", "ay", "ya", "az", "za"}

    def test_sorted_by_letter_id(self, grig):
        lang = language(grig, 3)
        assert list(lang) == sorted(lang)

    def test_factorial_closure(self, battery):
        for c in battery[:10]:
            for length in (2, 3, 5):
                shorter = set(language(c, length - 1))
                for w in language(c, length):
                    assert w[:-1] in shorter and w[1:] in shorter

    def test_edge_count_identity(self, battery, grig):
        for c in list(battery[:10]) + [grig]:
            for length in (1, 2, 4):
                lang = language(c, length)
                total = sum(
                    len(right_extensions(c, w)) for w in lang
                )
                assert total == len(language(c, length + 1))

    def test_cross_check_against_prefix_factors(self, battery, grig):
        # all of A_{k+1} shows up among a_{k+1}..a_{kappa(k)}, so the prefix
        # p(kappa(k)) already contains every factor of length <= |p(k)| + 1
        for c in list(battery[:10]) + [grig]:
            for length in (2, 5, 9):
                k = level(c, length - 1).k
                prefix = block(c, kappa(c, k))
                assert set(language(c, length)) == \
                    prefix_factor_set(length, prefix)


class TestHostWord:
    @pytest.mark.parametrize("top", [3, 2], ids=["presets", "battery"])
    def test_windows_are_those_of_the_hosts(self, grig, battery, top):
        # the letters stand |p(j)| + 1 apart in the level-j host word, so a
        # window of at most that length meets one and lies in one host; the
        # hosts p(k) a p(k) of any level k >= j hold the same windows
        codings = [grig, l_grigorchuk(1, 3)] if top == 3 else battery
        for c in codings:
            for k in range(top + 1):
                p = block(c, k)
                hosts = [p + bytes([a]) + p
                         for a in sorted(tail_alphabet(c, k + 1))]
                for L in range(1, len(p) + 2):
                    w = host_word(c, L)
                    assert prefix_factor_set(L, w) == frozenset().union(
                        *(prefix_factor_set(L, host) for host in hosts))

    def test_letters_stand_one_block_apart(self, grig, battery):
        for c in [grig, l_grigorchuk(1, 3), *battery]:
            for k in range(4):
                p, letters = block(c, k), sorted(tail_alphabet(c, k + 1))
                w = host_word(c, len(p) + 1)
                assert len(w) == len(letters) * (len(p) + 1) + len(p)
                assert [w[i * (len(p) + 1) + len(p)]
                        for i in range(len(letters))] == letters
                assert all(w[i:i + len(p)] == p
                           for i in range(0, len(w), len(p) + 1))

    def test_whole_word_counts_against_the_budget(self, grig):
        # length 40 takes level 5: |p(5)| = 63 and three letters in A_6
        with pytest.raises(BudgetExceeded,
                           match="level-5 host word of 255 symbols"):
            host_word(grig, 40, budget=254)
        assert len(host_word(grig, 40, budget=255)) == 255


class TestRightExtensions:
    def test_branching_letter(self, grig):
        exts = right_extensions(grig, word_prefix(grig, 1))
        assert {grig.alphabet.names[l] for l in exts} == {"x", "y", "z"}

    def test_forced_letter(self, grig):
        x = bytes([grig.alphabet.by_name("x")])
        assert {grig.alphabet.names[l] for l in right_extensions(grig, x)} == {"a"}

    def test_special_suffix_extends_by_whole_tail_alphabet(self, grig):
        for k in (1, 2, 3):
            length = block_length(grig, k) - block_length(grig, k - 1) - 1
            suffix = block(grig, k)[-length:]
            exts = right_extensions(grig, suffix)
            assert exts == tail_alphabet(grig, k)

    def test_unknown_word_rejected(self, grig):
        aa = bytes([grig.alphabet.by_name("a")]) * 2
        with pytest.raises(WordNotInLanguage):
            right_extensions(grig, aa)


class TestOnePassOracles:
    @settings(max_examples=60, deadline=None)
    @given(c=periodic_codings(), max_len=st.integers(0, 24))
    def test_counts_equal_the_per_length_oracles(self, c, max_len):
        factors = factor_counts(c, max_len)
        palindromes = palindrome_counts(c, max_len)
        assert factors == [len(language(c, L)) for L in range(max_len + 1)]
        assert palindromes == [palindrome_oracle(c, L)
                               for L in range(max_len + 1)]

    def test_grigorchuk_matches_the_formulas(self, grig):
        top = 10 ** 5
        for c in (grig, l_grigorchuk(1, 3)):
            rows = list(profile(c, top, with_oracle=True))
            assert [r.formula for r in rows] == [r.oracle for r in rows]
            assert [r.growth for r in rows[:-1]] == \
                [b.oracle - a.oracle for a, b in zip(rows, rows[1:])]
            rows = list(palindrome_profile(c, top, with_oracle=True))
            assert [r.formula for r in rows] == [r.oracle for r in rows]
            assert len(rows) == top

    def test_length_zero_is_the_empty_word(self, grig):
        assert factor_counts(grig, 0) == palindrome_counts(grig, 0) == [1]

    def test_negative_length_rejected(self, grig):
        for oracle in (factor_counts, palindrome_counts):
            with pytest.raises(IndexError):
                oracle(grig, -1)

    def test_states_count_against_the_budget(self, grig):
        # L = 40 needs the hosts p(5) a p(5), a in {x, y, z}: 3 * 127 symbols
        with pytest.raises(BudgetExceeded, match="up to 762 states"):
            factor_counts(grig, 40, budget=761)
        with pytest.raises(BudgetExceeded, match="up to 383 states"):
            palindrome_counts(grig, 40, budget=382)
        assert factor_counts(grig, 40, budget=762)[40] == \
            complexity_formula(grig, 40)
