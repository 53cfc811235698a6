"""Codings whose tail alphabet shrinks at several levels.

Preperiod letters that never recur switch on every indicator term of the
complexity, palindrome, and repetitivity formulas (a_k dropping out of
A_{k+1}, a_{k-1} missing from A_k), so these are the adversarial cases for
band dispatch.
"""

import pytest
from conftest import SHRINKING

from toeplitz.complexity import complexity_formula, growth_formula
from toeplitz.debruijn import (
    build_graph,
    palindrome_formula,
    palindrome_oracle,
    reflection_check,
    right_special_report,
)
from toeplitz.language import language
from toeplitz.presets import parse_coding_spec
from toeplitz.repetitivity import repetitivity_formula, repetitivity_oracle
from toeplitz.words import block_length

@pytest.fixture(scope="module", params=SHRINKING)
def shrinking(request):
    return parse_coding_spec(request.param)


def test_complexity_formula_matches_oracle(shrinking):
    c = shrinking
    for L in range(block_length(c, 3) + 2):
        assert complexity_formula(c, L) == len(language(c, L)), L


def test_growth_matches_oracle(shrinking):
    c = shrinking
    for L in range(block_length(c, 2) + 2):
        assert growth_formula(c, L) == \
            len(language(c, L + 1)) - len(language(c, L)), L


def test_palindromes_match_oracle(shrinking):
    c = shrinking
    for L in range(1, block_length(c, 2) + 2):
        assert palindrome_formula(c, L) == palindrome_oracle(c, L), L


def test_debruijn_growth_decomposition(shrinking):
    c = shrinking
    for L in range(1, block_length(c, 1) + 2):
        graph = build_graph(c, L)
        assert reflection_check(graph)
        slack = sum(r.out_degree - 1 for r in right_special_report(graph))
        assert slack == growth_formula(c, L), L


def test_l_grigorchuk_power_periods_match_oracles():
    from toeplitz.presets import l_grigorchuk

    c = l_grigorchuk(1, 3)
    for L in range(block_length(c, 2) + 2):
        assert complexity_formula(c, L) == len(language(c, L)), L
        if L >= 1:
            assert palindrome_formula(c, L) == palindrome_oracle(c, L), L


def test_repetitivity_formula_matches_oracle(shrinking):
    c = shrinking
    from toeplitz.coding import kappa, m_sequence, scaled_length

    if scaled_length(c, kappa(c, m_sequence(c, 2))) > 20000:
        pytest.skip("containment scan too large for a unit test")
    for i in (1, 2):
        m, m_next = m_sequence(c, i), m_sequence(c, i + 1)
        lo = block_length(c, m) - block_length(c, m - 1) + 1
        hi = block_length(c, m_next) - block_length(c, m_next - 1)
        probes = sorted({lo, block_length(c, m) + 1,
                         min(block_length(c, m) + 2, hi), hi})
        for L in probes:
            want = repetitivity_formula(c, L)
            assert repetitivity_oracle(c, L) == want, (i, L)
