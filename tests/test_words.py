"""Blocks, limit-word prefixes, and hole arithmetic."""

import pytest
from conftest import periodic_codings
from hypothesis import given, settings

from toeplitz.coding import Alphabet, Coding, CodingEntry, GeneratorTail, tail_alphabet
from toeplitz.errors import BudgetExceeded, InvalidShift
from toeplitz.words import (
    block,
    block_length,
    level,
    level_at,
    undetermined_part,
    word_prefix,
)


def render(c, w):
    return c.alphabet.render(w)


class TestBlock:
    def test_grigorchuk_first_blocks(self, grig):
        assert render(grig, block(grig, 0)) == "a"
        assert render(grig, block(grig, 1)) == "axa"
        assert render(grig, block(grig, 2)) == "axayaxa"

    def test_grigorchuk_lengths_are_powers_of_two(self, grig):
        for k in range(10):
            assert block_length(grig, k) + 1 == 2 ** (k + 1)

    def test_minimal_period_gives_single_letter(self):
        from toeplitz.presets import parse_coding_spec

        c = parse_coding_spec("| x:2 y:3")
        assert render(c, block(c, 0)) == "x"

    def test_length_law(self, battery):
        for c in battery:
            for k in range(4):
                assert block_length(c, k) + 1 == \
                    c.period(k) * (block_length(c, k - 1) + 1)

    def test_prefix_coherence(self, battery, grig):
        for c in list(battery[:16]) + [grig]:
            for k in range(4):
                assert block(c, k + 1).startswith(block(c, k))

    def test_palindromicity(self, battery, grig):
        for c in list(battery[:16]) + [grig]:
            for k in range(5):
                w = block(c, k)
                assert w == w[::-1]

    def test_budget_enforced(self, grig):
        with pytest.raises(BudgetExceeded):
            block(grig, 40, budget=1 << 20)


class TestWordPrefix:
    def test_empty(self, grig):
        assert word_prefix(grig, 0) == b""

    def test_grigorchuk_eight(self, grig):
        assert render(grig, word_prefix(grig, 8)) == "axayaxaz"

    def test_grigorchuk_sixteen_ends_in_x(self, grig):
        # p(4) = p(3) x p(3), so position 15 holds the level-4 letter x
        w = word_prefix(grig, 16)
        assert render(grig, w) == "axayaxazaxayaxax"

    def test_prefix_of_block(self, battery):
        # p(3) built directly: p(0) = a_0^(n_0-1), p(j) = (p(j-1) a_j)^(n_j-1) p(j-1)
        for c in battery[:16]:
            p3 = bytes([c.letter(0)]) * (c.period(0) - 1)
            for j in range(1, 4):
                p3 = (p3 + bytes([c.letter(j)])) * (c.period(j) - 1) + p3
            assert block(c, 3) == p3
            for length in (1, 2, len(p3) // 2, len(p3)):
                assert word_prefix(c, length) == p3[:length]

    def test_short_prefix_skips_giant_blocks(self):
        # one huge period: the enclosing block would blow the budget, the
        # prefix itself must not
        from toeplitz.presets import parse_coding_spec

        c = parse_coding_spec("| x:2097152 y:2")
        w = word_prefix(c, 64, budget=1 << 10)
        assert w == bytes([c.alphabet.by_name("x")]) * 64

    def test_needs_no_tail_alphabet(self):
        # a generator without a declared recurrent alphabet has no certified
        # tail alphabets, but its blocks and prefixes are still exact
        ab = Alphabet.from_names("xyz")
        entries = tuple(CodingEntry(j % 3, 2 + j % 2) for j in range(8))
        c = Coding(ab, (), GeneratorTail("opaque", entries))
        p5 = block(c, 5)
        for length in range(len(p5) + 1):
            assert word_prefix(c, length) == p5[:length]

    def test_reconstruction_blocks_and_separators(self, battery, grig):
        # prefix tiles as p(k) * p(k) * ... with every separator * in A_{k+1};
        # the separators sit exactly on the hole class of shifts r_j = n_j - 1
        for c in list(battery[:12]) + [grig]:
            for k in range(3):
                span = block_length(c, k) + 1
                w = word_prefix(c, 4 * span)
                holes = undetermined_part(
                    c, k, tuple(c.period(j) - 1 for j in range(k + 1))
                )
                allowed = tail_alphabet(c, k + 1)
                p = block(c, k)
                for start in range(0, len(w) - span + 1, span):
                    chunk = w[start:start + span]
                    assert chunk[:-1] == p
                    assert chunk[-1] in allowed
                    assert (start + span - 1) in holes


class TestLevel:
    @settings(max_examples=100, deadline=None)
    @given(c=periodic_codings())
    def test_fields_are_their_definitions(self, c):
        for k in range(6):
            lv = level_at(c, k)
            assert lv.k == k
            assert lv.p == block_length(c, k)
            assert lv.p1 == block_length(c, k - 1)
            assert lv.p2 == (block_length(c, k - 2) if k >= 2 else 0)
            assert (lv.n, lv.a) == (c.period(k), c.letter(k))
            assert lv.size == len(tail_alphabet(c, k))
            assert lv.size_next == len(tail_alphabet(c, k + 1))
            assert lv.prev_in == (k >= 1 and c.letter(k - 1) in tail_alphabet(c, k))
            assert lv.stays == (c.letter(k) in tail_alphabet(c, k + 1))

    @settings(max_examples=100, deadline=None)
    @given(c=periodic_codings())
    def test_lookup_is_the_least_covering_level(self, c):
        # merged entries can make |p(4)| huge: every length up to 2000, and
        # beyond that the lengths around each band edge
        edges = {block_length(c, k) + d for k in range(5) for d in (0, 1, 2)}
        for length in set(range(min(block_length(c, 4), 2000) + 3)) | edges:
            k = level(c, length).k
            assert block_length(c, k) >= length
            assert k == 0 or block_length(c, k - 1) < length

    def test_negative_level_rejected(self, grig):
        with pytest.raises(IndexError):
            level_at(grig, -1)


class TestUndeterminedPart:
    def test_all_zero_shifts(self, two_letter):
        u = undetermined_part(two_letter, 1, (0, 0))
        assert (u.modulus, u.offset) == (4, 0)

    def test_spec_offsets(self, two_letter):
        u = undetermined_part(two_letter, 1, (1, 1))
        assert (u.modulus, u.offset) == (4, 3)

    def test_mixed_radix(self):
        from toeplitz.presets import parse_coding_spec

        c = parse_coding_spec("| x:2 y:3 z:2")
        u = undetermined_part(c, 2, (1, 2, 0))
        assert (u.modulus, u.offset) == (12, 5)

    def test_out_of_range_shift_rejected(self, two_letter):
        with pytest.raises(InvalidShift):
            undetermined_part(two_letter, 1, (0, 2))
        with pytest.raises(InvalidShift):
            undetermined_part(two_letter, 1, (0,))

    def test_exactly_one_hole_per_period(self, battery):
        for c in battery[:8]:
            u = undetermined_part(c, 2, (0, 0, 0))
            window = [p for p in range(u.modulus) if p in u]
            assert window == [0]
