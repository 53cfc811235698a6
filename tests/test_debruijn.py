"""De Bruijn graphs, reflection symmetry, and palindrome complexity."""

import random

from conftest import periodic_codings
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_strongly_connected, palindrome_oracle, reflection_check

from toeplitz.complexity import complexity_formula, growth_formula
from toeplitz.debruijn import (
    DeBruijnGraph,
    GraphAnnotations,
    _annotations,
    build_graph,
    contracted_arcs,
    palindrome_formula,
    palindrome_profile,
    predicted_arcs,
    right_special_report,
    to_dot,
)
from toeplitz.presets import l_grigorchuk
from toeplitz.words import block, block_length, level


def render(c, w):
    return c.alphabet.render(w)


class TestStructure:
    def test_grigorchuk_level_one(self, grig):
        g = build_graph(grig, 1)
        assert len(g.vertices) == 4 and len(g.edges) == 6
        pairs = {(render(grig, u), render(grig, v)) for u, v, _ in g.edges}
        assert pairs == {("a", "x"), ("x", "a"), ("a", "y"), ("y", "a"),
                         ("a", "z"), ("z", "a")}

    def test_grigorchuk_level_two(self, grig):
        g = build_graph(grig, 2)
        assert {render(grig, v) for v in g.vertices} == \
            {"ax", "xa", "ay", "ya", "az", "za"}
        assert len(g.edges) == 8
        assert render(grig, g.annotations.u1) == "ax"
        assert render(grig, g.annotations.v1) == "xa"

    def test_grigorchuk_level_three_designated_words(self, grig):
        g = build_graph(grig, 3)
        assert len(g.vertices) == 8
        assert render(grig, g.annotations.u1) == "axa"
        assert render(grig, g.annotations.v1) == "axa"

    def test_annotations_are_slices_of_their_hosts(self, battery, grig):
        # u1, v1 open and close p(k); u2, v2 open and close p(k-1) a_{k-1}
        # p(k-1) while a_{k-1} is in A_k and |p(k-1)| < L <= 2|p(k-1)| - |p(k-2)|
        for c in list(battery) + [grig, l_grigorchuk(1, 3)]:
            blocks = [block(c, k) for k in range(6)]
            for L in range(1, len(blocks[5]) + 1):
                lv = level(c, L)
                p, prev = blocks[lv.k], blocks[lv.k - 1] if lv.k else b""
                want = (lv.k, p[:L], p[-L:], None, None)
                if lv.prev_in and len(prev) < L <= 2 * len(prev) - lv.p2:
                    host = prev + bytes([c.letter(lv.k - 1)]) + prev
                    want = want[:3] + (host[:L], host[-L:])
                ann = _annotations(c, L)
                assert (ann.level, ann.u1, ann.v1, ann.u2, ann.v2) == want, \
                    (c.spec_string(), L)

    def test_counts_match_complexity(self, battery, grig):
        for c in list(battery[:10]) + [grig]:
            for L in range(1, min(block_length(c, 2) + 2, 20)):
                g = build_graph(c, L)
                assert len(g.vertices) == complexity_formula(c, L)
                assert len(g.edges) == complexity_formula(c, L + 1)

    def test_strong_connectivity(self, battery, grig):
        for c in list(battery[:10]) + [grig]:
            for L in (1, 2, 3, 5, 8):
                assert is_strongly_connected(build_graph(c, L))


class TestRightSpecial:
    def test_grigorchuk_level_one(self, grig):
        report = right_special_report(build_graph(grig, 1))
        assert [(render(grig, v), d) for v, d in report.items()] == [("a", 3)]

    def test_grigorchuk_level_four_two_branch_points(self, grig):
        report = right_special_report(build_graph(grig, 4))
        degrees = sorted(report.values())
        assert degrees == [2, 3]
        names = {render(grig, v) for v in report}
        # v1 = suffix of p(2), v2 = suffix of p(1) x p(1)
        assert names == {"yaxa", "xaxa"}

    def test_single_branch_when_growth_is_simple(self, grig):
        # L = 7: R(7) = 2 = |A_3| - 1 carried by one vertex of degree 3
        report = right_special_report(build_graph(grig, 7))
        assert list(report.values()) == [3]

    def test_degree_sum_matches_growth(self, battery, grig):
        for c in list(battery[:10]) + [grig]:
            for L in range(1, 14):
                report = right_special_report(build_graph(c, L))
                assert sum(d - 1 for d in report.values()) == \
                    growth_formula(c, L)


class TestReflection:
    def test_holds_across_codings(self, battery, grig, two_letter):
        for c in list(battery[:10]) + [grig, two_letter]:
            for L in (1, 2, 3, 5, 8, 11):
                assert reflection_check(build_graph(c, L))

    def test_synthetic_negative(self, grig):
        # vertex set {ab} without {ba}: reversal leaves the vertex set
        ab, ba = bytes([0, 1]), bytes([1, 0])
        fake = DeBruijnGraph(
            grig.alphabet, 2, (ab,), ((ab, ab, bytes([0, 1, 1])),),
            GraphAnnotations(1, ab, ab, None, None),
        )
        assert not reflection_check(fake)

    def test_synthetic_negative_edges(self):
        # palindromic vertices but an edge set not closed under reversal
        a, b = bytes([0]), bytes([1])
        fake = DeBruijnGraph(
            None, 1, (a, b),
            ((a, b, bytes([0, 1])), (b, b, bytes([1, 1]))),
            GraphAnnotations(0, a, a, None, None),
        )
        assert not reflection_check(fake)

    def test_fixed_points_are_palindromic_vertices(self, grig):
        g = build_graph(grig, 3)
        fixed = {render(grig, v) for v in g.vertices if v == v[::-1]}
        assert fixed == {"axa", "xax", "aya", "aza"}
        assert len(fixed) == palindrome_formula(grig, 3)


class TestPalindromeComplexity:
    def test_grigorchuk_printed_piecewise(self, grig):
        # 4 (L odd) up to L=3, then 5 on the lower band / 4 on the upper
        for L in range(1, 4):
            assert palindrome_formula(grig, L) == 4 * (L % 2)
        for k in (2, 3, 4):
            for L in range(2 ** k, 2 ** (k + 1) - 2 ** (k - 1)):
                assert palindrome_formula(grig, L) == 5 * (L % 2)
            for L in range(2 ** (k + 1) - 2 ** (k - 1), 2 ** (k + 1)):
                assert palindrome_formula(grig, L) == 4 * (L % 2)

    def test_even_lengths_have_none(self, grig):
        assert palindrome_formula(grig, 2) == 0
        assert palindrome_oracle(grig, 2) == 0

    def test_grigorchuk_five(self, grig):
        assert palindrome_formula(grig, 5) == 5
        assert palindrome_oracle(grig, 5) == 5

    def test_formula_equals_oracle(self, battery, grig, two_letter):
        for c in list(battery[:12]) + [grig, two_letter]:
            for L in range(1, 16):
                assert palindrome_formula(c, L) == palindrome_oracle(c, L), \
                    (c.spec_string(), L)

    def test_profile_equals_the_per_length_function(self, battery, grig,
                                                    two_letter):
        for c in list(battery) + [grig, two_letter]:
            top = min(block_length(c, 4) + 2, 300)
            assert [r.formula for r in palindrome_profile(c, top)] == \
                [palindrome_formula(c, L) for L in range(1, top + 1)]

    def test_fixed_point_count_everywhere(self, battery):
        for c in battery[:8]:
            for L in (1, 2, 3, 4, 6, 9):
                g = build_graph(c, L)
                fixed = [v for v in g.vertices if v == v[::-1]]
                assert len(fixed) == palindrome_formula(c, L)


class TestArcStructure:
    def test_grigorchuk_inner_lengths(self, grig):
        for L in range(1, 40):
            g = build_graph(grig, L)
            assert contracted_arcs(g) == predicted_arcs(grig, L), L

    def test_battery_inner_lengths(self, battery):
        for c in battery[:8]:
            for L in range(1, 10):
                g = build_graph(c, L)
                assert contracted_arcs(g) == predicted_arcs(c, L), \
                    (c.spec_string(), L)

    @settings(max_examples=60, deadline=None)
    @given(c=periodic_codings(), length=st.integers(1, 40))
    def test_random_codings(self, c, length):
        g = build_graph(c, length)
        assert contracted_arcs(g) == predicted_arcs(c, length)

    def test_deleted_edges_are_caught(self, battery, grig):
        rng = random.Random(20251018)
        for c in [grig] + list(battery[:8]):
            for L in range(1, 10):
                g = build_graph(c, L)
                want = predicted_arcs(c, L)
                v1_edges = [e for e in g.edges if e[0] == g.annotations.v1]
                for e in v1_edges + [rng.choice(g.edges)]:
                    cut = g._replace(edges=tuple(x for x in g.edges if x != e))
                    assert contracted_arcs(cut) != want, \
                        (c.spec_string(), L, e)


class TestDot:
    def test_renders_deterministically(self, grig):
        g = build_graph(grig, 2)
        first, second = to_dot(g), to_dot(g)
        assert first == second
        assert first.startswith("digraph")
        assert '"ax" -> "xa"' in first
        assert "doublecircle" in first  # right-special styling
        assert "rank=same" in first     # reflection pairs
