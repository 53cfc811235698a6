"""De Bruijn (Rauzy) graphs, their reflection symmetry, and palindrome counts.

The graph at length L has the length-L factors as vertices and one edge per
length-(L+1) factor, from its length-L prefix to its length-L suffix.  The
graphs of a simple Toeplitz subshift consist of a bundle of arcs between the
prefix u1 and suffix v1 of the governing block p(k), occasionally with a
secondary branch vertex v2 (suffix of p(k-1) a_{k-1} p(k-1)); that
description is checked as `contracted_arcs == predicted_arcs`.  Reversal of
words is a graph anti-automorphism; its fixed vertices are exactly the
palindromes, which yields a closed palindrome-count formula that
`palindrome --check` holds to an eertree over the enclosing words.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .coding import Alphabet, Coding, tail_alphabet
from .errors import TooSmall
from .language import language, palindrome_counts
from .words import DEFAULT_BUDGET, Level, Row, bands, level, level_at, word_prefix


class GraphAnnotations(NamedTuple):
    """Designated vertices from the structural description of the graph."""

    level: int
    u1: bytes
    v1: bytes
    u2: Optional[bytes]
    v2: Optional[bytes]


class DeBruijnGraph(NamedTuple):
    alphabet: Alphabet
    length: int
    vertices: tuple[bytes, ...]
    edges: tuple[tuple[bytes, bytes, bytes], ...]  # (source, target, word)
    annotations: GraphAnnotations

    def successors(self) -> dict[bytes, list[bytes]]:
        nxt: dict[bytes, list[bytes]] = {v: [] for v in self.vertices}
        for u, v, _ in self.edges:
            nxt[u].append(v)
        return nxt


def _annotations(c: Coding, length: int) -> GraphAnnotations:
    """u1 and u2 are the length-L prefixes of p(k), a prefix of the limit
    word, and of p(k-1) a_{k-1} p(k-1); both are palindromes, so their
    length-L suffixes v1 and v2 are u1 and u2 reversed."""
    lv = level(c, length)
    u1, u2 = word_prefix(c, length), None
    if lv.has_v2(length):
        u2 = u1[:lv.p1] + bytes([c.letter(lv.k - 1)]) + u1[:length - lv.p1 - 1]
    return GraphAnnotations(lv.k, u1, u1[::-1], u2,
                            None if u2 is None else u2[::-1])


def build_graph(c: Coding, length: int,
                budget: int = DEFAULT_BUDGET) -> DeBruijnGraph:
    """The de Bruijn graph at `length`, read off language(L+1).

    Every length-L factor is the prefix of some length-(L+1) factor, so the
    edge prefixes are exactly the vertices.
    """
    if length < 1:
        raise TooSmall("graph length must be >= 1")
    edges = tuple((w[:-1], w[1:], w) for w in language(c, length + 1, budget))
    vertices = tuple(sorted({u for u, _, _ in edges}))
    return DeBruijnGraph(c.alphabet, length, vertices, edges,
                         _annotations(c, length))


def right_special_report(graph: DeBruijnGraph) -> dict[bytes, int]:
    """Out-degree of each vertex with at least two right extensions, in word
    order."""
    return {v: len(nxt) for v, nxt in sorted(graph.successors().items())
            if len(nxt) >= 2}


def band_palindromes(lv: Level, length: int) -> int:
    """Palindromes among the length-L factors, L in the band of level lv:
    parity terms in r = L mod (|p(k-1)|+1) and rt = L mod (|p(k-2)|+1)."""
    r, rt = length % (lv.p1 + 1), length % (lv.p2 + 1)
    return (lv.size - 1) * (length % 2) + (lv.p1 + 1 - r) % 2 \
        + (r % 2) * lv.keeps_ak(length) \
        + lv.has_v2(length) * (rt % 2 + (lv.p2 + 1 - rt) % 2 - length % 2)


def palindrome_formula(c: Coding, length: int) -> int:
    """Closed-form palindrome count among the length-`length` factors."""
    if length < 1:
        raise TooSmall("palindrome counts start at length 1")
    return band_palindromes(level(c, length), length)


def palindrome_profile(c: Coding, max_length: int, with_oracle: bool = False,
                       budget: int = DEFAULT_BUDGET) -> Iterator[Row]:
    """Per-L palindrome counts by formula and (optionally) by the eertree,
    made as they are read; fails as `complexity.profile` does."""
    level(c, max_length)
    counts = palindrome_counts(c, max_length, budget) if with_oracle else None
    return (Row(L, band_palindromes(lv, L), None if counts is None else counts[L])
            for L, lv in bands(c, max_length) if L)


def contracted_arcs(graph: DeBruijnGraph
                    ) -> dict[tuple[bytes, int], tuple[bytes, int]]:
    """(start, letter) -> (end, edges walked) for every arc between stops.

    The stops are u1 and every vertex whose out-degree is not 1; an arc
    leaves a stop by one edge and follows single out-edges to the next
    stop.  A walk gives up after len(edges) steps, so it ends even on a
    cycle without stops.
    """
    successors = graph.successors()
    stops = {graph.annotations.u1}
    stops.update(v for v, nxt in successors.items() if len(nxt) != 1)
    arcs = {}
    for u, v, w in graph.edges:
        if u not in stops:
            continue
        steps = 1
        while v not in stops and steps <= len(graph.edges):
            v = successors[v][0]
            steps += 1
        arcs[u, w[-1]] = (v, steps)
    return arcs


def predicted_arcs(c: Coding, length: int
                   ) -> dict[tuple[bytes, int], tuple[bytes, int]]:
    """The paper's arc description as a `contracted_arcs` map.

    Reads only the length L and the annotations, whose words come from
    the palindromic prefix of the limit word, never a graph.  With
    r = L mod (|p(k-1)|+1) and rt = L mod (|p(k-2)|+1): v1 reaches u1 in
    L+1 edges by every b in A_k other than a_k, and in r+1 edges by a_k
    unless L >= |p(k)| - |p(k-1)| and a_k is not in A_{k+1}.  When v2
    exists, v1 reaches it by a_{k-1} in r+1+|p(k-2)|-rt edges, v2 loops to
    itself by a_{k-1} in |p(k-2)|+1 edges and reaches u1 by a_k in r+1
    edges.  A u1 apart from v1 and v2 reaches v1 in |p(k-1)|-r edges.
    """
    ann = _annotations(c, length)
    lv = level_at(c, ann.level)
    r = length % (lv.p1 + 1)
    arcs = {(ann.v1, b): (ann.u1, length + 1)
            for b in tail_alphabet(c, lv.k) if b != lv.a}
    if lv.keeps_ak(length):
        arcs[ann.v1, lv.a] = (ann.u1, r + 1)
    if ann.v2 is not None:
        rt = length % (lv.p2 + 1)
        ak1 = c.letter(lv.k - 1)
        arcs[ann.v1, ak1] = (ann.v2, r + 1 + lv.p2 - rt)
        arcs[ann.v2, ak1] = (ann.v2, lv.p2 + 1)
        arcs[ann.v2, lv.a] = (ann.u1, r + 1)
    if ann.u1 not in (ann.v1, ann.v2):  # u1 = p(k)[:L] goes on by p(k)[L]
        arcs[ann.u1, word_prefix(c, length + 1)[length]] = (ann.v1, lv.p1 - r)
    return arcs


def to_dot(graph: DeBruijnGraph) -> str:
    """Graphviz rendering: right-special vertices doubled, reflection pairs ranked."""
    alphabet = graph.alphabet
    lines = ["digraph debruijn {", "  rankdir=LR;"]
    special = right_special_report(graph)
    for v in graph.vertices:
        name = alphabet.render(v)
        shape = ' shape=doublecircle' if v in special else ""
        lines.append(f'  "{name}" [label="{name}"{shape}];')
    vertex_set = set(graph.vertices)
    for v in graph.vertices:  # each mirror pair once, at its smaller word
        if v < v[::-1] and v[::-1] in vertex_set:
            a, b = alphabet.render(v), alphabet.render(v[::-1])
            lines.append(f'  {{ rank=same; "{a}"; "{b}"; }}')
    for u, v, w in graph.edges:
        label = alphabet.render(w[-1:])
        lines.append(
            f'  "{alphabet.render(u)}" -> "{alphabet.render(v)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
