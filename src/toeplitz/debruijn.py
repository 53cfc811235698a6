"""De Bruijn (Rauzy) graphs, their reflection symmetry, and palindrome counts.

The graph at length L has the length-L factors as vertices and one edge per
length-(L+1) factor, from its length-L prefix to its length-L suffix.  The
graphs of a simple Toeplitz subshift consist of a bundle of arcs between the
prefix u1 and suffix v1 of the governing block p(k), occasionally with a
secondary branch vertex v2 (suffix of p(k-1) a_{k-1} p(k-1)); that
description is checked as `contracted_arcs == predicted_arcs`.  Reversal of
words is a graph anti-automorphism; its fixed vertices are exactly the
palindromes, which yields a closed palindrome-count formula checked here
against an eertree over the enclosing words and against direct enumeration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .coding import Alphabet, Coding, tail_alphabet
from .language import language, palindrome_counts
from .words import DEFAULT_BUDGET, Level, block, level, level_at, word_prefix


@dataclass(frozen=True)
class RightSpecial:
    vertex: bytes
    out_degree: int


@dataclass(frozen=True)
class GraphAnnotations:
    """Designated vertices from the structural description of the graph."""

    level: int
    u1: bytes
    v1: bytes
    u2: Optional[bytes]
    v2: Optional[bytes]


@dataclass(frozen=True)
class DeBruijnGraph:
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


def _annotations(c: Coding, length: int, budget: int) -> GraphAnnotations:
    lv = level(c, length)
    p = block(c, lv.k, budget)
    u1, v1 = p[:length], p[-length:]
    u2 = v2 = None
    if lv.prev_in and lv.p1 + 1 <= length <= 2 * lv.p1 - lv.p2:
        prev = p[:lv.p1]  # p(k-1) is a prefix of p(k)
        host = prev + bytes([c.letter(lv.k - 1)]) + prev
        u2, v2 = host[:length], host[-length:]
    return GraphAnnotations(lv.k, u1, v1, u2, v2)


def build_graph(c: Coding, length: int,
                budget: int = DEFAULT_BUDGET) -> DeBruijnGraph:
    """The de Bruijn graph at `length`, read off language(L+1).

    Every length-L factor is the prefix of some length-(L+1) factor, so the
    edge prefixes are exactly the vertices.
    """
    if length < 1:
        raise IndexError("graph length must be >= 1")
    edges = tuple((w[:-1], w[1:], w) for w in language(c, length + 1, budget))
    vertices = tuple(sorted({u for u, _, _ in edges}))
    return DeBruijnGraph(c.alphabet, length, vertices, edges,
                         _annotations(c, length, budget))


def right_special_report(graph: DeBruijnGraph) -> list[RightSpecial]:
    """Vertices with at least two right extensions, in word order."""
    return [
        RightSpecial(v, len(nxt))
        for v, nxt in sorted(graph.successors().items())
        if len(nxt) >= 2
    ]


def is_strongly_connected(graph: DeBruijnGraph) -> bool:
    if not graph.vertices:
        return False

    def reaches_all(adjacency: dict[bytes, list[bytes]]) -> bool:
        seen = {graph.vertices[0]}
        queue = deque(seen)
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(graph.vertices)

    forward = graph.successors()
    backward: dict[bytes, list[bytes]] = {v: [] for v in graph.vertices}
    for u, v, _ in graph.edges:
        backward[v].append(u)
    return reaches_all(forward) and reaches_all(backward)


def reflection_check(graph: DeBruijnGraph) -> bool:
    """Does word reversal map the graph onto itself with arrows flipped?"""
    vertex_set = set(graph.vertices)
    if any(v[::-1] not in vertex_set for v in graph.vertices):
        return False
    edge_pairs = {(u, v) for u, v, _ in graph.edges}
    return all((v[::-1], u[::-1]) in edge_pairs for u, v in edge_pairs)


def reflection_fixed_points(graph: DeBruijnGraph) -> list[bytes]:
    return [v for v in graph.vertices if v == v[::-1]]


def band_palindromes(lv: Level, length: int) -> int:
    """Palindromes among the length-L factors, L in the band of level lv.

    With r = L mod (|p(k-1)|+1) and rt = L mod (|p(k-2)|+1) the count is a
    sum of parity terms; the final bracket is active exactly when the
    secondary branch vertex v2 exists.
    """
    r, rt = length % (lv.p1 + 1), length % (lv.p2 + 1)
    value = (lv.size - 1) * (length % 2) + (lv.p1 + 1 - r) % 2
    if length <= lv.p - lv.p1 - 1:
        value += r % 2
    else:
        value += (r % 2) * lv.stays
    if lv.prev_in and length <= 2 * lv.p1 - lv.p2:
        value += (rt % 2) + (lv.p2 + 1 - rt) % 2 - (length % 2)
    return value


def palindrome_formula(c: Coding, length: int) -> int:
    """Closed-form palindrome count among the length-`length` factors."""
    if length < 1:
        raise IndexError("palindrome counts start at length 1")
    return band_palindromes(level(c, length), length)


def palindrome_oracle(c: Coding, length: int,
                      budget: int = DEFAULT_BUDGET) -> int:
    """Palindromes among language(length): the per-L reference for the eertree."""
    return sum(1 for w in language(c, length, budget) if w == w[::-1])


@dataclass(frozen=True)
class PalindromeRow:
    length: int
    formula: int
    oracle: Optional[int] = None


def palindrome_profile(c: Coding, max_length: int, with_oracle: bool = False,
                       budget: int = DEFAULT_BUDGET) -> list[PalindromeRow]:
    """Per-L palindrome counts by formula and (optionally) by the eertree."""
    counts = palindrome_counts(c, max_length, budget) if with_oracle else None
    rows, lv = [], level_at(c, 0)
    for L in range(1, max_length + 1):
        if lv.p < L:
            lv = level_at(c, lv.k + 1)
        rows.append(PalindromeRow(L, band_palindromes(lv, L),
                                  None if counts is None else counts[L]))
    return rows


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

    Reads only the length L and the annotations, never a graph.  With
    r = L mod (|p(k-1)|+1) and rt = L mod (|p(k-2)|+1): v1 reaches u1 in
    L+1 edges by every b in A_k other than a_k, and in r+1 edges by a_k
    unless L >= |p(k)| - |p(k-1)| and a_k is not in A_{k+1}.  When v2
    exists, v1 reaches it by a_{k-1} in r+1+|p(k-2)|-rt edges, v2 loops to
    itself by a_{k-1} in |p(k-2)|+1 edges and reaches u1 by a_k in r+1
    edges.  A u1 apart from v1 and v2 reaches v1 in |p(k-1)|-r edges.
    """
    ann = _annotations(c, length, DEFAULT_BUDGET)
    lv = level_at(c, ann.level)
    r = length % (lv.p1 + 1)
    arcs = {(ann.v1, b): (ann.u1, length + 1)
            for b in tail_alphabet(c, lv.k) if b != lv.a}
    if length < lv.p - lv.p1 or lv.stays:
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
    special = {rs.vertex for rs in right_special_report(graph)}
    for v in graph.vertices:
        name = alphabet.render(v)
        shape = ' shape=doublecircle' if v in special else ""
        lines.append(f'  "{name}" [label="{name}"{shape}];')
    vertex_set = set(graph.vertices)
    seen_pairs = set()
    for v in graph.vertices:
        mirror = v[::-1]
        if mirror != v and mirror in vertex_set:
            pair = tuple(sorted((v, mirror)))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                a, b = (alphabet.render(w) for w in pair)
                lines.append(f'  {{ rank=same; "{a}"; "{b}"; }}')
    for u, v, w in graph.edges:
        label = alphabet.render(w[-1:])
        lines.append(
            f'  "{alphabet.render(u)}" -> "{alphabet.render(v)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
