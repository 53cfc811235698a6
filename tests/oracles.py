"""Reference values and checks that only the tests compute: brute force, or
closed forms of the paper that no command evaluates."""

from fractions import Fraction
from itertools import islice

from toeplitz.coding import jumps, stabilization_index
from toeplitz.language import language
from toeplitz.words import block_length, level_at


def m_sequence(c, i: int) -> int:
    """m_i: 0 for i = 0, else the index of the i-th triple of `jumps`.

    Once the tail alphabet has stabilized this coincides with the backward
    recursion m_{i+1} = max{j <= kappa(m_i) : {a_j..a_{kappa(m_i)}} = A_{m_i+1}};
    while letters are still dropping out of the tail alphabet only the jump
    characterization keeps kappa constant on [m_i, m_{i+1} - 1] and
    a_{m_i} = a_{kappa(m_i)}, which is what every consumer here relies on.
    """
    if i < 0:
        raise IndexError("m-sequence index must be >= 0")
    return next(islice(jumps(c), i - 1, None))[0] if i else 0


def band_lengths(c, i: int) -> list[int]:
    """Both ends of the repetitivity band of index i, and |p(m_i)| + 1, + 2."""
    m, m_next = m_sequence(c, i), m_sequence(c, i + 1)
    lo = block_length(c, m) - block_length(c, m - 1) + 1
    hi = block_length(c, m_next) - block_length(c, m_next - 1)
    return sorted({lo, block_length(c, m) + 1,
                   min(block_length(c, m) + 2, hi), hi})


def quotient_extrema(c, k: int) -> tuple[Fraction, int, Fraction]:
    """Exact extremes of p(L)/L over the band |p(k-1)|+2 <= L <= |p(k)|+1.

    Returns (max, argmax length, lower bound on the min), valid once the
    alphabet has stabilized.  The maximum |A_ev| - (n_{k-1} - 1)/(2 n_{k-1} - 1)
    is attained at L = 2|p(k-1)| - |p(k-2)| + 1 and never exceeds
    |A_ev| - 1/3; the minimum stays strictly above |A_ev| - 1.
    """
    if k < (n_ev := stabilization_index(c)) + 1:
        raise ValueError(f"quotient extrema need k >= N_ev + 1 = {n_ev + 1}")
    lv = level_at(c, k)  # k > N_ev, so lv.size = |A_ev|
    n, n_prev = c.period(k), c.period(k - 1)
    max_value = lv.size - Fraction(n_prev - 1, 2 * n_prev - 1)
    lower = min(lv.size - Fraction(n - 1, n),
                lv.size - Fraction(n_prev - 1, n_prev))
    return max_value, 2 * lv.p1 - lv.p2 + 1, lower


def prefix_factor_set(length: int, prefix: bytes) -> frozenset[bytes]:
    """Length-`length` factors of an explicit prefix; independent cross-check."""
    return frozenset(
        prefix[i:i + length] for i in range(len(prefix) - length + 1)
    )


def palindrome_oracle(c, length: int) -> int:
    """Palindromes among language(length): the per-L reference for the eertree."""
    return sum(1 for w in language(c, length) if w == w[::-1])


def is_strongly_connected(graph) -> bool:
    """Does the first vertex reach every vertex, along edges and against them?"""
    def reached(adjacency: dict[bytes, list[bytes]]) -> set[bytes]:
        seen, todo = {graph.vertices[0]}, [graph.vertices[0]]
        while todo:
            new = set(adjacency[todo.pop()]) - seen
            seen |= new
            todo.extend(new)
        return seen

    backward: dict[bytes, list[bytes]] = {v: [] for v in graph.vertices}
    for u, v, _ in graph.edges:
        backward[v].append(u)
    return reached(graph.successors()) == reached(backward) == set(graph.vertices)


def reflection_check(graph) -> bool:
    """Does word reversal map the graph onto itself with arrows flipped?"""
    vertex_set = set(graph.vertices)
    if any(v[::-1] not in vertex_set for v in graph.vertices):
        return False
    edge_pairs = {(u, v) for u, v, _ in graph.edges}
    return all((v[::-1], u[::-1]) in edge_pairs for u, v in edge_pairs)


def spectral_bounds(coeff) -> tuple[float, float]:
    """Gershgorin-style enclosure [min q - 2 max|p|, max q + 2 max|p|]."""
    qs = [float(v) for v in coeff.q_values]
    top = 2 * max(abs(float(v)) for v in coeff.p_values)
    return min(qs) - top, max(qs) + top


def cover_length(eigenvalues, delta: float) -> float:
    """Length of the union of [ev - delta, ev + delta] over sorted, nonempty
    eigenvalues: each gap between neighbours adds at most 2 delta."""
    return 2 * delta + sum(min(b - a, 2 * delta)
                           for a, b in zip(eigenvalues, eigenvalues[1:]))
