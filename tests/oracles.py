"""Reference values and checks that only the tests compute: brute force, or
closed forms of the paper that no command evaluates."""

import math
from fractions import Fraction
from itertools import islice

from toeplitz.coding import jumps, stabilization_index
from toeplitz.language import language
from toeplitz.spectral import RENORM_EVERY, TransferMatrix, _warn_if_degenerate
from toeplitz.words import DEFAULT_BUDGET, block_length, level_at, word_prefix


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


def numpy_lyapunov_over_grid(c, coeff, energies, n: int,
                             budget: int = DEFAULT_BUDGET) -> list[float]:
    """The reference for `spectral.lyapunov_over_grid`: one walk over the
    whole grid, with the four entries of the running product as numpy
    arrays indexed by energy, rescaled with `np.max` and
    `np.divide(..., where=scale > 0)`.

    The logs are `math.log`, as np.log may differ from libm in the last
    ulp, so per energy both walks run the same IEEE operations in the same
    order and agree bit for bit, or both raise OverflowError.
    """
    import numpy as np

    if n < 1:
        raise IndexError("lyapunov estimates need n >= 1")
    _warn_if_degenerate(coeff)
    grid = [float(E) for E in energies]
    if not grid:
        return []
    word = word_prefix(c, n + 2, budget)
    e_array = np.array(grid)
    steps = {}  # letter pair -> ((E - q1) / p2 over the grid, -p1 / p2)
    for first, second in set(zip(word[1:], word[2:])):
        p1, p2 = float(coeff.p_values[first]), float(coeff.p_values[second])
        steps[first, second] = (e_array - float(coeff.q_values[first])) / p2, -p1 / p2
    ma, mb = np.ones_like(e_array), np.zeros_like(e_array)
    mc, md = np.zeros_like(e_array), np.ones_like(e_array)
    log_scale = [0.0] * len(grid)
    # overflow shows up as a value that is not finite, checked at the end
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            sa, sb = steps[word[k + 1], word[k + 2]]
            ma, mb, mc, md = sa * ma + sb * mc, sa * mb + sb * md, ma, mb
            if (k + 1) % RENORM_EVERY == 0:
                scale = np.max(np.abs([ma, mb, mc, md]), axis=0)
                positive = scale > 0
                for entry in (ma, mb, mc, md):
                    np.divide(entry, scale, out=entry, where=positive)
                scales = scale.tolist()
                for i in np.flatnonzero(positive).tolist():
                    log_scale[i] += math.log(scales[i])
    values = []
    rows = zip(ma.tolist(), mb.tolist(), mc.tolist(), md.tolist())
    for logged, entries in zip(log_scale, rows):
        norm = TransferMatrix(*entries).operator_norm()
        values.append((logged + math.log(max(norm, 1e-300))) / n)
    if not all(map(math.isfinite, values)):
        raise OverflowError("the cocycle overflows a float")
    return values
