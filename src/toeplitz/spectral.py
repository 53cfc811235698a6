"""Transfer-matrix cocycles and finite sections of Jacobi operators.

The operator acts on l2 by

    (J psi)(k) = p(w(k)) psi(k-1) + q(w(k)) psi(k) + p(w(k+1)) psi(k+1)

with letter-dependent coefficients p (nonzero, off-diagonal) and q
(diagonal); p constant at 1 is the Schroedinger case.  Solutions of
J psi = E psi propagate through the one-step matrices

    M(k) = [[(E - q(w(k+1))) / p(w(k+2)),  -p(w(k+1)) / p(w(k+2))],
            [1, 0]]

whose ordered products form the cocycle; the factor at position k reads
the letters at k+1 and k+2.  Two walks compute those products:
`transfer_cocycle` multiplies `TransferMatrix` values, exactly when the
coefficients and E are Fractions, and `lyapunov_over_grid` carries float
products for a whole energy grid at once and turns them into Lyapunov
estimates (one energy is a one-element grid).  The tests hold the float
walk to the exact one.

Finite sections are truncations to positions 0..N-1 of the one-sided
representative word with zero boundary conditions: real symmetric
tridiagonal matrices whose spectra approximate the operator spectrum.
They stay as a diagonal and an off-diagonal; LAPACK's tridiagonal
`dsterf`, called through ctypes from the OpenBLAS bundled with numpy,
takes their eigenvalues in O(N^2) time and O(N) memory, the same floats a
dense solver gives.  A numpy without that library gets the dense
`np.linalg.eigvalsh`.  Cantor structure or measure-zero claims are never
asserted here; only cover-length trends are reported.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .coding import Alphabet, Coding
from .errors import BudgetExceeded
from .words import DEFAULT_BUDGET, word_prefix

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class CoefficientMap:
    """Letter-indexed Jacobi coefficients: off-diagonal p, diagonal q."""

    alphabet: Alphabet
    p_values: tuple[Number, ...]
    q_values: tuple[Number, ...]

    def __post_init__(self):
        if len(self.p_values) != len(self.alphabet) or \
                len(self.q_values) != len(self.alphabet):
            raise ValueError("need one (p, q) pair per letter")
        if any(v == 0 for v in self.p_values):
            raise ValueError("off-diagonal values p must be nonzero")

    @classmethod
    def constant(cls, alphabet: Alphabet, p: Number = 1,
                 q: Number = 0) -> "CoefficientMap":
        n = len(alphabet)
        return cls(alphabet, (p,) * n, (q,) * n)

    @classmethod
    def from_names(cls, alphabet: Alphabet, q: dict, p: Optional[dict] = None
                   ) -> "CoefficientMap":
        qv = tuple(q[name] for name in alphabet)
        pv = tuple((p or {}).get(name, 1) for name in alphabet)
        return cls(alphabet, pv, qv)

    def p(self, letter: int) -> Number:
        return self.p_values[letter]

    def q(self, letter: int) -> Number:
        return self.q_values[letter]

    @property
    def degenerate(self) -> bool:
        """All letters share one (p, q) pair: the induced system is periodic."""
        return len(set(zip(self.p_values, self.q_values))) == 1


def _warn_if_degenerate(coeff: CoefficientMap) -> None:
    if coeff.degenerate:
        warnings.warn(
            "all letters map to identical (p, q); the induced coefficient "
            "system is periodic and spectral conclusions for aperiodic "
            "operators do not apply",
            stacklevel=3,
        )


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 real matrix; entries may be exact Fractions or floats."""

    a: Number
    b: Number
    c: Number
    d: Number

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> Number:
        return self.a * self.d - self.b * self.c

    def operator_norm(self) -> float:
        """Largest singular value."""
        f = float(self.a) ** 2 + float(self.b) ** 2 \
            + float(self.c) ** 2 + float(self.d) ** 2
        det = float(self.det())
        gap = max(f * f - 4 * det * det, 0.0)
        return math.sqrt((f + math.sqrt(gap)) / 2)


def _div(a: Number, b: Number) -> Number:
    # keep int/int exact instead of decaying to float
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return a / b


def step_matrix(coeff: CoefficientMap, E: Number, first: int,
                second: int) -> TransferMatrix:
    """The one-step matrix of a window whose letters are (first, second).

    Its determinant is p(first)/p(second), exactly in rational mode.
    """
    p1, p2 = coeff.p(first), coeff.p(second)
    q1 = coeff.q(first)
    return TransferMatrix(_div(E - q1, p2), _div(-p1, p2), 1, 0)


def transfer_cocycle(c: Coding, coeff: CoefficientMap, E: Number, n: int,
                     budget: int = DEFAULT_BUDGET) -> TransferMatrix:
    """Ordered product of the first n one-step matrices along the word.

    Exact when `coeff` values and E are Fractions; identity for n = 0.
    """
    if n < 0:
        raise IndexError("cocycle step count must be >= 0")
    _warn_if_degenerate(coeff)
    word = word_prefix(c, n + 2, budget)
    out = TransferMatrix.identity()
    for k in range(n):
        out = step_matrix(coeff, E, word[k + 1], word[k + 2]) @ out
    return out


@dataclass(frozen=True)
class LyapunovEstimate:
    energy: float
    value: float
    samples: tuple[tuple[int, float], ...]  # (n, estimate) at n/4, n/2, n


RENORM_EVERY = 32


@dataclass(frozen=True)
class SpectrumApproximation:
    """Sorted eigenvalues of the N x N finite section."""

    eigenvalues: tuple[float, ...]

    def cover(self, delta: float) -> tuple[tuple[float, float], ...]:
        """Union of [ev - delta, ev + delta], merged into disjoint intervals."""
        intervals: list[tuple[float, float]] = []
        for ev in self.eigenvalues:
            lo, hi = ev - delta, ev + delta
            if intervals and lo <= intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], max(intervals[-1][1], hi))
            else:
                intervals.append((lo, hi))
        return tuple(intervals)

    def cover_length(self, delta: float) -> float:
        return sum(hi - lo for lo, hi in self.cover(delta))


def finite_section(c: Coding, coeff: CoefficientMap, size: int,
                   budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the truncation to positions 0..size-1.

    The coupling between sites k and k+1 is p at the letter of position
    k + 1, matching the operator's row structure.
    """
    if size < 2:
        raise IndexError("finite sections need size >= 2")
    word = word_prefix(c, size + 1, budget)
    diag = np.array([float(coeff.q(word[k])) for k in range(size)])
    off = np.array([float(coeff.p(word[k + 1])) for k in range(size - 1)])
    return diag, off


_TINY_OVER_EPS = np.finfo(float).tiny / np.finfo(float).eps
_RMIN = math.sqrt(_TINY_OVER_EPS)
_RMAX = math.sqrt(1.0 / _TINY_OVER_EPS)


@functools.cache
def _dsterf():
    """LAPACK's `dsterf` from the OpenBLAS in numpy's wheel, or None.

    numpy's wheels ship scipy-openblas64 as
    `<site-packages>/numpy.libs/libscipy_openblas64_*.so`, which numpy has
    already loaded; its symbols carry a `scipy_` prefix and a `64_` suffix,
    and its integers are 64-bit.  A numpy built against another LAPACK has
    no such file.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            dsterf = ctypes.CDLL(str(path)).scipy_dsterf_64_
        except (OSError, AttributeError):
            continue
        array = np.ctypeslib.ndpointer(np.float64, ndim=1,
                                       flags=("C_CONTIGUOUS", "WRITEABLE"))
        integer = ctypes.POINTER(ctypes.c_int64)
        dsterf.argtypes = [integer, array, array, integer]
        dsterf.restype = None
        return dsterf
    return None


def finite_section_spectrum(c: Coding, coeff: CoefficientMap, size: int,
                            budget: int = DEFAULT_BUDGET) -> SpectrumApproximation:
    """Eigenvalues of the finite section, sorted ascending.

    LAPACK's `dsterf` (root-free QL/QR), called through ctypes from the
    OpenBLAS that numpy already loaded, runs on the diagonal and
    off-diagonal directly, in O(N^2) time and O(N) memory, and returns the
    same floats as the dense `np.linalg.eigvalsh`: its `dsyevd` leaves a
    tridiagonal matrix as it is and calls `dsterf` too, after two steps
    repeated here.  It scales the matrix by sigma when the largest entry
    lies outside [sqrt(tiny/eps), sqrt(eps/tiny)] and multiplies the
    eigenvalues by 1/sigma; and its dense sum turns a -0.0 diagonal entry
    into 0.0, hence `+ 0.0`.  Where numpy carries no such library, the
    dense `np.linalg.eigvalsh` of the assembled matrix runs instead.

    A size-N section still counts N * N entries against `budget`, as the
    dense solver did, so `--budget` stops the same sizes.  Infinite or NaN
    entries raise ValueError before either solver runs, and a `dsterf`
    that does not converge raises `np.linalg.LinAlgError`.
    """
    if size >= 2 and size * size > budget:
        raise BudgetExceeded(
            f"a {size} x {size} finite section exceeds the budget of "
            f"{budget} matrix entries"
        )
    diag, off = finite_section(c, coeff, size, budget)
    _warn_if_degenerate(coeff)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    dsterf = _dsterf()
    if dsterf is None:
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return SpectrumApproximation(tuple(np.linalg.eigvalsh(matrix).tolist()))

    norm = max(np.abs(diag).max(), np.abs(off).max())
    sigma = 1.0
    if 0 < norm < _RMIN:
        sigma = _RMIN / norm
    elif norm > _RMAX:
        sigma = _RMAX / norm
    # new arrays: dsterf overwrites both, and leaves the eigenvalues in d
    d, e = (diag + 0.0) * sigma, off * sigma
    info = ctypes.c_int64()
    dsterf(ctypes.byref(ctypes.c_int64(size)), d, e, ctypes.byref(info))
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"dsterf did not converge (LAPACK info={info.value})")
    return SpectrumApproximation(tuple((d * (1.0 / sigma)).tolist()))


def spectral_bounds(coeff: CoefficientMap) -> tuple[float, float]:
    """Gershgorin-style enclosure [min q - 2 max|p|, max q + 2 max|p|]."""
    qs = [float(v) for v in coeff.q_values]
    top = 2 * max(abs(float(v)) for v in coeff.p_values)
    return min(qs) - top, max(qs) + top


def energy_grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def lyapunov_over_grid(c: Coding, coeff: CoefficientMap,
                       energies: Sequence[Number], n: int,
                       budget: int = DEFAULT_BUDGET) -> list[LyapunovEstimate]:
    """(1/k) log ||cocycle(k)|| at k = n/4, n/2, n for every energy, in one walk.

    The running products' four entries are numpy arrays indexed by energy,
    rescaled by their largest entry every RENORM_EVERY steps with the log
    (`math.log`, as np.log may differ from libm in the last ulp) kept apart,
    so n ~ 2^16 stays inside float range.  Every step matrix has bottom row
    (1, 0), so a step computes the new top row and shifts the old one down.
    Every operation is elementwise, so an energy's result does not depend
    on the rest of the grid.  A value that is not finite, because an entry
    or a checkpoint norm overflowed a float, raises OverflowError.
    """
    if n < 1:
        raise IndexError("lyapunov estimates need n >= 1")
    _warn_if_degenerate(coeff)
    grid = [float(E) for E in energies]
    if not grid:
        return []
    word = word_prefix(c, n + 2, budget)
    checkpoints = sorted({max(1, n // 4), max(1, n // 2), n})
    e_array = np.array(grid)
    steps = {}  # letter pair -> ((E - q1) / p2 over the grid, -p1 / p2)
    for first, second in set(zip(word[1:], word[2:])):
        p1, p2 = float(coeff.p(first)), float(coeff.p(second))
        steps[first, second] = (e_array - float(coeff.q(first))) / p2, -p1 / p2
    ma, mb = np.ones_like(e_array), np.zeros_like(e_array)
    mc, md = np.zeros_like(e_array), np.ones_like(e_array)
    log_scale = [0.0] * len(grid)
    samples: list[list[tuple[int, float]]] = [[] for _ in grid]
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
            if k + 1 in checkpoints:
                rows = zip(ma.tolist(), mb.tolist(), mc.tolist(), md.tolist())
                for i, entries in enumerate(rows):
                    norm = TransferMatrix(*entries).operator_norm()
                    log_norm = math.log(max(norm, 1e-300))
                    samples[i].append((k + 1, (log_scale[i] + log_norm) / (k + 1)))
    if not all(math.isfinite(s[-1][1]) for s in samples):
        raise OverflowError("the cocycle overflows a float")
    return [LyapunovEstimate(E, s[-1][1], tuple(s)) for E, s in zip(grid, samples)]
