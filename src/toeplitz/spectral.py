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
coefficients and E are Fractions, and `lyapunov_over_grid` walks an energy
grid one energy at a time, carrying the product's four entries as scalar
Python floats, and turns them into Lyapunov estimates.  The tests hold the
float walk to the exact one, and bit for bit to a numpy walk over the whole
grid.

Finite sections are truncations to positions 0..N-1 of the one-sided
representative word with zero boundary conditions: real symmetric
tridiagonal matrices whose spectra approximate the operator spectrum.
They stay as a diagonal and an off-diagonal of Python floats; LAPACK's
tridiagonal `dsterf`, called through ctypes from the OpenBLAS bundled in
numpy's wheel, takes their eigenvalues in O(N^2) time and O(N) memory, the
same floats a dense solver gives, without importing numpy.  Only sections
where numpy bundles no such library import numpy: its dense `eigvalsh`
takes their eigenvalues instead.  Cantor structure or measure-zero claims
are never asserted here.

Each import sits where it is used: `fractions` in the exact mode's division,
`ctypes`, `importlib.util` and `pathlib` in the finite sections' search for
`dsterf` and call of it, and numpy in their fallback.  A Lyapunov scan
loads none of them.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .coding import Alphabet, Coding, checked_record
from .errors import BudgetExceeded
from .words import DEFAULT_BUDGET, word_prefix

if TYPE_CHECKING:
    from fractions import Fraction

Number = Union[int, float, "Fraction"]


class CoefficientMap(checked_record("CoefficientMap",
                                    "alphabet p_values q_values")):
    """Letter-indexed Jacobi coefficients: off-diagonal p, diagonal q."""

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, p_values: tuple[Number, ...],
                q_values: tuple[Number, ...]) -> "CoefficientMap":
        if not len(p_values) == len(q_values) == len(alphabet.names):
            raise ValueError("need one (p, q) pair per letter")
        if any(v == 0 for v in p_values):
            raise ValueError("off-diagonal values p must be nonzero")
        return super().__new__(cls, alphabet, p_values, q_values)

    @classmethod
    def from_names(cls, alphabet: Alphabet, q: dict, p: Optional[dict] = None
                   ) -> "CoefficientMap":
        qv = tuple(q[name] for name in alphabet.names)
        pv = tuple((p or {}).get(name, 1) for name in alphabet.names)
        return cls(alphabet, pv, qv)

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


class TransferMatrix(NamedTuple):
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
    from fractions import Fraction

    # keep int/int exact instead of decaying to float
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return a / b


def step_matrix(coeff: CoefficientMap, E: Number, first: int,
                second: int) -> TransferMatrix:
    """The one-step matrix of a window whose letters are (first, second).

    Its determinant is p(first)/p(second), exactly in rational mode.
    """
    p1, p2 = coeff.p_values[first], coeff.p_values[second]
    q1 = coeff.q_values[first]
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


class LyapunovEstimate(NamedTuple):
    energy: float
    value: float
    samples: tuple[tuple[int, float], ...]  # (n, estimate) at n/4, n/2, n


RENORM_EVERY = 32


def finite_section(c: Coding, coeff: CoefficientMap, size: int,
                   budget: int = DEFAULT_BUDGET) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of the truncation to positions 0..size-1.

    The coupling between sites k and k+1 is p at the letter of position
    k + 1, matching the operator's row structure.
    """
    if size < 2:
        raise IndexError("finite sections need size >= 2")
    word = word_prefix(c, size + 1, budget)
    qs = [float(v) for v in coeff.q_values]
    ps = [float(v) for v in coeff.p_values]
    return [qs[w] for w in word[:size]], [ps[w] for w in word[1:size]]


_TINY_OVER_EPS = sys.float_info.min / sys.float_info.epsilon
_RMIN = math.sqrt(_TINY_OVER_EPS)
_RMAX = math.sqrt(1.0 / _TINY_OVER_EPS)


@functools.cache
def _dsterf():
    """LAPACK's `dsterf` from the OpenBLAS in numpy's wheel, or None.

    numpy's wheels ship scipy-openblas64 as
    `<site-packages>/numpy.libs/libscipy_openblas64_*.so`; `find_spec`
    locates numpy without importing it, and ctypes loads the library
    alone.  Its symbols carry a `scipy_` prefix and a `64_` suffix, and its
    integers are 64-bit.  A numpy built against another LAPACK, or whose
    wheel bundles an older OpenBLAS, has no such file.
    """
    import ctypes
    import importlib.util
    from pathlib import Path

    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return None
    libs = Path(spec.origin).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            dsterf = ctypes.CDLL(str(path)).scipy_dsterf_64_
        except (OSError, AttributeError):
            continue
        integer = ctypes.POINTER(ctypes.c_int64)
        array = ctypes.POINTER(ctypes.c_double)
        dsterf.argtypes = [integer, array, array, integer]
        dsterf.restype = None
        return dsterf
    return None


def finite_section_spectrum(c: Coding, coeff: CoefficientMap, size: int,
                            budget: int = DEFAULT_BUDGET) -> tuple[float, ...]:
    """Eigenvalues of the finite section, sorted ascending.

    LAPACK's `dsterf` (root-free QL/QR), called through ctypes from the
    OpenBLAS bundled in numpy's wheel, runs on the diagonal and
    off-diagonal directly, in O(N^2) time and O(N) memory, and returns the
    same floats as the dense `np.linalg.eigvalsh`: its `dsyevd` leaves a
    tridiagonal matrix as it is and calls `dsterf` too, after two steps
    repeated here.  It scales the matrix by sigma when the largest entry
    lies outside [sqrt(tiny/eps), sqrt(eps/tiny)] and multiplies the
    eigenvalues by 1/sigma; and its dense sum turns a -0.0 diagonal entry
    into 0.0, hence `+ 0.0`.  Each step is one IEEE operation per entry on
    Python floats, the one numpy does, so numpy is not imported.  Where
    numpy's wheel carries no such library, numpy's dense `eigvalsh` of the
    assembled matrix runs instead, and where numpy is not installed either,
    ValueError says so.

    A size-N section still counts N * N entries against `budget`, as the
    dense solver did, so `--budget` stops the same sizes.  Infinite or NaN
    entries raise ValueError before either solver runs, and a `dsterf`
    that does not converge raises `np.linalg.LinAlgError`, a ValueError.
    """
    if size >= 2 and size * size > budget:
        raise BudgetExceeded(
            f"a {size} x {size} finite section exceeds the budget of "
            f"{budget} matrix entries"
        )
    diag, off = finite_section(c, coeff, size, budget)
    _warn_if_degenerate(coeff)
    entries = diag + off
    if not all(map(math.isfinite, entries)):
        raise ValueError("array must not contain infs or NaNs")
    dsterf = _dsterf()
    if dsterf is None:
        try:
            import numpy as np
        except ImportError:
            raise ValueError("finite sections need numpy: neither its "
                             "bundled LAPACK dsterf nor numpy was found"
                             ) from None

        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return tuple(np.linalg.eigvalsh(matrix).tolist())

    import ctypes

    norm = max(map(abs, entries))
    sigma = 1.0
    if 0 < norm < _RMIN:
        sigma = _RMIN / norm
    elif norm > _RMAX:
        sigma = _RMAX / norm
    # dsterf overwrites both arrays, and leaves the eigenvalues in d
    d = (ctypes.c_double * size)(*[(v + 0.0) * sigma for v in diag])
    e = (ctypes.c_double * (size - 1))(*[v * sigma for v in off])
    info = ctypes.c_int64()
    dsterf(ctypes.byref(ctypes.c_int64(size)), d, e, ctypes.byref(info))
    if info.value > 0:
        import numpy as np

        raise np.linalg.LinAlgError(
            f"dsterf did not converge (LAPACK info={info.value})")
    inverse = 1.0 / sigma
    return tuple([v * inverse for v in d])


def energy_grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def lyapunov_over_grid(c: Coding, coeff: CoefficientMap,
                       energies: Sequence[Number], n: int,
                       budget: int = DEFAULT_BUDGET) -> list[LyapunovEstimate]:
    """(1/k) log ||cocycle(k)|| at k = n/4, n/2, n for every energy.

    The walk numbers the letter pairs its steps read once, one byte a
    step, and then takes the energies one at a time, each with a table of
    ((E - q1) / p2, -p1 / p2) per pair, so only the estimates grow with the
    grid.  Every step matrix has bottom row (1, 0), so the product's columns
    (a, x) and (b, y) follow the two-term recurrences a, x <- s a + sb x, a
    on scalar floats.  Every RENORM_EVERY steps the product is rescaled by
    its largest entry with the log kept apart, so n ~ 2^16 stays inside
    float range; where a checkpoint falls on the same step, the rescaling
    comes first.  An energy's result does not depend on the rest of the
    grid.  A value that is not finite, because an entry or a checkpoint norm
    overflowed a float, raises OverflowError at the first such energy.

    A launch at n = 4096 on a shared 2-core host was faster than one that
    imports numpy and walks the whole grid with it, up to somewhere between
    250 and 400 energies (README), and slower above.
    """
    if n < 1:
        raise IndexError("lyapunov estimates need n >= 1")
    _warn_if_degenerate(coeff)
    grid = [float(E) for E in energies]
    if not grid:
        return []
    word = memoryview(word_prefix(c, n + 2, budget))
    # step k reads the letter pair (word[k + 1], word[k + 2]).  One of two
    # adjacent symbols is always the first level's letter, and n symbols
    # hold at most log2(n) + 1 letters, so the pairs' numbers fit a byte
    kind_of = {pair: i for i, pair in enumerate(set(zip(word[1:], word[2:])))}
    kinds = bytes(map(kind_of.__getitem__, zip(word[1:], word[2:])))
    p, q = coeff.p_values, coeff.q_values
    pairs = [(float(q[first]), float(p[second]),
              -float(p[first]) / float(p[second])) for first, second in kind_of]
    checkpoints = sorted({max(1, n // 4), max(1, n // 2), n})
    ends = sorted([*range(RENORM_EVERY, n + 1, RENORM_EVERY),
                   *(k for k in checkpoints if k % RENORM_EVERY)])
    estimates = []
    for E in grid:
        steps = [((E - q1) / p2, sb) for q1, p2, sb in pairs]
        a, b, x, y = 1.0, 0.0, 0.0, 1.0  # top row (a, b), bottom row (x, y)
        log_scale, samples, start = 0.0, [], 0
        for stop in ends:
            for s, sb in map(steps.__getitem__, kinds[start:stop]):
                a, x = s * a + sb * x, a
                b, y = s * b + sb * y, b
            if stop % RENORM_EVERY == 0:
                scale = max(abs(a), abs(b), abs(x), abs(y))
                if scale > 0:  # not for an all-zero product, nor a NaN scale
                    a, b, x, y = a / scale, b / scale, x / scale, y / scale
                    log_scale += math.log(scale)
            if stop in checkpoints:
                norm = TransferMatrix(a, b, x, y).operator_norm()
                log_norm = math.log(max(norm, 1e-300))
                samples.append((stop, (log_scale + log_norm) / stop))
            start = stop
        if not math.isfinite(samples[-1][1]):
            raise OverflowError("the cocycle overflows a float")
        estimates.append(LyapunovEstimate(E, samples[-1][1], tuple(samples)))
    return estimates
