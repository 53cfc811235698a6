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
Python floats, and returns one Lyapunov estimate (1/n) log ||cocycle(n)||
per energy, a float.  Where every letter it reads shares one p, so that
each step's off-diagonal ratio is -1 exactly, it walks four steps per
iteration and subtracts in place of that multiply, with the same bytes.
The tests hold the float walk to the exact one, and bit for bit to a
numpy walk over the whole grid.

Finite sections are truncations to positions 0..N-1 of the one-sided
representative word with zero boundary conditions: real symmetric
tridiagonal matrices whose spectra approximate the operator spectrum.
They stay as a diagonal and an off-diagonal of Python floats; LAPACK's
tridiagonal driver `dstev`, called through ctypes from the OpenBLAS bundled
in numpy's wheel, takes their eigenvalues in O(N^2) time and O(N) memory,
the same floats a dense solver gives, without importing numpy.  Only
sections where numpy bundles no such library import numpy: its dense
`eigvalsh` takes their eigenvalues instead.  Cantor structure or
measure-zero claims are never asserted here.

Each import sits where it is used: `fractions` in the exact mode's division,
`ctypes`, `importlib.util` and `pathlib` in the finite sections' search for
`dstev` and call of it, and numpy in their fallback.  A Lyapunov scan
loads none of them.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .coding import Alphabet, Coding, checked_record
from .errors import TooSmall, charge
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
        raise TooSmall("cocycle step count must be >= 0")
    _warn_if_degenerate(coeff)
    word = word_prefix(c, n + 2, budget)
    out = TransferMatrix.identity()
    for k in range(n):
        out = step_matrix(coeff, E, word[k + 1], word[k + 2]) @ out
    return out


RENORM_EVERY = 32


def finite_section(c: Coding, coeff: CoefficientMap, size: int,
                   budget: int = DEFAULT_BUDGET) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of the truncation to positions 0..size-1.

    The coupling between sites k and k+1 is p at the letter of position
    k + 1, matching the operator's row structure.
    """
    if size < 2:
        raise TooSmall("finite sections need size >= 2")
    word = word_prefix(c, size + 1, budget)
    qs = [float(v) for v in coeff.q_values]
    ps = [float(v) for v in coeff.p_values]
    return [qs[w] for w in word[:size]], [ps[w] for w in word[1:size]]


@functools.cache
def _dstev():
    """LAPACK's `dstev` from the OpenBLAS in numpy's wheel, or None.

    numpy's wheels ship scipy-openblas64 as
    `<site-packages>/numpy.libs/libscipy_openblas64_*.so`; `find_spec`
    locates numpy without importing it, and ctypes loads the library
    alone.  Its symbols carry a `scipy_` prefix and a `64_` suffix, and its
    integers are 64-bit; a Fortran CHARACTER argument adds a hidden length
    after the others.  A numpy built against another LAPACK, or whose
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
            dstev = ctypes.CDLL(str(path)).scipy_dstev_64_
        except (OSError, AttributeError):
            continue
        integer = ctypes.POINTER(ctypes.c_int64)
        array = ctypes.POINTER(ctypes.c_double)
        # JOBZ, N, D, E, Z, LDZ, WORK, INFO and JOBZ's length
        dstev.argtypes = [ctypes.c_char_p, integer, array, array, array,
                          integer, array, integer, ctypes.c_size_t]
        dstev.restype = None
        return dstev
    return None


def finite_section_spectrum(c: Coding, coeff: CoefficientMap, size: int,
                            budget: int = DEFAULT_BUDGET) -> tuple[float, ...]:
    """Eigenvalues of the finite section, sorted ascending.

    LAPACK's tridiagonal driver `dstev`, called through ctypes from the
    OpenBLAS bundled in numpy's wheel, runs on the diagonal and
    off-diagonal directly, in O(N^2) time and O(N) memory, and returns the
    same floats as the dense `np.linalg.eigvalsh`: its `dsyevd` leaves a
    tridiagonal matrix as it is, scales it as `dstev` does when the largest
    entry lies outside [sqrt(tiny/eps), sqrt(eps/tiny)], and calls the same
    root-free QL/QR `dsterf`.  Only numpy's dense sum adds a step: it turns
    a -0.0 diagonal entry into 0.0, hence `+ 0.0`.  So numpy is not
    imported.  Where numpy's wheel carries no such library, numpy's dense
    `eigvalsh` of the assembled matrix runs instead, and where numpy is not
    installed either, ValueError says so.

    A size-N section still counts N * N entries against `budget`, as the
    dense solver did, so `--budget` stops the same sizes.  Infinite or NaN
    entries raise ValueError before either solver runs, and a `dsterf`
    that does not converge raises `np.linalg.LinAlgError`, a ValueError.
    """
    if size >= 2:
        charge(size * size, budget, f"a {size} x {size} finite section",
               " matrix entries")
    diag, off = finite_section(c, coeff, size, budget)
    _warn_if_degenerate(coeff)
    if not all(map(math.isfinite, diag + off)):
        raise ValueError("array must not contain infs or NaNs")
    dstev = _dstev()
    if dstev is None:
        try:
            import numpy as np
        except ImportError:
            raise ValueError("finite sections need numpy: neither its "
                             "bundled LAPACK dsterf nor numpy was found"
                             ) from None

        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return tuple(np.linalg.eigvalsh(matrix).tolist())

    import ctypes

    # dstev overwrites both arrays, and leaves the eigenvalues in d; with
    # JOBZ = 'N' it reads neither Z nor WORK
    d = (ctypes.c_double * size)(*[v + 0.0 for v in diag])
    e = (ctypes.c_double * (size - 1))(*off)
    info = ctypes.c_int64()
    dstev(b"N", ctypes.byref(ctypes.c_int64(size)), d, e, None,
          ctypes.byref(ctypes.c_int64(1)), None, ctypes.byref(info), 1)
    if info.value > 0:  # the count of entries dsterf left unconverged
        import numpy as np

        raise np.linalg.LinAlgError(
            f"dsterf did not converge (LAPACK info={info.value})")
    return tuple(d)


def energy_grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def lyapunov_over_grid(c: Coding, coeff: CoefficientMap,
                       energies: Sequence[Number], n: int,
                       budget: int = DEFAULT_BUDGET) -> list[float]:
    """(1/n) log ||cocycle(n)|| for every energy, in grid order.

    The walk numbers the letter pairs its steps read once, one byte a
    step, and then takes the energies one at a time, each with a table of
    ((E - q1) / p2, -p1 / p2) per pair, so only the n-step values grow with
    the grid: one float each.  Every step matrix has bottom row (1, 0), so
    the product's columns (a, x) and (b, y) follow the two-term recurrences
    a, x <- s a + sb x, a on scalar floats.  Every RENORM_EVERY steps from
    step 0 the product is rescaled by its largest entry with the log kept
    apart, so n ~ 2^16 stays inside float range; at n itself the rescaling,
    if it falls there, comes before the norm.  A walk of length k thus runs
    the IEEE operations of the first k steps of any longer walk, and an
    energy's value does not depend on the rest of the grid.  A value that
    is not finite, because an entry or the final norm overflowed a float,
    raises OverflowError at the first such energy.

    Where every pair the walk reads has sb == -1.0 exactly, as when all
    letters share one p (the Schroedinger case, or `--p const=c`), the
    blocks that a rescaling ends go four steps at a time: once per call
    each aligned run of four pair numbers is numbered as one gram, and per
    energy a table gives each gram its (s1, s2, s3, s4).  There sb x is
    exactly -x, and s a + (-x) is exactly s a - x in IEEE arithmetic,
    signed zeros and infinities included; only a NaN's sign may differ,
    and a NaN entry always ends in OverflowError.  So each step drops the
    multiply by sb and keeps its bytes.  The steps after the last
    rescaling, fewer than RENORM_EVERY, take the one-step recurrence, as
    every step does for any other p.

    A launch at n = 4096 on a shared 2-core host was faster than one that
    imports numpy and walks the whole grid with it, up to somewhere between
    500 and 800 energies (README), and slower above.
    """
    if n < 1:
        raise TooSmall("lyapunov estimates need n >= 1")
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
    cut = n - n % RENORM_EVERY  # the steps of the blocks a rescaling ends
    fours = all(sb == -1.0 for _, _, sb in pairs)
    if fours:
        # the gram of steps 4j..4j+3 reads five adjacent symbols.  Those
        # that are not the first level's letter stand |p(1)| + 1 apart and
        # are adjacent symbols of the word of the coding's later levels, so
        # m letters make at most 5m + 1 grams; n symbols hold at most
        # log2(n) + 1 letters, so the grams' numbers fit a byte for any n a
        # host can store
        gram_of = {}
        grams = bytes(gram_of.setdefault(kinds[i:i + 4], len(gram_of))
                      for i in range(0, cut, 4))
    values = []
    for E in grid:
        steps = [((E - q1) / p2, sb) for q1, p2, sb in pairs]
        # one iterator zipped with itself hands out one block at a time
        if fours:
            s_of = [s for s, _ in steps]
            table = [(s_of[k1], s_of[k2], s_of[k3], s_of[k4])
                     for k1, k2, k3, k4 in gram_of]
            blocks = zip(*[map(table.__getitem__, grams)] * (RENORM_EVERY // 4))
        else:
            blocks = zip(*[map(steps.__getitem__, kinds[:cut])] * RENORM_EVERY)
        a, b, x, y = 1.0, 0.0, 0.0, 1.0  # top row (a, b), bottom row (x, y)
        log_scale = 0.0
        for block in blocks:
            if fours:  # x and a take turns holding the newer top entry
                for s1, s2, s3, s4 in block:
                    x = s1 * a - x
                    a = s2 * x - a
                    x = s3 * a - x
                    a = s4 * x - a
                    y = s1 * b - y
                    b = s2 * y - b
                    y = s3 * b - y
                    b = s4 * y - b
            else:
                for s, sb in block:
                    a, x = s * a + sb * x, a
                    b, y = s * b + sb * y, b
            scale = max(abs(a), abs(b), abs(x), abs(y))
            if scale > 0:  # not for an all-zero product, nor a NaN scale
                a, b, x, y = a / scale, b / scale, x / scale, y / scale
                log_scale += math.log(scale)
        for s, sb in map(steps.__getitem__, kinds[cut:]):
            a, x = s * a + sb * x, a
            b, y = s * b + sb * y, b
        norm = TransferMatrix(a, b, x, y).operator_norm()
        value = (log_scale + math.log(max(norm, 1e-300))) / n
        if not math.isfinite(value):
            raise OverflowError("the cocycle overflows a float")
        values.append(value)
    return values
