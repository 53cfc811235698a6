"""Cocycles, Lyapunov estimates, and finite-section spectra."""

import math
import random
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import make_battery, periodic_codings
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cover_length, numpy_lyapunov_over_grid, spectral_bounds

from toeplitz import spectral
from toeplitz.coding import Alphabet, Coding, CodingEntry, PeriodicTail, normalize
from toeplitz.presets import preset
from toeplitz.spectral import (
    RENORM_EVERY,
    CoefficientMap,
    TransferMatrix,
    energy_grid,
    finite_section,
    finite_section_spectrum,
    lyapunov_over_grid,
    step_matrix,
    transfer_cocycle,
)
from toeplitz.words import word_prefix


@pytest.fixture(scope="module")
def grig_coeff(grig):
    return CoefficientMap.from_names(grig.alphabet,
                                     q={"a": 0, "x": 1, "y": 2, "z": 3})


@pytest.fixture(scope="module")
def free_coeff(grig):
    return CoefficientMap(grig.alphabet, (1,) * 4, (0,) * 4)


def one_energy_estimate(c, coeff, E, n):
    """The grid's estimate at one energy."""
    [est] = lyapunov_over_grid(c, coeff, [E], n)
    return est


def exact_log_norm(m: TransferMatrix) -> float:
    """log of the largest singular value of a matrix of Fractions.

    sigma_max^2 = (f + sqrt(f^2 - 4 det^2)) / 2 with f the squared Frobenius
    norm; f and the discriminant are exact, and the square root and log
    run in 60-digit decimals.
    """
    f = Fraction(m.a ** 2 + m.b ** 2 + m.c ** 2 + m.d ** 2)
    disc = f * f - 4 * Fraction(m.det()) ** 2
    with localcontext() as ctx:
        ctx.prec = 60
        f_dec = Decimal(f.numerator) / f.denominator
        disc_dec = Decimal(disc.numerator) / disc.denominator
        return float(((f_dec + disc_dec.sqrt()) / 2).ln() / 2)


def exact_of_floats(values) -> tuple[Fraction, ...]:
    """The exact values of the floats the grid walk receives: 7/5 enters it
    as float(7/5), not 7/5."""
    return tuple(Fraction(float(v)) for v in values)


def assert_grid_is_exact(c, coeff, energies, n):
    """Every grid value and sample is log sigma_max(M_k) / k of the exact
    product of the walk's float coefficients: log sigma_max within 1e-12
    relative, or within 1e-12 where it is below 1 (sigma_max itself still
    agrees within 1e-12 relative there)."""
    exact = CoefficientMap(c.alphabet, exact_of_floats(coeff.p_values),
                           exact_of_floats(coeff.q_values))
    steps = sorted({max(1, n // 4), max(1, n // 2), n})
    for est in lyapunov_over_grid(c, coeff, energies, n):
        assert [k for k, _ in est.samples] == steps
        assert est.value == est.samples[-1][1]
        for k, got in est.samples:
            m = transfer_cocycle(c, exact, Fraction(est.energy), k)
            want = exact_log_norm(m) / k
            assert abs(got - want) <= 1e-12 * max(abs(want), 1 / k), \
                (est.energy, k)


@pytest.fixture(autouse=True)
def quiet_degenerate_warning():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="all letters map to identical")
        yield


class TestCocycle:
    def test_zero_steps_is_identity(self, grig, grig_coeff):
        assert transfer_cocycle(grig, grig_coeff, 0.5, 0) == \
            TransferMatrix.identity()

    def test_window_determinants_exact(self, grig, grig_coeff):
        coeff = CoefficientMap.from_names(
            grig.alphabet, q={"a": 0, "x": 1, "y": 2, "z": 3},
            p={"a": 2, "x": 3, "y": 5, "z": 7},
        )
        word = word_prefix(grig, 20)
        for k in range(16):
            first, second = word[k + 1], word[k + 2]
            m = step_matrix(coeff, Fraction(1, 3), first, second)
            p = coeff.p_values
            assert m.det() == Fraction(p[first], p[second])

    def test_window_determinants_float(self, grig):
        coeff = CoefficientMap.from_names(
            grig.alphabet, q={"a": 0.0, "x": 1.0, "y": 2.0, "z": 3.0},
            p={"a": 1.5, "x": 0.5, "y": 2.5, "z": 1.25},
        )
        word = word_prefix(grig, 20)
        for k in range(16):
            first, second = word[k + 1], word[k + 2]
            m = step_matrix(coeff, 0.25, first, second)
            p = coeff.p_values
            assert abs(m.det() - p[first] / p[second]) <= 1e-12

    def test_schrodinger_determinant_exact_mode(self, grig, grig_coeff):
        m = transfer_cocycle(grig, grig_coeff, Fraction(1, 2), 200)
        assert m.det() == 1

    def test_schrodinger_determinant_float_mode(self, grig, grig_coeff):
        m = transfer_cocycle(grig, grig_coeff, 0.0, 512)
        assert abs(m.det() - 1.0) <= 1e-12

    def test_composition_law(self, grig, grig_coeff):
        rng = random.Random(11)
        word = word_prefix(grig, 200)
        for _ in range(6):
            n, m = rng.randint(1, 60), rng.randint(1, 60)
            energy = rng.uniform(-1.5, 1.5)
            full = transfer_cocycle(grig, grig_coeff, energy, n + m)
            right = transfer_cocycle(grig, grig_coeff, energy, m)
            shifted = TransferMatrix.identity()
            for k in range(m, m + n):
                shifted = step_matrix(grig_coeff, energy,
                                      word[k + 1], word[k + 2]) @ shifted
            combined = shifted @ right
            for field in "abcd":
                a, b = getattr(full, field), getattr(combined, field)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


small = st.fractions(-3, 3, max_denominator=8)
nonzero = small.filter(bool)
# products of these underflow to zero or overflow a float
extreme = st.sampled_from([1e150, -1e150, 1e-150, -1e-150])
BATTERY = make_battery()


def walk_outcome(walk, *args) -> str:
    """The repr of every estimate, or the overflow; repr, as a checkpoint
    sample is NaN where `operator_norm`'s f * f overflows."""
    try:
        return repr(walk(*args))
    except OverflowError:
        return "OverflowError"


class TestLyapunov:
    def test_free_energy_zero_vanishes(self, grig, free_coeff):
        est = one_energy_estimate(grig, free_coeff, 0.0, 2048)
        assert abs(est.value) <= 1e-9

    def test_positive_outside_spectrum(self, grig, grig_coeff):
        lo, hi = spectral_bounds(grig_coeff)
        for energy in (hi + 1.0, lo - 1.0):
            est = one_energy_estimate(grig, grig_coeff, energy, 4096)
            assert est.value > 0
            assert all(v > 0 for _, v in est.samples)

    def test_grigorchuk_regression_values(self, grig, grig_coeff):
        # regression fixtures, not ground truth.  At E = 0 the exponent is
        # zero: the estimate stays finite, nonnegative and keeps shrinking
        # (norms grow subexponentially), so n/2 -> n stability can only be
        # asked of hyperbolic energies.
        est = one_energy_estimate(grig, grig_coeff, 0.0, 1 << 16)
        assert est.value >= 0
        values = [v for _, v in est.samples]
        assert values[0] > values[1] > values[2]
        assert est.value <= 2e-4
        hyper = one_energy_estimate(grig, grig_coeff, 8.0, 1 << 16)
        half = dict(hyper.samples)[1 << 15]
        assert abs(hyper.value - half) <= 0.1 * max(abs(hyper.value), abs(half))

    def test_survives_huge_products(self, grig, grig_coeff):
        # hyperbolic energy, 2^16 steps: raw entries overflow without
        # renormalization
        est = one_energy_estimate(grig, grig_coeff, 8.0, 1 << 16)
        assert math.isfinite(est.value) and est.value > 1.0

    @pytest.mark.parametrize("p, n", [
        (None, 1000), ({"a": 1.5, "x": 0.5, "y": 2.5, "z": 1.25}, 256),
    ], ids=["unit-p", "varied-p"])
    @pytest.mark.parametrize("coding", ["grigorchuk", "l-grigorchuk(1,3)"])
    def test_grid_equals_exact_cocycle(self, coding, p, n):
        c = preset(coding)
        coeff = CoefficientMap.from_names(
            c.alphabet, q={"a": 0, "x": 1, "y": 2, "z": 3}, p=p)
        lo, hi = spectral_bounds(coeff)
        assert_grid_is_exact(c, coeff, energy_grid(lo - 1.0, hi + 1.0, 19), n)

    @settings(max_examples=40, deadline=None)
    @given(c=periodic_codings(), p=st.lists(nonzero, min_size=4, max_size=4),
           q=st.lists(small, min_size=4, max_size=4),
           energies=st.lists(small.map(float), min_size=3, max_size=3),
           n=st.integers(1, 96))
    # against the exact 7/5 rather than float(7/5), the error was 1.37e-12
    @example(c=normalize(Coding(Alphabet.from_names("abcd"), (), PeriodicTail(
                 (CodingEntry(2, 3), CodingEntry(3, 3))))),
             p=[1, 1, Fraction(7, 5), 2], q=[0, 0, 3, Fraction(-7, 8)],
             energies=[0.0, 0.0, -2.0], n=36)
    def test_grid_equals_exact_cocycle_on_periodic_codings(self, c, p, q,
                                                           energies, n):
        letters = len(c.alphabet.names)
        coeff = CoefficientMap(c.alphabet, tuple(p[:letters]),
                               tuple(q[:letters]))
        assert_grid_is_exact(c, coeff, energies, n)

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, len(BATTERY) - 1),
           p=st.lists(st.one_of(nonzero, extreme), min_size=5, max_size=5),
           q=st.lists(st.one_of(small, extreme), min_size=5, max_size=5),
           energies=st.lists(st.one_of(small.map(float), extreme),
                             min_size=1, max_size=6),
           n=st.sampled_from([1, 31, 32, 33, 1000]))
    # at k = 32, E = -1 has one column of zeros and one of NaNs, so the
    # largest absolute entry `max` finds is 0.0, where np.max finds NaN
    @example(index=18, p=[-1e150, 1e-150, Fraction(1, 8), 1, 1],
             q=[-1, -3, -3, 0, 0], energies=[-3.0, -1.0], n=32)
    # E = -1 alone: the walk raises at the first energy that overflows, so
    # after E = -3 it never reaches the scale of 0.0
    @example(index=18, p=[-1e150, 1e-150, Fraction(1, 8), 1, 1],
             q=[-1, -3, -3, 0, 0], energies=[-1.0], n=32)
    # moderate values at n = 32, where the last checkpoint ends a rescaling
    # block: the order of the two, the rescaling period, its log and the
    # two-term recurrences all show in the last bits
    @example(index=0, p=[1, 2, 0.5, 1.5, 1], q=[0, 1, 2, 3, 0],
             energies=[-3.0, 0.5, 5.0], n=32)
    def test_grid_matches_the_numpy_walk_bit_for_bit(self, index, p, q,
                                                     energies, n):
        c = BATTERY[index]
        letters = len(c.alphabet.names)
        coeff = CoefficientMap(c.alphabet, tuple(p[:letters]),
                               tuple(q[:letters]))
        assert walk_outcome(lyapunov_over_grid, c, coeff, energies, n) == \
            walk_outcome(numpy_lyapunov_over_grid, c, coeff, energies, n)

    def test_grid_energies_are_independent(self, grig, grig_coeff):
        lo, hi = spectral_bounds(grig_coeff)
        grid = energy_grid(lo - 1.0, hi + 1.0, 19)
        n = 1000
        assert n % RENORM_EVERY
        assert lyapunov_over_grid(grig, grig_coeff, grid, n) == \
            [one_energy_estimate(grig, grig_coeff, E, n) for E in grid]

    def test_one_energy_walk_holds_a_few_bytes_per_step(self, grig, grig_coeff):
        # the word and the letter-pair kind of each step take a byte a step,
        # and `word_prefix` peaks at 4 bytes a step while it builds the
        # word; a list of n step references would hold 8 more
        n = 1 << 18
        tracemalloc.start()
        try:
            one_energy_estimate(grig, grig_coeff, 0.5, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n

    def test_grid_edge_cases(self, grig, grig_coeff):
        assert lyapunov_over_grid(grig, grig_coeff, [], 64) == []
        with pytest.raises(IndexError):
            lyapunov_over_grid(grig, grig_coeff, [0.0], 0)

    @pytest.mark.parametrize("E, n", [(1e15, 100), (1e4, 20)],
                             ids=["nan", "inf"])
    def test_non_finite_estimates_raise(self, grig, grig_coeff, E, n):
        # entries overflow between rescalings: the finite energy in the same
        # grid does not rescue the scan
        with pytest.raises(OverflowError):
            lyapunov_over_grid(grig, grig_coeff, [0.5, E], n)


class TestFiniteSections:
    def test_two_site_free_section(self, grig, free_coeff):
        approx = finite_section_spectrum(grig, free_coeff, 2)
        assert approx == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_free_case_closed_form(self, grig, free_coeff):
        n = 64
        approx = finite_section_spectrum(grig, free_coeff, n)
        want = sorted(2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1))
        assert max(
            abs(a - b) for a, b in zip(approx, want)
        ) <= 1e-10

    def test_matrix_follows_operator_rows(self, grig, grig_coeff):
        diag, off = finite_section(grig, grig_coeff, 8)
        word = word_prefix(grig, 9)
        assert list(diag) == [grig_coeff.q_values[word[k]] for k in range(8)]
        assert list(off) == [grig_coeff.p_values[word[k + 1]] for k in range(7)]

    def test_interlacing(self, grig, grig_coeff):
        for n in (4, 8, 15):
            small = finite_section_spectrum(grig, grig_coeff, n)
            large = finite_section_spectrum(grig, grig_coeff, n + 1)
            for j in range(n):
                assert large[j] <= small[j] + 1e-10
                assert small[j] <= large[j + 1] + 1e-10

    def test_eigenvalues_inside_gershgorin_box(self, grig, grig_coeff, battery):
        lo, hi = spectral_bounds(grig_coeff)
        for size in (16, 64):
            approx = finite_section_spectrum(grig, grig_coeff, size)
            assert min(approx) >= lo - 1e-12
            assert max(approx) <= hi + 1e-12

    def test_cover_merges_overlapping_intervals(self, grig, free_coeff):
        ev = finite_section_spectrum(grig, free_coeff, 16)
        # wide delta glues everything into one interval
        assert cover_length(ev, 1.0) == pytest.approx(ev[-1] - ev[0] + 2.0)
        assert cover_length((0.0, 0.5, 3.0), 0.5) == pytest.approx(2.5)

    def test_cover_trend(self, grig, grig_coeff):
        small = finite_section_spectrum(grig, grig_coeff, 256)
        large = finite_section_spectrum(grig, grig_coeff, 512)
        assert cover_length(large, 0.05) <= \
            cover_length(small, 0.05) + 0.1


def dense_eigenvalues(diag, off) -> list[str]:
    """The reference: numpy's dense solver on the assembled matrix, as reprs."""
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return [repr(float(v)) for v in np.linalg.eigvalsh(matrix)]


def assert_matches_dense(c, coeff, size):
    diag, off = finite_section(c, coeff, size)
    got = finite_section_spectrum(c, coeff, size)
    assert [repr(v) for v in got] == dense_eigenvalues(diag, off), size


# (q, p) as functions of the letter index.  "signed-zero" makes the solver
# split off -0.0 eigenvalues; "huge" and "tiny" put the largest entry above
# sqrt(eps/tiny) and below sqrt(tiny/eps), where the matrix is scaled
SECTION_MAPS = {
    "index": (lambda i: float(i), lambda i: 1.0),
    "negative-p": (lambda i: 1.5 - i, lambda i: (-1) ** i * (i + 0.5)),
    "signed-zero": (lambda i: 1.0 if i == 2 else -0.0,
                    lambda i: (-1.0, 1e-300, 2.0, 1.0, 3.0)[i]),
    "huge": (lambda i: (i - 1.5) * 1e300, lambda i: (-1) ** i * (i + 2) * 3e299),
    "tiny": (lambda i: -(i + 3) * 1e-300, lambda i: (-1) ** i * (i + 2) * 1e-300),
}
SECTION_CODINGS = {"grigorchuk": preset("grigorchuk"),
                   "l-grigorchuk(1,3)": preset("l-grigorchuk(1,3)"),
                   **{f"battery-{j}": c
                      for j, c in enumerate(make_battery()[:3])}}

magnitude = st.sampled_from([1e-320, 1e-300, 1e-200, 1e-147, 1.0,
                             1e147, 1e200, 1e300, 1e304])


def assert_section_maps_match_dense(name, qp):
    c, (q, p) = SECTION_CODINGS[name], SECTION_MAPS[qp]
    letters = range(len(c.alphabet.names))
    coeff = CoefficientMap(c.alphabet, tuple(map(p, letters)),
                           tuple(map(q, letters)))
    for size in (2, 3, 17, 256, 1024):
        assert_matches_dense(c, coeff, size)


class TestDenseIdentity:
    """The tridiagonal solver prints the same floats as the dense one, and
    so does the dense fallback that runs where numpy bundles no `dsterf`."""

    @pytest.mark.parametrize("qp", SECTION_MAPS)
    @pytest.mark.parametrize("name", SECTION_CODINGS)
    def test_presets_and_battery(self, name, qp):
        assert_section_maps_match_dense(name, qp)

    @pytest.mark.parametrize("qp", SECTION_MAPS)
    @pytest.mark.parametrize("name", SECTION_CODINGS)
    def test_presets_and_battery_without_bundled_lapack(self, monkeypatch,
                                                        name, qp):
        monkeypatch.setattr(spectral, "_dsterf", lambda: None)
        assert_section_maps_match_dense(name, qp)

    def test_bundled_lapack_is_found_where_numpy_ships_it(self):
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        shipped = any(libs.glob("libscipy_openblas64_*.so"))
        assert (spectral._dsterf() is not None) == shipped

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["q", "p"])
    @pytest.mark.parametrize("solver", ["dsterf", "dense"])
    def test_non_finite_entries_raise(self, monkeypatch, grig, solver, field,
                                      bad):
        if solver == "dense":
            monkeypatch.setattr(spectral, "_dsterf", lambda: None)
        values = {"q": [0.0, 1.0, 2.0, 3.0], "p": [1.0] * 4}
        values[field][1] = bad
        coeff = CoefficientMap(grig.alphabet, tuple(values["p"]),
                               tuple(values["q"]))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            finite_section_spectrum(grig, coeff, 16)

    def test_unconverged_dsterf_raises(self, monkeypatch, grig, grig_coeff):
        def unconverged(n, d, e, info):
            info._obj.value = 1

        monkeypatch.setattr(spectral, "_dsterf", lambda: unconverged)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            finite_section_spectrum(grig, grig_coeff, 8)

    @settings(max_examples=150, deadline=None)
    @given(c=periodic_codings(), data=st.data(), size=st.integers(2, 64),
           scale=magnitude)
    def test_extreme_magnitudes_and_signed_zeros(self, c, data, size, scale):
        scaled = st.floats(-4, 4).map(lambda v: v * scale)
        q_value = st.one_of(st.just(-0.0), scaled)
        p_value = scaled.filter(bool)
        coeff = CoefficientMap(
            c.alphabet,
            tuple(data.draw(p_value) for _ in c.alphabet.names),
            tuple(data.draw(q_value) for _ in c.alphabet.names))
        assert_matches_dense(c, coeff, size)


class TestCoefficientMap:
    def test_zero_p_rejected(self, grig):
        with pytest.raises(ValueError):
            CoefficientMap(grig.alphabet, (1, 0, 1, 1), (0,) * 4)

    def test_degenerate_map_warns(self, grig, free_coeff):
        with pytest.warns(UserWarning, match="identical"):
            finite_section_spectrum(grig, free_coeff, 4)
        with pytest.warns(UserWarning, match="identical") as record:
            lyapunov_over_grid(grig, free_coeff, [0.0, 0.5, 1.0], 8)
        assert len(record) == 1 and record[0].filename == __file__
