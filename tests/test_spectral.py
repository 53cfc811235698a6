"""Cocycles, Lyapunov estimates, and finite-section spectra."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from toeplitz.presets import preset
from toeplitz.spectral import (
    RENORM_EVERY,
    CoefficientMap,
    TransferMatrix,
    energy_grid,
    finite_section,
    finite_section_spectrum,
    lyapunov_estimate,
    lyapunov_over_grid,
    spectral_bounds,
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
    return CoefficientMap.constant(grig.alphabet)


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
            assert m.det() == Fraction(coeff.p(first), coeff.p(second))

    def test_window_determinants_float(self, grig):
        coeff = CoefficientMap.from_names(
            grig.alphabet, q={"a": 0.0, "x": 1.0, "y": 2.0, "z": 3.0},
            p={"a": 1.5, "x": 0.5, "y": 2.5, "z": 1.25},
        )
        word = word_prefix(grig, 20)
        for k in range(16):
            first, second = word[k + 1], word[k + 2]
            m = step_matrix(coeff, 0.25, first, second)
            assert abs(m.det() - coeff.p(first) / coeff.p(second)) <= 1e-12

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


class TestLyapunov:
    def test_free_energy_zero_vanishes(self, grig, free_coeff):
        est = lyapunov_estimate(grig, free_coeff, 0.0, 2048)
        assert abs(est.value) <= 1e-9

    def test_positive_outside_spectrum(self, grig, grig_coeff):
        lo, hi = spectral_bounds(grig_coeff)
        for energy in (hi + 1.0, lo - 1.0):
            est = lyapunov_estimate(grig, grig_coeff, energy, 4096)
            assert est.value > 0
            assert all(v > 0 for _, v in est.samples)

    def test_grigorchuk_regression_values(self, grig, grig_coeff):
        # regression fixtures, not ground truth.  At E = 0 the exponent is
        # zero: the estimate stays finite, nonnegative and keeps shrinking
        # (norms grow subexponentially), so n/2 -> n stability can only be
        # asked of hyperbolic energies.
        est = lyapunov_estimate(grig, grig_coeff, 0.0, 1 << 16)
        assert est.value >= 0
        values = [v for _, v in est.samples]
        assert values[0] > values[1] > values[2]
        assert est.value <= 2e-4
        hyper = lyapunov_estimate(grig, grig_coeff, 8.0, 1 << 16)
        half = dict(hyper.samples)[1 << 15]
        assert abs(hyper.value - half) <= 0.1 * max(abs(hyper.value), abs(half))

    def test_survives_huge_products(self, grig, grig_coeff):
        # hyperbolic energy, 2^16 steps: raw entries overflow without
        # renormalization
        est = lyapunov_estimate(grig, grig_coeff, 8.0, 1 << 16)
        assert math.isfinite(est.value) and est.value > 1.0

    @pytest.mark.parametrize("p", [None, {"a": 1.5, "x": 0.5, "y": 2.5,
                                          "z": 1.25}], ids=["unit-p", "varied-p"])
    @pytest.mark.parametrize("coding", ["grigorchuk", "l-grigorchuk(1,3)"])
    def test_grid_equals_scalar_loop(self, coding, p):
        c = preset(coding)
        coeff = CoefficientMap.from_names(
            c.alphabet, q={"a": 0, "x": 1, "y": 2, "z": 3}, p=p)
        lo, hi = spectral_bounds(coeff)
        grid = energy_grid(lo - 1.0, hi + 1.0, 19)
        n = 1000
        assert n % RENORM_EVERY
        got = lyapunov_over_grid(c, coeff, grid, n)
        # exact: energies, values and samples, not approx
        assert got == [lyapunov_estimate(c, coeff, E, n) for E in grid]

    def test_grid_edge_cases(self, grig, grig_coeff):
        assert lyapunov_over_grid(grig, grig_coeff, [], 64) == []
        with pytest.raises(IndexError):
            lyapunov_over_grid(grig, grig_coeff, [0.0], 0)


class TestFiniteSections:
    def test_two_site_free_section(self, grig, free_coeff):
        approx = finite_section_spectrum(grig, free_coeff, 2)
        assert approx.eigenvalues == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_free_case_closed_form(self, grig, free_coeff):
        n = 64
        approx = finite_section_spectrum(grig, free_coeff, n)
        want = sorted(2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1))
        assert max(
            abs(a - b) for a, b in zip(approx.eigenvalues, want)
        ) <= 1e-10

    def test_matrix_follows_operator_rows(self, grig, grig_coeff):
        diag, off = finite_section(grig, grig_coeff, 8)
        word = word_prefix(grig, 9)
        assert list(diag) == [grig_coeff.q(word[k]) for k in range(8)]
        assert list(off) == [grig_coeff.p(word[k + 1]) for k in range(7)]

    def test_interlacing(self, grig, grig_coeff):
        for n in (4, 8, 15):
            small = finite_section_spectrum(grig, grig_coeff, n).eigenvalues
            large = finite_section_spectrum(grig, grig_coeff, n + 1).eigenvalues
            for j in range(n):
                assert large[j] <= small[j] + 1e-10
                assert small[j] <= large[j + 1] + 1e-10

    def test_eigenvalues_inside_gershgorin_box(self, grig, grig_coeff, battery):
        lo, hi = spectral_bounds(grig_coeff)
        for size in (16, 64):
            approx = finite_section_spectrum(grig, grig_coeff, size)
            assert min(approx.eigenvalues) >= lo - 1e-12
            assert max(approx.eigenvalues) <= hi + 1e-12

    def test_cover_merges_overlapping_intervals(self, grig, free_coeff):
        approx = finite_section_spectrum(grig, free_coeff, 16)
        cover = approx.cover(1.0)
        assert len(cover) == 1  # wide delta glues everything
        assert approx.cover_length(1.0) == pytest.approx(
            cover[0][1] - cover[0][0]
        )

    def test_cover_trend(self, grig, grig_coeff):
        small = finite_section_spectrum(grig, grig_coeff, 256)
        large = finite_section_spectrum(grig, grig_coeff, 512)
        assert large.cover_length(0.05) <= small.cover_length(0.05) + 0.1


class TestCoefficientMap:
    def test_zero_p_rejected(self, grig):
        with pytest.raises(ValueError):
            CoefficientMap.constant(grig.alphabet, p=0)

    def test_degenerate_map_warns(self, grig, free_coeff):
        with pytest.warns(UserWarning, match="identical"):
            finite_section_spectrum(grig, free_coeff, 4)
        with pytest.warns(UserWarning, match="identical") as record:
            lyapunov_over_grid(grig, free_coeff, [0.0, 0.5, 1.0], 8)
        assert len(record) == 1 and record[0].filename == __file__
