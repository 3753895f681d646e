import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iskak import spectral
from iskak.spectral import (
    MATRIX_MAX_N,
    PeriodicGrid,
    RealField,
    dealias,
    dp,
    dx,
    field_from_function,
    integrate,
    l2_norm,
    lap,
)

from conftest import random_band_limited


class TestGrid:
    def test_basic_layout(self):
        g = PeriodicGrid(64)
        assert g.spacing * g.n_points == pytest.approx(2.0 * np.pi, rel=1e-15)
        assert g.nodes[0] == 0.0
        assert g.wavenumbers_half[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [6, 9, 0, -8])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            PeriodicGrid(n)


class TestDeriv:
    def test_sin_to_cos(self, grid64):
        assert np.abs(dx(grid64, np.sin(grid64.nodes)) - np.cos(grid64.nodes)).max() <= 1e-12

    def test_constant_derivative_vanishes(self, grid64):
        v = np.full(64, 3.7)
        for out in (dx(grid64, v), lap(grid64, v), dx(grid64, lap(grid64, v))):
            assert np.abs(out).max() <= 1e-12

    def test_second_derivative_eigenfunction(self, grid64):
        v = np.cos(3 * grid64.nodes)
        assert np.abs(lap(grid64, v) + 9 * v).max() <= 1e-11

    def test_order_two_equals_twice_order_one(self, grid64):
        rng = np.random.default_rng(7)
        v = random_band_limited(rng, grid64).values
        assert np.abs(lap(grid64, v) - dx(grid64, dx(grid64, v))).max() <= 1e-10

    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_rows_match_single_fields(self, n):
        # the kernels act along the last axis: a stacked call gives every row
        # exactly the values of a call on that row alone
        grid = PeriodicGrid(n)
        rows = np.random.default_rng(n).standard_normal((3, n))
        for kernel in (dx, lap, dealias):
            stacked = kernel(grid, rows)
            for i in range(3):
                assert np.array_equal(stacked[i], kernel(grid, rows[i]))


def kernel_table(grid):
    # each kernel: public form, Multiplier, multiplier at wavenumber 0
    return tuple(zip((dx, lap, dealias), spectral.kernels(grid), (0.0, 0.0, 1.0)))


def matrix_form(mult):
    # mult applying the matrix it holds up to MATRIX_MAX_N, built on any grid
    m = copy.copy(mult)
    m.matrix = spectral._circulant(mult.transform(np.eye(1, mult.grid.n_points)[0]))
    return m


def close(got, want):
    return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestMultiplierMatrices:
    def test_symbols(self):
        # kernels writes each symbol in rfft layout: 1j k with the Nyquist
        # mode zeroed, -k^2, and the mask of modes <= N // 3
        grid = PeriodicGrid(12)
        k = np.arange(7.0)
        sym_dx, sym_lap, sym_dealias = (m.symbol for m in spectral.kernels(grid))
        assert np.array_equal(sym_dx, np.append(1j * k[:-1], 0.0))
        assert np.array_equal(sym_lap, -k * k)
        assert np.array_equal(sym_dealias, np.arange(7) <= 4)
        for _, mult, at_zero in kernel_table(grid):
            assert mult.at_zero == at_zero

    # the matrix path against the transform, for random stacks of 1-5 rows
    @given(n=st.sampled_from([64, 128, 256]), rows=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matrix_path_matches_transform_form(self, n, rows, seed):
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(seed)
        v, w = rng.standard_normal((2, rows, n))
        for _, mult, at_zero in kernel_table(grid):
            apply = matrix_form(mult)
            assert close(apply(v), mult.transform(v))
            for i in range(rows):
                assert np.array_equal(apply(v)[i], apply(v[i]))
            assert np.array_equal(apply(np.full(n, -2.3)), np.full(n, at_zero * -2.3))
        truncate = spectral.kernels(grid).dealias
        t = matrix_form(truncate)
        assert close(t(t(v) * t(w)),
                     truncate.transform(truncate.transform(v) * truncate.transform(w)))

    @pytest.mark.parametrize("n", [64, MATRIX_MAX_N, 2 * MATRIX_MAX_N, 512])
    def test_matrix_only_up_to_the_limit(self, n):
        # kernels apply their matrix up to MATRIX_MAX_N and build none above
        grid = PeriodicGrid(n)
        v = np.random.default_rng(n).standard_normal((2, n))
        for public, mult, _ in kernel_table(grid):
            want = matrix_form(mult)(v) if n <= MATRIX_MAX_N else mult.transform(v)
            assert np.array_equal(public(grid, v), want)
            assert (mult.matrix is None) == (n > MATRIX_MAX_N)
            # the whole-array product: one product with the matrix or the transform
            whole = mult.transform(v) if n > MATRIX_MAX_N else v @ mult.matrix
            assert np.array_equal(mult.whole(v), whole)


class TestDealiasedProduct:
    def test_resolved_quadratic_exact(self, grid64):
        v = np.cos(grid64.nodes)
        expected = 0.5 * (1.0 + np.cos(2 * grid64.nodes))
        assert np.abs(dp(grid64, v, v) - expected).max() <= 1e-12

    def test_zero_factor(self, grid64):
        v = np.cos(grid64.nodes)
        assert np.abs(dp(grid64, v, np.zeros(64))).max() == 0.0

    def test_high_mode_truncated(self, grid64):
        # cos(20x)^2 = 1/2 + cos(40x)/2; mode 40 is beyond the cutoff (21)
        v = np.cos(20 * grid64.nodes)
        assert np.abs(dp(grid64, v, v) - 0.5).max() <= 1e-12

    def test_commutative(self, grid64):
        rng = np.random.default_rng(3)
        f = random_band_limited(rng, grid64, modes=25).values
        g = random_band_limited(rng, grid64, modes=25).values
        assert np.abs(dp(grid64, f, g) - dp(grid64, g, f)).max() <= 1e-14


class TestNormsAndIntegrals:
    def test_integrate_cos_vanishes(self, grid64):
        assert abs(integrate(field_from_function(grid64, np.cos))) <= 1e-13

    def test_l2_of_cos(self, grid64):
        assert l2_norm(field_from_function(grid64, np.cos)) == pytest.approx(
            np.sqrt(np.pi), abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_derivative_has_zero_mean(seed):
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(seed)
    f = RealField(grid, rng.standard_normal(64))
    assert abs(integrate(RealField(grid, dx(grid, f.values)))) <= 1e-12


def test_roundtrip_precision(grid128):
    rng = np.random.default_rng(11)
    f = RealField(grid128, rng.standard_normal(128))
    back = np.fft.irfft(np.fft.rfft(f.values), n=128)
    assert np.abs(back - f.values).max() <= 1e-12 * np.abs(f.values).max()
