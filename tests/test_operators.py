import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iskak import operators, spectral
from iskak.errors import DepthTooSmallError, NonConvergenceError
from iskak.operators import (
    DepthCoefs,
    IkState,
    coef_a,
    constraint_residual,
    energy,
    ik_state_from_surface,
    op_l1,
    op_l11,
    op_l12,
    op_l22,
    solve_elliptic_pair,
    solve_initial_data,
    stage_sources,
    surface_potential,
)
from iskak.spectral import (MATRIX_MAX_N, PeriodicGrid, RealField, dp, dx, field_from_function,
                            l2_norm, lap)
from iskak.waterwave import WwState

from conftest import random_band_limited, zeros


def grad_norm(f):
    return l2_norm(RealField(f.grid, dx(f.grid, f.values)))


def random_depth(rng, grid, floor=0.5):
    """eta with 1 + eta bounded below by floor."""
    margin = rng.uniform(floor, 0.9)
    return random_band_limited(rng, grid, modes=4, amplitude=1.0 - margin)


def inner(grid, f, g):
    return grid.spacing * float(np.dot(f.values, g.values))


class TestDepthCoefs:
    def test_powers_match_pointwise_exponentiation(self, grid64):
        rng = np.random.default_rng(0)
        eta = random_depth(rng, grid64)
        dc = DepthCoefs.from_eta(eta)
        h = 1.0 + eta.values
        for pw, arr in [(2, dc.H2), (3, dc.H3), (4, dc.H4), (5, dc.H5)]:
            assert np.abs(arr - h**pw).max() <= 1e-12 * np.abs(h**pw).max()

    def test_depth_floor_enforced(self, grid64):
        eta = field_from_function(grid64, lambda x: -0.95 + 0.0 * x)
        with pytest.raises(DepthTooSmallError):
            DepthCoefs.from_eta(eta)


class TestLOperators:
    def test_l11_flat_laplacian(self, grid64):
        dc = DepthCoefs.from_eta(zeros(grid64))
        for k in (1, 3):
            psi = field_from_function(grid64, lambda x: np.cos(k * x))
            assert np.abs(op_l11(dc, psi).values - k**2 * psi.values).max() <= 1e-11

    def test_l22_flat_symbol(self, grid64):
        dc = DepthCoefs.from_eta(zeros(grid64))
        delta, k = 0.3, 2
        psi = field_from_function(grid64, lambda x: np.cos(k * x))
        expected = (delta**2 * k**2 / 5.0 + 4.0 / 3.0) * psi.values
        assert np.abs(op_l22(delta, dc, psi).values - expected).max() <= 1e-11

    def test_gradient_annihilates_constants(self, grid64):
        rng = np.random.default_rng(1)
        dc = DepthCoefs.from_eta(random_depth(rng, grid64))
        c = RealField(grid64, np.full(64, 2.5))
        assert np.abs(op_l11(dc, c).values).max() <= 1e-12
        assert np.abs(op_l12(dc, c).values).max() <= 1e-12

    def test_l1_flat_symbol(self, grid64):
        # (8/15) d^2 k^2 + 4/3 at d = 0.5, k = 1 -> 22/15
        dc = DepthCoefs.from_eta(zeros(grid64))
        psi = field_from_function(grid64, np.cos)
        expected = (22.0 / 15.0) * psi.values
        assert np.abs(op_l1(0.5, dc, psi).values - expected).max() <= 1e-11

    @pytest.mark.parametrize("name", ["l11", "l12", "l22", "l1"])
    def test_symmetry_random_coefficients(self, grid64, name):
        rng = np.random.default_rng(42)
        for _ in range(10):
            dc = DepthCoefs.from_eta(random_depth(rng, grid64))
            delta = rng.uniform(0.05, 1.0)
            f = random_band_limited(rng, grid64)
            g = random_band_limited(rng, grid64)
            op = {
                "l11": lambda v: op_l11(dc, v),
                "l12": lambda v: op_l12(dc, v),
                "l22": lambda v: op_l22(delta, dc, v),
                "l1": lambda v: op_l1(delta, dc, v),
            }[name]
            a = inner(grid64, op(f), g)
            b = inner(grid64, f, op(g))
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_l1_matches_composition(self, grid64):
        # the fused kernel against the docstring form built from L11, L12, L22:
        # L1 psi = d^2 (H^2 L11 - L12)(H^2 psi) + (L22 - d^2 H^2 L12) psi
        rng = np.random.default_rng(7)
        for _ in range(10):
            dc = DepthCoefs.from_eta(random_depth(rng, grid64))
            delta = rng.uniform(0.05, 1.0)
            d2 = delta * delta
            psi = random_band_limited(rng, grid64)
            g = RealField(grid64, dc.H2 * psi.values)
            expected = (d2 * (dc.H2 * op_l11(dc, g).values - op_l12(dc, g).values)
                        + op_l22(delta, dc, psi).values - d2 * dc.H2 * op_l12(dc, psi).values)
            got = op_l1(delta, dc, psi).values
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_l1_zero_input(self, grid64):
        dc = DepthCoefs.from_eta(zeros(grid64))
        assert np.abs(op_l1(0.4, dc, zeros(grid64)).values).max() == 0.0


def test_coercivity_hundred_trials(grid64):
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(100):
        dc = DepthCoefs.from_eta(random_depth(rng, grid64))
        delta = rng.uniform(0.05, 1.0)
        psi = random_band_limited(rng, grid64, modes=6)
        quad = inner(grid64, op_l1(delta, dc, psi), psi)
        lower = l2_norm(psi) ** 2 + delta**2 * grad_norm(psi) ** 2
        worst = min(worst, quad / lower)
    assert worst > 0.0


class TestPointwiseFields:
    def test_constraint_trivial_cases(self, grid64):
        s = IkState(zeros(grid64), RealField(grid64, np.full(64, 1.2)), zeros(grid64), 0.3)
        assert np.abs(constraint_residual(s)).max() <= 1e-13

    def test_constraint_direct_substitution(self, grid64):
        s = IkState(zeros(grid64), field_from_function(grid64, np.cos), zeros(grid64), 0.3)
        expected = -(2.0 / 3.0) * np.cos(grid64.nodes)
        assert np.abs(constraint_residual(s) - expected).max() <= 1e-12

    def test_f1_trivial_and_quadratic(self, grid64):
        def f1(s):
            return stage_sources(s, s.depth())[1]

        rest = IkState(zeros(grid64), zeros(grid64), zeros(grid64), 0.2)
        assert np.abs(f1(rest)).max() == 0.0

        bump = IkState(RealField(grid64, np.full(64, 0.1)), zeros(grid64), zeros(grid64), 0.2)
        assert np.abs(f1(bump) - 0.1).max() <= 1e-13

        s = IkState(zeros(grid64), field_from_function(grid64, np.cos), zeros(grid64), 0.2)
        expected = 0.5 * np.sin(grid64.nodes) ** 2
        assert np.abs(f1(s) - expected).max() <= 1e-12

    def test_f2_trivial_and_direct(self, grid64):
        # F2 = (4/15) d^2 H^4 (dt eta) lap phi1 with the kernel's own dt eta, at d = 1
        def f2(phi0, phi1):
            s = IkState(zeros(grid64), phi0, phi1, 1.0)
            return stage_sources(s, s.depth())[2]

        cos = field_from_function(grid64, np.cos)
        # dt eta = -(1/3) dx(-sin x) = cos x / 3 and lap phi1 = -cos x
        expected = -(4.0 / 45.0) * np.cos(grid64.nodes) ** 2
        assert np.abs(f2(zeros(grid64), cos) - expected).max() <= 1e-12
        # phi0 = -cos x / 3 cancels the phi1 flux, so dt eta = 0
        third = field_from_function(grid64, lambda x: -np.cos(x) / 3.0)
        assert np.abs(f2(third, cos)).max() <= 1e-14
        # no phi1, no forcing, whatever dt eta is
        assert np.abs(f2(field_from_function(grid64, np.sin), zeros(grid64))).max() == 0.0

    def test_stage_sources_match_dp_chains(self, grid64):
        # the shared-transform kernel against the same terms built from spectral.dp
        g = grid64
        rng = np.random.default_rng(13)
        for _ in range(5):
            s = IkState(random_depth(rng, g), random_band_limited(rng, g),
                        random_band_limited(rng, g), rng.uniform(0.05, 1.0))
            dc, d2 = s.depth(), s.delta**2
            u0, u1, p1 = dx(g, s.phi0.values), dx(g, s.phi1.values), s.phi1.values
            eta_t = -dx(g, dp(g, dc.H, u0) + (d2 / 3.0) * dp(g, dc.H3, u1))
            f1 = (s.eta.values + 0.5 * dp(g, u0, u0) + d2 * dp(g, dc.H2, dp(g, u0, u1))
                  + 0.5 * d2 * d2 * dp(g, dc.H4, dp(g, u1, u1))
                  + 2.0 * d2 * dp(g, dc.H2, dp(g, p1, p1)))
            f2 = (4.0 / 15.0) * d2 * dp(g, dc.H4, dp(g, eta_t, lap(g, p1)))
            for got, want in zip(stage_sources(s, dc), (eta_t, f1, f2)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_coef_a_rest_and_constant(self, grid64):
        rest = IkState(zeros(grid64), zeros(grid64), zeros(grid64), 0.5)
        assert np.abs(coef_a(rest, np.zeros(64)) - 1.0).max() <= 1e-14
        c = 0.3
        s = IkState(zeros(grid64), zeros(grid64), RealField(grid64, np.full(64, c)), 0.5)
        expected = 1.0 + 4.0 * 0.25 * c**2
        assert np.abs(coef_a(s, np.zeros(64)) - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [64, 2 * MATRIX_MAX_N])
    def test_coef_a_is_the_dp_chains(self, n):
        # the stacked kernel calls against the five dp chains, on both
        # multiplier paths: row-exact kernels make them equal bit for bit
        g = PeriodicGrid(n)
        rng = np.random.default_rng(17)
        for _ in range(5):
            s = IkState(random_depth(rng, g), random_band_limited(rng, g),
                        random_band_limited(rng, g), rng.uniform(0.05, 1.0))
            pt = random_band_limited(rng, g).values
            dc, d2 = s.depth(), s.delta**2
            u0, u1, p1 = dx(g, s.phi0.values), dx(g, s.phi1.values), s.phi1.values
            want = (1.0 + 2.0 * d2 * dp(g, dc.H, pt) + 2.0 * d2 * dp(g, dc.H, dp(g, u0, u1))
                    + 2.0 * d2 * d2 * dp(g, dc.H3, dp(g, u1, u1))
                    + 4.0 * d2 * dp(g, dc.H, dp(g, p1, p1)))
            assert np.array_equal(coef_a(s, pt), want)

    def test_coef_a_small_delta_limit(self, grid64):
        # every non-unit term carries delta^2: deviation scales down by ~4 per halving
        rng = np.random.default_rng(5)
        eta = random_depth(rng, grid64)
        phi0 = random_band_limited(rng, grid64)
        phi1 = random_band_limited(rng, grid64)
        pt = random_band_limited(rng, grid64)
        devs = []
        for delta in (0.2, 0.1, 0.05):
            s = IkState(eta, phi0, phi1, delta)
            devs.append(np.abs(coef_a(s, pt.values) - 1.0).max())
        assert devs[0] > devs[1] > devs[2]
        assert 3.2 <= devs[1] / devs[2] <= 4.8

    @pytest.mark.parametrize("n", [64, 2 * MATRIX_MAX_N])
    def test_state_formulas_are_the_one_row_formulas(self, n):
        # energy and constraint_residual take one stacked dx or lap of
        # (phi0, phi1): on both multiplier paths they equal the same formulas
        # over one-row calls bit for bit, as surface_potential does
        g = PeriodicGrid(n)
        rng = np.random.default_rng(23)
        for _ in range(5):
            s = IkState(random_depth(rng, g), random_band_limited(rng, g),
                        random_band_limited(rng, g), rng.uniform(0.05, 1.0))
            eta, p0, p1 = s.eta.values, s.phi0.values, s.phi1.values
            h, d2 = 1.0 + eta, s.delta**2
            h2 = h * h
            u0, u1 = dx(g, p0), dx(g, p1)
            kinetic = (h * u0 * u0 + (2.0 / 3.0) * d2 * (h2 * h) * u0 * u1
                       + (1.0 / 5.0) * d2 * d2 * (h2 * h2 * h) * u1 * u1
                       + (4.0 / 3.0) * d2 * (h2 * h) * p1 * p1)
            assert energy(s) == 0.5 * float(g.spacing * (eta**2 + kinetic).sum())
            want = ((2.0 / 3.0) * lap(g, p0) + (2.0 / 15.0) * d2 * h2 * lap(g, p1)
                    + (4.0 / 3.0) * p1)
            assert np.array_equal(constraint_residual(s), want)
            assert np.array_equal(surface_potential(s), p0 + d2 * h2 * p1)


class TestEnergies:
    def test_rest_energy_zero(self, grid64):
        rest = IkState(zeros(grid64), zeros(grid64), zeros(grid64), 0.3)
        assert energy(rest) == 0.0

    def test_elevation_only(self, grid64):
        eps = 0.05
        s = IkState(RealField(grid64, eps * np.cos(grid64.nodes)),
                    zeros(grid64), zeros(grid64), 0.3)
        assert energy(s) == pytest.approx(eps**2 * np.pi / 2.0, rel=1e-12)

    def test_potential_only(self, grid64):
        s = IkState(zeros(grid64), field_from_function(grid64, np.cos), zeros(grid64), 0.3)
        assert energy(s) == pytest.approx(np.pi / 2.0, rel=1e-12)

    def test_positivity_bound(self, grid64):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = IkState(random_depth(rng, grid64), random_band_limited(rng, grid64),
                        random_band_limited(rng, grid64), rng.uniform(0.05, 1.0))
            assert energy(s) >= 0.5 * l2_norm(s.eta) ** 2 - 1e-12


class TestEllipticSolve:
    def test_zero_data_gives_zero(self, grid64):
        dc = DepthCoefs.from_eta(zeros(grid64))
        p0, p1 = solve_elliptic_pair(0.3, dc, np.zeros(64))
        assert np.abs(p0).max() == 0.0
        assert np.abs(p1).max() == 0.0

    @pytest.mark.parametrize("delta,k", [(0.5, 1), (0.2, 3), (0.05, 2)])
    def test_flat_single_mode_closed_form(self, grid64, delta, k):
        phi = field_from_function(grid64, lambda x: np.cos(k * x))
        p0, p1 = solve_initial_data(zeros(grid64), phi, delta)
        denom = 1.0 + 0.4 * delta**2 * k**2
        amp1 = (k**2 / 2.0) / denom
        amp0 = (1.0 - delta**2 * k**2 / 10.0) / denom
        assert np.abs(p1.values - amp1 * np.cos(k * grid64.nodes)).max() <= 1e-10
        assert np.abs(p0.values - amp0 * np.cos(k * grid64.nodes)).max() <= 1e-10

    def test_flat_example_amplitudes(self, grid64):
        # d = 0.5, k = 1: amplitudes 0.886364 and 0.454545
        phi = field_from_function(grid64, np.cos)
        p0, p1 = solve_initial_data(zeros(grid64), phi, 0.5)
        assert p0.values.max() == pytest.approx(0.8863636363636364, abs=1e-10)
        assert p1.values.max() == pytest.approx(0.45454545454545453, abs=1e-10)

    def test_back_substitution_residual(self, grid64):
        rng = np.random.default_rng(8)
        for _ in range(10):
            eta = random_depth(rng, grid64)
            dc = DepthCoefs.from_eta(eta)
            delta = rng.uniform(0.05, 1.0)
            f1, f2, f3 = (random_band_limited(rng, grid64).values for _ in range(3))
            p0, p1 = (RealField(grid64, v) for v in solve_elliptic_pair(delta, dc, f1, f2, f3))
            d2 = delta**2
            eq1 = np.abs(p0.values + d2 * dc.H2 * p1.values - f1).max()
            eq2 = np.abs(
                dc.H2 * (op_l11(dc, p0).values + d2 * op_l12(dc, p1).values)
                - op_l12(dc, p0).values - op_l22(delta, dc, p1).values
                - f2 - dx(grid64, f3)
            ).max()
            assert eq1 <= 1e-12
            assert eq2 <= 1e-8

    def test_estimate_constant_uniform_in_delta(self, grid64):
        rng = np.random.default_rng(9)
        cs = []
        for delta in (0.05, 0.1, 0.2, 0.4):
            worst = 0.0
            for _ in range(10):
                dc = DepthCoefs.from_eta(random_depth(rng, grid64))
                f1, f2, f3 = (random_band_limited(rng, grid64) for _ in range(3))
                p0, p1 = (RealField(grid64, v) for v in
                          solve_elliptic_pair(delta, dc, f1.values, f2.values, f3.values))
                lhs = (grad_norm(p0) ** 2 + delta**2 * l2_norm(p1) ** 2
                       + delta**4 * grad_norm(p1) ** 2)
                low = (grad_norm(f1) ** 2 + l2_norm(f3) ** 2
                       + delta**2 * l2_norm(f2) ** 2)
                worst = max(worst, lhs / low)
            cs.append(worst)
        assert np.log10(max(cs)) - np.log10(min(cs)) <= 1.0

    @pytest.mark.parametrize("odd", [-1.0, -2.0])
    def test_pcg_breakdown_raises(self, odd):
        # an indefinite operator: the first search direction has p.Ap = 0
        # (odd = -1) or p.Ap < 0 (odd = -2)
        sign = np.where(np.arange(64) % 2 == 0, 1.0, odd)
        b = np.ones(64)
        with pytest.raises(NonConvergenceError) as err:
            operators._pcg(lambda v: sign * v, lambda r: r, b, 1e-12)
        assert err.value.iterations == 0
        assert err.value.residual == pytest.approx(1.0)
        assert "breakdown" in str(err.value)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("fill, shown", [(np.nan, "nan"), (1e300, "inf")])
    def test_pcg_non_finite_right_side_raises_before_any_application(self, fill, shown, warm):
        # |b| of an all-1e300 b overflows to inf, which a plain |r0| <= tol |b|
        # test takes for convergence (x = 0 returned), and a NaN b was
        # reported as a breakdown after one application
        calls = []

        def apply_op(v):
            calls.append(1)
            return v

        x0 = np.ones(64) if warm else None
        message = rf"elliptic pair solve: non-finite norm \(\|b\| = {shown}\)"
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=message):
            operators._pcg(apply_op, lambda r: r, np.full(64, fill), 1e-12, x0=x0)
        assert calls == []

    def test_pcg_non_finite_warm_residual_raises_after_one_application(self):
        calls = []

        def apply_op(v):
            calls.append(1)
            return v

        x0 = np.full(64, np.nan)
        with pytest.raises(FloatingPointError, match=r"non-finite norm \(\|r0\| = nan\)"):
            operators._pcg(apply_op, lambda r: r, np.ones(64), 1e-12, x0=x0)
        assert calls == [1]

    def test_cold_solve_operator_count(self, monkeypatch):
        # the depth-scaled preconditioner: a cold initial-data solve of the
        # N = 128, delta = 0.2 cosine wave takes at most 10 L1 applications
        grid = PeriodicGrid(128)
        x = grid.nodes
        eta = RealField(grid, 0.1 * np.cos(x))
        phi = RealField(grid, 0.1 * np.sin(x) + 0.05 * np.cos(2 * x) + 0.02 * np.sin(3 * x))
        clean, calls = operators._l1_v, []

        def counted(*args):
            calls.append(1)
            return clean(*args)

        monkeypatch.setattr(operators, "_l1_v", counted)
        solve_initial_data(eta, phi, 0.2)
        assert 0 < len(calls) <= 10

    def test_solve_from_its_solution_costs_one_application(self, monkeypatch):
        # a start vector that already meets the tolerance is returned after
        # the one L1 application that measures its residual
        grid = PeriodicGrid(128)
        rng = np.random.default_rng(21)
        for _ in range(5):
            dc = DepthCoefs.from_eta(random_depth(rng, grid))
            data = [random_band_limited(rng, grid).values for _ in range(3)]
            delta = rng.uniform(0.05, 1.0)
            p0, p1 = solve_elliptic_pair(delta, dc, *data)
            clean, calls = operators._l1_v, []

            def counted(*args):
                calls.append(1)
                return clean(*args)

            monkeypatch.setattr(operators, "_l1_v", counted)
            q0, q1 = solve_elliptic_pair(delta, dc, *data, psi1_guess=p1)
            monkeypatch.undo()
            assert len(calls) == 1
            assert np.array_equal(q1, p1)
            assert np.array_equal(q0, p0)


class TestL1Products:
    @pytest.mark.parametrize("n", [64, MATRIX_MAX_N, 2 * MATRIX_MAX_N])
    def test_whole_stack_products_are_the_row_exact_composition(self, n):
        # _l1_v takes whole-stack dx products; the row-exact dx calls give
        # the same map to rounding, and above MATRIX_MAX_N both forms are
        # the transform, so they agree bit for bit
        g = PeriodicGrid(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            dc = DepthCoefs.from_eta(random_depth(rng, g))
            v = random_band_limited(rng, g).values
            delta = rng.uniform(0.05, 1.0)
            dg, dv = dx(g, np.array((dc.H2 * v, v)))
            c = dc.l1_flux
            f = dx(g, c[:, 0] * dg + c[:, 1] * dv)
            want = delta**2 * (dc.H2 * f[0] + f[1]) + (4.0 / 3.0) * dc.H3 * v
            got = operators._l1_v(g, delta, dc, v)
            if n > MATRIX_MAX_N:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestInitialData:
    def test_constant_potential(self, grid64):
        phi = RealField(grid64, np.full(64, 1.7))
        p0, p1 = solve_initial_data(zeros(grid64), phi, 0.3)
        assert np.abs(p0.values - 1.7).max() <= 1e-12
        assert np.abs(p1.values).max() <= 1e-12

    def test_reconstruction_identity(self, grid64):
        rng = np.random.default_rng(10)
        eta = random_depth(rng, grid64)
        phi = random_band_limited(rng, grid64)
        p0, p1 = solve_initial_data(eta, phi, 0.4)
        h2 = (1.0 + eta.values) ** 2
        assert np.abs(p0.values + 0.16 * h2 * p1.values - phi.values).max() <= 1e-10

    def test_constraint_satisfied(self, grid128):
        # the solve enforces the divergence-form compatibility equation; the
        # pointwise form agrees with it at the spectral-resolution level, so
        # the surface must be well resolved for a 1e-10 bound
        rng = np.random.default_rng(11)
        eta = random_depth(rng, grid128, floor=0.85)
        phi = random_band_limited(rng, grid128, amplitude=0.2)
        s = ik_state_from_surface(eta, phi, 0.5)
        assert np.abs(constraint_residual(s)).max() <= 1e-10

    def test_surface_potential_roundtrip(self, grid64):
        rng = np.random.default_rng(12)
        eta = random_depth(rng, grid64)
        phi = random_band_limited(rng, grid64)
        s = ik_state_from_surface(eta, phi, 0.25)
        assert np.abs(surface_potential(s) - phi.values).max() <= 1e-10


@given(seed=st.integers(0, 2**32 - 1), delta=st.floats(0.05, 1.0))
@settings(max_examples=20, deadline=None)
def test_l1_coercivity_property(seed, delta):
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(seed)
    dc = DepthCoefs.from_eta(random_depth(rng, grid))
    psi = random_band_limited(rng, grid, modes=6)
    if np.abs(psi.values).max() == 0.0:
        return
    quad = inner(grid, op_l1(delta, dc, psi), psi)
    lower = l2_norm(psi) ** 2 + delta**2 * grad_norm(psi) ** 2
    assert quad > 0.0
    assert quad >= 1e-3 * lower


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([64, 128, 256]),
       delta=st.floats(0.05, 1.0))
@settings(max_examples=25, deadline=None)
def test_operators_symmetric_under_random_depth(seed, n, delta):
    # |<A f, g> - <f, A g>| within 1e-12 of the Cauchy-Schwarz bound of the
    # two products, on the matrix kernels (N <= MATRIX_MAX_N) and past them
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    dc = DepthCoefs.from_eta(random_depth(rng, grid))
    f, g = (random_band_limited(rng, grid, modes=int(rng.integers(1, n // 3)))
            for _ in range(2))
    for op in (lambda v: op_l11(dc, v), lambda v: op_l12(dc, v),
               lambda v: op_l22(delta, dc, v), lambda v: op_l1(delta, dc, v)):
        af, ag = op(f), op(g)
        bound = max(l2_norm(af) * l2_norm(g), l2_norm(f) * l2_norm(ag))
        assert abs(inner(grid, af, g) - inner(grid, f, ag)) <= 1e-12 * bound


class TestFlatPreconditioner:
    # the flat symbol P of the PCG preconditioner as a matrix, built on any grid
    @given(n=st.sampled_from([64, 128, 256]), rows=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), delta=st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_matrix_matches_symbol(self, n, rows, seed, delta):
        grid = PeriodicGrid(n)
        flat = operators._flat_precond(grid, delta)
        m = spectral._circulant(flat.transform(np.eye(1, n)[0]))
        assert flat.matrix is None if n > MATRIX_MAX_N else np.array_equal(flat.matrix, m)
        apply = copy.copy(flat)
        apply.matrix = m

        v = np.random.default_rng(seed).standard_normal((rows, n))
        want = flat.transform(v)
        assert np.abs(apply(v) - want).max() <= 1e-13 * np.abs(want).max()
        for i in range(rows):
            assert np.array_equal(apply(v)[i], apply(v[i]))
        assert np.array_equal(apply(np.full(n, 1.7)), np.full(n, 0.75 * 1.7))
        # PCG needs a symmetric preconditioner
        assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()


def model_state(cls, eta, rest, delta=0.3):
    """A state of cls with eta first and rest in every other field."""
    return cls(eta, *(rest for _ in cls.FIELDS[1:]), delta)


@pytest.mark.parametrize("cls", [IkState, WwState])
class TestStateValidation:
    # both models' constructors run the one ModelState check
    def test_delta_out_of_range(self, cls, grid64):
        for delta in (1.5, 0.0):
            with pytest.raises(ValueError, match="delta"):
                model_state(cls, zeros(grid64), zeros(grid64), delta)

    def test_depth_floor(self, cls, grid64):
        eta = RealField(grid64, np.full(64, -0.95))
        with pytest.raises(DepthTooSmallError):
            model_state(cls, eta, zeros(grid64))

    def test_nan_rejected(self, cls, grid64):
        bad = RealField(grid64, np.zeros(64))
        bad.values[3] = np.nan
        with pytest.raises(FloatingPointError):
            model_state(cls, zeros(grid64), bad)

    def test_mixed_grids_rejected(self, cls, grid64):
        with pytest.raises(ValueError, match="state fields live on different grids"):
            model_state(cls, zeros(grid64), zeros(PeriodicGrid(32)))

    def test_rows_round_trip(self, cls, grid64):
        # a state is its rows: rows() is the held array, each field a view of
        # its row, and with_rows holds its argument, checked, without a copy
        rng = np.random.default_rng(4)
        s = model_state(cls, random_depth(rng, grid64), random_band_limited(rng, grid64))
        rows = s.rows()
        assert rows.shape == (len(cls.FIELDS), 64) and rows is s.rows()
        for name, row in zip(cls.FIELDS, rows):
            assert np.shares_memory(getattr(s, name).values, row)
        new = rows + 0.01
        t = s.with_rows(new)
        assert type(t) is cls and t.delta == s.delta and t.grid == s.grid
        assert t.rows() is new
        bad, shallow = new.copy(), new.copy()
        bad[-1, 0] = np.inf
        shallow[0] = -0.95
        with pytest.raises(FloatingPointError):
            s.with_rows(bad)
        with pytest.raises(DepthTooSmallError):
            s.with_rows(shallow)
        with pytest.raises(ValueError, match="rows of shape"):
            s.with_rows(new[1:])

    def test_caller_fields_are_copied(self, cls, grid64):
        # the constructor stacks its fields into the state's own array
        rng = np.random.default_rng(5)
        fields = [random_depth(rng, grid64)] + [random_band_limited(rng, grid64)
                                                for _ in cls.FIELDS[1:]]
        s = cls(*fields, 0.3)
        before = s.rows().copy()
        for f in fields:
            f.values += 0.01
        assert np.array_equal(s.rows(), before)

    def test_wrong_field_count(self, cls, grid64):
        for m in (len(cls.FIELDS) - 1, len(cls.FIELDS) + 1):
            with pytest.raises(TypeError):
                cls(*(zeros(grid64) for _ in range(m)), 0.3)
