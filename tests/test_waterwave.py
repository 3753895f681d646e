import numpy as np
import pytest
import scipy.fft
from scipy.optimize import curve_fit

from iskak import ik_solver, waterwave
from iskak.config import apply_overrides, default_config
from iskak.errors import DepthTooSmallError, NonConvergenceError, SingularSystemError
from iskak.experiments import run_experiment
from iskak.ik_solver import SimConfig, rk4_fields
from iskak.operators import H_MIN_DEFAULT, ik_state_from_surface
from iskak.spectral import PeriodicGrid, RealField, dx, field_from_function, l2_norm
from iskak.waterwave import (
    DTN_TOL_DEFAULT,
    DtnBackend,
    WwState,
    _gmres,
    _StripWorkspace,
    dtn_series,
    hamiltonian,
    lambda0,
    lambda1,
    lambda2,
    ww_run,
    zcs_rhs,
)

from conftest import random_band_limited, zeros


def flat_symbol(k, delta):
    return k * np.tanh(delta * k) / delta


def exact_map(eta, phi, delta, n_z=16):
    """Exact map through the backend a run uses, on a fresh workspace."""
    return RealField(phi.grid, DtnBackend.exact(n_z).apply(eta, phi, delta)[0])


def strip_solution(eta, phi, delta, n_z):
    ws = _StripWorkspace(phi.grid, n_z, delta)
    return ws, ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=False)


def preconditioned_rhs(ws, eta, phi):
    """The explicit b_p of a strip solve: the (n_z + 1, N) right side,
    preconditioned row by row, flattened."""
    grid = ws.grid
    h, eta_x, phi_x = 1.0 + eta.values, dx(grid, eta.values), dx(grid, phi.values)
    lift_res = ws.delta**2 * h * (dx(grid, h * phi_x) - eta_x * phi_x)
    b = np.broadcast_to(-lift_res, (ws.n_z + 1, grid.n_points)).copy()
    b[0, :] = 0.0
    b[-1, :] = 0.0
    return ws._precondition(b).ravel()


class TestExpansionTerms:
    def test_lambda0_flat(self, grid64):
        for k in (1, 4):
            psi = field_from_function(grid64, lambda x: np.cos(k * x))
            assert np.abs(lambda0(zeros(grid64), psi).values
                          - k**2 * psi.values).max() <= 1e-11

    def test_lambda1_lambda2_flat(self, grid64):
        k = 2
        psi = field_from_function(grid64, lambda x: np.cos(k * x))
        l1 = lambda1(zeros(grid64), psi)
        l2 = lambda2(zeros(grid64), psi)
        assert np.abs(l1.values + (k**4 / 3.0) * psi.values).max() <= 1e-10
        # three chained transforms: tolerance relative to the k^6 magnitude
        mag = 2.0 * k**6 / 15.0
        assert np.abs(l2.values - mag * psi.values).max() <= 1e-9 * mag

    def test_flat_symbols_match_tanh_series(self):
        # k tanh(dk)/d = k^2 - (1/3) d^2 k^4 + (2/15) d^4 k^6 + O(d^6)
        k, delta = 1.0, 0.05
        series = k**2 - delta**2 * k**4 / 3.0 + 2.0 * delta**4 * k**6 / 15.0
        assert flat_symbol(k, delta) == pytest.approx(series, abs=2.0 * delta**6)

    @pytest.mark.parametrize("term", [lambda0, lambda1, lambda2])
    def test_symmetry(self, grid64, term):
        rng = np.random.default_rng(3)
        eta = random_band_limited(rng, grid64, 4, 0.1)
        f = random_band_limited(rng, grid64)
        g = random_band_limited(rng, grid64)
        a = grid64.spacing * np.dot(term(eta, f).values, g.values)
        b = grid64.spacing * np.dot(f.values, term(eta, g).values)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_series_truncations(self, grid64):
        rng = np.random.default_rng(4)
        eta = random_band_limited(rng, grid64, 4, 0.1)
        phi = random_band_limited(rng, grid64)
        delta = 0.3
        k0 = DtnBackend.series().apply(eta, phi, delta)[0]
        assert np.abs(k0 - lambda0(eta, phi).values).max() == 0.0
        k2 = dtn_series(eta, phi, delta)
        manual = (lambda0(eta, phi).values + delta**2 * lambda1(eta, phi).values
                  + delta**4 * lambda2(eta, phi).values)
        assert np.abs(k2.values - manual).max() <= 1e-12

    def test_series_flat_value(self, grid64):
        # flat symbols at k = 1, d = 0.3: 1 - 0.03 + 0.00108 = 0.97108
        phi = field_from_function(grid64, np.cos)
        out = dtn_series(zeros(grid64), phi, 0.3)
        assert np.abs(out.values - 0.97108 * np.cos(grid64.nodes)).max() <= 1e-10


class TestExactMap:
    @pytest.mark.parametrize("delta,k_max", [(0.5, 10), (0.2, 21)])
    def test_flat_state_matches_symbol_all_resolved_modes(self, grid64, delta, k_max):
        # a mode is resolved when 16 vertical points capture its cosh profile,
        # i.e. delta*k <= ~6; beyond that the vertical truncation dominates
        for k in range(1, k_max + 1):
            phi = field_from_function(grid64, lambda x: np.cos(k * x))
            lam = exact_map(zeros(grid64), phi, delta, n_z=16)
            target = flat_symbol(k, delta) * np.cos(k * grid64.nodes)
            assert np.abs(lam.values - target).max() <= 1e-9

    def test_flat_example_value(self, grid64):
        # d = 0.5, k = 1: tanh(0.5)/0.5 = 0.924234
        phi = field_from_function(grid64, np.cos)
        lam = exact_map(zeros(grid64), phi, 0.5, n_z=16)
        assert lam.values.max() == pytest.approx(0.9242343145, abs=1e-9)

    def test_constant_potential_no_flux(self, grid64):
        rng = np.random.default_rng(5)
        eta = random_band_limited(rng, grid64, 4, 0.1)
        phi = RealField(grid64, np.full(64, 2.2))
        assert np.abs(exact_map(eta, phi, 0.3, 16).values).max() <= 1e-12

    def test_vertical_resolution_stability(self, grid64):
        rng = np.random.default_rng(6)
        eta = random_band_limited(rng, grid64, 4, 0.1)
        phi = random_band_limited(rng, grid64)
        l16 = exact_map(eta, phi, 0.2, 16)
        l32 = exact_map(eta, phi, 0.2, 32)
        assert np.abs(l16.values - l32.values).max() <= 1e-9

    def test_symmetry_and_positivity(self, grid64):
        rng = np.random.default_rng(7)
        for _ in range(5):
            eta = random_band_limited(rng, grid64, 4, 0.1)
            f = random_band_limited(rng, grid64)
            g = random_band_limited(rng, grid64)
            lf = exact_map(eta, f, 0.25, 16)
            lg = exact_map(eta, g, 0.25, 16)
            a = grid64.spacing * np.dot(lf.values, g.values)
            b = grid64.spacing * np.dot(f.values, lg.values)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
            assert grid64.spacing * np.dot(lf.values, f.values) >= -1e-10

    def test_zero_mean_output(self, grid64):
        # flux form: the map output is a perfect divergence
        rng = np.random.default_rng(8)
        eta = random_band_limited(rng, grid64, 4, 0.1)
        phi = random_band_limited(rng, grid64)
        lam = exact_map(eta, phi, 0.3, 16)
        assert abs(grid64.spacing * lam.values.sum()) <= 1e-13

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_expansion_error_order(self, grid64, order):
        # the partial sum through delta^(2 order) misses the map by delta^(2 order + 2)
        eta = field_from_function(grid64, lambda x: 0.1 * np.cos(x))
        phi = field_from_function(grid64, np.cos)
        deltas = [0.4, 0.2, 0.1]
        terms = [t(eta, phi).values for t in (lambda0, lambda1, lambda2)[:order + 1]]
        errs = [
            l2_norm(RealField(grid64, exact_map(eta, phi, d, 24).values
                              - sum(d**(2 * j) * t for j, t in enumerate(terms))))
            for d in deltas
        ]
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert slope == pytest.approx(2 * order + 2, abs=0.3)

    def test_sixth_order_tail_bounded(self, grid64):
        # the delta^-6-scaled tail of the two-term expansion stays O(1)
        eta = field_from_function(grid64, lambda x: 0.1 * np.cos(x))
        phi = field_from_function(grid64, np.cos)
        tails = []
        for d in (0.4, 0.2, 0.1):
            diff = exact_map(eta, phi, d, 24).values - dtn_series(eta, phi, d).values
            tails.append(np.abs(diff).max() / d**6)
        assert max(tails) / min(tails) <= 3.0

    def test_depth_guard(self, grid64):
        eta = RealField(grid64, np.full(64, -0.95))
        phi = field_from_function(grid64, np.cos)
        with pytest.raises(DepthTooSmallError):
            exact_map(eta, phi, 0.3, 16)


class TestStripSolution:
    @pytest.mark.parametrize("n_z", [8, 16, 32, 64])
    def test_clenshaw_curtis_weights_integrate_chebyshev_polynomials(self, n_z):
        # exact on every T_m, m <= n_z: the integral over [-1, 1] is
        # 2 / (1 - m^2) for even m and 0 for odd m
        xi = waterwave._cheb_lobatto(n_z)[0]
        w = waterwave._clenshaw_curtis_weights(xi)
        m = np.arange(n_z + 1)
        moments = np.where(m % 2 == 0, 2.0 / (1.0 - m**2 + (m % 2)), 0.0)
        got = w @ np.polynomial.chebyshev.chebvander(xi, n_z)
        assert np.abs(got - moments).max() <= 1e-14
        assert abs(w.sum() - 2.0) <= 1e-14

    def test_boundary_conditions(self, grid64):
        rng = np.random.default_rng(9)
        eta = random_band_limited(rng, grid64, 4, 0.1)
        phi = random_band_limited(rng, grid64)
        ws, w = strip_solution(eta, phi, 0.3, 16)
        assert w.shape == (17, 64)
        assert np.abs(w[0] - phi.values).max() <= 1e-9
        assert np.abs((ws.dz @ w)[-1]).max() <= 1e-9

    def test_coefficient_shape_and_decay(self, grid64):
        phi = field_from_function(grid64, np.cos)
        _, w = strip_solution(zeros(grid64), phi, 0.3, 16)
        # (x-mode, z-Chebyshev-mode) coefficients of the collocation values
        cheb = scipy.fft.dct(np.fft.rfft(w, axis=1) / 64, type=1, axis=0) / 16
        cheb[0, :] *= 0.5
        cheb[-1, :] *= 0.5
        coeffs = cheb.T
        assert coeffs.shape == (64 // 2 + 1, 17)
        # Chebyshev tail of an analytic profile decays below rounding noise
        assert np.abs(coeffs[:, -4:]).max() <= 1e-12


class TestStripFields:
    """The depth fields built once per solve and the cached lift column give
    what the per-application expressions they replace give."""

    @staticmethod
    def case(n):
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(n)
        eta = random_band_limited(rng, grid, 4, 0.1)
        phi = random_band_limited(rng, grid)
        return grid, eta, phi, rng

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_apply_is_the_per_application_expression(self, n):
        grid, eta, phi, rng = self.case(n)
        ws = _StripWorkspace(grid, 16, 0.2)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=False)
        w = rng.standard_normal((17, n))
        # reference: the application with its depth fields rebuilt inside it
        h, eta_x, d2 = 1.0 + eta.values, dx(grid, eta.values), 0.2**2
        wz, wx, zp1 = ws.dz @ w, ws.dx.whole(w), ws.zp1[:, None]
        p = h * wx - zp1 * eta_x * wz
        q = -zp1 * eta_x * wx + zp1**2 * (eta_x**2 / h) * wz
        ref = ws.dzs[17:] @ w + d2 * h * (ws.dx.whole(p) + ws.dz @ q)
        ref[0, :] = w[0, :]
        ref[-1, :] = wz[-1, :]
        assert np.array_equal(ws._apply(w, ws.fields), ref)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_lift_column_preconditions_the_whole_right_side(self, n, monkeypatch):
        grid, eta, phi, _ = self.case(n)
        clean, seen = waterwave._gmres, []

        def spy(apply_op, b, tol, max_iter, x0=None, residual=None):
            seen.append(b)
            return clean(apply_op, b, tol, max_iter, x0, residual)

        monkeypatch.setattr(waterwave, "_gmres", spy)
        ws = _StripWorkspace(grid, 16, 0.2)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=False)
        ref = preconditioned_rhs(ws, eta, phi)
        assert np.abs(seen[0] - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("n_z", [8, 16])
    @pytest.mark.parametrize("delta", [0.05, 0.5])
    def test_parseval_norm_is_the_norm_of_the_preconditioned_right_side(
            self, n, n_z, delta, monkeypatch):
        # a solve from zero hands GMRES the explicit b_p, one from a guess at
        # the same data only residual(x0), which returns |b_p| from the lift's modes
        grid, eta, phi, _ = self.case(n)
        clean, seen = waterwave._gmres, []

        def spy(apply_op, b, tol, max_iter, x0=None, residual=None):
            seen.append((b, x0, residual))
            return clean(apply_op, b, tol, max_iter, x0, residual)

        monkeypatch.setattr(waterwave, "_gmres", spy)
        ws = _StripWorkspace(grid, n_z, delta)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True, guess=ws.last_solution)
        (b, cold_x0, _), (warm_b, x0, residual) = seen
        assert cold_x0 is None and warm_b is None
        explicit = np.linalg.norm(b)
        assert abs(residual(x0)[1] - explicit) <= 1e-14 * explicit

    def test_warm_solve_at_its_own_solution_costs_one_application(self, monkeypatch):
        # the initial residual is the whole solve: one _apply, and one
        # transform pair for P(rhs - A x0) that also carries the lift's
        # modes, with no pair of its own for b_p
        grid, eta, phi, _ = self.case(128)
        ws = _StripWorkspace(grid, 16, 0.2)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True)
        counts = {"apply": 0, "rfft": 0, "irfft": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_StripWorkspace, "_apply", counted("apply", _StripWorkspace._apply))
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True, guess=ws.last_solution)
        assert counts == {"apply": 1, "rfft": 1, "irfft": 1}

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_kept_entry_is_nearer_than_the_verified_solution(self, n, monkeypatch):
        # the kept entry x + r is one preconditioned Richardson step from
        # the verified x: its true preconditioned residual read 0.22, 0.12
        # and 0.13 of x's at N = 64, 128 and 256, where x's is 3e-13..5e-13
        grid, eta, phi, _ = self.case(n)
        clean, seen = waterwave._gmres, []

        def spy(apply_op, b, tol, max_iter, x0=None, residual=None):
            sol, res, r = clean(apply_op, b, tol, max_iter, x0, residual)
            seen.append((apply_op, sol))
            return sol, res, r

        monkeypatch.setattr(waterwave, "_gmres", spy)
        ws = _StripWorkspace(grid, 16, 0.2)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True)
        (apply_op, sol), = seen
        ref = preconditioned_rhs(ws, eta, phi)

        def true(v):
            return np.linalg.norm(ref - apply_op(v)) / np.linalg.norm(ref)

        assert true(ws.last_solution.ravel()) <= 0.45 * true(sol)

    def test_apply_flux_is_of_the_verified_solution(self, monkeypatch):
        # DtnBackend.apply hands on the kept entry x + r for guesses only;
        # its flux is the flux of the verified potential x + phi
        grid, eta, phi, _ = self.case(128)
        clean, seen = waterwave._gmres, []

        def spy(apply_op, b, tol, max_iter, x0=None, residual=None):
            out = clean(apply_op, b, tol, max_iter, x0, residual)
            seen.append(out)
            return out

        monkeypatch.setattr(waterwave, "_gmres", spy)
        backend = DtnBackend.exact(16)
        lam, entry, _ = backend.apply(eta, phi, 0.2)
        (sol, _, r), = seen
        ws = waterwave._strip_workspace(grid, 16, 0.2)
        w = sol.reshape(entry.shape)
        assert np.array_equal(lam, ws.flux_divergence(w + phi.values))
        assert np.array_equal(entry, (sol + r).reshape(entry.shape))
        assert not np.array_equal(entry, w)

    def test_zero_right_side_keeps_a_zero_entry(self):
        # b = 0 is solved by x = 0 with a zero residual, whatever x0 was
        b = np.zeros(8)
        x, res, r = _gmres(lambda v: 2.0 * v, None, 1e-12, 20, np.ones(8),
                           residual=lambda x0: (b - 2.0 * x0, np.linalg.norm(b)))
        assert res == 0.0
        assert not x.any() and not r.any()
        grid, eta, _, _ = self.case(128)
        flat = RealField(grid, np.full(grid.n_points, 0.3))
        entry = DtnBackend.exact(16).apply(eta, flat, 0.2)[1]
        assert entry.shape == (17, grid.n_points)
        assert not entry.any()

    def test_zero_right_side_costs_no_application(self, monkeypatch):
        # a constant potential has a zero lift residual, so the lift-free
        # part is zero: a solve without a guess and one with return it with
        # no _apply, bit for bit the constant, and store it as last_solution
        grid, eta, phi, _ = self.case(128)
        ws = _StripWorkspace(grid, 16, 0.2)
        ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True)
        applies = []
        clean = _StripWorkspace._apply
        monkeypatch.setattr(_StripWorkspace, "_apply", lambda *a: applies.append(1) or clean(*a))
        flat = RealField(grid, np.full(grid.n_points, 0.3))
        for guess in (None, ws.last_solution.copy()):     # from zero, then from a guess
            w = ws.solve(eta, flat, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True, guess=guess)
            assert applies == []
            assert np.array_equal(w, np.full((17, grid.n_points), 0.3))
            assert ws.last_solution.shape == (17, grid.n_points)
            assert not ws.last_solution.any()


class TestFlatPreconditioner:
    """The fast-diagonalized flat preconditioner inverts the flat strip
    operator at every Fourier mode, the Nyquist mode included, and the flux
    reduces w in z before it differentiates in x."""

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_exact_inverse_of_the_flat_operator(self, n):
        # with -delta^2 k^2 at the Nyquist mode, where dx o dx applies 0,
        # the gap was 2.2e-2, 3.2e-2 and 3.8e-2 at N = 64, 128 and 256
        grid = PeriodicGrid(n)
        ws, _ = strip_solution(zeros(grid), field_from_function(grid, np.cos), 0.2, 16)
        w = np.random.default_rng(n).standard_normal((17, n))
        gap = ws._precondition(ws._apply(w, ws.fields)) - w
        assert np.abs(gap).max() <= 1e-10 * np.abs(w).max()

    @pytest.mark.parametrize("n_z", [8, 16, 32, 48])
    def test_eigenvalues_nonpositive_and_gains_in_unit_interval(self, n_z):
        # gain = 1 / (1 - theta kappa) with kappa = -delta^2 k^2: a complex
        # theta gives a complex gain, and a theta > 0 a gain outside (0, 1]
        # wherever kappa < 0
        for n, delta in ((64, 0.05), (128, 0.2), (256, 1.0)):
            gain = _StripWorkspace(PeriodicGrid(n), n_z, delta).gain
            assert gain.dtype == np.float64
            assert gain.min() > 0.0 and gain.max() <= 1.0

    def test_eigenvalue_off_the_nonpositive_axis_is_singular(self, monkeypatch):
        clean = np.linalg.eig

        def positive(a):
            theta, vecs = clean(a)
            theta[1] = 0.5
            return theta, vecs

        monkeypatch.setattr(np.linalg, "eig", positive)
        with pytest.raises(SingularSystemError, match="off the nonpositive real axis"):
            _StripWorkspace(PeriodicGrid(64), 16, 0.2)

    @staticmethod
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    def test_singular_flat_operator_is_singular(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", self.singular)
        with pytest.raises(SingularSystemError, match="flat strip modes"):
            _StripWorkspace(PeriodicGrid(64), 16, 0.2)

    def test_run_on_singular_flat_modes_aborts_cleanly(self, monkeypatch, grid64):
        # the t = 0 record builds the workspace, so the run aborts before a step
        waterwave._strip_workspace.cache_clear()
        monkeypatch.setattr(np.linalg, "inv", self.singular)
        eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
        res = ww_run(WwState(eta0, zeros(grid64), 0.2),
                     SimConfig(t_end=1e-2, dt=5e-3, record_every=1), DtnBackend.exact(16))
        assert res.diagnostics.aborted == "flat strip modes: Singular matrix"
        assert res.diagnostics.times == [] and res.trajectory == []

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_flux_is_the_two_product_form(self, n):
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(n + 1)
        eta = random_band_limited(rng, grid, 4, 0.1)
        ws, w = strip_solution(eta, random_band_limited(rng, grid), 0.2, 16)
        # reference: the vertical average of the whole-strip horizontal velocity
        f, wq = ws.fields, ws.reduce[0]
        integrand = ws.dx.whole(w) - ws.zp1[:, None] * (f.eta_x / f.h) * (ws.dz @ w)
        flux = f.h * (wq @ integrand)
        # the two averages differ at rounding level (<= 7e-15 relative here),
        # which the outer derivative lifts by up to the top wavenumber N / 2
        gap = ws.flux_divergence(w) + dx(grid, flux)
        assert np.abs(gap).max() <= 1e-14 * (n / 2) * np.abs(flux).max()


class TestSurfaceEvolution:
    def test_rest_rhs(self, grid64):
        s = WwState(zeros(grid64), zeros(grid64), 0.3)
        de, dp, _ = zcs_rhs(s, DtnBackend.exact(16))
        assert np.abs(de).max() <= 1e-14
        assert np.abs(dp).max() <= 1e-14

    def test_linearized_rhs(self, grid64):
        eps, delta, k = 1e-6, 0.4, 2
        phi = field_from_function(grid64, lambda x: eps * np.cos(k * x))
        s = WwState(zeros(grid64), phi, delta)
        de, dp, _ = zcs_rhs(s, DtnBackend.exact(16))
        target = eps * flat_symbol(k, delta) * np.cos(k * grid64.nodes)
        assert np.abs(de - target).max() <= 1e-9 * eps + 1e-14
        assert np.abs(dp).max() <= 10.0 * eps**2

    def test_standing_wave_frequency(self, grid64):
        # linear dispersion: omega = sqrt(k tanh(dk)/d), matched to 0.1%
        eps, delta, k = 1e-4, 0.5, 2
        omega = np.sqrt(flat_symbol(k, delta))
        eta0 = field_from_function(grid64, lambda x: eps * np.cos(k * x))
        cfg = SimConfig(t_end=3.6, dt=5e-3, record_every=5)
        res = ww_run(WwState(eta0, zeros(grid64), delta), cfg,
                     DtnBackend.exact(16))
        assert res.diagnostics.aborted is None
        times = np.array([t for t, _ in res.trajectory])
        amps = np.array([2.0 * np.real(np.fft.rfft(s.eta.values)[k]) / 64
                         for _, s in res.trajectory])
        (w_fit, a_fit), _ = curve_fit(lambda t, w, a: a * np.cos(w * t),
                                      times, amps, p0=(omega, eps))
        assert abs(w_fit - omega) / omega <= 1e-3

    def test_run_conserves_mass_and_energy(self, grid64):
        eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
        cfg = SimConfig(t_end=1.0, dt=2e-3, record_every=100)
        res = ww_run(WwState(eta0, zeros(grid64), 0.2), cfg,
                     DtnBackend.exact(16))
        assert res.diagnostics.aborted is None
        mass = np.asarray(res.diagnostics.mass)
        assert np.abs(mass - mass[0]).max() <= 1e-10
        e = np.asarray(res.diagnostics.energy)
        assert np.abs(e - e[0]).max() / abs(e[0]) <= 1e-6

    def test_rest_run_is_fixed_point(self, grid64):
        cfg = SimConfig(t_end=0.2, dt=2e-3, record_every=50)
        res = ww_run(WwState(zeros(grid64), zeros(grid64), 0.3), cfg,
                     DtnBackend.series())
        assert res.diagnostics.aborted is None
        assert np.abs(res.final.eta.values).max() == 0.0
        assert np.abs(res.final.phi.values).max() == 0.0

    def test_ww_abort_keeps_partial_diagnostics(self, grid64):
        # legal at t=0 but the strong flow drives the trough below the floor
        eta = field_from_function(grid64, lambda x: 0.4 * np.cos(x) - 0.45)
        s = WwState(eta, field_from_function(grid64, lambda x: 5.0 * np.sin(x)), 1.0)
        res = ww_run(s, SimConfig(t_end=2.0, dt=2e-2, record_every=1), DtnBackend.series())
        diag = res.diagnostics
        assert diag.aborted is not None and "below floor" in diag.aborted
        assert len(diag.times) >= 1
        assert len(diag.mass) == len(diag.energy) == len(diag.min_depth) == len(diag.times)
        assert 1.0 + res.final.eta.values.min() >= 0.1

    # as on the IK side: a NaN in eta_t and in phi_t at each stage, an
    # emptied column in k1 (the stage-2 state) and in k4 (the step result
    # alone)
    BAD_STAGES = [(i, row, np.nan, FloatingPointError)
                  for i in (1, 2, 3, 4) for row in (0, 1)] + [
        (1, 0, -1e4, DepthTooSmallError), (4, 0, -1e4, DepthTooSmallError)]

    @pytest.mark.parametrize("stage,row,value,error", BAD_STAGES)
    def test_every_stage_state_and_result_is_checked(self, grid64, monkeypatch,
                                                     stage, row, value, error):
        clean, calls = waterwave.zcs_rhs, []
        backend = DtnBackend.series()

        def poison(at):
            def poisoned(s, backend, guess):
                out = clean(s, backend, guess)
                calls.append(s)
                if len(calls) == at:
                    out[row][0] = value
                return out
            return poisoned

        eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
        s = WwState(eta0, zeros(grid64), 0.3)
        monkeypatch.setattr(waterwave, "zcs_rhs", poison(stage))
        with pytest.raises(error):
            rk4_fields(s, 2e-3, lambda st, g: waterwave.zcs_rhs(st, backend, g), None)
        calls.clear()
        # a record does not call zcs_rhs: step 2's stages are calls 5..8
        monkeypatch.setattr(waterwave, "zcs_rhs", poison(4 + stage))
        res = ww_run(s, SimConfig(t_end=0.1, dt=2e-3, record_every=1), backend)
        diag = res.diagnostics
        expected = "field contains NaN/Inf" if error is FloatingPointError else "min depth"
        assert diag.aborted.startswith(expected)
        for series in (diag.mass, diag.energy, diag.min_depth, res.trajectory):
            assert len(series) == 2
        assert diag.times == [0.0, 2e-3]
        assert res.final is res.trajectory[-1][1]
        assert 1.0 + res.final.eta.values.min() > 0.9

    def test_singular_strip_solve_aborts_run(self, grid64, monkeypatch):
        # a typed solver failure inside a step ends the run like any other:
        # the run reports it and keeps the record of the completed step
        clean, calls = _StripWorkspace.solve, []

        def failing(ws, *args, **kwargs):
            calls.append(args)
            if len(calls) == 7:
                raise SingularSystemError("injected strip failure")
            return clean(ws, *args, **kwargs)

        monkeypatch.setattr(_StripWorkspace, "solve", failing)
        eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
        res = ww_run(WwState(eta0, zeros(grid64), 0.3),
                     SimConfig(t_end=0.1, dt=2e-3, record_every=1),
                     DtnBackend.exact(16))
        assert res.diagnostics.aborted == "injected strip failure"
        assert res.diagnostics.times == [0.0, 2e-3]

    def test_hamiltonian_positive_for_waves(self, grid64):
        eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
        s = WwState(eta0, zeros(grid64), 0.3)
        assert hamiltonian(s, DtnBackend.exact(16)) > 0.0


def test_stage_results_are_arrays(grid64):
    # one stage-result contract for both models: rk4_fields combines plain
    # tuples of plain arrays
    eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
    phi = field_from_function(grid64, lambda x: 0.05 * np.sin(x))
    ik = ik_solver.time_derivatives(ik_state_from_surface(eta0, phi, 0.3))
    ww = zcs_rhs(WwState(eta0, phi, 0.3), DtnBackend.exact(16))
    assert type(ik) is tuple and type(ww) is tuple
    for entry in (*ik, *ww):
        assert type(entry) is np.ndarray


def test_both_models_share_the_record_contract(grid64):
    # one run loop records both models: the same cadence gives the same
    # times, the IK model adds constraint_max and min_a, one entry per
    # record, and a water-wave run leaves those two series empty
    eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
    cfg = SimConfig(t_end=0.05, dt=5e-3, record_every=3)
    ik = ik_solver.run(ik_state_from_surface(eta0, zeros(grid64), 0.3), cfg)
    ww = ww_run(WwState(eta0, zeros(grid64), 0.3), cfg, DtnBackend.series())
    assert ik.diagnostics.aborted is None and ww.diagnostics.aborted is None
    assert ik.diagnostics.times == ww.diagnostics.times
    assert ww.diagnostics.times == pytest.approx([0.0, 0.015, 0.03, 0.045, 0.05])
    for name in ("times", "mass", "energy", "constraint_max", "min_depth", "min_a"):
        assert len(getattr(ik.diagnostics, name)) == 5
    for name in ("times", "mass", "energy", "min_depth"):
        assert len(getattr(ww.diagnostics, name)) == 5
    assert ww.diagnostics.constraint_max == [] and ww.diagnostics.min_a == []
    for res in (ik, ww):
        assert [t for t, _ in res.trajectory] == res.diagnostics.times


def test_runs_leave_their_initial_state_unchanged(grid64):
    # run_loop steps and re-centers a copy: the caller's arrays keep their
    # values, the potential's nonzero mean included
    eta0 = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
    phi = field_from_function(grid64, lambda x: 0.3 + 0.05 * np.sin(x))
    cfg = SimConfig(t_end=0.01, dt=5e-3, record_every=1)
    runs = ((ik_state_from_surface(eta0, phi, 0.3), lambda s: ik_solver.run(s, cfg)),
            (WwState(eta0, phi, 0.3), lambda s: ww_run(s, cfg, DtnBackend.exact(16))))
    for initial, go in runs:
        before = initial.rows().copy()
        res = go(initial)
        assert res.diagnostics.aborted is None
        assert np.array_equal(initial.rows(), before)
        assert not np.array_equal(res.final.rows(), before)


class TestBackend:
    def test_validation(self):
        with pytest.raises(ValueError):
            DtnBackend("nope")
        with pytest.raises(ValueError):
            DtnBackend.parse("series:2")
        with pytest.raises(ValueError):
            DtnBackend.exact(4)

    def test_labels(self):
        assert DtnBackend.exact(16).label() == "exact:16"
        assert DtnBackend.series().label() == "series:0"

    def test_series_backend_has_one_value(self):
        # Lambda^(0) reads no strip, so a series n_z other than 0 named a
        # second backend for one map
        with pytest.raises(ValueError, match="n_z must be 0"):
            DtnBackend("series", 8)
        for b in (DtnBackend.exact(8), DtnBackend.exact(16), DtnBackend.series()):
            assert DtnBackend.parse(b.label()) == b

    def test_exact_backend_caches_workspace(self, grid64):
        # one workspace per (grid, n_z, delta), shared by equal backends
        cache = waterwave._strip_workspace
        cache.cache_clear()
        phi = field_from_function(grid64, np.cos)
        for be in (DtnBackend.exact(16), DtnBackend.parse("exact:16")):
            be.apply(zeros(grid64), phi, 0.3)
        assert cache.cache_info().currsize == 1
        DtnBackend.exact(16).apply(zeros(grid64), phi, 0.4)
        assert cache.cache_info().currsize == 2

    def test_backend_is_a_value(self):
        assert DtnBackend.exact(16) == DtnBackend.parse("exact:16")
        assert hash(DtnBackend.exact(16)) == hash(DtnBackend.parse("exact:16"))
        assert DtnBackend.exact(16) != DtnBackend.exact(24)
        assert DtnBackend.series() == DtnBackend.parse("series:0")
        with pytest.raises(AttributeError):
            DtnBackend.exact(16).n_z = 8

    def test_apply_depends_on_its_arguments_alone(self):
        # the same call after an unrelated solve on the same backend, bit for
        # bit: a solve without a guess starts from zero, not from what the
        # workspace last held (that start moved the flux by 2.6e-11, of a
        # 10.2 maximum, here)
        grid, eta, phi, rng = TestStripFields.case(128)
        fresh = DtnBackend.exact(16).apply(eta, phi, 0.2)
        backend = DtnBackend.exact(16)
        backend.apply(random_band_limited(rng, grid, 4, 0.1), random_band_limited(rng, grid), 0.2)
        again = backend.apply(eta, phi, 0.2)
        assert np.array_equal(again[0], fresh[0])
        assert np.array_equal(again[1], fresh[1])


class TestGmresBreakdown:
    def test_zero_operator_is_singular(self):
        with pytest.raises(SingularSystemError, match="iteration 0"):
            _gmres(lambda v: 0.0 * v, np.ones(8), 1e-12, 20)

    def test_rank_deficient_operator_is_singular(self):
        # b = ones has a component outside the range of diag(1, ..., 1, 0):
        # unguarded, GMRES returns |x| ~ 2e16 with a residual estimate ~ 1e-16
        d = np.ones(8)
        d[-1] = 0.0
        with pytest.raises(SingularSystemError, match="iteration 1"):
            _gmres(lambda v: d * v, np.ones(8), 1e-12, 20)


class TestGmresNonFinite:
    @pytest.mark.parametrize("fill, shown", [(np.nan, "nan"), (1e300, "inf")])
    def test_non_finite_right_side_raises_before_any_application(self, fill, shown):
        # |b| of an all-1e300 b overflows to inf, which a plain |r0| <= tol |b|
        # test takes for convergence, and a NaN b fails only after max_iter
        # applications
        calls = []

        def apply_op(v):
            calls.append(1)
            return v

        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                        match=rf"\|b\| = {shown}"):
            _gmres(apply_op, np.full(8, fill), 1e-12, 20)
        assert calls == []

    def test_run_abort_names_the_non_finite_norm(self):
        cfg = apply_overrides(default_config("simulate"),
                              ["model=ww", "phi_amplitude=1e200", "t_end=0.01"])
        with np.errstate(over="ignore"):
            checks = run_experiment(cfg).checks
        run = next(c for c in checks if c.name == "run completed")
        assert not run.passed
        assert "non-finite norm (|b| = inf" in run.detail


class TestGmresResidual:
    def test_returned_residual_is_the_true_one_on_the_strip_system(self, monkeypatch):
        # micro-case strip system, cold then warm: the returned residual and
        # |b - A x| / |b| recomputed with the operator agree to ~1e-16
        grid = PeriodicGrid(128)
        x = grid.nodes
        eta = RealField(grid, 0.1 * np.cos(x))
        phi = RealField(grid, 0.1 * np.sin(x) + 0.05 * np.cos(2 * x) + 0.02 * np.sin(3 * x))
        # the warm call gets no b, so the reference is the explicit b_p
        data = [(eta, phi), (eta, RealField(grid, 1.01 * phi.values))]
        clean, seen = waterwave._gmres, []

        def spy(apply_op, b, tol, max_iter, x0=None, residual=None):
            sol, res, r = clean(apply_op, b, tol, max_iter, x0, residual)
            ref = preconditioned_rhs(ws, *data[len(seen)])
            seen.append((x0 is not None, b is None, res,
                         np.linalg.norm(ref - apply_op(sol)) / np.linalg.norm(ref), tol))
            return sol, res, r

        monkeypatch.setattr(waterwave, "_gmres", spy)
        ws = _StripWorkspace(grid, 16, 0.2)
        for eta_i, phi_i in data:
            ws.solve(eta_i, phi_i, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True,
                     guess=ws.last_solution)
        assert [(warm, no_b) for warm, no_b, *_ in seen] == [(False, False), (True, True)]
        for _, _, res, true, tol in seen:
            assert res <= tol
            assert abs(res - true) <= 10.0 * tol

    def test_claimed_convergence_reports_the_true_residual(self):
        # the Krylov space of e2 under [[1, M], [0, 1]] closes exactly after
        # two steps, so the Givens estimate is exactly 0 and GMRES stops
        # there; x = (-M, 1) comes out one rounding of M off, and the true
        # relative residual is ulp(1e8) = 1.5e-8
        a = np.array([[1.0, 1e8], [0.0, 1.0]])
        b = np.array([0.0, 1.0])
        calls = []

        def apply_op(v):
            calls.append(1)
            return a @ v

        x, res, _ = _gmres(apply_op, b, 1e-12, 20)
        true = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert len(calls) == 2
        assert true > 1e-12
        assert res == pytest.approx(true, rel=1e-6)

    def test_random_systems_match_a_direct_solve(self):
        # well-conditioned 20 x 20 systems, cold and warm: x is the direct
        # solution, and the returned residual is the recomputed one
        rng = np.random.default_rng(20)
        for trial in range(8):
            a = np.eye(20) + 0.3 * rng.standard_normal((20, 20)) / np.sqrt(20)
            b = rng.standard_normal(20)
            ref = np.linalg.solve(a, b)
            x0 = ref + 1e-3 * rng.standard_normal(20) if trial % 2 else None
            x, res, _ = _gmres(lambda v: a @ v, b, 1e-14, 20, x0,
                               residual=lambda x0: (b - a @ x0, np.linalg.norm(b)))
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
            assert abs(res - np.linalg.norm(b - a @ x) / np.linalg.norm(b)) <= 1e-14

    @pytest.mark.parametrize("reported", [1e-3, np.nan])
    def test_unconverged_strip_solve_raises(self, grid64, monkeypatch, reported):
        # a GMRES call that ends above tol, or at NaN, ends the solve with a
        # typed error rather than a returned potential
        calls = []

        def stuck(apply_op, b, tol, max_iter, x0=None, residual=None):
            calls.append(1)
            return np.zeros_like(b), reported, np.zeros_like(b)

        monkeypatch.setattr(waterwave, "_gmres", stuck)
        phi = field_from_function(grid64, np.cos)
        with pytest.raises(NonConvergenceError):
            strip_solution(zeros(grid64), phi, 0.3, 16)
        assert len(calls) == 1


def ww_count_case(t_end=0.02, dt=1e-3):
    """The run the stage-guess tests share, 20 steps by default: simulate's
    wave at N = 128, delta = 0.2, dt = 1e-3 on the warm exact:16 backend."""
    grid = PeriodicGrid(128)
    eta0 = field_from_function(grid, lambda x: 0.1 * np.cos(x))
    return ww_run(WwState(eta0, zeros(grid), 0.2),
                  SimConfig(t_end=t_end, dt=dt, record_every=20),
                  DtnBackend.exact(16))


def counted_strip_run(monkeypatch, t_end, dt=1e-3):
    """(strip solves, strip applications) of ww_count_case(t_end, dt)."""
    counts = {"apply": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_StripWorkspace, "_apply", counted("apply", _StripWorkspace._apply))
    monkeypatch.setattr(_StripWorkspace, "solve", counted("solve", _StripWorkspace.solve))
    assert ww_count_case(t_end, dt).diagnostics.aborted is None
    return counts["solve"], counts["apply"]


class TestStageGuesses:
    def test_strip_applications_per_solve(self, monkeypatch):
        # guesses from the last four polished entries: 1.61 operator
        # applications per strip solve on this run, 1.94 from the last
        # three unpolished ones, 2.78 from two, 3.76 with the RK4-tableau
        # guesses of the last step alone
        solves, applies = counted_strip_run(monkeypatch, 0.02)
        assert solves == 82
        assert applies / solves <= 1.75

    def test_strip_applications_per_solve_on_simulate_run(self, monkeypatch):
        # simulate's 200-step run: 1.48 applications per solve with guesses
        # from the last four polished entries (per stage 1.01, 1.60, 1.73,
        # 1.60, and 0.91 per record), 1.56 from three polished ones, 1.86
        # from three unpolished ones, whose stage-2 and stage-4 guesses
        # started GMRES near 5e-12; 3.16 with a flat preconditioner that
        # missed the Nyquist mode
        solves, applies = counted_strip_run(monkeypatch, 0.2)
        assert solves == 811
        assert applies / solves <= 1.6

    def test_strip_applications_per_solve_at_convergence_cadence(self, monkeypatch):
        # the same run at convergence's dt = 5e-4: 1.46 applications per
        # solve with four polished entries, 1.80 with three unpolished ones
        solves, applies = counted_strip_run(monkeypatch, 0.2, 5e-4)
        assert solves == 1621
        assert applies / solves <= 1.6

    def test_guesses_change_iteration_counts_only(self, monkeypatch):
        # every stage guess goes through _stage_guess: switched off, the
        # run makes more strip applications and lands on the same states
        clean, applies = _StripWorkspace._apply, []

        def counted(*args):
            applies.append(1)
            return clean(*args)

        monkeypatch.setattr(_StripWorkspace, "_apply", counted)
        with_guess = ww_count_case()
        guessed = len(applies)
        monkeypatch.setattr(ik_solver, "_stage_guess", lambda *args: None)
        without = ww_count_case()
        assert len(applies) - guessed > guessed
        for n in WwState.FIELDS:
            a, b = getattr(with_guess.final, n).values, getattr(without.final, n).values
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        ea, eb = with_guess.diagnostics.energy, without.diagnostics.energy
        assert len(ea) == len(eb)
        assert all(abs(x - y) <= 1e-10 * abs(y) for x, y in zip(ea, eb))
