import numpy as np
import pytest

from iskak import ik_solver, operators
from iskak.errors import DepthTooSmallError, NonConvergenceError
from iskak.ik_solver import (
    SimConfig,
    reproject,
    rk4_step,
    run,
    time_derivatives,
)
from iskak.operators import (
    DepthCoefs,
    IkState,
    coef_a,
    constraint_residual,
    energy,
    ik_state_from_surface,
    stage_sources,
    surface_potential,
)
from iskak.spectral import PeriodicGrid, RealField, field_from_function, integrate, l2_norm

from conftest import random_band_limited, zeros


def rest_state(grid, delta=0.3):
    return IkState(zeros(grid), zeros(grid), zeros(grid), delta)


def cosine_state(grid, amplitude, delta, cg_tol=1e-12):
    eta0 = field_from_function(grid, lambda x: amplitude * np.cos(x))
    return ik_state_from_surface(eta0, zeros(grid), delta, cg_tol=cg_tol)


def l1_applications(monkeypatch, fn):
    """fn() and the number of L1 applications it made."""
    clean, calls = operators._l1_v, []

    def counted(*args):
        calls.append(1)
        return clean(*args)

    with monkeypatch.context() as m:
        m.setattr(operators, "_l1_v", counted)
        return fn(), len(calls)


@pytest.fixture(scope="module")
def wave_run():
    """The 1000-step cosine-wave run that two TestRun tests check."""
    s = cosine_state(PeriodicGrid(128), 0.1, 0.2)
    return run(s, SimConfig(t_end=1.0, dt=1e-3, record_every=100))


class TestEtaRhs:
    def test_rest(self, grid64):
        assert np.abs(time_derivatives(rest_state(grid64))[0]).max() == 0.0

    def test_flat_laplacian(self, grid64):
        s = IkState(zeros(grid64), field_from_function(grid64, np.cos), zeros(grid64), 0.3)
        assert np.abs(time_derivatives(s)[0] - np.cos(grid64.nodes)).max() <= 1e-12

    def test_divergence_form_zero_mean(self, grid64):
        rng = np.random.default_rng(1)
        s = IkState(random_band_limited(rng, grid64, 4, 0.2),
                    random_band_limited(rng, grid64),
                    random_band_limited(rng, grid64), 0.4)
        assert abs(integrate(RealField(grid64, time_derivatives(s)[0]))) <= 1e-13


class TestTimeDerivatives:
    def test_rest_fixed_point(self, grid64):
        d = time_derivatives(rest_state(grid64))
        assert len(d) == 3
        for f in d:
            assert np.abs(f).max() == 0.0

    def test_elevation_only_linearization(self, grid64):
        # small elevation: dt(eta) = 0 and the pair solve sees f1 = -eta, so
        # phi0_t tracks the flat-depth single-mode answer to O(eps^2)
        eps, delta = 1e-6, 0.4
        eta = field_from_function(grid64, lambda x: eps * np.cos(x))
        s = IkState(eta, zeros(grid64), zeros(grid64), delta)
        eta_t, phi0_t, _ = time_derivatives(s)
        assert np.abs(eta_t).max() == 0.0
        denom = 1.0 + 0.4 * delta**2
        expected = -eps * (1.0 - delta**2 / 10.0) / denom * np.cos(grid64.nodes)
        assert np.abs(phi0_t - expected).max() <= 1e-10

    def test_reconstruction_identity(self, grid64):
        rng = np.random.default_rng(2)
        s = IkState(random_band_limited(rng, grid64, 4, 0.15),
                    random_band_limited(rng, grid64, 5, 0.3),
                    random_band_limited(rng, grid64, 5, 0.3), 0.35)
        _, phi0_t, phi1_t = time_derivatives(s)
        h2 = (1.0 + s.eta.values) ** 2
        lhs = phi0_t + s.delta**2 * h2 * phi1_t
        assert np.abs(lhs + stage_sources(s, s.depth())[1]).max() <= 1e-8


class TestRk4Step:
    def test_rest_is_fixed_point(self, grid64):
        s = rest_state(grid64)
        out = rk4_step(s, 1e-2)
        for a, b in ((out.eta, s.eta), (out.phi0, s.phi0), (out.phi1, s.phi1)):
            assert np.abs(a.values - b.values).max() == 0.0

    def test_local_order_oracle(self):
        # one step vs two half steps isolates the O(dt^5) local error; the
        # state needs a nonzero potential, otherwise t=0 is a time-reflection
        # point where the odd-order coefficient vanishes
        from iskak.spectral import PeriodicGrid
        grid = PeriodicGrid(256)
        eta0 = field_from_function(grid, lambda x: 0.1 * np.cos(4 * x))
        phi0 = field_from_function(grid, lambda x: 0.1 * np.sin(4 * x) + 0.05 * np.cos(3 * x))
        s = ik_state_from_surface(eta0, phi0, 0.5, cg_tol=1e-13)
        errs = []
        for dt in (8e-3, 4e-3):
            one = rk4_step(s, dt, cg_tol=1e-13)
            two = rk4_step(rk4_step(s, dt / 2, cg_tol=1e-13), dt / 2, cg_tol=1e-13)
            errs.append(np.abs(one.eta.values - two.eta.values).max())
        assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.2)

    def test_forward_backward_returns(self):
        # a step reversed with -dt recovers the state to (at worst) the local
        # truncation level
        from iskak.spectral import PeriodicGrid
        grid = PeriodicGrid(256)
        eta0 = field_from_function(grid, lambda x: 0.1 * np.cos(4 * x))
        phi0 = field_from_function(grid, lambda x: 0.1 * np.sin(4 * x))
        s = ik_state_from_surface(eta0, phi0, 0.5, cg_tol=1e-13)
        dt = 4e-3
        back = rk4_step(rk4_step(s, dt, cg_tol=1e-13), -dt, cg_tol=1e-13)
        err = max(np.abs(back.eta.values - s.eta.values).max(),
                  np.abs(back.phi0.values - s.phi0.values).max())
        assert err <= 10.0 * dt**5

    def test_mass_exact_per_step(self, grid128):
        s = cosine_state(grid128, 0.1, 0.2)
        out = rk4_step(s, 1e-3)
        assert abs(integrate(out.eta) - integrate(s.eta)) <= 1e-12

    def test_backward_step_is_guess_independent(self, monkeypatch):
        # the reversibility path (dt < 0) takes the same stage guesses; with
        # every guess off it lands on the same state in more L1 applications
        s = cosine_state(PeriodicGrid(128), 0.1, 0.2)
        with_guess, guessed = l1_applications(monkeypatch, lambda: rk4_step(s, -1e-3))
        monkeypatch.setattr(ik_solver, "_stage_guess", lambda *args: None)
        without, unguessed = l1_applications(monkeypatch, lambda: rk4_step(s, -1e-3))
        assert unguessed > guessed
        for n in IkState.FIELDS:
            a, b = getattr(with_guess, n).values, getattr(without, n).values
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


class TestReproject:
    def test_rest_unchanged(self, grid64):
        out = reproject(rest_state(grid64))
        assert np.abs(out.phi0.values).max() <= 1e-14
        assert np.abs(out.phi1.values).max() <= 1e-14

    def test_already_consistent_state_unchanged(self, grid128):
        s = cosine_state(grid128, 0.1, 0.3)
        out = reproject(s)
        assert np.abs(out.phi0.values - s.phi0.values).max() <= 1e-9
        assert np.abs(out.phi1.values - s.phi1.values).max() <= 1e-9

    def test_restores_perturbed_constraint(self, grid128):
        s = cosine_state(grid128, 0.1, 0.3)
        bad = IkState(s.eta, s.phi0,
                      RealField(grid128, s.phi1.values + 0.5 * np.cos(grid128.nodes)),
                      s.delta)
        assert np.abs(constraint_residual(bad)).max() > 0.1
        fixed = reproject(bad)
        assert np.abs(constraint_residual(fixed)).max() <= 1e-8

    def test_surface_potential_preserved(self, grid128):
        s = cosine_state(grid128, 0.1, 0.3)
        bad = IkState(s.eta, s.phi0,
                      RealField(grid128, s.phi1.values + 0.5 * np.cos(grid128.nodes)),
                      s.delta)
        phi_before = surface_potential(bad)
        fixed = reproject(bad)
        assert np.abs(surface_potential(fixed) - phi_before).max() <= 1e-10


    @staticmethod
    def stepped_state():
        # ten steps of simulate's IK wave: the constraint holds to rounding
        s = cosine_state(PeriodicGrid(128), 0.1, 0.2)
        return run(s, SimConfig(t_end=0.01, dt=1e-3, record_every=10**9)).final

    @staticmethod
    def counted_reproject(s, monkeypatch):
        return l1_applications(monkeypatch, lambda: reproject(s))

    def test_warm_start_on_a_stepped_state(self, monkeypatch):
        # the solve starts from the state's own phi1: one L1 application
        # measures that it already meets the tolerance (8 from a cold start)
        s = self.stepped_state()
        out, calls = self.counted_reproject(s, monkeypatch)
        assert calls == 1
        cold = ik_state_from_surface(s.eta, RealField(s.grid, surface_potential(s)), s.delta)
        for n in ("phi0", "phi1"):
            a, b = getattr(out, n).values, getattr(cold, n).values
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_warm_start_off_the_constraint(self, monkeypatch):
        # a warm start keeps the tolerance: the result holds the constraint
        # as the cold split does
        s = self.stepped_state()
        bad = IkState(s.eta, s.phi0,
                      RealField(s.grid, s.phi1.values * (1.0 + 1e-6)), s.delta)
        assert np.abs(constraint_residual(bad)).max() > 1e-10
        out, calls = self.counted_reproject(bad, monkeypatch)
        assert calls > 1
        cold = ik_state_from_surface(bad.eta, RealField(bad.grid, surface_potential(bad)),
                                     bad.delta)
        for state in (out, cold):
            assert np.abs(constraint_residual(state)).max() <= 1e-12


class TestRecord:
    def test_one_depth_per_record(self, monkeypatch):
        # the derivative, coef_a, the energy and the constraint residual of
        # a record share one DepthCoefs, and give what the public calls give
        s = cosine_state(PeriodicGrid(128), 0.1, 0.2)
        clean, builds = DepthCoefs.from_eta, []

        def counted(eta):
            builds.append(1)
            return clean(eta)

        with monkeypatch.context() as m:
            m.setattr(DepthCoefs, "from_eta", counted)
            got = ik_solver._record(s, 1e-12)
        assert len(builds) == 1
        a = coef_a(s, time_derivatives(s, 1e-12)[2])
        assert got == (energy(s), float(np.abs(constraint_residual(s)).max()), float(a.min()))


class TestRun:
    def test_rest_run_flat_diagnostics(self, grid64):
        res = run(rest_state(grid64), SimConfig(t_end=0.5, dt=2e-3, record_every=50))
        assert res.diagnostics.aborted is None
        assert max(res.diagnostics.constraint_max) <= 1e-13
        assert np.abs(np.diff(res.diagnostics.energy)).max() <= 1e-14
        assert np.abs(np.diff(res.diagnostics.mass)).max() <= 1e-14

    def test_mass_and_energy_conservation(self, wave_run):
        res = wave_run
        assert res.diagnostics.aborted is None
        mass = np.asarray(res.diagnostics.mass)
        assert np.abs(mass - mass[0]).max() <= 1e-11
        e = np.asarray(res.diagnostics.energy)
        assert np.abs(e - e[0]).max() / e[0] <= 1e-7

    def test_sign_conditions_along_run(self, wave_run):
        res = wave_run
        assert min(res.diagnostics.min_depth) >= 0.5
        assert min(res.diagnostics.min_a) >= 0.5

    def test_constraint_drift_and_reprojection(self, grid128):
        s = cosine_state(grid128, 0.1, 0.2)
        free = run(s, SimConfig(t_end=0.5, dt=1e-3, record_every=100))
        assert max(free.diagnostics.constraint_max) <= 1e-10
        proj = run(s, SimConfig(t_end=0.5, dt=1e-3, record_every=100, reproject_every=10))
        assert max(proj.diagnostics.constraint_max) <= 1e-8

    def test_trajectory_recording(self, grid64):
        s = cosine_state(grid64, 0.05, 0.3)
        res = run(s, SimConfig(t_end=0.1, dt=2e-3, record_every=10))
        times = [t for t, _ in res.trajectory]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1)
        assert len(times) == len(res.diagnostics.times)

    def test_cfl_guard(self, grid64):
        s = rest_state(grid64)
        with pytest.raises(ValueError):
            run(s, SimConfig(t_end=1.0, dt=0.2))

    def test_blowup_guard(self, grid64, monkeypatch):
        # the crest of eta grows by 5e-4 a step, so the third step passes a
        # guard of 0.1013: run_loop rejects that state before it replaces
        # the second, whose record and state the run keeps
        eta0 = field_from_function(grid64, lambda x: 0.1 * np.cos(x))
        phi = field_from_function(grid64, lambda x: 0.05 * np.cos(x))
        monkeypatch.setattr(ik_solver, "BLOWUP_GUARD", 0.1013)
        res = run(ik_state_from_surface(eta0, phi, 0.3),
                  SimConfig(t_end=0.05, dt=1e-2, record_every=1))
        assert res.diagnostics.aborted.startswith("blow-up at t=0.03: max norm 1.015")
        assert res.diagnostics.times == [0.0, 0.01, 0.02]
        assert res.final is res.trajectory[-1][1]
        assert 0.1010 < res.final.eta.values.max() < 0.1013

    def test_failed_record_leaves_no_partial_row(self, grid64, monkeypatch):
        # the loop appends a record only after the model's part returned
        clean, calls = ik_solver._record, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NonConvergenceError("injected record failure", 0, 1.0, 1e-12)
            return clean(*args)

        monkeypatch.setattr(ik_solver, "_record", failing)
        res = run(cosine_state(grid64, 0.05, 0.3), SimConfig(t_end=0.02, dt=2e-3, record_every=5))
        diag = res.diagnostics
        assert diag.aborted.startswith("injected record failure")
        for series in (diag.times, diag.mass, diag.energy, diag.constraint_max,
                       diag.min_depth, diag.min_a, res.trajectory):
            assert len(series) == 1

    def test_abort_keeps_partial_diagnostics(self, grid64):
        # legal at t=0 but the strong flow drives the trough below the floor
        eta = field_from_function(grid64, lambda x: 0.4 * np.cos(x) - 0.45)
        s = IkState(eta, field_from_function(grid64, lambda x: 5.0 * np.sin(x)),
                    zeros(grid64), 1.0)
        res = run(s, SimConfig(t_end=2.0, dt=2e-2, record_every=1))
        assert res.diagnostics.aborted is not None
        assert len(res.diagnostics.times) >= 1

    # a NaN in each field's derivative (eta_t, phi0_t, phi1_t) at each stage,
    # and an eta_t that empties the column (-1e4 over a stage's dt / 2 or the
    # result's dt / 6 at dt = 2e-3) in k1, which the stage-2 state takes, and
    # in k4, which only the step result takes
    BAD_STAGES = [(i, row, np.nan, FloatingPointError)
                  for i in (1, 2, 3, 4) for row in (0, 1, -1)] + [
        (1, 0, -1e4, DepthTooSmallError), (4, 0, -1e4, DepthTooSmallError)]

    @pytest.mark.parametrize("stage,row,value,error", BAD_STAGES)
    def test_every_stage_state_and_result_is_checked(self, grid64, monkeypatch,
                                                     stage, row, value, error):
        # the state that takes the bad derivative (stage 2..4, or the step
        # result after stage 4) raises the typed error of check_state; in a
        # run that error aborts step 2 and keeps the records up to step 1
        clean, calls = ik_solver.time_derivatives, []

        def poison(at):
            def poisoned(*args, **kwargs):
                d = clean(*args, **kwargs)
                calls.append(d)
                if len(calls) == at:
                    d[row][0] = value
                return d
            return poisoned

        s = cosine_state(grid64, 0.05, 0.3)
        monkeypatch.setattr(ik_solver, "time_derivatives", poison(stage))
        with pytest.raises(error):
            rk4_step(s, 2e-3)
        calls.clear()
        # calls: the t = 0 record, step 1's four stages, the t = dt record
        monkeypatch.setattr(ik_solver, "time_derivatives", poison(6 + stage))
        res = run(s, SimConfig(t_end=0.1, dt=2e-3, record_every=1))
        diag = res.diagnostics
        expected = "field contains NaN/Inf" if error is FloatingPointError else "min depth"
        assert diag.aborted.startswith(expected)
        for series in (diag.mass, diag.energy, diag.constraint_max, diag.min_depth, diag.min_a,
                       res.trajectory):
            assert len(series) == 2
        assert diag.times == [0.0, 2e-3]
        assert res.final is res.trajectory[-1][1]
        assert 1.0 + res.final.eta.values.min() > 0.9


def test_energy_drift_order(grid128):
    # classical fourth-order stepping: halving dt divides the drift by ~16.
    # The conservation pair dt = 2e-3 / 1e-3: the finer drift is about 2.3e-13,
    # some thousand machine epsilons.  At 1e-3 / 5e-4 it is 1.4e-14, close
    # enough to rounding that solver iterates moving inside their tolerance
    # move the ratio by 2.5.
    from iskak.spectral import PeriodicGrid
    grid = PeriodicGrid(256)
    eta0 = field_from_function(grid, lambda x: 0.1 * np.cos(4 * x))
    s = ik_state_from_surface(eta0, zeros(grid), 0.5, cg_tol=1e-13)
    drifts = {}
    for dt in (2e-3, 1e-3):
        res = run(s, SimConfig(t_end=1.0, dt=dt, record_every=10**9, cg_tol=1e-13))
        e = res.diagnostics.energy
        drifts[dt] = abs(e[-1] - e[0]) / e[0]
    assert drifts[2e-3] / drifts[1e-3] == pytest.approx(16.0, abs=4.0)


def ik_count_case(s):
    """The 20-step run the stage-guess tests share: simulate's settings
    (N = 128, delta = 0.2, dt = 1e-3, reprojection every 10 steps)."""
    return run(s, SimConfig(t_end=0.02, dt=1e-3, reproject_every=10, record_every=20))


def stage_guesses(s, entry, steps):
    """The guesses rk4_fields hands the four stages of each of steps steps
    from s, whose stage results carry zero derivatives, so s stays put, and
    the solver entry entry(n, i) at stage i of step n = 1 - steps, .., 0."""
    guesses, warm = [], None
    for n in range(1 - steps, 1):
        seen, stage = [], iter(range(4))

        def rhs(state, guess):
            seen.append(guess)
            return tuple(np.zeros(16) for _ in state.FIELDS) + (entry(n, next(stage)),)
        s, warm = ik_solver.rk4_fields(s, 1e-3, rhs, warm)
        guesses.append(seen)
    return guesses


class TestStageGuesses:
    @staticmethod
    def states():
        from iskak.waterwave import WwState
        grid = PeriodicGrid(16)
        return rest_state(grid), WwState(zeros(grid), zeros(grid), 0.3)

    def test_three_step_guess_is_exact_for_quadratic_stage_series(self):
        # stage results quadratic in the step index n: extrapolating the
        # stage differences over three steps (the water-wave state's depth)
        # reproduces the stage, over two (the IK state's) it misses by the
        # curvature
        rng = np.random.default_rng(7)
        a, b, c = (rng.standard_normal((4, 16)) for _ in range(3))

        def entry(n, i):
            return a[i] + b[i] * n + c[i] * n * n
        ik, ww = self.states()
        three, two = stage_guesses(ww, entry, 4)[-1], stage_guesses(ik, entry, 4)[-1]
        for i in (1, 2, 3):
            exact = entry(0, i)
            assert np.abs(three[i] - exact).max() <= 1e-12 * np.abs(exact).max()
            assert np.abs(two[i] - exact).max() > 1e-3 * np.abs(exact).max()

    def test_two_step_guess_is_the_explicit_formula(self):
        # bit for bit: k1 <- P4 + (P1 - Q4) and ki <- k(i-1) + E_i with
        # E_i = 2 dPi - dQi over two past steps, 3 dPi - 3 dQi + dRi over
        # three, the stage differences dPi = Pi - P(i-1) formed once per step
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 4, 16))      # x[n][i]: stage i of step n, oldest first

        def entry(n, i):
            return x[n + 3][i]

        def diff(n, i):
            return x[n][i] - x[n][i - 1]
        ik, ww = self.states()
        for s, weights in ((ik, (2.0, -1.0)), (ww, (3.0, -3.0, 1.0))):
            k = stage_guesses(s, entry, 4)[-1]       # the newest step, from steps 2, 1, 0
            p, q = x[2], x[1]
            assert np.array_equal(k[0], p[3] + (p[0] - q[3]))
            for i in (1, 2, 3):
                e = weights[0] * diff(2, i) + weights[1] * diff(1, i)
                if len(weights) == 3:
                    e = e + weights[2] * diff(0, i)
                assert np.array_equal(k[i], x[3][i - 1] + e)

    def test_first_steps_take_the_one_rule(self):
        # bit for bit, k1 <- E1 and ki <- k(i-1) + Ei from n = 0, 1 and 2
        # past steps: no k1 guess and ki <- k(i-1) at n = 0, k1 <- P4 and
        # ki <- k(i-1) + dPi at n = 1, the two-step formula at n = 2
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 16))      # x[n][i]: stage i of step n, oldest first
        for s in self.states():
            first, second, third = stage_guesses(s, lambda n, i: x[n + 2][i], 3)
            assert first[0] is None
            for i in (1, 2, 3):
                assert np.array_equal(first[i], x[0][i - 1])
            p = x[0]
            assert np.array_equal(second[0], p[3])
            for i in (1, 2, 3):
                assert np.array_equal(second[i], x[1][i - 1] + (p[i] - p[i - 1]))
            p, q = x[1], x[0]
            assert np.array_equal(third[0], p[3] + (p[0] - q[3]))
            for i in (1, 2, 3):
                e = 2.0 * (p[i] - p[i - 1]) - (q[i] - q[i - 1])
                assert np.array_equal(third[i], x[2][i - 1] + e)

    def test_record_guess_is_the_next_k1_guess(self):
        # run_loop hands a record the guess the next step's k1 takes: none
        # at t = 0, E1 of the past entries after every step
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 4, 16))
        for s in self.states():
            steps, stage_seen, record_seen = iter(range(6)), [], []

            def step(state, warm):
                n, stage = next(steps), iter(range(4))

                def rhs(st, guess):
                    stage_seen.append(guess)
                    return tuple(np.zeros(16) for _ in st.FIELDS) + (x[n][next(stage)],)
                return ik_solver.rk4_fields(state, 1e-3, rhs, warm)

            def record(state, guess):
                record_seen.append(guess)
                return (0.0,)
            res = ik_solver.run_loop(s, SimConfig(t_end=5e-3, dt=1e-3, record_every=1),
                                     step, record)
            assert res.diagnostics.aborted is None and len(record_seen) == 6
            assert record_seen[0] is None and stage_seen[0] is None
            for n in range(1, 5):
                assert np.array_equal(record_seen[n], stage_seen[4 * n])

    def test_series_backend_entry_gives_no_guess(self):
        # the series backend computes no strip potential: its None entry
        # leaves every stage of every step without a guess
        for s in self.states():
            guesses = stage_guesses(s, lambda n, i: None, 5)
            assert all(g is None for step in guesses for g in step)

    def test_warm_start_keeps_guess_steps_of_stage_results(self):
        # rk4_fields hands on this step's entry and the newest
        # GUESS_STEPS - 1 past ones: two steps on the IK side, three on the
        # water-wave side
        from iskak.waterwave import WwState
        grid = PeriodicGrid(16)
        for s in (rest_state(grid), WwState(zeros(grid), zeros(grid), 0.3)):
            def rhs(state, guess):
                return tuple(np.zeros(16) for _ in state.FIELDS) + (np.zeros(16),)
            warm, depths = None, []
            for _ in range(5):
                s, warm = ik_solver.rk4_fields(s, 1e-3, rhs, warm)
                depths.append(len(warm))
            assert depths == [min(n, s.GUESS_STEPS) for n in range(1, 6)]

    def test_l1_applications_per_solve(self, monkeypatch):
        # guesses from the last two steps: 2.23 L1 applications per elliptic
        # solve (stages, records and reprojections) on this run, 3.57 with
        # the RK4-tableau guesses of the last step alone; stages k2-k4 take
        # 2.2 each, against 4.0; each warm-started reprojection takes 1
        s = cosine_state(PeriodicGrid(128), 0.1, 0.2)
        counts = {"l1": 0, "solve": 0}
        stages = ([], [], [], [])

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def per_stage(fields):
            def wrapper(st, dt, rhs, warm):
                index = iter(range(4))

                def counted_rhs(state, guess):
                    before = counts["l1"]
                    out = rhs(state, guess)
                    stages[next(index)].append(counts["l1"] - before)
                    return out
                return fields(st, dt, counted_rhs, warm)
            return wrapper

        monkeypatch.setattr(operators, "_l1_v", counted("l1", operators._l1_v))
        for module in (operators, ik_solver):   # reprojection; stages and records
            monkeypatch.setattr(module, "solve_elliptic_pair",
                                counted("solve", module.solve_elliptic_pair))
        monkeypatch.setattr(ik_solver, "rk4_fields", per_stage(ik_solver.rk4_fields))
        assert ik_count_case(s).diagnostics.aborted is None
        assert counts["solve"] == 84
        assert counts["l1"] / counts["solve"] <= 3.0
        later = [n for stage in stages[1:] for n in stage]
        assert len(later) == 60
        assert sum(later) / len(later) <= 3.5

    def test_guesses_change_iteration_counts_only(self, monkeypatch):
        # every stage guess goes through _stage_guess: switched off, the
        # run makes more L1 applications and lands on the same states
        s = cosine_state(PeriodicGrid(128), 0.1, 0.2)
        with_guess, guessed = l1_applications(monkeypatch, lambda: ik_count_case(s))
        monkeypatch.setattr(ik_solver, "_stage_guess", lambda *args: None)
        without, unguessed = l1_applications(monkeypatch, lambda: ik_count_case(s))
        assert unguessed > guessed
        for n in IkState.FIELDS:
            a, b = getattr(with_guess.final, n).values, getattr(without.final, n).values
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        ea, eb = with_guess.diagnostics.energy, without.diagnostics.energy
        assert len(ea) == len(eb)
        assert all(abs(x - y) <= 1e-10 * abs(y) for x, y in zip(ea, eb))
