import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import stdtrit

from iskak import cli, experiments, ik_solver, waterwave
from iskak.cli import main
from iskak.config import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    apply_overrides,
    config_items,
    default_config,
    parse_config_text,
)
from iskak.errors import NonConvergenceError
from iskak.experiments import (
    Check,
    ExperimentReport,
    fit_loglog,
    run_dispersion,
    run_elliptic_suite,
    summary_text,
)
from iskak.waterwave import DtnBackend


class TestConfigParsing:
    def test_sections_and_values(self):
        text = """
        [experiment]
        experiment = convergence

        [grid]
        n_points = 64

        [sweep]  # grouping only
        delta = 0.4, 0.2, 0.1
        amplitude = 0.02
        """
        cfg = parse_config_text(text, default_config("convergence"))
        assert cfg.experiment == "convergence"
        assert cfg.n_points == 64
        assert cfg.delta == (0.4, 0.2, 0.1)
        assert cfg.amplitude == 0.02

    def test_unknown_keys_reported_together(self):
        text = "frobnicate = 3\nn_points = 64\nwibble = x\n"
        with pytest.raises(ValueError) as err:
            parse_config_text(text, default_config("dispersion"))
        msg = str(err.value)
        assert "frobnicate" in msg and "wibble" in msg and "n_points" not in msg.split("known")[0]

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("n_points = many\n", default_config("dispersion"))

    def test_empty_section_header_rejected(self):
        with pytest.raises(ValueError, match="section"):
            parse_config_text("[]\n", default_config("dispersion"))

    def test_overrides(self):
        cfg = apply_overrides(default_config("dispersion"),
                              ["seed=7", "delta=0.3,0.1"])
        assert cfg.seed == 7
        assert cfg.delta == (0.3, 0.1)

    def test_override_unknown_key(self):
        # files and overrides share one reader: every unknown key at once,
        # each named with its source
        with pytest.raises(ValueError) as err:
            apply_overrides(default_config("dispersion"), ["nope=1", "seed=2", "wibble=x"])
        assert str(err.value).startswith("unknown config keys: nope (override 'nope=1'), "
                                         "wibble (override 'wibble=x'); known keys: ")

    def test_bad_override_value_names_the_override(self):
        with pytest.raises(ValueError, match=r"^override 'n_points=many': bad value for n_points"):
            apply_overrides(default_config("dispersion"), ["n_points=many"])

    def test_removed_keys_are_unknown(self, tmp_path, capsys):
        # a summary written before these keys left the configuration names
        # them, and no longer parses back; delta_list is now delta, name was
        # another spelling of experiment, and the strip tolerance and the
        # reprojection cadence are constants of the code that uses them
        text = ("length = 1.0\nnoise_floor = 0\ntrials = 5\noutput_dir = out\n"
                "delta_list = 0.4,0.2\nname = convergence\ndtn_tol = 1e-12\n"
                "reproject_every = 10\n")
        with pytest.raises(ValueError, match=r"^unknown config keys: length \(line 1\), "
                           r"noise_floor \(line 2\), trials \(line 3\), output_dir \(line 4\), "
                           r"delta_list \(line 5\), name \(line 6\), dtn_tol \(line 7\), "
                           r"reproject_every \(line 8\);"):
            parse_config_text(text, default_config("convergence"))
        # on the command line, the values once refused by a rule are refused
        # as unknown keys, before any run starts
        for experiment, override in (("consistency", "dtn_tol=0"),
                                     ("simulate", "reproject_every=-1"),
                                     ("conservation", "reproject_every=0")):
            assert main([experiment, "--output-dir", str(tmp_path),
                         "--override", override]) == 2
            key = override.split("=")[0]
            assert (f"iskak: config error: unknown config keys: {key} (override {override!r})"
                    in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_dtn_spec(self):
        exact, series = DtnBackend.parse("exact:16"), DtnBackend.parse("series:0")
        assert (exact.kind, exact.n_z) == ("exact", 16)
        assert (series.kind, series.label()) == ("series", "series:0")
        for bad in ("exact", "exact:4", "series:1", "series:2", "series:7", "magic:1"):
            with pytest.raises(ValueError):
                DtnBackend.parse(bad)

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_params_block_round_trips(self, name):
        # a summary's params: lines, fed back as a config file, rebuild the
        # configuration that wrote them
        for cfg in (default_config(name), replace(default_config(name), model="ww")):
            text = summary_text(ExperimentReport(name, [], [], params=config_items(cfg)))
            params = text.split("params:\n", 1)[1].split("checks:", 1)[0]
            assert parse_config_text(params, ExperimentConfig()) == cfg

    def test_config_items_lists_every_field(self):
        from dataclasses import fields
        cfg = default_config("elliptic-suite")
        keys = [k for k, _ in config_items(cfg)]
        assert keys == [f.name for f in fields(ExperimentConfig)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="unknown")
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="dispersion", delta=(1.5,))
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="dispersion", amplitude=-1.0)
        simulate = default_config("simulate")    # one delta, as simulate runs
        with pytest.raises(ValueError, match="model"):
            replace(simulate, model="nope")
        # k0 runs up to the edge of the 2/3-rule band, floor(N/3), and no further
        assert replace(simulate, n_points=128, k0=42).k0 == 42
        with pytest.raises(ValueError, match="k0"):
            replace(simulate, n_points=128, k0=43)
        with pytest.raises(ValueError, match="simulate runs one delta"):
            replace(simulate, delta=(0.2, 0.3))
        with pytest.raises(ValueError, match="consistency compares deltas"):
            replace(default_config("consistency"), delta=(0.3,))


class TestSlopeFit:
    def test_recovers_power_law(self):
        deltas = np.array([0.4, 0.3, 0.2, 0.1])
        errs = 2.0 * deltas**3
        sf = fit_loglog(deltas, errs, 1e-12, "m")
        assert sf.slope == pytest.approx(3.0, abs=1e-10)
        assert sf.n_used == 4

    def test_noise_floor_discard(self):
        deltas = np.array([0.4, 0.3, 0.2, 0.1])
        errs = np.array([1e-2, 1e-3, 1e-4, 5e-11])
        sf = fit_loglog(deltas, errs, 1e-11, "m")
        assert sf.n_used == 3
        assert sf.n_discarded == 1

    def test_too_few_points_flagged(self):
        sf = fit_loglog([0.4, 0.2], [1e-2, 1e-3], 1e-12, "m")
        assert sf.slope is None
        assert "undefined-by-rule" in sf.describe()

    @pytest.mark.parametrize("errs,quantile", [
        ([1e-2, 2e-3, 1e-4], np.tan(0.475 * np.pi)),            # 1 degree of freedom
        ([1e-2, 2e-3, 1e-4, 3e-6], 0.95 / np.sqrt(0.04875)),   # 2 degrees of freedom
    ])
    def test_ci95_is_the_student_t_interval(self, errs, quantile):
        # the closed-form 97.5 % Student-t quantiles times the slope's
        # standard error, computed here by the textbook formula
        deltas = [0.4, 0.3, 0.2, 0.1][:len(errs)]
        lx, le = np.log(deltas), np.log(errs)
        cx, ce = lx - lx.mean(), le - le.mean()
        resid = ce - (cx @ ce / (cx @ cx)) * cx
        se = np.sqrt(resid @ resid / (len(errs) - 2) / (cx @ cx))
        sf = fit_loglog(deltas, errs, 1e-12, "m")
        assert sf.ci95 == pytest.approx(quantile * se, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dof", [*range(1, 61), 100, 500])
    def test_quantile_matches_scipy(self, dof):
        # scipy is the oracle here only; the fits themselves run without it
        assert experiments._t_quantile_975(dof) == pytest.approx(
            float(stdtrit(dof, 0.975)), rel=1e-13, abs=0.0)

    def test_nan_rows_ignored(self):
        deltas = np.array([0.4, 0.3, 0.2, 0.1])
        errs = np.array([1e-2, np.nan, 1e-4, 1e-5])
        sf = fit_loglog(deltas, errs, 1e-12, "m")
        assert sf.n_used == 3


class TestReports:
    def test_summary_marks_failures(self):
        rep = ExperimentReport("demo", ["a"], [[1.0]],
                               checks=[Check("good", True, "ok"),
                                       Check("bad", False, "broken")])
        text = summary_text(rep)
        assert "PASS good" in text
        assert "FAIL bad" in text
        assert text.strip().endswith("result: FAIL")
        assert not rep.passed

    def test_dispersion_report_shape(self):
        rep = run_dispersion(default_config("dispersion"))
        assert rep.passed
        assert rep.columns[0] == "x"
        # low-x rows are excluded from the fit by the threshold rule
        excluded = [r for r in rep.rows if r[0] < 0.05]
        assert excluded and all(r[4] == 0 for r in excluded)
        assert all(len(r) == len(rep.columns) for r in rep.rows)

    @pytest.mark.parametrize("drifts, passed, ratio", [
        ((1.6e-10, 1e-11), True, "16.00"),
        ((3.2e-12, 0.0), False, "nan"),         # finer drift at rounding
        ((np.nan, np.nan), False, "nan"),       # no record on either leg
    ])
    def test_halving_check(self, drifts, passed, ratio):
        # the check fails, with both drifts shown, where no ratio exists
        check = experiments._halving_check(2e-3, *drifts)
        assert check.passed == passed
        assert check.detail.startswith(
            f"drift(0.002) = {drifts[0]:.3e}, drift(0.001) = {drifts[1]:.3e} (")
        assert check.detail.endswith(f"ratio {ratio}")

    def test_elliptic_suite_deterministic_with_seed(self):
        cfg = replace(default_config("elliptic-suite"), n_points=64)
        r1 = run_elliptic_suite(cfg)
        r2 = run_elliptic_suite(cfg)
        assert r1.rows == r2.rows
        r3 = run_elliptic_suite(replace(cfg, seed=1))
        assert r3.rows != r1.rows


class TestCli:
    def test_dispersion_roundtrip(self, tmp_path, capsys):
        code = main(["dispersion", "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        csv = (tmp_path / "dispersion.csv").read_text()
        assert csv.splitlines()[0] == "x,c_model_sq,c_full_sq,gap,used_in_fit"
        summary = (tmp_path / "dispersion.summary.txt").read_text()
        assert summary == out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["elliptic-suite", "--output-dir", str(d), "--override", "seed=3",
                         "--override", "n_points=64"]) == 0
        assert (a / "elliptic-suite.csv").read_bytes() == (b / "elliptic-suite.csv").read_bytes()
        assert (a / "elliptic-suite.summary.txt").read_bytes() \
            == (b / "elliptic-suite.summary.txt").read_bytes()

    def test_config_file_and_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[experiment]\nexperiment = elliptic-suite\n"
                           "[suite]\nseed = 5\nn_points = 64\n")
        code = main(["elliptic-suite", "--config", str(cfgfile),
                     "--output-dir", str(tmp_path),
                     "--override", "seed=6"])
        assert code == 0
        summary = (tmp_path / "elliptic-suite.summary.txt").read_text()
        assert "seed = 6" in summary

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("does_not_exist = 1\n")
        assert main(["dispersion", "--config", str(cfgfile)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_file_line_without_equals(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[grid]\nn_points 64\n")
        assert main(["dispersion", "--config", str(cfgfile), "--output-dir", str(tmp_path)]) == 2
        assert "line 2: expected 'key = value'" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    @pytest.mark.parametrize("dt,t_end,message", [("0.1", "0.2", "CFL"),
                                                  ("1e-3", "0.0015", "integer number of steps"),
                                                  ("1e-3", "1e-12", "at least one"),
                                                  # t_end / dt overflows to inf
                                                  ("1e-320", "1", "integer number of steps")])
    def test_step_rules_are_config_errors(self, tmp_path, capsys, dt, t_end, message):
        code = main(["simulate", "--output-dir", str(tmp_path),
                     "--override", f"dt={dt}", "--override", f"t_end={t_end}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "simulate.csv").exists()

    def test_overflowing_initial_potential_fails_the_experiment(self, tmp_path, capsys):
        # |b| of the initial split overflows to inf: the elliptic pair solve
        # names the non-finite norm instead of returning phi1 = 0 as converged
        with np.errstate(over="ignore"):
            code = main(["simulate", "--output-dir", str(tmp_path),
                         "--override", "phi_amplitude=1e200", "--override", "t_end=0.01"])
        assert code == 1
        err = capsys.readouterr().err
        assert "experiment failed: elliptic pair solve: non-finite norm (|b| = inf)" in err
        assert not (tmp_path / "simulate.csv").exists()

    def test_record_every_error_names_its_own_rule(self, tmp_path, capsys):
        # reproject_every is no config key, so the message names only record_every
        code = main(["simulate", "--output-dir", str(tmp_path),
                     "--override", "record_every=0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "record_every must be >= 1" in err
        assert "reproject_every" not in err

    @pytest.mark.parametrize("spec", ["series:1", "series:2"])
    def test_stepped_series_spec_is_series_0_only(self, tmp_path, capsys, monkeypatch, spec):
        # the series backend steps Lambda^(0) alone; a higher order is refused
        # before any run starts, with the spec named
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("experiment ran"))
        code = main(["simulate", "--output-dir", str(tmp_path), "--override", "model=ww",
                     "--override", f"dtn={spec}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "iskak: config error" in err and repr(spec) in err

    @pytest.mark.parametrize("experiment,override", [
        ("consistency", "n_points=63"),
        ("simulate", "delta=0"),
        ("simulate", "delta=1.5"),
        ("simulate", "record_every=0"),
        ("simulate", "reproject_every=-1"),  # a removed key is an unknown key
        ("consistency", "k0=0"),
        ("simulate", "k0=100"),         # N = 128 would alias it to mode 28
        ("consistency", "phi_amplitude=0"),
        ("consistency", "delta=0.01,0.3"),
        ("consistency", "delta=0.3"),   # a band over one delta is 1 by construction
        ("conservation", "amplitude=0"),
        ("conservation", "reproject_every=0"),
        ("convergence", "delta=0.2,0.2,0.2"),
        ("simulate", "delta=0.2,0.3"),
        ("conservation", "delta=0.5,0.4"),
        ("elliptic-suite", "delta=0.2"),  # so is a spread
        ("simulate", "t_end=inf"),
        ("simulate", "amplitude=nan"),
        ("simulate", "cg_tol=0"),
        ("consistency", "dtn_tol=0"),
        ("elliptic-suite", "seed=-1"),
        ("simulate", "dt=0"),
        ("simulate", "dtn=exact:x"),
        # spellings of exact:16 that no backend label() writes
        ("simulate", "dtn=exact:016"),
        ("simulate", "dtn=exact:\u0661\u0666"),   # Arabic-Indic digits pass str.isdecimal
        # the degraded control as the map a model is measured against
        ("consistency", "dtn=series:0"),
        ("convergence", "dtn=series:0"),
        ("conservation", "dtn=series:0"),
        ("simulate", "dt"),             # an override without '='
        ("conservation", "t_end=1e-12"),  # shorter than one step
        ("conservation", "n_points=250"),  # its legs on n_points // 2 = 125 need an even grid
        ("conservation", "n_points=12"),   # and one of at least 8 points, not 6
        ("convergence", "t_end=1e308"),   # a step count that overflows
    ])
    def test_unrunnable_configs_are_config_errors(self, tmp_path, capsys, experiment, override):
        # rejected before any run starts: no traceback, no substituted value,
        # no check that passes over nothing
        code = main([experiment, "--output-dir", str(tmp_path), "--override", override])
        assert code == 2
        assert "iskak: config error" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_uncreatable_output_dir_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                      under):
        # an existing file, or a path under one, is found before any run starts
        blocker = tmp_path / "taken"
        blocker.write_text("")
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("experiment ran"))
        out = blocker / "sub" if under else blocker
        assert main(["dispersion", "--output-dir", str(out)]) == 2
        assert "iskak: config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["dispersion.csv", "dispersion.summary.txt"])
    def test_unwritable_output_file_is_a_clean_error(self, tmp_path, name):
        # a directory in an output file's place ends the command with one
        # line and exit 2, not a traceback after the run
        (tmp_path / name).mkdir()
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-m", "iskak.cli", "dispersion",
                              "--output-dir", str(tmp_path)],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("iskak: cannot write output: ")
        assert out.stderr.count("\n") == 1

    def test_seed_flag_is_gone(self, capsys):
        # --override seed=N is the one way to set the seed
        with pytest.raises(SystemExit) as exc:
            main(["elliptic-suite", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_every_experiment_name_dispatches(self):
        # the CLI choices and the dispatch table name the same six experiments
        assert len(EXPERIMENT_NAMES) == 6
        assert sorted(EXPERIMENT_NAMES) == sorted(experiments.EXPERIMENTS)

    def test_experiment_name_mismatch(self, tmp_path):
        cfgfile = tmp_path / "mismatch.cfg"
        cfgfile.write_text("experiment = convergence\n")
        assert main(["dispersion", "--config", str(cfgfile)]) == 2

    def test_depth_error_reads_below_the_floor(self, tmp_path, capsys):
        # amplitude 0.9 puts the trough at 1 - 0.9 = 0.09999999999999998,
        # which six significant digits would print as the floor itself
        assert main(["simulate", "--output-dir", str(tmp_path),
                     "--override", "amplitude=0.9"]) == 1
        assert capsys.readouterr().err == ("iskak: experiment failed: min depth "
                                           "0.09999999999999998 below floor 0.1\n")

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # legal config, but the initial trough sits below the depth floor
        code = main(["simulate", "--output-dir", str(tmp_path),
                     "--override", "amplitude=0.91", "--override", "n_points=64"])
        assert code == 1
        assert "experiment failed" in capsys.readouterr().err

    def test_failed_first_record_is_a_clean_abort(self, tmp_path, capsys, monkeypatch):
        # the strip solve of the t = 0 record cannot reach a tolerance of
        # 1e-17: the run aborts with no record, and the report is still written
        monkeypatch.setattr(waterwave, "DTN_TOL_DEFAULT", 1e-17)
        code = main(["simulate", "--output-dir", str(tmp_path), "--override", "model=ww",
                     "--override", "phi_amplitude=0.1", "--override", "t_end=0.01"])
        assert code == 1
        assert "experiment failed" not in capsys.readouterr().err
        csv = (tmp_path / "simulate.csv").read_text().splitlines()
        assert csv == ["time,mass,energy,constraint_max,min_depth,min_a,n_points,dt"]
        summary = (tmp_path / "simulate.summary.txt").read_text()
        assert "  FAIL run completed: strip potential solve: no convergence" in summary
        assert "PASS" not in summary

    def test_conservation_names_aborted_legs(self, tmp_path, monkeypatch):
        # solver failures injected into two legs, the finer order leg's 2nd
        # record (the 5th record at N = 64: the coarser leg makes 3 to
        # t = 0.1) and the reference leg's t = 0 record: the report fails and
        # names both legs, and the checks over a leg with no record evaluate
        # rather than raise
        def fail_on(owner, name, call, n_points=None):
            clean, calls = getattr(owner, name), []

            def failing(*args):
                if n_points in (None, args[0].grid.n_points):
                    calls.append(1)
                    if len(calls) == call:
                        raise NonConvergenceError(f"injected into {name}", 0, 1.0, 1e-12)
                return clean(*args)

            monkeypatch.setattr(owner, name, failing)

        fail_on(ik_solver, "_record", 5, n_points=64)
        fail_on(waterwave, "hamiltonian", 1)
        code = main(["conservation", "--output-dir", str(tmp_path),
                     "--override", "n_points=64", "--override", "t_end=0.1"])
        assert code == 1
        checks = (tmp_path / "conservation.summary.txt").read_text().split("checks:\n")[1]
        tail = ": no convergence in 0 iterations (residual 1.000e+00, tol 1.000e-12)"
        assert (f"  FAIL no aborted leg: order dt=0.001: injected into _record{tail}; "
                f"reference dt=0.001: injected into hamiltonian{tail}\n") in checks
        assert ("  FAIL reference run: mass <= 1e-11, Hamiltonian drift <= 1e-6: "
                "mass nan, energy nan\n") in checks
        assert checks.endswith("result: FAIL\n")
        # each leg's rows carry its own grid size and step; the finer order
        # leg kept its t = 0 record, and the reference leg wrote none
        header, *lines = (tmp_path / "conservation.csv").read_text().splitlines()
        cols = header.split(",")
        legs = {}
        for line in lines:
            cells = dict(zip(cols, line.split(",")))
            legs.setdefault(cells["leg"], []).append(
                (int(cells["n_points"]), float(cells["dt"]), float(cells["time"])))
        dt = default_config("conservation").dt
        assert {tag: {row[:2] for row in rows} for tag, rows in legs.items()} == {
            "rest": {(32, dt / 2)}, "order": {(64, dt), (64, dt / 2)}}
        assert [row[2] for row in legs["order"] if row[1] == dt / 2] == [0.0]

    @pytest.mark.parametrize("fault, worst", [("leak", "worst "), ("no-record", "worst nan\n")],
                             ids=["leak", "no-record"])
    def test_conservation_mass_check_reads_the_order_legs(self, tmp_path, monkeypatch,
                                                          fault, worst):
        # the order legs alone (N = 64 here; the rest leg runs on N = 32)
        # either leak mass into eta at each step, or the finer one fails every
        # record after the coarser one's three; the mass check fails on
        # either, on a NaN drift for the second, as do the constraint and
        # sign checks, though the coarser leg's records are clean
        calls = []
        if fault == "leak":
            clean = ik_solver._rk4_stages

            def leaking(s, dt, cg_tol, warm):
                out, warm = clean(s, dt, cg_tol, warm)
                if s.grid.n_points == 64:
                    out.eta.values += 1e-9
                return out, warm

            monkeypatch.setattr(ik_solver, "_rk4_stages", leaking)
        else:
            clean = ik_solver._record

            def failing(s, cg_tol, guess=None):
                if s.grid.n_points == 64:
                    calls.append(1)
                    if len(calls) > 3:
                        raise NonConvergenceError("injected into _record", 0, 1.0, 1e-12)
                return clean(s, cg_tol, guess)

            monkeypatch.setattr(ik_solver, "_record", failing)
        code = main(["conservation", "--output-dir", str(tmp_path),
                     "--override", "n_points=64", "--override", "t_end=0.1"])
        assert code == 1
        checks = (tmp_path / "conservation.summary.txt").read_text().split("checks:\n")[1]
        assert f"  FAIL mass drift <= 1e-11 on both order legs: {worst}" in checks
        assert "PASS rest state" in checks
        if fault == "no-record":
            assert len(calls) == 4
            assert ("  FAIL constraint residual <= 1e-8, transported without reprojection: "
                    "max residual nan\n") in checks
            assert ("  FAIL sign conditions: min depth and min a >= 0.5: "
                    "min depth nan, min a nan\n") in checks

    def test_conservation_rest_check_names_the_constraint(self, tmp_path, monkeypatch):
        # a constraint residual of 1e-9 on every IK record fails the rest
        # check by itself, and its detail names it next to the drifts that pass
        clean = ik_solver.constraint_residual

        def offset(s):
            return clean(s) + 1e-9

        monkeypatch.setattr(ik_solver, "constraint_residual", offset)
        code = main(["conservation", "--output-dir", str(tmp_path),
                     "--override", "n_points=64", "--override", "t_end=0.1"])
        assert code == 1
        checks = (tmp_path / "conservation.summary.txt").read_text().split("checks:\n")[1]
        assert ("  FAIL rest state: mass/energy/constraint drift <= 1e-12: "
                "mass 0.00e+00, energy 0.00e+00, constraint 1.00e-09\n") in checks

    def test_conservation_legs_read_the_config(self, tmp_path):
        # the rest and reference legs run on half the grid at half the step to
        # the configured t_end, at the defaults N = 128, dt = 1e-3 to t = 1.0,
        # with a record at each end; the order legs run on the grid at dt and
        # dt / 2 and record every record_every steps
        cfg = default_config("conservation")
        assert (cfg.n_points // 2, cfg.dt / 2, cfg.t_end) == (128, 1e-3, 1.0)
        main(["conservation", "--output-dir", str(tmp_path), "--override", "n_points=64",
              "--override", "t_end=0.02", "--override", "dt=0.005",
              "--override", "record_every=2"])
        header, *lines = (tmp_path / "conservation.csv").read_text().splitlines()
        cols = header.split(",")
        legs = {}
        for line in lines:
            cells = dict(zip(cols, line.split(",")))
            legs.setdefault(cells["leg"], []).append(
                (float(cells["time"]), int(cells["n_points"]), float(cells["dt"])))
        assert set(legs) == {"rest", "order", "reference"}
        for tag in ("rest", "reference"):
            assert {row[1:] for row in legs[tag]} == {(32, 0.0025)}
            assert [row[0] for row in legs[tag]] == [0.0, 0.02]
        assert [row[1:] for row in legs["order"]] == [(64, 0.005)] * 3 + [(64, 0.0025)] * 5
        assert [row[0] for row in legs["order"]] == pytest.approx(
            [0.0, 0.01, 0.02, 0.0, 0.005, 0.01, 0.015, 0.02])

    def test_conservation_constraint_check_sees_a_transport_fault(self, tmp_path, monkeypatch):
        # F2's 4/15 scaled to 4/15.15 breaks the transport of the
        # constraint: the order legs, which never reproject, read about
        # 1.1e-6 against 2.6e-13 clean, so the check fails on the fault alone
        clean = ik_solver.stage_sources

        def faulty(s, dc):
            eta_t, f1, f2 = clean(s, dc)
            return eta_t, f1, f2 * (15.0 / 15.15)

        def constraint_line(out):
            main(["conservation", "--output-dir", str(out), "--override", "t_end=0.1"])
            checks = (out / "conservation.summary.txt").read_text().split("checks:\n")[1]
            return next(line for line in checks.splitlines() if "constraint residual" in line)

        name = "constraint residual <= 1e-8, transported without reprojection"
        assert constraint_line(tmp_path / "clean").startswith(f"  PASS {name}: ")
        monkeypatch.setattr(ik_solver, "stage_sources", faulty)
        line = constraint_line(tmp_path / "faulty")
        assert line.startswith(f"  FAIL {name}: max residual ")
        assert 1e-7 < float(line.rsplit(" ", 1)[1]) < 1e-5

    def test_only_simulate_reprojects(self, tmp_path, monkeypatch):
        # conservation and convergence measure the constraint's transport
        # and never reproject; simulate's IK run reprojects every
        # REPROJECT_EVERY steps
        calls = []
        clean = ik_solver.reproject

        def counted(s, cg_tol):
            calls.append(1)
            return clean(s, cg_tol)

        monkeypatch.setattr(ik_solver, "reproject", counted)
        for argv in (["conservation", "--override", "n_points=64", "--override", "t_end=0.1"],
                     ["convergence", "--override", "n_points=32", "--override", "t_end=0.02",
                      "--override", "dt=1e-3", "--override", "record_every=10"]):
            main([*argv, "--output-dir", str(tmp_path / argv[0])])
            assert calls == [], argv[0]
        assert main(["simulate", "--output-dir", str(tmp_path / "simulate"),
                     "--override", "n_points=64", "--override", "t_end=0.05"]) == 0
        assert len(calls) == 50 // experiments.REPROJECT_EVERY

    def test_convergence_checks_the_velocity_slope(self, monkeypatch):
        # synthetic legs: surface error as delta^6, velocity error as delta^4,
        # control as delta^2, all far above the noise floor
        def leg(cfg, delta):
            errors = [(0.0, 0.0, 0.0, 0.0), (cfg.t_end, delta**6, delta**4, delta**2)]
            return experiments._ConvLeg(delta, errors, 0.9, 0.9, 0.0, None)

        monkeypatch.setattr(experiments, "_convergence_leg", leg)
        report = experiments.run_convergence(default_config("convergence"))
        verdicts = {c.name: c.passed for c in report.checks}
        assert verdicts["surface-error slope >= 5.5"]
        assert not verdicts["velocity-error slope >= 5.5"]
        assert verdicts["degraded-map control slope <= 2.5"]
        assert report.checks[1].detail.startswith("velocity_error: slope 4.000 +/- 0.000")

    @pytest.mark.parametrize("power, passed", [(6, True), (4, False)])
    def test_convergence_checks_the_delta6_band(self, monkeypatch, power, passed):
        # synthetic legs whose errors grow in time and scale as delta^power:
        # normalized by delta^6 they collapse for power 6 and spread by
        # (0.4 / 0.1)^2 = 16 over the default legs for power 4
        def leg(cfg, delta):
            errors = [(t, c * t * delta**power, 2 * c * t * delta**power, 0.1 * t * delta**2)
                      for t, c in ((0.0, 0.0), (0.5, 1.0), (1.0, 1.5))]
            return experiments._ConvLeg(delta, errors, 0.9, 0.9, 0.0, None)

        monkeypatch.setattr(experiments, "_convergence_leg", leg)
        report = experiments.run_convergence(default_config("convergence"))
        band = next(c for c in report.checks if c.name == "delta^6-normalized error band <= 3")
        assert band.passed is passed
        worst = "1.000" if passed else "16.000"
        surface, velocity = band.detail.split("; ")
        assert surface.startswith(f"surface worst {worst} at t=")
        assert velocity.startswith(f"velocity worst {worst} at t=")
        assert surface.endswith(f", {worst} at t=1") and velocity.endswith(f", {worst} at t=1")

    def test_delta6_band_leaves_out_noise_and_aborted_legs(self):
        # cells within 10x the noise floor and aborted legs (which record no
        # errors, as _convergence_leg builds them) do not count; a record
        # time left with fewer than two legs is skipped
        def leg(delta, errs, aborted=None):
            rows = [(t, e, e, 0.0) for t, e in zip((0.0, 0.5, 1.0), errs)]
            return experiments._ConvLeg(delta, rows, 0.9, 0.9, 0.0, aborted)

        legs = [leg(0.4, (0.0, 0.4**6, 2 * 0.4**6)),
                leg(0.2, (0.0, 3 * 0.2**6, 1e-12)),
                leg(0.1, (0.0, 0.1**6, 3e-12)),
                leg(0.3, (), aborted="injected")]
        assert experiments._delta6_bands(legs, 1) == [(0.5, pytest.approx(3.0))]
        bands = experiments._delta6_bands(legs[:1] + legs[3:], 2)
        assert bands == []
        assert not experiments._band_check(legs[:1]).passed

    def test_convergence_rest_data(self, tmp_path):
        # amplitude 0: every error sits at rounding and no slope is fitted
        code = main(["convergence", "--output-dir", str(tmp_path), "--override", "amplitude=0",
                     "--override", "n_points=32", "--override", "t_end=0.02",
                     "--override", "dt=1e-3", "--override", "record_every=10"])
        assert code == 0
        summary = (tmp_path / "convergence.summary.txt").read_text()
        assert "PASS rest data: errors at rounding, slope not fitted" in summary
        assert "surface-error slope" not in summary.split("checks:")[1]

    def test_convergence_rest_data_needs_a_completed_leg(self, tmp_path, monkeypatch):
        # every leg's reference aborts at its t = 0 record (a solver failure
        # injected into its energy), so no error was measured and the
        # rest-data check has nothing to pass over
        def failing(*args):
            raise NonConvergenceError("injected into hamiltonian", 0, 1.0, 1e-12)

        monkeypatch.setattr(waterwave, "hamiltonian", failing)
        code = main(["convergence", "--output-dir", str(tmp_path), "--override", "amplitude=0",
                     "--override", "n_points=32", "--override", "t_end=0.01"])
        assert code == 1
        summary = (tmp_path / "convergence.summary.txt").read_text()
        assert ("  FAIL rest data: errors at rounding, slope not fitted: "
                "max surface error 0.000e+00\n") in summary
        assert "  FAIL constraint residual <= 1e-8: max residual nan\n" in summary

    def test_convergence_flat_surface_under_a_potential_is_not_rest_data(self, tmp_path):
        # amplitude 0 with phi_amplitude > 0 moves the water: the slopes are
        # fitted and checked, and no rest check passes over them
        code = main(["convergence", "--output-dir", str(tmp_path), "--override", "amplitude=0",
                     "--override", "phi_amplitude=0.1", "--override", "n_points=64",
                     "--override", "t_end=0.02", "--override", "dt=5e-3",
                     "--override", "record_every=2"])
        checks = (tmp_path / "convergence.summary.txt").read_text().split("checks:\n")[1]
        for name in ("surface-error slope >= 5.5", "velocity-error slope >= 5.5",
                     "degraded-map control slope <= 2.5"):
            assert f" {name}: " in checks
        assert "rest data" not in checks
        assert code in (0, 1)

    def test_convergence_checks_the_constraint_residual(self, tmp_path):
        # k0 = 10 at N = 128 outruns the grid in the IK model runs, which do
        # not reproject: every leg completes and the constraint check fails
        code = main(["convergence", "--output-dir", str(tmp_path), "--override", "k0=10",
                     "--override", "t_end=0.1", "--override", "delta=0.4,0.2"])
        assert code == 1
        checks = (tmp_path / "convergence.summary.txt").read_text().split("checks:\n")[1]
        assert "  PASS no aborted sweep leg: all legs completed\n" in checks
        assert "  FAIL constraint residual <= 1e-8: max residual " in checks

    def test_sweep_leg_stops_at_its_first_aborted_run(self, tmp_path, monkeypatch):
        # every reference aborts at its t = 0 record: the sweep starts the
        # five references and neither the model nor the control of any leg
        started = []

        def counted(name):
            clean = getattr(experiments, name)

            def wrapper(*args):
                started.append(name)
                return clean(*args)
            return wrapper

        for name in ("run", "ww_run"):
            monkeypatch.setattr(experiments, name, counted(name))
        monkeypatch.setattr(waterwave, "DTN_TOL_DEFAULT", 1e-17)
        code = main(["convergence", "--output-dir", str(tmp_path), "--override", "n_points=32",
                     "--override", "phi_amplitude=0.1", "--override", "t_end=0.01"])
        assert code == 1
        assert started == ["ww_run"] * 5
        summary = (tmp_path / "convergence.summary.txt").read_text()
        assert "  FAIL no aborted sweep leg: delta=0.4: strip potential solve" in summary

    def test_consistency_without_delta_03_checks_the_worst_leg(self, tmp_path):
        code = main(["consistency", "--output-dir", str(tmp_path), "--override", "n_points=64",
                     "--override", "delta=0.4,0.2"])
        assert code == 0
        summary = (tmp_path / "consistency.summary.txt").read_text()
        assert "PASS two-path identity gap <= 1e-6 (worst leg): worst gap = " in summary
        assert "at delta=0.3" not in summary

    def test_simulate_flags_an_unresolved_constraint(self, tmp_path):
        # k0 = 10 at N = 128 outruns the grid: the IK constraint residual
        # climbs past the conservation bound, and the run says so
        code = main(["simulate", "--output-dir", str(tmp_path),
                     "--override", "k0=10", "--override", "t_end=0.1"])
        assert code == 1
        checks = (tmp_path / "simulate.summary.txt").read_text().split("checks:\n")[1]
        assert "  FAIL constraint residual <= 1e-8: max residual " in checks
        assert "PASS run completed" in checks

    def test_simulate_writes_snapshots(self, tmp_path):
        code = main(["simulate", "--output-dir", str(tmp_path),
                     "--override", "n_points=64", "--override", "t_end=0.05",
                     "--override", "dt=0.005", "--override", "record_every=5"])
        assert code == 0
        snap = (tmp_path / "simulate_snapshots.csv").read_text().splitlines()
        assert snap[0] == "time,x,eta,phi0,phi1"
        assert len(snap) > 64

    def test_ww_simulate_claims_nothing_about_min_a(self, tmp_path):
        # a water-wave run never computes a, so its sign check tests depth only
        code = main(["simulate", "--output-dir", str(tmp_path), "--override", "model=ww",
                     "--override", "n_points=64", "--override", "t_end=0.05",
                     "--override", "dt=0.005", "--override", "record_every=5"])
        assert code == 0
        summary = (tmp_path / "simulate.summary.txt").read_text()
        assert "min depth and min a" not in summary
        assert ("PASS sign condition: min depth >= 0.5 (min a is not computed for model=ww)"
                in summary)

    def test_ik_simulate_sign_check_prints_min_a(self, tmp_path):
        code = main(["simulate", "--output-dir", str(tmp_path),
                     "--override", "n_points=64", "--override", "t_end=0.05",
                     "--override", "dt=0.005", "--override", "record_every=5"])
        assert code == 0
        summary = (tmp_path / "simulate.summary.txt").read_text()
        assert re.search(r"\n  PASS sign conditions: min depth and min a >= 0\.5: "
                         r"min depth \d\.\d{4}, min a \d\.\d{4}\n", summary)

    def test_sweep_legs_independent(self, tmp_path):
        # a sweep leg's row does not depend on which other legs ran with it
        # or on its place in the sweep
        after, before = tmp_path / "after", tmp_path / "before"
        args = ["consistency", "--override", "n_points=64"]
        assert main(args + ["--override", "delta=0.4,0.3", "--output-dir", str(after)]) == 0
        assert main(args + ["--override", "delta=0.3,0.2", "--output-dir", str(before)]) == 0
        rows_after = (after / "consistency.csv").read_bytes().splitlines()
        rows_before = (before / "consistency.csv").read_bytes().splitlines()
        assert len(rows_after) == 3 and len(rows_before) == 3
        assert rows_after[0] == rows_before[0]
        assert rows_after[2] == rows_before[1]
        assert rows_before[1].startswith(b"3.000000000000e-01,")
