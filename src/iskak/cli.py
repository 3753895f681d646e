"""Command-line experiment runner.

    iskak <experiment> [--config FILE] [--output-dir DIR] [--override key=value ...]

Writes <experiment>.csv and <experiment>.summary.txt into the output
directory, prints one line per check, and exits 0 if every check passed,
1 if one failed or a solver failed, 2 for a configuration error or an
output file that cannot be written.  Configuration errors are found before
any run starts: an unknown key, a value that does not parse, every rule of
ExperimentConfig.__post_init__, an --output-dir that cannot be created
(it is created first), and a --config file that is invalid on its own,
before any --override applies, or names another experiment.  An output
file that cannot be written once the run is over, such as one with a
directory in its place, prints one "iskak: cannot write output" line.
The CSV and summary do not depend on --output-dir, so reruns into
different directories give byte-identical files.  The summary's params:
block is the full resolved configuration, keys the experiment does not
read included; passed back with --config it reruns the experiment.

A solver failure inside a run, its t = 0 record included, aborts that run
alone: the report is still written with the records taken before the
failure, and a FAIL check names each aborted run (a convergence sweep leg
starts none of its later runs).  A solver failure outside a run, such as
an initial depth below the floor, ends the experiment with no output files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENT_NAMES, apply_overrides, default_config, load_config
from .errors import SOLVER_ERRORS
from .experiments import ExperimentReport, run_experiment, summary_text, write_csv


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="iskak",
        description="run a named verification experiment and emit CSV + summary",
    )
    p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--output-dir", default=".", help="directory for CSV and summary output")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = default_config(args.experiment)
        if args.config:
            cfg = load_config(args.config, cfg)
        cfg = apply_overrides(cfg, args.override)
        if cfg.experiment != args.experiment:
            raise ValueError(
                f"config names experiment {cfg.experiment!r} but the command line "
                f"asked for {args.experiment!r}"
            )
        os.makedirs(args.output_dir, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"iskak: config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
    except SOLVER_ERRORS as exc:
        print(f"iskak: experiment failed: {exc}", file=sys.stderr)
        return 1

    out = os.path.join(args.output_dir, cfg.experiment)
    text = summary_text(report)
    try:
        write_csv(report, f"{out}.csv")
        with open(f"{out}.summary.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        if report.snapshots is not None:
            cols, rows = report.snapshots
            write_csv(ExperimentReport(cfg.experiment, cols, rows), f"{out}_snapshots.csv")
    except OSError as exc:
        print(f"iskak: cannot write output: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
