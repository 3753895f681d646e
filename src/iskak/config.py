"""Experiment configuration: flat key = value files with section headers.

Sections group keys for readability only; keys are globally unique, and
each field has one spelling.  Config files and command-line overrides go
through one reader, which reports every unknown key at once, each named with
its source.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .consistency import DELTA_FLOOR
from .ik_solver import SimConfig
from .operators import CG_TOL_DEFAULT
from .spectral import PeriodicGrid
from .waterwave import DtnBackend

EXPERIMENT_NAMES = (
    "dispersion",
    "convergence",
    "consistency",
    "conservation",
    "simulate",
    "elliptic-suite",
)


def _parse_delta(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _parse_str(text: str) -> str:
    """A string value; one matching pair of quotes, as config_items renders
    strings, is stripped."""
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


@dataclass
class ExperimentConfig:
    experiment: str = "dispersion"
    n_points: int = 128
    delta: tuple = (0.4, 0.3, 0.2, 0.15, 0.1)   # the delta values the experiment runs
    amplitude: float = 0.05
    phi_amplitude: float = 0.0
    k0: int = 1
    t_end: float = 1.0
    dt: float = 5e-4
    dtn: str = "exact:16"
    seed: int = 0
    record_every: int = 40
    cg_tol: float = CG_TOL_DEFAULT
    model: str = "ik"                # simulate: which solver to drive

    def __post_init__(self):
        # the one owner of whether this configuration can run, with the
        # rules of PeriodicGrid (n_points), DtnBackend.parse (dtn) and
        # SimConfig and its n_steps (dt, t_end, record_every) it calls
        if self.experiment not in EXPERIMENT_NAMES:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; pick one of {', '.join(EXPERIMENT_NAMES)}"
            )
        nonfinite = [f.name for f in fields(self)
                     if isinstance(f.default, float) and not np.isfinite(getattr(self, f.name))]
        if nonfinite:
            raise ValueError(f"{', '.join(nonfinite)} must be finite")
        grid = PeriodicGrid(self.n_points)
        if not self.delta or any(not 0.0 < d <= 1.0 for d in self.delta):
            raise ValueError("delta must be non-empty, with entries in (0, 1]")
        if len(set(self.delta)) < len(self.delta):
            # a slope fitted over repeated x values is not a measurement
            raise ValueError(f"delta entries must be distinct, got {self.delta}")
        if self.experiment in ("simulate", "conservation") and len(self.delta) != 1:
            raise ValueError(f"{self.experiment} runs one delta, got {self.delta}")
        if self.experiment in ("consistency", "elliptic-suite") and len(self.delta) < 2:
            # a spread over one delta is 1 by construction
            raise ValueError(f"{self.experiment} compares deltas and needs at least two, "
                             f"got {self.delta}")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be >= 0")
        if not 1 <= self.k0 <= self.n_points // 3:
            # above the 2/3-rule band the grid aliases k0 to another mode
            raise ValueError(f"k0 must be in [1, n_points // 3 = {self.n_points // 3}], "
                             f"got {self.k0}")
        if not self.cg_tol > 0.0:
            raise ValueError("cg_tol must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.model not in ("ik", "ww"):
            raise ValueError("model must be 'ik' or 'ww'")
        if DtnBackend.parse(self.dtn).kind == "series" and self.experiment != "simulate":
            # convergence, consistency and conservation measure against cfg.dtn
            raise ValueError(f"dtn 'series:0' is the degraded control, which only simulate "
                             f"may step; set exact:N for {self.experiment}")
        if self.experiment == "consistency" and not self.phi_amplitude > 0.0:
            raise ValueError("consistency needs phi_amplitude > 0")
        if self.experiment == "consistency" and min(self.delta) < DELTA_FLOOR:
            raise ValueError(f"consistency needs delta entries >= {DELTA_FLOOR} "
                             f"(the delta^-6 normalization), got {self.delta}")
        if self.experiment == "conservation" and self.amplitude <= 0.0:
            raise ValueError("conservation needs amplitude > 0")
        if self.experiment == "conservation":
            try:
                PeriodicGrid(self.n_points // 2)
            except ValueError as e:
                raise ValueError(f"conservation runs legs on n_points // 2: {e}") from None
        if self.experiment in ("convergence", "conservation", "simulate"):
            # the run's cadence, CFL and whole-step rules (conservation also
            # steps dt/2, on half the grid too, which passes whenever dt does)
            SimConfig(self.t_end, self.dt, record_every=self.record_every).n_steps(grid.spacing)


# one parser per field: the type of its default, delta a comma list,
# strings unquoted, so that a summary's params: block reads back as a config
_CASTERS = {f.name: (_parse_delta if f.name == "delta"
                     else _parse_str if isinstance(f.default, str)
                     else type(f.default))
            for f in fields(ExperimentConfig)}

_DEFAULTS = {    # where an experiment departs from the field defaults
    "consistency": dict(amplitude=0.1, phi_amplitude=0.1),
    # drift-order run: higher mode on a finer grid lifts the dt^4 signal
    # above the spectral floor, and dt = 2e-3 keeps the finer leg's drift
    # about a thousand machine epsilons above rounding
    "conservation": dict(n_points=256, k0=4, amplitude=0.1, delta=(0.5,), dt=2e-3, cg_tol=1e-13),
    "simulate": dict(amplitude=0.1, delta=(0.2,), dt=1e-3, record_every=20),
    "elliptic-suite": dict(delta=(0.05, 0.1, 0.2, 0.4)),
}


def default_config(experiment: str) -> ExperimentConfig:
    """Per-experiment defaults; the sweep experiments pick their own run scale."""
    return ExperimentConfig(experiment=experiment, **_DEFAULTS.get(experiment, {}))


def _read(items, base: ExperimentConfig) -> ExperimentConfig:
    """Apply (source, key, value) string triples to base: the one owner of
    the casts and the unknown-key rule."""
    unknown = [f"{key} ({src})" for src, key, _ in items if key not in _CASTERS]
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(unknown)
                         + "; known keys: " + ", ".join(sorted(_CASTERS)))
    updates: dict = {}
    for src, key, value in items:
        try:
            updates[key] = _CASTERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{src}: bad value for {key}: {exc}") from exc
    return replace(base, **updates)


def parse_config_text(text: str, base: ExperimentConfig) -> ExperimentConfig:
    """Apply key = value lines (with [section] headers and # comments) to base."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if not line[1:-1].strip():
                raise ValueError(f"line {lineno}: empty section header")
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        items.append((f"line {lineno}", key, value))
    return _read(items, base)


def load_config(path: str, base: ExperimentConfig) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply 'key=value' strings from the command line."""
    items = []
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, value = (p.strip() for p in item.split("=", 1))
        items.append((f"override {item!r}", key, value))
    return _read(items, cfg)


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Stable (key, rendered value) pairs for provenance output.

    The pairs are every field in declaration order, the full resolved
    configuration, including keys the chosen experiment or model does not
    read (simulate model=ww records cg_tol, dispersion delta), with delta as
    a comma list.  ``key = value`` lines of them parse back through
    parse_config_text into the same configuration, so a summary's params:
    block reruns the experiment.
    """
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            out.append((f.name, ",".join(repr(x) for x in v)))
        else:
            out.append((f.name, repr(v)))
    return out
