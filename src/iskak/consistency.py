"""Residuals of the full surface equations along model states.

A constraint-satisfying state has an algebraic remainder chain: eliminating
phi0 through the constraint expands phi1, dt(eta) and the Bernoulli relation
in powers of the shallowness parameter, and what is left at sixth order is

    r1 = (dt eta - Lambda phi) / delta^6 = R5 - R9,

where R5 closes the continuity expansion (remainder_R5) and R9 is the tail
of the Dirichlet-to-Neumann series (formed in residuals): the only two
remainders the code forms.  Both sides are computed by independent code
paths (the exact Lambda value cancels in the difference), so the gap is a
pure cross-check of the expansion algebra and the constraint solve.

The Bernoulli residual r2 shares too much structure with its own remainder
identity to give an independent check; it is validated by delta-sweep
boundedness instead.  r2 compares the exact reconstruction dt phi = -F1 +
2 d^2 H (dt eta) phi1, which carries no additive constant, with the
2/3-truncated dt phi of waterwave.zcs_rhs, the water-wave right side the
stepped runs use; zcs_rhs also gives r1 its Lambda phi.  Both residuals are
invariant under shifting phi0 by a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ik_solver import time_derivatives
from .operators import CG_TOL_DEFAULT, IkState, surface_potential
from .spectral import RealField, dp, l2_norm, lap
from .waterwave import DtnBackend, WwState, dtn_series, zcs_rhs

__all__ = [
    "DELTA_FLOOR",
    "ConsistencyReport",
    "remainder_R5",
    "residuals",
    "dispersion_table",
    "phase_speed_squared",
]

DELTA_FLOOR = 0.05  # underflow guard on the delta^-6 normalization


@dataclass
class ConsistencyReport:
    """Sixth-order-normalized residual norms and the two-path identity gap."""

    delta: float
    r1_norm: float
    r2_norm: float
    identity_gap: float
    r5_max: float


def remainder_R5(s: IkState) -> np.ndarray:
    """R5 of the constraint-elimination remainder chain R1 -> R2 -> R5:
    R1 = S phi1, R2 = S R1 and R5 = (2/3) L(H^3 R2), with L the Laplacian
    and S v = L(H^2 v) / 2 - H^2 L(v) / 10.

    Products are 2/3-truncated for the same reason as the expansion terms of
    the Dirichlet-to-Neumann map: the chain stacks Laplacians, and the k^6
    amplification of an input's rounding tail would otherwise dominate the
    delta^-6-normalized residuals.
    """
    grid = s.grid
    h = 1.0 + s.eta.values
    h2 = h * h

    def step(v):
        return 0.5 * lap(grid, dp(grid, h2, v)) - 0.1 * dp(grid, h2, lap(grid, v))

    return (2.0 / 3.0) * lap(grid, dp(grid, h2 * h, step(step(s.phi1.values))))


def residuals(s: IkState, backend: DtnBackend, cg_tol: float = CG_TOL_DEFAULT) -> ConsistencyReport:
    """Evaluate both surface-equation residuals on a constraint-satisfying
    state, normalized by delta^6, plus the r1 identity gap."""
    if s.delta < DELTA_FLOOR:
        raise ValueError(f"delta^-6 normalization needs delta >= {DELTA_FLOOR}")
    grid = s.grid
    d2 = s.delta**2
    inv_d6 = 1.0 / s.delta**6
    h = 1.0 + s.eta.values

    d = time_derivatives(s, cg_tol)
    phi = surface_potential(s)
    ww_eta_t, ww_phi_t, _ = zcs_rhs(WwState(s.eta, phi, s.delta), backend)

    r1v = (d.eta_t - ww_eta_t) * inv_d6

    # exact reconstruction of dt phi; gauge-free (no additive constant)
    phi_t = d.phi0_t + d2 * (2.0 * h * d.eta_t * s.phi1.values + h * h * d.phi1_t)
    r2v = (phi_t - ww_phi_t) * inv_d6

    # series tail computed against the same Lambda evaluation used in r1
    r9 = (ww_eta_t - dtn_series(s.eta, phi, s.delta).values) * inv_d6
    r5 = remainder_R5(s)
    return ConsistencyReport(
        delta=s.delta,
        r1_norm=l2_norm(RealField(grid, r1v)),
        r2_norm=l2_norm(RealField(grid, r2v)),
        identity_gap=float(np.abs(r1v - (r5 - r9)).max()),
        r5_max=float(np.abs(r5).max()),
    )


def phase_speed_squared(x: np.ndarray) -> np.ndarray:
    """Squared phase speed of the model's plane waves at scaled wavenumber x."""
    x2 = np.asarray(x, dtype=float) ** 2
    return (1.0 + x2 / 15.0) / (1.0 + 0.4 * x2)


def dispersion_table(x_values) -> list[tuple[float, float, float, float]]:
    """Rows (x, model speed^2, full-problem speed^2, difference); x = delta*k."""
    rows = []
    for x in x_values:
        x = float(x)
        if not 0.0 < x <= 2.0:
            raise ValueError(f"scaled wavenumber must lie in (0, 2], got {x}")
        c_model = float(phase_speed_squared(x))
        c_full = float(np.tanh(x) / x)
        rows.append((x, c_model, c_full, c_model - c_full))
    return rows
