import numpy as np
import pytest

from iskak.consistency import (
    ConsistencyReport,
    dispersion_table,
    phase_speed_squared,
    remainder_R5,
    residuals,
)
from iskak.ik_solver import time_derivatives
from iskak.operators import IkState, ik_state_from_surface, surface_potential
from iskak import spectral
from iskak.spectral import PeriodicGrid, RealField, field_from_function, l2_norm
from iskak.waterwave import DtnBackend, WwState, lambda2, zcs_rhs

from conftest import random_band_limited, zeros


def cosine_pair(grid, amp):
    return (field_from_function(grid, lambda x: amp * np.cos(x)),
            field_from_function(grid, lambda x: amp * np.sin(x)))


def pointwise_residuals(s, backend):
    """(r1, r2) at the nodes: the model's dt eta and dt phi less the
    water-wave right side zcs_rhs, normalized by delta^-6."""
    ww_eta_t, ww_phi_t, _ = zcs_rhs(WwState(s.eta, surface_potential(s), s.delta), backend)
    d = time_derivatives(s)
    h, d2, inv_d6 = 1.0 + s.eta.values, s.delta**2, 1.0 / s.delta**6
    phi_t = d.phi0_t + d2 * (2.0 * h * d.eta_t * s.phi1.values + h * h * d.phi1_t)
    return (d.eta_t - ww_eta_t) * inv_d6, (phi_t - ww_phi_t) * inv_d6


class TestRemainderChain:
    def test_all_zero_without_phi1(self, grid64):
        s = IkState(zeros(grid64), field_from_function(grid64, np.sin), zeros(grid64), 0.3)
        assert np.abs(remainder_R5(s)).max() <= 1e-13

    def test_flat_substitution_values(self, grid64):
        # at flat data the chain is R1 = -0.4 cos x, R2 = 0.16 cos x and
        # R5 = -(2/3) (-0.4)^2 cos x; the tolerance is widened for the
        # k^2-per-Laplacian rounding down the chain
        s = IkState(zeros(grid64), zeros(grid64), field_from_function(grid64, np.cos), 0.3)
        x = grid64.nodes
        assert np.abs(remainder_R5(s) + (8.0 / 75.0) * np.cos(x)).max() <= 1e-8


class TestResiduals:
    def test_rest_state(self, grid64):
        s = IkState(zeros(grid64), zeros(grid64), zeros(grid64), 0.3)
        rep = residuals(s, DtnBackend.exact(16))
        assert rep.r1_norm <= 1e-12
        assert rep.r2_norm <= 1e-12

    def test_identity_gap_smooth_state(self, grid128):
        eta_p, phi_p = cosine_pair(grid128, 0.1)
        s = ik_state_from_surface(eta_p, phi_p, 0.3)
        rep = residuals(s, DtnBackend.exact(16))
        assert rep.identity_gap <= 1e-6 * max(1.0, rep.r5_max)

    def test_boundedness_band(self, grid128):
        eta_p, phi_p = cosine_pair(grid128, 0.1)
        backend = DtnBackend.exact(16)
        norms1, norms2 = [], []
        for delta in (0.4, 0.3, 0.2, 0.15, 0.1):
            rep = residuals(ik_state_from_surface(eta_p, phi_p, delta), backend)
            norms1.append(rep.r1_norm)
            norms2.append(rep.r2_norm)
        assert max(norms1) / min(norms1) <= 3.0
        assert max(norms2) / min(norms2) <= 3.0

    def test_gauge_invariance(self, grid128):
        # only gradients and Laplacians of phi0 enter either residual; the
        # surface-equation defects agree to 1e-12, so the normalized fields
        # differ only by solver rounding amplified by the delta^-6 scaling
        eta_p, phi_p = cosine_pair(grid128, 0.1)
        s = ik_state_from_surface(eta_p, phi_p, 0.3)
        backend = DtnBackend.exact(16)
        shifted = IkState(s.eta,
                          RealField(grid128, s.phi0.values + 0.7),
                          s.phi1, s.delta)
        r1, r2 = pointwise_residuals(s, backend)
        r1s, r2s = pointwise_residuals(shifted, backend)
        d6 = s.delta**6
        diff1 = np.abs(r1 - r1s).max()
        diff2 = np.abs(r2 - r2s).max()
        assert diff1 * d6 <= 1e-12
        assert diff2 * d6 <= 1e-12
        assert diff1 <= 1e-4 * residuals(s, backend).r1_norm

    def test_residuals_are_the_gaps_to_zcs_rhs(self, grid128):
        # r1 and r2 are the model's dt eta and dt phi less the water-wave
        # right side that the stepped runs use, bit for bit
        eta_p, phi_p = cosine_pair(grid128, 0.1)
        s = ik_state_from_surface(eta_p, phi_p, 0.3)
        rep = residuals(s, DtnBackend.exact(16))
        r1, r2 = pointwise_residuals(s, DtnBackend.exact(16))
        assert rep.r1_norm == l2_norm(RealField(grid128, r1))
        assert rep.r2_norm == l2_norm(RealField(grid128, r2))

    def test_delta_floor_guard(self, grid64):
        s = IkState(zeros(grid64), zeros(grid64), zeros(grid64), 0.01)
        with pytest.raises(ValueError):
            residuals(s, DtnBackend.series())


def test_symmetrized_form_equivalence(grid128):
    # two groupings of the fourth-order flux terms are algebraically equal:
    #   (1/6) L(H^3 L(H^2 L f)) - (1/30) L(H^5 L^2 f)
    #   = (1/15) L(H^3 L(H^2 L f)) + (1/15) L(H^2 L(H^3 L f))
    #     - (1/5) L(|grad eta|^2 H^3 L f)
    rng = np.random.default_rng(17)
    for _ in range(5):
        eta = random_band_limited(rng, grid128, 4, 0.1)
        phi = random_band_limited(rng, grid128, 4, 1.0)
        h = 1.0 + eta.values
        h2, h3, h5 = h * h, h**3, h**5

        def lap(v):
            return spectral.lap(grid128, v)

        lf = lap(phi.values)
        direct = lap(h3 * lap(h2 * lf)) / 6.0 - lap(h5 * lap(lf)) / 30.0
        grouped = (lap(h3 * lap(h2 * lf)) / 15.0
                   + lap(h2 * lap(h3 * lf)) / 15.0
                   - lap(spectral.dx(grid128, eta.values) ** 2 * h3 * lf) / 5.0)
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(direct - grouped).max() <= 1e-9 * scale


class TestDispersionTable:
    def test_small_x_limit(self):
        ((x, cm, cf, diff),) = dispersion_table([0.01])
        assert cm == pytest.approx(1.0, abs=1e-4)
        assert cf == pytest.approx(1.0, abs=1e-4)
        assert abs(diff) <= 1e-14

    def test_x_equal_one(self):
        ((_, cm, cf, diff),) = dispersion_table([1.0])
        assert cm == pytest.approx(16.0 / 21.0, rel=1e-14)
        assert cf == pytest.approx(np.tanh(1.0), rel=1e-14)
        assert diff == pytest.approx(3.106059489970166e-04, rel=1e-10)

    def test_gap_at_tenth(self):
        # leading term of the sixth-order Taylor gap: x^6/1575 plus tail
        ((_, _, _, diff),) = dispersion_table([0.1])
        assert diff == pytest.approx(6.295919e-10, rel=1e-5)

    def test_sixth_order_gap_slope(self):
        xs = np.geomspace(0.05, 0.5, 9)
        diffs = [abs(row[3]) for row in dispersion_table(xs)]
        slope = np.polyfit(np.log(xs), np.log(diffs), 1)[0]
        assert slope == pytest.approx(6.0, abs=0.2)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            dispersion_table([0.0])
        with pytest.raises(ValueError):
            dispersion_table([2.5])

    def test_phase_speed_vectorized(self):
        x = np.array([0.5, 1.0])
        out = phase_speed_squared(x)
        assert out[1] == pytest.approx(16.0 / 21.0)


def test_report_fields_finite(grid128):
    eta_p, phi_p = cosine_pair(grid128, 0.1)
    s = ik_state_from_surface(eta_p, phi_p, 0.2)
    rep = residuals(s, DtnBackend.exact(16))
    assert isinstance(rep, ConsistencyReport)
    for v in (rep.r1_norm, rep.r2_norm, rep.identity_gap, rep.r5_max):
        assert np.isfinite(v)
