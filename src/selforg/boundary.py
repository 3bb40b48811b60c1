"""Analytic criticality engine.

Thomas-Fermi condensate in the crossed-beam trap, 3D overlap integrals of
the cavity/pump mode profiles over that cloud, and the critical pump
strength

    eta_cr * sqrt(N_eff)
        = (1/2) sqrt((Dt^2 + kappa^2)/(-Dt)) * sqrt(2*omega_r + 4*E_int/hbar)

with Dt = Delta_c - U0*B0 the detuning from the dispersively shifted cavity
resonance.  A real threshold requires Dt < 0; on the other side of the
shifted resonance the feedback is defocusing and no organization occurs.

Identifying omega = -Dt, omega0 = 2*omega_r + 4*E_int/hbar and
lambda_cr = eta_cr*sqrt(N_eff) makes this exactly the critical coupling of
the dissipative Dicke model (dicke.critical_coupling); the two expressions
are kept as independent code paths so the equivalence stays testable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .params import ExperimentParams, collision_strength, csv_table


class QuadratureError(RuntimeError):
    """Overlap quadrature failed to reach the requested tolerance.

    Carries the last estimate and error bound in .estimate / .error_bound.
    """

    def __init__(self, msg, estimate=None, error_bound=None):
        super().__init__(msg)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class ThomasFermiProfile:
    """Inverted-parabola condensate filling the harmonic trap up to mu."""

    chemical_potential: float   # J
    radius_x: float             # m
    radius_y: float
    radius_z: float
    peak_density: float         # 1/m^3
    atom_number: float

    def density(self, x, y, z):
        """max(0, (mu - V_harm)/g) evaluated through the stored radii."""
        r2 = ((np.asarray(x) / self.radius_x) ** 2
              + (np.asarray(y) / self.radius_y) ** 2
              + (np.asarray(z) / self.radius_z) ** 2)
        return self.peak_density * np.maximum(0.0, 1.0 - r2)


def thomas_fermi(params: ExperimentParams) -> ThomasFermiProfile:
    """Closed-form 3D Thomas-Fermi solution in the crossed-beam trap.

    mu = (hbar*wbar/2) * (15 N a / abar)^(2/5),  R_i = sqrt(2 mu / m w_i^2).
    """
    if params.scattering_length <= 0:
        raise ValueError("Thomas-Fermi profile needs scattering_length > 0")
    m = params.atom_mass
    n = params.atom_number
    wx, wy, wz = (params.trap_frequency_x, params.trap_frequency_y,
                  params.trap_frequency_z)
    wbar = (wx * wy * wz) ** (1.0 / 3.0)
    abar = math.sqrt(HBAR / (m * wbar))
    mu = 0.5 * HBAR * wbar * (15.0 * n * params.scattering_length / abar) ** 0.4
    g = collision_strength(params)
    return ThomasFermiProfile(
        chemical_potential=mu,
        radius_x=math.sqrt(2 * mu / (m * wx * wx)),
        radius_y=math.sqrt(2 * mu / (m * wy * wy)),
        radius_z=math.sqrt(2 * mu / (m * wz * wz)),
        peak_density=mu / g,
        atom_number=n,
    )


@dataclass(frozen=True)
class OverlapIntegrals:
    """Geometry overlaps of the non-organized cloud.

    n_eff = <phi_c^2 phi_p^2>: effective number of maximally scattering
    atoms; bunching_0 = <phi_c^2>: dispersive-shift overlap;
    interaction_energy = (g/2N) * integral(n^2) in joules per particle;
    shifted_detuning = Delta_c - U0*bunching_0 in rad/s for the parameter
    set the overlaps were computed from.
    """

    n_eff: float
    bunching_0: float
    interaction_energy: float
    shifted_detuning: float

    def __post_init__(self):
        if self.n_eff <= 0 or self.bunching_0 <= 0:
            raise ValueError("overlap integrals must be positive")
        if self.interaction_energy < 0:
            raise ValueError("interaction energy must be >= 0")


def _ball_quadrature_nodes(n_r, n_u, n_phi):
    """Tensor nodes/weights over the unit ball in spherical coordinates.

    Gauss-Legendre in the radius and in cos(theta), uniform (trapezoid) in
    the periodic azimuth; smooth integrands converge spectrally, including
    the oscillatory cos^2 mode factors once the node count resolves them.
    """
    r, wr = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (r + 1.0)
    wr = 0.5 * wr * r * r
    u, wu = np.polynomial.legendre.leggauss(n_u)       # u = cos(theta)
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2 * np.pi / n_phi)
    return (r.reshape(-1, 1, 1), wr.reshape(-1, 1, 1),
            u.reshape(1, -1, 1), wu.reshape(1, -1, 1),
            phi.reshape(1, 1, -1), wphi.reshape(1, 1, -1))


def _overlaps_at_resolution(profile, params, n_r, n_u, n_phi):
    r, wr, u, wu, phi, wphi = _ball_quadrature_nodes(n_r, n_u, n_phi)
    st = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    x = profile.radius_x * r * st * np.cos(phi)
    y = profile.radius_y * r * st * np.sin(phi)
    z = profile.radius_z * r * u
    k = 2 * math.pi / params.pump_wavelength
    phic2 = np.cos(k * x) ** 2 * np.exp(
        -2.0 * (y * y + z * z) / params.cavity_waist**2)
    phip2 = np.cos(k * z) ** 2 * np.exp(
        -2.0 * x * x / params.pump_waist_x**2
        - 2.0 * y * y / params.pump_waist_y**2)
    dens_shape = profile.peak_density * (1.0 - r * r)    # no clamp inside ball
    w = wr * wu * wphi * dens_shape
    jac = profile.radius_x * profile.radius_y * profile.radius_z
    b0 = jac * float((w * phic2).sum())
    n_eff = jac * float((w * phic2 * phip2).sum())
    norm = jac * float(w.sum())
    n2 = jac * profile.peak_density**2 * float((wr * wu * wphi
                                                * (1.0 - r * r) ** 2).sum())
    return np.array([n_eff, b0, norm, n2])


def overlap_integrals(profile: ThomasFermiProfile, params: ExperimentParams,
                      rtol=1e-7, start=(24, 24, 32), max_doublings=5):
    """3D overlap integrals over the Thomas-Fermi ellipsoid.

    The oscillatory cos^2 factors are integrated numerically (the cloud
    spans only a few pump wavelengths along x and z, so the 1/2 average is
    not assumed).  Node counts double until every integral is stable to
    ``rtol`` relative; non-convergence raises QuadratureError carrying the
    last estimate and error bound.
    """
    n_r, n_u, n_phi = start
    prev = _overlaps_at_resolution(profile, params, n_r, n_u, n_phi)
    for _ in range(max_doublings):
        n_r, n_u, n_phi = 2 * n_r, 2 * n_u, 2 * n_phi
        cur = _overlaps_at_resolution(profile, params, n_r, n_u, n_phi)
        err = np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)
        if err.max() < rtol:
            n_eff, b0, _, n2 = cur
            g = collision_strength(params)
            e_int = g / (2.0 * profile.atom_number) * n2
            dt = params.pump_cavity_detuning \
                - params.single_atom_lightshift * b0
            _validate_overlaps(n_eff, b0, e_int, profile.atom_number)
            return OverlapIntegrals(n_eff=n_eff, bunching_0=b0,
                                    interaction_energy=e_int,
                                    shifted_detuning=dt)
        prev = cur
    raise QuadratureError(
        f"overlap quadrature not converged to rtol={rtol:g} at "
        f"({n_r},{n_u},{n_phi}) nodes", estimate=prev,
        error_bound=float(err.max()))


def _validate_overlaps(n_eff, b0, e_int, n):
    if not (0 < n_eff <= n * (1 + 1e-9)):
        raise ValueError(f"N_eff={n_eff:g} outside (0, N]")
    if not (0 < b0 <= n * (1 + 1e-9)):
        raise ValueError(f"B0={b0:g} outside (0, N]")
    if e_int < 0:
        raise ValueError("interaction energy must be >= 0")


# ---------------------------------------------------------------------------
# critical pump strength and boundary curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    """Threshold data at one pump-cavity detuning.

    transition_exists is False above the shifted resonance (Dt >= 0), where
    eta_cr, lambda_cr and p_cr are NaN (a representable no-transition
    outcome, not an error).
    """

    delta_c: float          # rad/s
    delta_tilde: float      # rad/s
    eta_cr: float           # rad/s
    lambda_cr: float        # rad/s
    p_cr: float             # W
    transition_exists: bool


def critical_pump(delta_c, integrals: OverlapIntegrals,
                  params: ExperimentParams) -> CriticalPoint:
    """Critical two-photon Rabi frequency and pump power at one detuning.

    Implements the instability condition literally:
    eta_cr*sqrt(N_eff) = (1/2)*sqrt((Dt^2+kappa^2)/(-Dt))
                         * sqrt(2*omega_r + 4*E_int/hbar).
    The pump power follows from eta^2 = U0*V0/hbar and V0 = c_cal*P.
    """
    u0 = params.single_atom_lightshift
    dt = delta_c - u0 * integrals.bunching_0
    if dt >= 0:
        return CriticalPoint(delta_c, dt, math.nan, math.nan, math.nan, False)
    kappa = params.cavity_decay
    k = 2 * math.pi / params.pump_wavelength
    omega_r = HBAR * k * k / (2 * params.atom_mass)
    omega0_eff = 2 * omega_r + 4 * integrals.interaction_energy / HBAR
    eta_cr = 0.5 * math.sqrt((dt * dt + kappa * kappa) / (-dt)) \
        * math.sqrt(omega0_eff) / math.sqrt(integrals.n_eff)
    lambda_cr = eta_cr * math.sqrt(integrals.n_eff)
    denom = u0 * params.calibration_constant
    p_cr = HBAR * eta_cr**2 / denom if denom > 0 else math.nan
    return CriticalPoint(delta_c, dt, eta_cr, lambda_cr, p_cr, True)


def boundary_curve(delta_c_values, params: ExperimentParams,
                   integrals: OverlapIntegrals = None):
    """Threshold table over a detuning range (the phase-boundary curve).

    The overlaps of the non-organized cloud do not depend on the detuning,
    so they are computed once from the Thomas-Fermi profile unless supplied.
    """
    if integrals is None:
        integrals = overlap_integrals(thomas_fermi(params), params)
    return [critical_pump(dc, integrals, params) for dc in delta_c_values]


BOUNDARY_CSV_HEADER = "delta_c_hz,delta_tilde_hz,eta_cr,lambda_cr,p_cr_watt,transition_exists"


def boundary_table_csv(points):
    """Render CriticalPoints as CSV.

    Detunings are in Hz (angular values divided by 2*pi); eta_cr and
    lambda_cr stay angular (rad/s); power in watts.
    """
    return csv_table(BOUNDARY_CSV_HEADER, [
        (pt.delta_c / (2 * math.pi), pt.delta_tilde / (2 * math.pi),
         pt.eta_cr, pt.lambda_cr, pt.p_cr, pt.transition_exists)
        for pt in points])
