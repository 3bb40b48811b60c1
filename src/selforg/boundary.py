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

The overlaps B0 = integral n phi_c^2 and N_eff = integral n phi_c^2 phi_p^2
are 3D integrals done as 2D quadratures: Gauss-Legendre nodes in
s = sqrt(1 - rho^2) and trapezoid nodes in phi on the (x, z) ellipse
x = Rx rho cos(phi), z = Rz rho sin(phi).  The (x, z) integrand is the
square of params.mode_profiles at y = 0; the y integral of the inverted
parabola times the Gaussian mode factors is in closed form (erf, or its
power series near the rim of the cloud, where erf cancels).  E_int
has the closed form of the Thomas-Fermi profile (Dalfovo, Giorgini,
Pitaevskii & Stringari, Rev. Mod. Phys. 71, 463 (1999)).  The largest
level the default doubling builds is (768, 1024) nodes, 6 MiB per array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .params import (ExperimentParams, collision_strength, csv_table,
                     mode_profiles, _recoil_scale)


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
        radii = (self.radius_x, self.radius_y, self.radius_z)
        r2 = sum((np.asarray(c) / r) ** 2 for c, r in zip((x, y, z), radii))
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
    radii = (math.sqrt(2 * mu / (m * w * w)) for w in (wx, wy, wz))
    return ThomasFermiProfile(mu, *radii, peak_density=mu / g, atom_number=n)


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


# Largest (n_s, n_phi) level the doubling may build: 2**21 nodes is
# 16 MiB per float array; a call that would go beyond it raises
# QuadratureError instead of allocating.
_MAX_NODES = 2**21


def _y_factor(b):
    """F(b) = integral_{-1}^{1} (1 - t^2) exp(-b t^2) dt for an array b >= 0.

    Below b = 1 the erf form cancels catastrophically (b -> 0 at the rim
    of every cloud), so the series 4 sum_n (-b)^n / (n! (2n+1)(2n+3)) is
    summed there; 20 terms put the truncation below 1e-22.
    """
    small = b < 1.0
    minus_b = -b[small]
    term = np.full(minus_b.shape, 4.0 / 3.0)
    f_small = term.copy()
    for n in range(1, 21):
        term *= minus_b * (2 * n - 1) / (n * (2 * n + 3))
        f_small += term
    big = b[~small]
    g0 = np.sqrt(np.pi / big) * np.array([math.erf(v) for v in np.sqrt(big)])
    f = np.empty_like(b)
    f[small] = f_small
    f[~small] = g0 * (1.0 - 0.5 / big) + np.exp(-big) / big
    return f


def _overlaps_at_resolution(profile, params, n_s, n_phi):
    """(N_eff, B0) on n_s x n_phi nodes of the (x, z) ellipse."""
    u, wu = np.polynomial.legendre.leggauss(n_s)
    s = 0.5 * (u + 1.0)
    rho = np.sqrt(1.0 - s * s)[:, None]
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    k, _ = _recoil_scale(params)
    x = k * profile.radius_x * rho * np.cos(phi)        # in 1/k
    z = k * profile.radius_z * rho * np.sin(phi)
    phi_c, phi_p = mode_profiles(params, x, 0.0, z)
    a_c = 2.0 / params.cavity_waist**2
    a_p = a_c + 2.0 / params.pump_waist_y**2
    ry2s2 = (profile.radius_y * s) ** 2
    # n0 * area element Rx Rz s ds dphi * the y integral Ry s^3 F(a Ry^2 s^2)
    w = (profile.peak_density * profile.radius_x * profile.radius_y
         * profile.radius_z * (np.pi / n_phi) * wu * s**4)
    xz = phi_c * phi_c                  # (x, z) part of phi_c^2
    b0 = float(xz.sum(axis=1) @ (w * _y_factor(a_c * ry2s2)))
    xz *= phi_p * phi_p
    n_eff = float(xz.sum(axis=1) @ (w * _y_factor(a_p * ry2s2)))
    return np.array([n_eff, b0])


def overlap_integrals(profile: ThomasFermiProfile, params: ExperimentParams,
                      rtol=1e-7, start=(24, 32), max_doublings=5):
    """Overlap integrals over the Thomas-Fermi ellipsoid.

    The oscillatory cos^2 factors are integrated numerically (the cloud
    spans only a few pump wavelengths along x and z, so the 1/2 average is
    not assumed) on the (x, z) ellipse x = Rx rho cos(phi),
    z = Rz rho sin(phi): Gauss-Legendre nodes in s = sqrt(1 - rho^2) and
    the trapezoid rule in phi, area element Rx Rz s ds dphi, in which the
    integrand is analytic.  Along y the integrand (s^2 - y^2/Ry^2)
    exp(-a y^2) integrates in closed form to Ry s^3 F(a Ry^2 s^2) (see
    ``_y_factor``; a = 2/w_c^2 for B0, 2/w_c^2 + 2/w_y^2 for N_eff).
    E_int uses integral(n^2) = n0^2 Rx Ry Rz 32 pi/105 and needs no
    quadrature.  The (n_s, n_phi) node counts double from ``start`` until
    N_eff and B0 are stable to ``rtol`` relative; the default reaches at
    most (768, 1024) nodes, 6 MiB per array.  Non-convergence, or a level
    beyond 2**21 nodes, raises QuadratureError carrying the last estimate
    and error bound.
    """
    n_s, n_phi = start
    est, nodes, err = None, None, math.inf
    for _ in range(max_doublings + 1):
        if n_s * n_phi > _MAX_NODES:
            break
        prev = est
        est = _overlaps_at_resolution(profile, params, n_s, n_phi)
        nodes = (n_s, n_phi)
        if prev is not None:
            err = float((np.abs(est - prev)
                         / np.maximum(np.abs(est), 1e-300)).max())
            if err < rtol:
                break
        n_s, n_phi = 2 * n_s, 2 * n_phi
    if not err < rtol:
        raise QuadratureError(
            f"overlap quadrature not converged to rtol={rtol:g} (last "
            f"level {nodes}, at most {_MAX_NODES} nodes per level)",
            estimate=est, error_bound=err)
    n_eff, b0 = est
    n2 = profile.peak_density**2 * profile.radius_x * profile.radius_y \
        * profile.radius_z * 32 * math.pi / 105
    e_int = collision_strength(params) / (2.0 * profile.atom_number) * n2
    dt = params.pump_cavity_detuning - params.single_atom_lightshift * b0
    for name, value in (("N_eff", n_eff), ("B0", b0)):
        if not (0 < value <= profile.atom_number * (1 + 1e-9)):
            raise ValueError(f"{name}={value:g} outside (0, N]")
    return OverlapIntegrals(n_eff=n_eff, bunching_0=b0,
                            interaction_energy=e_int, shifted_detuning=dt)


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
    _, omega_r = _recoil_scale(params)
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
