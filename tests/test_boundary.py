import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selforg.constants import HBAR, BOHR_RADIUS
from selforg.boundary import (ThomasFermiProfile, OverlapIntegrals,
                              QuadratureError, thomas_fermi,
                              overlap_integrals, critical_pump,
                              boundary_curve, boundary_table_csv,
                              BOUNDARY_CSV_HEADER, _y_factor)
from selforg.dicke import critical_coupling
from selforg.params import ExperimentParams, collision_strength, derive

TWO_PI = 2 * math.pi


def paper_params(n_atoms=1.0e5):
    kappa = TWO_PI * 1.3e6
    return ExperimentParams(atom_number=n_atoms,
                            cavity_decay=kappa,
                            single_atom_lightshift=-6.5 * kappa / n_atoms)


def test_thomas_fermi_radii_regression():
    # N = 1e5, trap 2pi*(252, 48, 238) Hz, a = 100.4 a0: published radii
    # (3.2, 16.6, 3.3) um within 5%; frozen values from the closed-form
    # relations evaluated independently: (3.1402, 16.4862, 3.3249) um
    tf = thomas_fermi(ExperimentParams())
    assert tf.radius_x == pytest.approx(3.1402e-6, rel=1e-4)
    assert tf.radius_y == pytest.approx(16.4862e-6, rel=1e-4)
    assert tf.radius_z == pytest.approx(3.3249e-6, rel=1e-4)
    assert tf.radius_x == pytest.approx(3.2e-6, rel=0.05)
    assert tf.radius_y == pytest.approx(16.6e-6, rel=0.05)
    assert tf.radius_z == pytest.approx(3.3e-6, rel=0.05)


def test_thomas_fermi_scaling_law():
    # R_i ~ N^(1/5): doubling N scales every radius by 2^0.2
    tf1 = thomas_fermi(ExperimentParams(atom_number=5e4))
    tf2 = thomas_fermi(ExperimentParams(atom_number=1e5))
    for attr in ("radius_x", "radius_y", "radius_z"):
        ratio = getattr(tf2, attr) / getattr(tf1, attr)
        assert ratio == pytest.approx(2**0.2, rel=1e-10)
    with pytest.raises(ValueError):
        thomas_fermi(ExperimentParams(scattering_length=0.0))


def test_thomas_fermi_isotropic_trap():
    w = TWO_PI * 150.0
    tf = thomas_fermi(ExperimentParams(trap_frequency_x=w, trap_frequency_y=w,
                                       trap_frequency_z=w))
    assert tf.radius_x == tf.radius_y == tf.radius_z


def test_thomas_fermi_normalization_and_density():
    # integral of the inverted parabola equals N to 1e-6 relative
    tf = thomas_fermi(ExperimentParams())
    n = 181
    x = np.linspace(-tf.radius_x, tf.radius_x, n).reshape(-1, 1, 1)
    y = np.linspace(-tf.radius_y, tf.radius_y, n).reshape(1, -1, 1)
    z = np.linspace(-tf.radius_z, tf.radius_z, n).reshape(1, 1, -1)
    dv = (x[1, 0, 0] - x[0, 0, 0]) * (y[0, 1, 0] - y[0, 0, 0]) \
        * (z[0, 0, 1] - z[0, 0, 0])
    total = tf.density(x, y, z).sum() * dv
    assert total == pytest.approx(tf.atom_number, rel=1e-4)
    # closed form: (8 pi/15) n0 Rx Ry Rz = N exactly
    analytic = 8 * math.pi / 15 * tf.peak_density \
        * tf.radius_x * tf.radius_y * tf.radius_z
    assert analytic == pytest.approx(tf.atom_number, rel=1e-6)


def point_like_params():
    return ExperimentParams(atom_number=100,
                            trap_frequency_x=TWO_PI * 200e3,
                            trap_frequency_y=TWO_PI * 200e3,
                            trap_frequency_z=TWO_PI * 200e3,
                            scattering_length=0.1 * BOHR_RADIUS)


def test_overlap_point_like_cloud():
    # a cloud much smaller than both the wavelength and the waists sees the
    # profile maxima: N_eff -> N, B0 -> N
    p = point_like_params()
    tf = thomas_fermi(p)
    assert tf.radius_x < 0.05 * p.pump_wavelength
    ov = overlap_integrals(tf, p)
    assert ov.n_eff == pytest.approx(100.0, rel=1e-2)
    assert ov.bunching_0 == pytest.approx(100.0, rel=1e-2)


def test_overlap_wide_uniform_cloud():
    # many wavelengths across, waists huge: <cos^2> = 1/2 per axis,
    # so B0 -> N/2 and N_eff -> N/4
    p = ExperimentParams(atom_number=1e5,
                         cavity_waist=1.0, pump_waist_x=1.0, pump_waist_y=1.0)
    tf = thomas_fermi(p)
    ov = overlap_integrals(tf, p)
    assert ov.bunching_0 == pytest.approx(5e4, rel=1e-3)
    assert ov.n_eff == pytest.approx(2.5e4, rel=1e-3)


def test_dispersive_shift_against_published_value():
    # U0*B0 within 20% of -2pi*3.5 MHz for the published geometry
    p = paper_params()
    ov = overlap_integrals(thomas_fermi(p), p)
    shift = p.single_atom_lightshift * ov.bunching_0
    assert shift == pytest.approx(-TWO_PI * 3.5e6, rel=0.20)
    # frozen from an independent cartesian-trapezoid quadrature
    assert ov.bunching_0 / 1e5 == pytest.approx(0.443518, rel=1e-4)
    assert ov.n_eff / 1e5 == pytest.approx(0.215940, rel=1e-4)


def test_interaction_energy_matches_tf_identity():
    # for the inverted parabola, (g/2N) integral n^2 = (2/7) mu exactly
    p = ExperimentParams()
    tf = thomas_fermi(p)
    ov = overlap_integrals(tf, p)
    assert ov.interaction_energy == pytest.approx(
        2.0 / 7.0 * tf.chemical_potential, rel=1e-9)


def ball_oracle(profile, params, n_r=96, n_u=96, n_phi=128):
    """(N_eff, B0, integral n^2) by a 3D tensor quadrature over the ball.

    Independent of the program's (x, z) quadrature: spherical coordinates
    with Gauss-Legendre nodes in the radius and in cos(theta) and the
    trapezoid rule in the azimuth, every factor evaluated at the 3D node.
    About 10 MiB per array at the default resolution.
    """
    r, wr = np.polynomial.legendre.leggauss(n_r)
    r = (0.5 * (r + 1.0)).reshape(-1, 1, 1)
    wr = 0.5 * wr.reshape(-1, 1, 1) * r * r
    u, wu = np.polynomial.legendre.leggauss(n_u)       # u = cos(theta)
    u, wu = u.reshape(1, -1, 1), wu.reshape(1, -1, 1)
    phi = (2 * np.pi * np.arange(n_phi) / n_phi).reshape(1, 1, -1)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    x = profile.radius_x * r * sin_t * np.cos(phi)
    y = profile.radius_y * r * sin_t * np.sin(phi)
    z = profile.radius_z * r * u
    k = 2 * math.pi / params.pump_wavelength
    phic2 = np.cos(k * x) ** 2 * np.exp(
        -2.0 * (y * y + z * z) / params.cavity_waist**2)
    phip2 = np.cos(k * z) ** 2 * np.exp(
        -2.0 * x * x / params.pump_waist_x**2
        - 2.0 * y * y / params.pump_waist_y**2)
    jac = profile.radius_x * profile.radius_y * profile.radius_z \
        * 2 * np.pi / n_phi
    w = jac * profile.peak_density * wr * wu * (1.0 - r * r)
    n2 = float((jac * profile.peak_density**2 * wr * wu
                * (1.0 - r * r) ** 2).sum()) * n_phi
    return float((w * phic2 * phip2).sum()), float((w * phic2).sum()), n2


@pytest.mark.parametrize("params", [
    ExperimentParams(),
    point_like_params(),
    ExperimentParams(cavity_waist=1.0, pump_waist_x=1.0, pump_waist_y=1.0),
    ExperimentParams(atom_number=1e6),
], ids=["default", "point-like", "wide-waist", "N=1e6"])
def test_overlaps_match_ball_oracle(params):
    tf = thomas_fermi(params)
    ov = overlap_integrals(tf, params)
    n_eff, b0, n2 = ball_oracle(tf, params)
    assert ov.n_eff == pytest.approx(n_eff, rel=1e-9)
    assert ov.bunching_0 == pytest.approx(b0, rel=1e-9)
    e_int = collision_strength(params) / (2 * tf.atom_number) * n2
    assert ov.interaction_energy == pytest.approx(e_int, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(n_atoms=st.floats(1e2, 1e6),
       trap_hz=st.tuples(st.floats(100.0, 1000.0), st.floats(30.0, 1000.0),
                         st.floats(100.0, 1000.0)),
       waists=st.tuples(*[st.floats(10e-6, 1e-3)] * 3))
def test_overlap_ordering_property(n_atoms, trap_hz, waists):
    # phi_p^2 <= 1 and phi_c^2 <= 1 pointwise: 0 < N_eff <= B0 <= N, up to
    # the rounding of a sum over the quadrature nodes.  The x and z trap
    # frequencies stay >= 100 Hz, where the default levels resolve the cos^2
    # fringes; a cloud hundreds of wavelengths across (N = 1e6 at 40 Hz)
    # raises QuadratureError instead.
    p = ExperimentParams(atom_number=n_atoms,
                         trap_frequency_x=TWO_PI * trap_hz[0],
                         trap_frequency_y=TWO_PI * trap_hz[1],
                         trap_frequency_z=TWO_PI * trap_hz[2],
                         cavity_waist=waists[0], pump_waist_x=waists[1],
                         pump_waist_y=waists[2])
    ov = overlap_integrals(thomas_fermi(p), p)
    assert 0 < ov.n_eff <= ov.bunching_0 * (1 + 1e-12)
    assert ov.bunching_0 <= n_atoms * (1 + 1e-12)


@pytest.mark.parametrize("b", [0.0, 1e-12, 1e-6, 0.5, 1 - 1e-12, 1.0,
                               1 + 1e-12, 3.0, 50.0])
def test_y_factor_against_gauss_legendre(b):
    # F(b) = integral_{-1}^{1} (1 - t^2) exp(-b t^2) dt, series below b = 1
    # and erf above; a 200-node Gauss-Legendre rule is exact to round-off
    t, w = np.polynomial.legendre.leggauss(200)
    ref = float((w * (1 - t * t) * np.exp(-b * t * t)).sum())
    assert _y_factor(np.array([b]))[0] == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("max_doublings", [5, 12])
def test_nonconvergence_raises_before_memory_grows(max_doublings):
    # an unreachable rtol climbs through every level and must end in
    # QuadratureError with a bounded allocation peak; 12 doublings would
    # reach 10**11 nodes, so the node budget has to stop the climb
    p = ExperimentParams(atom_number=1e6)
    tf = thomas_fermi(p)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as err:
            overlap_integrals(tf, p, rtol=1e-17, max_doublings=max_doublings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert err.value.error_bound > 0
    assert err.value.estimate is not None


def test_overlap_validation_and_nonconvergence():
    with pytest.raises(ValueError):
        OverlapIntegrals(n_eff=-1.0, bunching_0=1.0, interaction_energy=0.0,
                         shifted_detuning=0.0)
    p = paper_params()
    tf = thomas_fermi(p)
    with pytest.raises(QuadratureError) as err:
        overlap_integrals(tf, p, rtol=1e-14, start=(4, 4), max_doublings=1)
    assert err.value.estimate is not None
    assert err.value.error_bound > 0


def test_critical_pump_reduces_to_dicke_form():
    # E_int = 0, kappa -> 0: eta_cr*sqrt(N_eff) = critical_coupling(-Dt, 2w_r)
    p = ExperimentParams(cavity_decay=1e-9,
                         single_atom_lightshift=-530.0)
    ov = OverlapIntegrals(n_eff=2.0e4, bunching_0=4.4e4,
                          interaction_energy=0.0, shifted_detuning=0.0)
    delta_c = -TWO_PI * 10e6
    cp = critical_pump(delta_c, ov, p)
    d = derive(p)
    lam_ref = critical_coupling(-cp.delta_tilde, 2 * d.recoil_frequency,
                                p.cavity_decay)
    assert cp.lambda_cr == pytest.approx(lam_ref, rel=1e-12)
    assert cp.eta_cr == pytest.approx(lam_ref / math.sqrt(2.0e4), rel=1e-12)


def test_no_transition_above_shifted_resonance():
    p = paper_params()
    ov = overlap_integrals(thomas_fermi(p), p)
    # detuning above the shifted resonance: Dt >= 0, no real threshold
    cp = critical_pump(p.single_atom_lightshift * ov.bunching_0 + 1e3, ov, p)
    assert not cp.transition_exists
    assert math.isnan(cp.eta_cr) and math.isnan(cp.p_cr)


def test_minimum_pcr_at_delta_tilde_equal_minus_kappa():
    # d/dDt of (Dt^2 + kappa^2)/(-Dt) vanishes at Dt = -kappa (hand calculus)
    p = paper_params()
    ov = overlap_integrals(thomas_fermi(p), p)
    kappa = p.cavity_decay
    u0b0 = p.single_atom_lightshift * ov.bunching_0
    dts = np.linspace(-3 * kappa, -0.3 * kappa, 241)
    pcrs = [critical_pump(dt + u0b0, ov, p).p_cr for dt in dts]
    best = dts[int(np.argmin(pcrs))]
    assert best == pytest.approx(-kappa, rel=0.02)


def test_pcr_inverse_in_neff_and_monotone_in_eint():
    p = paper_params()
    ov = overlap_integrals(thomas_fermi(p), p)
    half = OverlapIntegrals(n_eff=ov.n_eff / 2, bunching_0=ov.bunching_0,
                            interaction_energy=ov.interaction_energy,
                            shifted_detuning=ov.shifted_detuning)
    delta_c = -TWO_PI * 20e6
    assert critical_pump(delta_c, half, p).p_cr == pytest.approx(
        2 * critical_pump(delta_c, ov, p).p_cr, rel=1e-12)
    # collisional shift raises the threshold
    more = OverlapIntegrals(n_eff=ov.n_eff, bunching_0=ov.bunching_0,
                            interaction_energy=2 * ov.interaction_energy,
                            shifted_detuning=ov.shifted_detuning)
    assert critical_pump(delta_c, more, p).eta_cr \
        > critical_pump(delta_c, ov, p).eta_cr


def test_equivalence_to_dicke_critical_coupling_random_draws():
    # acceptance criterion 1 core: 1000 random draws at 1e-12 relative
    rng = np.random.default_rng(99)
    p = paper_params()
    d = derive(p)
    for _ in range(1000):
        n_eff = rng.uniform(1e3, 1e5)
        b0 = rng.uniform(1e3, 1e5)
        e_int = rng.uniform(0.0, 50e3) * HBAR
        ov = OverlapIntegrals(n_eff=n_eff, bunching_0=b0,
                              interaction_energy=e_int, shifted_detuning=0.0)
        delta_c = p.single_atom_lightshift * b0 \
            - rng.uniform(1e5, 3e8)            # guarantees Dt < 0
        cp = critical_pump(delta_c, ov, p)
        lam_ref = critical_coupling(-cp.delta_tilde,
                                    2 * d.recoil_frequency + 4 * e_int / HBAR,
                                    p.cavity_decay)
        assert abs(cp.eta_cr - lam_ref / math.sqrt(n_eff)) \
            <= 1e-12 * abs(cp.eta_cr)


def test_boundary_curve_shape_and_csv():
    p = paper_params()
    ov = overlap_integrals(thomas_fermi(p), p)
    u0b0 = p.single_atom_lightshift * ov.bunching_0
    deltas = np.linspace(-TWO_PI * 30e6, u0b0 + TWO_PI * 2e6, 24)
    curve = boundary_curve(deltas, p, integrals=ov)
    real = [pt for pt in curve if pt.transition_exists]
    flagged = [pt for pt in curve if not pt.transition_exists]
    assert flagged and real
    assert all(pt.p_cr > 0 and math.isfinite(pt.p_cr) for pt in real)
    # divergence approaching the shifted resonance from below
    near = critical_pump(u0b0 - TWO_PI * 10e3, ov, p)
    far = critical_pump(u0b0 - TWO_PI * 3e6, ov, p)
    assert near.p_cr > 10 * far.p_cr
    text = boundary_table_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == BOUNDARY_CSV_HEADER
    assert len(lines) == len(curve) + 1
    assert lines[-1].endswith(",false")


def test_published_operating_point_inside_ramp_window():
    # at Delta_c = -2pi*23.0 MHz the predicted threshold power must fall
    # inside the 0-1.3 mW ramp window used to map the boundary
    p = paper_params()
    cp = critical_pump(-TWO_PI * 23.0e6,
                       overlap_integrals(thomas_fermi(p), p), p)
    assert 0.0 < cp.p_cr < 1.3e-3


def test_asymptotic_linearity_in_detuning():
    # far below resonance P_cr grows linearly with -Dt
    p = paper_params()
    ov = overlap_integrals(thomas_fermi(p), p)
    u0b0 = p.single_atom_lightshift * ov.bunching_0
    dts = -TWO_PI * np.linspace(15e6, 40e6, 12)
    pcr = np.array([critical_pump(dt + u0b0, ov, p).p_cr for dt in dts])
    coef = np.polyfit(-dts, pcr, 1)
    fit = np.polyval(coef, -dts)
    ss_res = ((pcr - fit) ** 2).sum()
    ss_tot = ((pcr - pcr.mean()) ** 2).sum()
    assert 1 - ss_res / ss_tot > 0.999
    assert coef[0] > 0
