import math

import numpy as np
import pytest

from selforg import gpe
from selforg.dicke import (critical_coupling, ConvergenceError,
                           DivergenceError)
from selforg.grid import Grid2D, GridError
from selforg.gpe import (CondensateSim, PowerRamp, EtaRamp, cavity_amplitude,
                         detect_threshold, oscillation_metric)
from selforg.params import (ExperimentParams, derive, harmonic_trap,
                            mode_profiles, with_pump_power)

LAM = 2 * math.pi
W_R = derive(ExperimentParams()).recoil_frequency

# idealized two-mode test bed: pure cosine profiles, no trap, no collisions;
# U0*N = -10 omega_r keeps the bunching feedback negligible while kappa
# equals the experiment's 2*pi*1.3 MHz (= 348.5 omega_r)
N_AT = 1e4
U0_SCALED = -1e-3
OMEGA_EFF = 500.0
KAPPA_SCALED = 348.5121851045933
LAM_CR = critical_coupling(OMEGA_EFF, 2.0, KAPPA_SCALED)


def ideal_params(scattering_length=0.0):
    return ExperimentParams(
        atom_number=N_AT, scattering_length=scattering_length,
        cavity_decay=KAPPA_SCALED * W_R,
        single_atom_lightshift=U0_SCALED * W_R,
        pump_cavity_detuning=(-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R)


def ideal_sim(n=32, boxes=4, pump_lattice=False, scattering_length=0.0):
    grid = Grid2D(boxes * LAM, boxes * LAM, n, n)
    return CondensateSim(ideal_params(scattering_length), grid,
                         envelopes=False, trap=False,
                         pump_lattice=pump_lattice)


def eta_of(coupling_frac):
    return 2 * coupling_frac * LAM_CR / math.sqrt(N_AT)


def trapped_params(n_atoms=2000):
    return ExperimentParams(atom_number=n_atoms,
                            trap_frequency_x=2 * math.pi * 600,
                            trap_frequency_y=2 * math.pi * 100,
                            trap_frequency_z=2 * math.pi * 600)


def trapped_sim(n=64):
    return CondensateSim(trapped_params(), Grid2D(8 * LAM, 8 * LAM, n, n))


# ---------------------------------------------------------------------------
# order parameters and cavity amplitude
# ---------------------------------------------------------------------------

def test_order_parameters_homogeneous():
    sim = ideal_sim()
    psi = sim.initial_state()
    op = sim.order_parameters(psi)
    # integer number of wavelengths: cosine modes integrate to zero exactly
    assert abs(op.theta) < 1e-9 * N_AT
    assert op.bunching == pytest.approx(N_AT / 2, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 0.1])
def test_order_parameter_modulated_analytic(eps):
    # psi ~ 1 + eps*cos(x)cos(z): Theta = (eps*N/2)/(1 + eps^2/4) exactly
    # (hand quadrature of the three density terms)
    sim = ideal_sim()
    x, z = sim.grid.x(), sim.grid.z()
    psi = sim.renormalize((1 + eps * np.cos(x) * np.cos(z)).astype(complex))
    op = sim.order_parameters(psi)
    assert op.theta == pytest.approx(eps * N_AT / 2 / (1 + eps**2 / 4),
                                     rel=1e-10)


def test_order_parameters_localized_at_even_site():
    sim = ideal_sim(n=64)
    x, z = sim.grid.x(), sim.grid.z()
    psi = sim.renormalize(np.exp(-(x**2 + z**2) / (2 * 0.4**2)).astype(complex))
    op = sim.order_parameters(psi)
    assert op.theta > 0.9 * N_AT
    assert op.bunching > 0.9 * N_AT


def test_cavity_amplitude():
    # no scattering from a homogeneous cloud
    assert cavity_amplitude(0.0, 5e3, 0.4, -500.0, -1e-3, 348.5) == 0
    # hand value: eta = kappa = (Delta_c - U0 B) = 1, Theta = 1
    alpha = cavity_amplitude(1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    assert alpha == pytest.approx((1 - 1j) / 2, rel=1e-15)
    # linearity: Theta -> -Theta flips the phase by pi
    a1 = cavity_amplitude(123.0, 5e3, 0.4, -500.0, -1e-3, 348.5)
    a2 = cavity_amplitude(-123.0, 5e3, 0.4, -500.0, -1e-3, 348.5)
    assert a2 == pytest.approx(-a1, rel=1e-15)
    # arrays broadcast, each element equal to the scalar value
    theta = np.array([[0.0, 123.0, -123.0]])
    bunching = np.array([[5e3], [2.5e3]])
    alpha = cavity_amplitude(theta, bunching, 0.4, -500.0, -1e-3, 348.5)
    assert alpha.shape == (2, 3)
    for (i, j), a in np.ndenumerate(alpha):
        assert a == cavity_amplitude(theta[0, j].item(), bunching[i, 0].item(),
                                     0.4, -500.0, -1e-3, 348.5)
    for kappa in (0.0, -1.0):
        with pytest.raises(ValueError):
            cavity_amplitude(1.0, 0.0, 1.0, 1.0, 0.0, kappa)
        with pytest.raises(ValueError):
            cavity_amplitude(theta, bunching, 0.4, -500.0, -1e-3, kappa)


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 7, 50])
def test_member_cavity_terms_do_not_depend_on_batch(batch):
    # alpha and the potential of each stack member equal the 2D field's
    # values at the member's eta bit for bit, whatever the batch size; a
    # stack takes one eta or one eta per member (here 1.1, 1.3 and 0
    # lambda_cr, so the lattice row's coefficient is also 0 for some)
    sim = ideal_sim(pump_lattice=True)
    psi = np.array([sim.initial_state(seed=s, noise=0.3)
                    for s in range(batch)])
    per_member = np.resize([eta_of(1.1), eta_of(1.3), 0.0], batch)
    for eta in (eta_of(1.3), per_member):
        alphas, _ = sim.alpha_of(psi, eta)
        potentials = sim.potential(eta, alphas)
        assert alphas.shape == (batch,)
        for m, eta_m in enumerate(np.broadcast_to(eta, batch).tolist()):
            alpha, _ = sim.alpha_of(psi[m], eta_m)
            assert alphas[m] == alpha
            assert np.array_equal(potentials[m], sim.potential(eta_m, alpha))


def test_trapped_potential_is_the_closed_form():
    # lattice, cavity terms and trap, each row with its own coefficient, on
    # a trapped, interacting simulator; the profiles are one stack's rows
    sim = trapped_sim()
    assert sim.trap and sim.pump_lattice and sim.g2d > 0
    x, z = sim.grid.x(), sim.grid.z()
    phi_c, phi_p = mode_profiles(sim.params, x, 0.0, z)
    trap = harmonic_trap(sim.params, x, 0.0, z)
    eta, alpha = 0.8 * math.sqrt(-sim.u0), complex(-1.7, 0.6)
    want = ((eta**2 / sim.u0) * phi_p**2
            + sim.u0 * abs(alpha)**2 * phi_c**2
            + 2 * eta * alpha.real * phi_c * phi_p + trap)
    v = sim.potential(eta, alpha)
    assert np.abs(v - want).max() <= 1e-13 * np.abs(want).max()
    # the trap is a sizable part of the sum, so a wrong coefficient shows
    assert np.abs(trap).max() > 0.1 * np.abs(want).max()
    for profile in (sim.prof_cc, sim.prof_c2, sim.prof_p2):
        assert np.shares_memory(profile, sim._profiles)


def test_dynamic_potential_alpha_zero():
    sim = ideal_sim(pump_lattice=True)
    eta = math.sqrt(3e-3)        # v0 = eta^2/u0 = -3 E_r
    v = sim.potential(eta, 0.0)
    assert np.allclose(v, (eta**2 / U0_SCALED) * sim.prof_p2, atol=1e-14)


def test_interference_sign_pulls_atoms_onto_even_sites():
    # Theta > 0 below the shifted resonance: Re(alpha) < 0 and the
    # interference term deepens the potential where cos(x)cos(z) = +1
    sim = ideal_sim()
    theta = 100.0
    alpha = cavity_amplitude(theta, N_AT / 2, 0.4, sim.delta_c, sim.u0,
                             sim.kappa)
    assert alpha.real < 0
    v = sim.potential(0.4, alpha)
    even = v[0, 0]   # grid origin is a potential extremum with cc = +1
    ix = np.argmin(np.abs(sim.grid.x().ravel() - 0.0))
    iz = np.argmin(np.abs(sim.grid.z().ravel() - np.pi))
    odd = v[ix, iz]
    assert even < odd


def test_checkerboard_shift_symmetry():
    # V(x + lam/2, z + lam/2) = V(x, z) with envelopes off
    sim = ideal_sim()
    alpha = complex(-0.8, 0.3)
    v = sim.potential(0.4, alpha)
    shift = sim.grid.points_x // (2 * 4)     # half a wavelength, 4 boxes
    v_shifted = np.roll(v, (shift, shift), axis=(0, 1))
    assert np.abs(v - v_shifted).max() < 1e-12 * np.abs(v).max()


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_plane_wave_spectrum_parseval():
    sim = ideal_sim()
    psi = sim.initial_state()
    px, pz, spec = sim.momentum_spectrum(psi)
    assert spec.sum() == pytest.approx(N_AT, rel=1e-12)
    peaks = dict(((cx, cz), w) for cx, cz, w in sim.momentum_peaks(psi))
    assert peaks[(0.0, 0.0)] == pytest.approx(N_AT, rel=1e-12)
    assert peaks[(1.0, 1.0)] < 1e-20 * N_AT


def test_checkerboard_spectrum_has_four_peaks():
    sim = ideal_sim()
    x, z = sim.grid.x(), sim.grid.z()
    psi = sim.renormalize((np.cos(x) * np.cos(z)).astype(complex))
    peaks = dict(((cx, cz), w) for cx, cz, w in sim.momentum_peaks(psi))
    for corner in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        assert peaks[corner] == pytest.approx(N_AT / 4, rel=1e-12)


def test_momentum_boxes_are_mirror_symmetric():
    # a real field has a mirror-symmetric spectrum; the grid momenta +-0.5 k
    # and +-1.5 k lie on the quartet boxes' edges and count half in each
    sim = ideal_sim(n=64)
    x, z = sim.grid.x(), sim.grid.z()
    cloud = np.exp(-(x**2 + z**2) / 72.0) * (1 + 0.5 * np.cos(x) * np.cos(z))
    psi = sim.renormalize(cloud.astype(complex))
    peaks = dict(((cx, cz), w) for cx, cz, w in sim.momentum_peaks(psi))
    assert peaks[(1.0, 1.0)] == pytest.approx(peaks[(-1.0, -1.0)], rel=1e-12)
    assert peaks[(1.0, -1.0)] == pytest.approx(peaks[(-1.0, 1.0)], rel=1e-12)
    # boxes around every integer momentum tile the grid: each point once
    everywhere = [(i, j) for i in range(-8, 9) for j in range(-8, 9)]
    total = sum(w for _, _, w in sim.momentum_peaks(psi, everywhere))
    assert total == pytest.approx(N_AT, rel=1e-12)


def test_overlap_integrals_2d():
    sim = ideal_sim(scattering_length=0.0)
    psi = sim.initial_state()
    ov = sim.overlap_integrals_2d(psi)
    assert ov.bunching_0 == pytest.approx(N_AT / 2, rel=1e-12)
    assert ov.n_eff == pytest.approx(N_AT / 4, rel=1e-12)
    assert ov.interaction_energy == 0.0
    assert ov.shifted_detuning == pytest.approx(
        sim.params.pump_cavity_detuning
        - sim.params.single_atom_lightshift * ov.bunching_0, rel=1e-12)
    # B0 is the order parameters' B of the same field, from the same sums
    trapped = trapped_sim()
    cloud = trapped.initial_state(seed=1, noise=1e-2)
    for s, field in ((sim, psi), (trapped, cloud)):
        assert s.overlap_integrals_2d(field).bunching_0 \
            == s.order_parameters(field).bunching


# ---------------------------------------------------------------------------
# real-time propagation
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_free_trapped_evolution_conserves_norm_and_energy():
    # eta = 0, 10 ms equivalent; norm and energy to 1e-8 (renormalization off)
    sim = trapped_sim()
    gs = sim.imaginary_time_ground_state(0.0, seed=1, noise=1e-4)
    # kick the cloud so the evolution is not trivially stationary
    psi0 = gs["psi"] * np.exp(1j * 0.05 * sim.grid.x())
    t_final = 0.010 * W_R
    rec = sim.real_time_evolve(psi0, lambda t: (0.0, 0.0), t_final, dt=4e-3,
                               record_every=500)
    drift = np.abs(rec["norm"] / rec["norm"][0] - 1.0)
    assert drift.max() < 1e-8
    e0 = sim.energy(psi0, 0.0)
    e1 = sim.energy(rec["psi"], 0.0)
    assert abs(e1 - e0) / abs(e0) < 1e-8


def test_divergence_detection():
    sim = ideal_sim()
    psi = sim.initial_state()
    psi[3, 3] = np.nan
    with pytest.raises(DivergenceError):
        sim.real_time_evolve(psi, lambda t: (0.0, 0.0), 1.0, 1e-3)


def corner_cloud(sim):
    """A normalized cloud sitting on a corner of the grid."""
    x, z = sim.grid.x(), sim.grid.z()
    return sim.renormalize(np.exp(
        -((x - x.min()) ** 2 + (z - z.min()) ** 2) / 4.0).astype(complex))


def test_edge_density_guard():
    sim = trapped_sim()
    with pytest.raises(GridError, match="edge"):
        sim.real_time_evolve(corner_cloud(sim), lambda t: (0.0, 0.0), 0.01,
                             1e-3, edge_check_every=1)


def test_edge_fraction_is_taken_per_member():
    # each member's four edges over its own peak: a stack of two start
    # clouds reads their own tiny ratio twice (member 0's whole field is
    # not an edge), and a corner cloud in a stack reads its own ratio
    sim = trapped_sim()
    psi = sim.initial_state(seed=1, noise=1e-4)
    alone = sim.edge_density_fraction(psi)
    assert isinstance(alone, float) and alone < 1e-30
    both = sim.edge_density_fraction(np.array([psi, psi]))
    assert both.shape == (2,) and np.array_equal(both, [alone, alone])
    corner = corner_cloud(sim).real
    mixed = sim.edge_density_fraction(np.array([psi, corner]))
    assert mixed[0] == alone
    assert mixed[1] == sim.edge_density_fraction(corner) > 0.5


def test_edge_guard_names_the_checked_field_time():
    # the first check sees the field after edge_check_every steps, at
    # t = edge_check_every * dt, and the error names that time
    sim = trapped_sim()
    corner = corner_cloud(sim)
    every, dt = 3, 2.5e-3
    with pytest.raises(GridError) as err:
        sim.real_time_evolve(corner, lambda t: (0.0, 0.0), 0.05, dt,
                             edge_check_every=every)
    assert f"real time (t={every * dt:g})" in str(err.value)


def test_spatial_shift_covariance():
    # shifting by half a wavelength along ONE axis swaps the checkerboard
    # sublattices: evolving the shifted field flips Theta and alpha at all
    # times.  (Shifting both axes at once is the lattice translation that
    # leaves cos(x)cos(z), and hence Theta, unchanged.)
    sim = ideal_sim()
    eta = eta_of(1.4)
    psi = sim.initial_state(seed=9, noise=1e-2)
    shift = sim.grid.points_x // (2 * 4)
    psi_flip = np.roll(psi, shift, axis=0)
    psi_same = np.roll(psi, (shift, shift), axis=(0, 1))
    ramp = EtaRamp([(0.0, eta), (30.0, eta)])
    rec_a = sim.real_time_evolve(psi, ramp, 30.0, 2e-3, record_every=100)
    rec_b = sim.real_time_evolve(psi_flip, ramp, 30.0, 2e-3,
                                 record_every=100)
    rec_c = sim.real_time_evolve(psi_same, ramp, 30.0, 2e-3,
                                 record_every=100)
    scale = np.abs(rec_a["theta"]).max()
    assert np.abs(rec_b["theta"] + rec_a["theta"]).max() < 1e-9 * scale
    assert np.abs(rec_b["alpha"] + rec_a["alpha"]).max() < 1e-9 * np.abs(
        rec_a["alpha"]).max()
    assert np.abs(rec_c["theta"] - rec_a["theta"]).max() < 1e-9 * scale


def test_recording_is_observation_only():
    # the record and the snapshots only read the propagation's state:
    # recording every third step and taking snapshots leaves the field bit
    # for bit as it is, and the rows are every third row of the full record
    sim = ideal_sim()
    psi0 = sim.initial_state(seed=9, noise=1e-2)
    ramp = EtaRamp([(0.0, 0.0), (0.12, eta_of(1.5))])
    every = sim.real_time_evolve(psi0, ramp, 0.12, 4e-3)
    sparse = sim.real_time_evolve(psi0, ramp, 0.12, 4e-3, record_every=3,
                                  snapshot_times=[0.06, 0.12])
    half = sim.real_time_evolve(psi0, ramp, 0.06, 4e-3)
    assert np.abs(every["theta"]).max() > 0 and every["eta"][-1] > 0
    assert np.array_equal(sparse["psi"], every["psi"])
    for key in ("t", "power", "eta", "alpha", "nphoton", "theta", "bunching",
                "norm"):
        assert np.array_equal(sparse[key], every[key][::3],
                              equal_nan=True), key
    (t_a, psi_a), (t_b, psi_b) = sparse["snapshots"]
    assert (t_a, t_b) == (0.06, 0.12)
    assert np.array_equal(psi_a, half["psi"])
    assert np.array_equal(psi_b, every["psi"])


def test_a_step_reduces_its_field_once(monkeypatch):
    # alpha, Theta, B and the record's norm come from the step's one moment
    # reduction: a real-time propagation calls neither alpha_of nor norm
    sim = trapped_sim()
    psi0 = sim.initial_state(seed=1, noise=1e-2)
    calls = []
    for name in ("alpha_of", "norm"):
        def spy(self, *args, _name=name, _method=getattr(CondensateSim, name)):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(CondensateSim, name, spy)
    ramp = PowerRamp(sim.params, [(0.0, 0.0), (0.1, 2e-3)])
    rec = sim.real_time_evolve(psi0, ramp, 0.1, 4e-3)
    assert len(rec["norm"]) == 26 and calls == []


def test_records_are_the_moments_of_the_recorded_field():
    # trapped cloud with collisions and the pump lattice: each record's
    # Theta, B and norm are those of the field it records, exactly at
    # t = 0 and to rounding after it (the step takes them before its last
    # multiplication by the unimodular h)
    sim = trapped_sim()
    assert sim.g2d > 0 and sim.pump_lattice
    psi0 = sim.initial_state(seed=1, noise=1e-2)
    ramp = PowerRamp(sim.params, [(0.0, 0.0), (0.1, 2e-3)])
    dt, n = 4e-3, 25
    rec = sim.real_time_evolve(psi0, ramp, n * dt, dt,
                               snapshot_times=[i * dt for i in range(n + 1)])
    assert [t for t, _ in rec["snapshots"]] == list(rec["t"])
    assert rec["eta"][-1] > 0 and abs(rec["theta"][-1]) > 0
    for i, (_, psi) in enumerate(rec["snapshots"]):
        op = sim.order_parameters(psi)
        field = (op.theta, op.bunching, sim.norm(psi))
        got = (rec["theta"][i], rec["bunching"][i], rec["norm"][i])
        if i == 0:
            assert got == field
        else:
            assert got == pytest.approx(field, rel=1e-12, abs=0.0)


def final_record(sim, psi0, ramp, t_final, dt, **kwargs):
    """The trajectory's last record, at t_final (the only other is t = 0)."""
    return sim.real_time_evolve(psi0, ramp, t_final, dt,
                                record_every=int(round(t_final / dt)),
                                **kwargs)


def test_real_time_second_order_on_ideal_bed():
    # n_ph at t = 4 inside the organized phase: successive differences over
    # halved steps shrink by 4 (a first-order step gives 2)
    sim = ideal_sim()
    psi0 = sim.initial_state(seed=9, noise=1e-2)
    eta = eta_of(1.5)
    ramp = EtaRamp([(0.0, eta), (4.0, eta)])
    nph = [final_record(sim, psi0, ramp, 4.0, dt)["nphoton"][-1]
           for dt in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)]
    diffs = np.diff(nph)
    assert nph[-1] > 1.0
    assert np.allclose(diffs[:-1] / diffs[1:], 4.0, atol=0.2)


@pytest.mark.slow
def test_real_time_second_order_trapped_with_collisions():
    # trapped 128^2 cloud with envelopes, g2d != 0 and a power ramp
    # 0 -> 2 mW over 2 recoil times: the relative L2 error of the final
    # field against dt = 3.125e-4 quarters as dt halves from 5e-3.  The
    # start state's tails reach this box's edge, which does not bear on
    # the time step, so the edge guard is off.
    params = ExperimentParams(atom_number=8e3)
    sim = CondensateSim(params, Grid2D(100.0, 100.0, 128, 128))
    assert sim.g2d > 0
    psi0 = sim.initial_state(seed=1, noise=1e-4)
    ramp = PowerRamp(params, [(0.0, 0.0), (2.0, 2e-3)])
    psi = {dt: final_record(sim, psi0, ramp, 2.0, dt,
                            edge_check_every=0)["psi"]
           for dt in (5e-3, 2.5e-3, 1.25e-3, 3.125e-4)}
    ref = psi.pop(3.125e-4)
    err = [np.linalg.norm(p - ref) / np.linalg.norm(ref)
           for p in psi.values()]
    assert err[0] < 2e-4
    for coarse, fine in zip(err, err[1:]):
        assert 3.6 < coarse / fine < 4.6


class CountingFFT:
    """Forwards to scipy.fft and counts each function's calls."""

    def __init__(self):
        import scipy.fft
        self.module = scipy.fft
        self.calls = {}

    def __getattr__(self, name):
        fn = getattr(self.module, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


@pytest.mark.parametrize("make_sim", [ideal_sim, trapped_sim])
def test_two_ffts_per_real_time_step(monkeypatch, make_sim):
    sim = make_sim()
    # the start's band-limiting FFTs are not steps: built before the spy
    psi0 = sim.initial_state(seed=1, noise=1e-2)
    fft = CountingFFT()
    monkeypatch.setattr(gpe, "sfft", fft)
    ramp = EtaRamp([(0.0, 0.0), (0.1, eta_of(1.5))])
    sim.real_time_evolve(psi0, ramp, 25 * 4e-3, 4e-3)
    assert fft.calls == {"fft2": 25, "ifft2": 25}


# ---------------------------------------------------------------------------
# imaginary time
# ---------------------------------------------------------------------------

def test_below_threshold_theta_at_noise_floor():
    sim = ideal_sim(pump_lattice=True)
    gs = sim.imaginary_time_ground_state(eta_of(0.5), seed=3, noise=1e-4)
    assert abs(gs["theta"]) < 1e-6 * N_AT
    assert np.all(np.isfinite(gs["psi"]))


def test_below_threshold_energy_equals_lattice_ground_state():
    # with Theta ~ 0 the cavity terms vanish: the energy must match the same
    # lattice with the cavity response switched off (kappa -> huge)
    eta = math.sqrt(3e-3)       # v0 = -3 E_r
    sim = ideal_sim(pump_lattice=True)
    gs = sim.imaginary_time_ground_state(eta, seed=3, noise=1e-4)
    p_ref = ExperimentParams(
        atom_number=N_AT, scattering_length=0.0,
        cavity_decay=KAPPA_SCALED * W_R * 1e9,
        single_atom_lightshift=U0_SCALED * W_R,
        pump_cavity_detuning=(-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R)
    sim_ref = CondensateSim(p_ref, sim.grid, envelopes=False, trap=False,
                            pump_lattice=True)
    gs_ref = sim_ref.imaginary_time_ground_state(eta, seed=3, noise=1e-4)
    assert gs["energy"] == pytest.approx(gs_ref["energy"], rel=1e-6)


def test_energy_monotone_in_imaginary_time():
    # relaxation with the cavity field re-slaved every step stays monotone,
    # below threshold (with the pump lattice) and into the organized phase
    sim_latt = ideal_sim(pump_lattice=True)
    gs_latt = sim_latt.imaginary_time_ground_state(math.sqrt(3e-3), seed=5,
                                                   noise=1e-2)
    sim_org = ideal_sim()
    gs_org = sim_org.imaginary_time_ground_state(eta_of(1.3), seed=5,
                                                 noise=1e-2)
    for gs in (gs_latt, gs_org):
        trace = gs["energy_trace"]
        slack = 1e-10 * abs(trace[0]) + 1e-12
        assert np.all(np.diff(trace) < slack)


def test_symmetry_breaking_sign_statistics():
    # above threshold both signs occur and |Theta| agrees across branches
    sim = ideal_sim()
    eta = eta_of(1.3)
    thetas = [sim.imaginary_time_ground_state(eta, seed=s, noise=1e-2)["theta"]
              for s in range(10)]
    thetas = np.array(thetas)
    assert (thetas > 0).any() and (thetas < 0).any()
    mags = np.abs(thetas)
    assert (mags.max() - mags.min()) / mags.mean() < 1e-6


def test_organized_amplitude_matches_static_oracle():
    # frozen from an independent plane-wave self-consistency solve of
    # h = -lap - V_c cos(x)cos(z), V_c = 8 lam^2 omega Theta/N/(omega^2+kappa^2):
    # at lam = 1.3*lam_cr, |Theta|/N = 0.62568.  The two-mode Bloch-sphere
    # value is 0.40307: the harmonic admixture enhances the order parameter
    # by a factor ~1.55 (and ~1.51 asymptotically at threshold), so only the
    # full self-consistency is a valid amplitude oracle for this engine.
    sim = ideal_sim()
    eta = eta_of(1.3)
    gs = sim.imaginary_time_ground_state(eta, seed=5, noise=1e-2)
    assert abs(gs["theta"]) / N_AT == pytest.approx(0.62568, rel=1.5e-2)
    two_mode = math.sqrt(1 - (1 / 1.3**2) ** 2) / 2
    assert 1.3 < abs(gs["theta"]) / N_AT / two_mode < 1.8
    # the returned observables are exactly those of the returned field
    alpha, op = sim.alpha_of(gs["psi"], eta)
    assert (gs["alpha"], gs["theta"], gs["bunching"]) == (
        alpha, op.theta, op.bunching)
    assert gs["energy"] == sim.energy(gs["psi"], eta)


def test_imaginary_time_bias_quarters_with_dtau():
    # the relaxed |Theta|/N and energy move by a quarter as much at each
    # halving of dtau, and the dtau -> 0 limit (Richardson) meets the static
    # oracle of test_organized_amplitude_matches_static_oracle
    sim = ideal_sim()
    eta = eta_of(1.3)
    states = [sim.imaginary_time_ground_state(eta, seed=5, noise=1e-2,
                                              dtau=dtau)
              for dtau in (1.6e-2, 8e-3, 4e-3, 2e-3)]
    theta = [abs(gs["theta"]) / N_AT for gs in states]
    energy = [gs["energy"] for gs in states]
    for values in (theta, energy):
        diffs = np.diff(values)
        assert np.allclose(diffs[:-1] / diffs[1:], 4.0, atol=0.2)
    limit = theta[-1] - (theta[-2] - theta[-1]) / 3
    assert limit == pytest.approx(0.62568, rel=1.5e-2)


def test_batch_members_relax_as_they_do_alone():
    # a stack relaxes each member bit for bit as a one-member call does,
    # whatever else is in the stack: here a member, its mirror (rolled by
    # half a pump wavelength, 4 of 32 points over 8 pi) and a member with
    # other noise, which converge at different steps
    sim = ideal_sim()
    eta = eta_of(1.3)
    psi_a = sim.initial_state(seed=1, noise=1e-2)
    psi0s = [psi_a, np.roll(psi_a, 4, axis=0),
             sim.initial_state(seed=2, noise=1e-3)]
    batch = sim.ground_states(eta, psi0s)
    alone = [sim.imaginary_time_ground_state(eta, psi0=psi0)
             for psi0 in psi0s]
    assert len({gs["steps"] for gs in batch}) > 1
    for got, want in zip(batch, alone):
        assert np.array_equal(got["psi"], want["psi"])
        for key in ("alpha", "theta", "bunching", "energy", "steps"):
            assert got[key] == want[key], key
        assert np.array_equal(got["energy_trace"], want["energy_trace"])
    assert batch[0]["theta"] * batch[1]["theta"] < 0
    assert abs(batch[0]["theta"]) == pytest.approx(abs(batch[1]["theta"]),
                                                   rel=1e-6)


def test_ground_state_is_a_fixed_point_of_its_dtau():
    # after the coarse stage the state is relaxed again at the configured
    # dtau: one more step at that dtau leaves Theta where it is
    sim = ideal_sim()
    eta = eta_of(1.3)
    for dtau in (2e-3, 4e-3):
        gs = sim.imaginary_time_ground_state(eta, seed=5, noise=1e-2,
                                             dtau=dtau)
        (_, _, _, _, op0, _), (_, _, _, _, op1, _) = sim._strang_steps(
            gs["psi"], lambda t: (math.nan, eta), dtau, 1, imaginary=True)
        assert op0.theta == gs["theta"]
        assert abs(op1.theta - op0.theta) < 1e-8 * N_AT


def test_coarse_stage_keeps_the_organized_branch_near_threshold():
    # at 1.05 lambda_cr the coarse step (which moves lambda_cr by
    # O(dtau^2)) must still hand the organized state to the fine stage,
    # not the normal saddle with Theta at the noise floor and energy 0
    sim = ideal_sim()
    gs = sim.imaginary_time_ground_state(eta_of(1.05), seed=5, noise=1e-2)
    assert abs(gs["theta"]) / N_AT > 0.1
    assert gs["energy"] < 0


def test_unconverged_members_are_named():
    sim = ideal_sim()
    psi0s = [sim.initial_state(seed=s, noise=1e-2) for s in (1, 2)]
    with pytest.raises(ConvergenceError, match="members 0, 1$") as info:
        sim.ground_states(eta_of(1.3), psi0s, max_steps=50)
    assert info.value.members == [0, 1]
    assert len(info.value.theta_trace) == 5
    with pytest.raises(ConvergenceError, match="after 50 steps: member 0$"):
        sim.imaginary_time_ground_state(eta_of(1.3), seed=1, max_steps=50)
    # alone, these members settle in 3,460 and 3,470 steps: in one stack
    # under a 3,465-step budget only the second is named
    psi0s = [sim.initial_state(seed=1, noise=1e-2),
             sim.initial_state(seed=2, noise=1e-3)]
    with pytest.raises(ConvergenceError,
                       match="3465 steps: member 1$") as info:
        sim.ground_states(eta_of(1.3), psi0s, max_steps=3465)
    assert info.value.members == [1]
    assert len(info.value.theta_trace) == 143


def test_ground_state_observables_are_computed_once(monkeypatch):
    # the relaxation stages return fields only: alpha is taken once per
    # member, of its returned field, after the last stage
    sim = ideal_sim()
    psi0s = [sim.initial_state(seed=s, noise=1e-2) for s in (1, 2)]
    calls = []
    alpha_of = CondensateSim.alpha_of

    def spy(self, *args):
        calls.append(args)
        return alpha_of(self, *args)
    monkeypatch.setattr(CondensateSim, "alpha_of", spy)
    states = sim.ground_states(eta_of(1.3), psi0s)
    assert len(calls) == len(states) == 2


def test_first_stage_that_leaves_a_member_unsettled_raises(monkeypatch):
    # in the coarse stage a noisy start needs 1,190 steps and a flat one
    # (the normal saddle, Theta = 0 by symmetry) 300: under a 1,000-step
    # budget that stage names only the noisy member, with its 100 checks,
    # and no later stage runs
    sim = ideal_sim()
    psi0s = [sim.initial_state(seed=1, noise=1e-2), sim.initial_state()]
    stages = []
    relax = CondensateSim._relax

    def spy(self, psi, eta, dtau, *args):
        stages.append(dtau)
        return relax(self, psi, eta, dtau, *args)
    monkeypatch.setattr(CondensateSim, "_relax", spy)
    with pytest.raises(ConvergenceError, match="1000 steps: member 0$") \
            as info:
        sim.ground_states(eta_of(1.3), psi0s, max_steps=1000)
    assert info.value.members == [0]
    assert len(info.value.theta_trace) == 100
    assert stages == [1.6e-2]


def test_initial_state_is_real_band_limited_and_mirrors():
    sim = ideal_sim()
    psi = sim.initial_state(seed=1, noise=1e-2)
    assert psi.dtype == np.float64
    assert sim.norm(psi) == pytest.approx(N_AT, rel=1e-14)
    # untrapped, psi is proportional to 1 + noise*xi: no weight above
    # |p| = 2 hbar k beyond round-off, and noise is the rms relative
    # amplitude (up to xi's small mean)
    weight = np.abs(np.fft.fft2(psi)) ** 2
    assert weight[sim.ksq > 4.0 + 1e-9].sum() < 1e-28 * weight.sum()
    relative = psi / psi.mean() - 1.0
    assert np.sqrt(np.mean(relative**2)) == pytest.approx(1e-2, rel=1e-2)
    # the noise reaches the checkerboard, and half a pump wavelength along
    # the cavity axis (4 of 32 points over 8 pi) swaps its sublattices
    theta = sim.order_parameters(psi).theta
    assert abs(theta) > 1e-5 * N_AT
    rolled = sim.order_parameters(np.roll(psi, 4, axis=0)).theta
    assert rolled == pytest.approx(-theta, rel=1e-9)


def test_small_real_grids_relax_without_ffts(monkeypatch):
    # a real field on a grid within _MATMUL_CAP takes its kinetic factor as
    # two circulant matrix products: no inverse 2D FFT, rfft2 only for the
    # energy checks, and two 1D inverse FFTs per stage build the matrices;
    # above the cap each step takes one rfft2/irfft2 pair, and a complex
    # start keeps fft2/ifft2 (the starts' FFTs run before the spy)
    sim = ideal_sim()
    psi0s = [sim.initial_state(seed=s, noise=1e-2) for s in (1, 2)]
    energy = CondensateSim.energy
    energy_calls = []

    def spy(self, *args, **kwargs):
        energy_calls.append(None)
        return energy(self, *args, **kwargs)

    monkeypatch.setattr(CondensateSim, "energy", spy)
    fft = CountingFFT()
    monkeypatch.setattr(gpe, "sfft", fft)

    def relax(starts):
        fft.calls.clear()
        energy_calls.clear()
        states = sim.ground_states(eta_of(1.3), starts)
        return states, sum(gs["steps"] for gs in states)

    for starts in (psi0s[:1], psi0s):
        states, _ = relax(starts)
        assert fft.calls == {"rfft2": len(energy_calls), "irfft": 2 * 3}
        assert [gs["psi"].dtype for gs in states] \
            == [np.float64] * len(starts)
    monkeypatch.setattr(gpe, "_MATMUL_CAP", 16)
    (gs,), steps = relax(psi0s[:1])
    assert fft.calls == {"rfft2": steps + len(energy_calls), "irfft2": steps}
    assert gs["psi"].dtype == np.float64
    (gs,), steps = relax(np.array(psi0s[:1], dtype=complex))
    assert fft.calls == {"fft2": steps + len(energy_calls), "ifft2": steps}
    assert gs["psi"].dtype == np.complex128


@pytest.mark.parametrize("shape", [(3, 32, 64), (4, 32, 32)])
def test_circulant_kinetic_step_is_the_fft_step(monkeypatch, shape):
    # one step of a random real stack, by the matrices and (cap patched to
    # 0) by the rfft2/irfft2 pair; the non-square grid, with its own
    # extent per axis, fails if the two axes' matrices are swapped
    nx, nz = shape[1:]
    sim = CondensateSim(ideal_params(), Grid2D(nx / 8 * LAM, nz / 8 * LAM,
                                               nx, nz),
                        envelopes=False, trap=False, pump_lattice=True)
    rng = np.random.default_rng(7)
    psi = sim.renormalize(1.0 + 0.3 * rng.standard_normal(shape))

    def one_step():
        steps = sim._strang_steps(psi.copy(), lambda t: (math.nan,
                                                         eta_of(1.3)),
                                  4e-3, 1, imaginary=True)
        next(steps)
        return next(steps)[0]

    by_matrices = one_step()
    monkeypatch.setattr(gpe, "_MATMUL_CAP", 0)
    by_fft = one_step()
    assert np.abs(by_matrices - by_fft).max() \
        <= 1e-13 * np.abs(by_fft).max()


def test_circulant_and_fft_ground_states_agree(monkeypatch):
    sim = ideal_sim()
    by_matrices = sim.imaginary_time_ground_state(eta_of(1.3), seed=5,
                                                  noise=1e-2)
    monkeypatch.setattr(gpe, "_MATMUL_CAP", 0)
    by_fft = sim.imaginary_time_ground_state(eta_of(1.3), seed=5,
                                             noise=1e-2)
    assert abs(by_matrices["theta"]) > 0.5 * N_AT
    assert np.sign(by_matrices["theta"]) == np.sign(by_fft["theta"])
    assert by_matrices["theta"] == pytest.approx(by_fft["theta"], rel=1e-12)
    assert by_matrices["energy"] == pytest.approx(by_fft["energy"],
                                                  rel=1e-12)


@pytest.mark.parametrize("make_sim, eta", [(ideal_sim, eta_of(1.3)),
                                           (trapped_sim, 0.0)])
def test_real_and_complex_starts_relax_alike(make_sim, eta):
    # the same starts as real fields and cast to complex: the two FFT pairs
    # round differently, nothing else; the trapped cloud also takes the
    # trap and collision terms
    sim = make_sim()
    psi0s = [sim.initial_state(seed=s, noise=1e-2) for s in (1, 2)]
    real = sim.ground_states(eta, psi0s)
    cast = sim.ground_states(eta, np.array(psi0s, dtype=complex))
    for r, c in zip(real, cast):
        assert (r["psi"].dtype, c["psi"].dtype) == (np.float64,
                                                    np.complex128)
        assert r["steps"] == c["steps"]
        assert r["energy"] == pytest.approx(c["energy"], rel=1e-13)
        assert abs(r["theta"] - c["theta"]) \
            <= 1e-13 * max(abs(c["theta"]), sim.n_atoms)


# ---------------------------------------------------------------------------
# ramps and threshold detection
# ---------------------------------------------------------------------------

def test_power_ramp_linear_in_eta_squared():
    params = with_pump_power(ExperimentParams(), 0.0)
    ramp = PowerRamp(params, [(0.0, 0.0), (100.0, 1e-3)])
    p1, e1 = ramp(25.0)
    p2, e2 = ramp(50.0)
    assert p1 == pytest.approx(0.25e-3) and p2 == pytest.approx(0.5e-3)
    assert e2**2 == pytest.approx(2 * e1**2, rel=1e-12)
    # holds the final value beyond the last breakpoint
    assert ramp(200.0)[0] == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        PowerRamp(params, [(0.0, 0.0)])
    with pytest.raises(ValueError):
        PowerRamp(params, [(0.0, -1e-3), (1.0, 1e-3)])


def test_eta_ramp():
    ramp = EtaRamp([(0.0, 0.0), (10.0, 0.4)])
    power, eta = ramp(5.0)
    assert math.isnan(power)
    assert eta == pytest.approx(0.2)


def test_detect_threshold_synthetic():
    n = 1000
    nph = np.full(n, 1e-6)
    nph[600:] = 1.0
    traj = {"nphoton": nph, "power": np.linspace(0, 1e-3, n),
            "eta": np.linspace(0, 0.5, n)}
    rep = detect_threshold(traj, floor_factor=100.0, consecutive=50)
    assert rep["detected"] and rep["index"] == 600
    assert rep["power"] == pytest.approx(0.6e-3, rel=1e-2)
    quiet = {"nphoton": np.full(n, 1e-6),
             "power": np.linspace(0, 1e-3, n), "eta": np.zeros(n)}
    assert not detect_threshold(quiet, floor_factor=100.0)["detected"]


def test_oscillation_metric():
    steady = {"nphoton": np.ones(1000)}
    assert oscillation_metric(steady) == 0.0
    osc = {"nphoton": 1.0 + 0.9 * np.sin(np.linspace(0, 60, 1000))}
    assert oscillation_metric(osc) > 0.5
    dark = {"nphoton": np.zeros(1000)}
    assert oscillation_metric(dark) == 0.0


@pytest.mark.slow
def test_two_mode_threshold_consistency():
    # ramped instability vs the dissipative critical coupling to 3%
    sim = ideal_sim()
    eta_max = 2.0 * 2 * LAM_CR / math.sqrt(N_AT)
    t_ramp = 800.0
    times = np.linspace(0.0, t_ramp, 257)
    ramp = EtaRamp([(t, eta_max * math.sqrt(t / t_ramp)) for t in times])
    psi0 = sim.initial_state(seed=7, noise=1e-5)
    rec = sim.real_time_evolve(psi0, ramp, t_ramp, dt=4e-3)
    rep = detect_threshold(rec, floor_factor=1e4)
    assert rep["detected"]
    lam_det = rep["eta"] * math.sqrt(N_AT) / 2
    assert lam_det == pytest.approx(LAM_CR, rel=3e-2)


@pytest.mark.slow
def test_grid_convergence_of_threshold():
    # doubling the grid changes the detected threshold by < 2%
    detected = []
    for n in (32, 64):
        sim = ideal_sim(n=n)
        eta_max = 2.0 * 2 * LAM_CR / math.sqrt(N_AT)
        t_ramp = 400.0
        times = np.linspace(0.0, t_ramp, 257)
        ramp = EtaRamp([(t, eta_max * math.sqrt(t / t_ramp)) for t in times])
        psi0 = sim.initial_state(seed=7, noise=1e-5)
        rec = sim.real_time_evolve(psi0, ramp, t_ramp, dt=4e-3)
        rep = detect_threshold(rec, floor_factor=1e4)
        assert rep["detected"]
        detected.append(rep["eta"])
    assert abs(detected[0] - detected[1]) / detected[1] < 2e-2
