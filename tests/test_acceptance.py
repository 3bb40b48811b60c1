"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavy dynamical criteria (6 to 10) are also
marked slow; the full suite takes some minutes on two cores.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from selforg.constants import HBAR
from selforg.boundary import (OverlapIntegrals, critical_pump, thomas_fermi,
                              overlap_integrals)
from selforg.dicke import (DickeParams, critical_coupling,
                           converged_ground_state_observables,
                           instability_threshold, integrate_semiclassical,
                           normal_state, steadystate_photon_fraction)
from selforg.grid import Grid2D
from selforg.gpe import CondensateSim, PowerRamp, detect_threshold, \
    oscillation_metric
from selforg.params import ExperimentParams, derive
from selforg import sweeps
from selforg.sweeps import RunDir, resolve_config

TWO_PI = 2 * math.pi
W_R = derive(ExperimentParams()).recoil_frequency
E_R = derive(ExperimentParams()).recoil_energy


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{description}]: {status}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# shared trapped configuration for the dynamical criteria: a small cloud
# (N = 2000, traps 2pi*(600, 100, 600) Hz) with a strong per-atom light
# shift, so thresholds sit at shallow pump depths where the analytic
# instability formula is clean
# ---------------------------------------------------------------------------

U0_SC = -1.018          # single-atom shift in omega_r units
KAPPA_SC = TWO_PI * 0.2e6 / W_R


def trapped_params(delta_c_scaled, n_atoms=2000, trap_z=600.0, trap_x=600.0):
    return ExperimentParams(
        atom_number=n_atoms,
        trap_frequency_x=TWO_PI * trap_x, trap_frequency_y=TWO_PI * 100,
        trap_frequency_z=TWO_PI * trap_z,
        cavity_decay=KAPPA_SC * W_R,
        single_atom_lightshift=U0_SC * W_R,
        pump_cavity_detuning=delta_c_scaled * W_R)


def trapped_sim(delta_c_scaled, n=128, boxes=12, **kwargs):
    # boundary lattice wells hold ~1e-9 of the peak density in an 8-lambda
    # box once the pump lattice is a few E_r deep; 12 wavelengths keeps the
    # edge-density contract satisfied
    grid = Grid2D(boxes * TWO_PI, boxes * TWO_PI, n, n)
    return CondensateSim(trapped_params(delta_c_scaled, **kwargs), grid)


# idealized cosine-mode system reused from the unit tests
N_ID = 1e4
U0_ID = -1e-3
OMEGA_ID = 500.0
KAPPA_ID = 348.5121851045933
LAM_CR_ID = critical_coupling(OMEGA_ID, 2.0, KAPPA_ID)


def ideal_sim(n=32):
    p = ExperimentParams(
        atom_number=N_ID, scattering_length=0.0,
        cavity_decay=KAPPA_ID * W_R, single_atom_lightshift=U0_ID * W_R,
        pump_cavity_detuning=(-OMEGA_ID + U0_ID * N_ID / 2) * W_R)
    return CondensateSim(p, Grid2D(4 * TWO_PI, 4 * TWO_PI, n, n),
                         envelopes=False, trap=False, pump_lattice=False)


def test_criterion_01_formula_equivalence():
    # critical_pump == critical_coupling(-Dt, 2w_r + 4E_int/hbar, kappa)
    # / sqrt(N_eff) for 1000 random draws, 1e-12 relative
    rng = np.random.default_rng(2401)
    p = ExperimentParams()
    d = derive(p)
    worst = 0.0
    for _ in range(1000):
        n_eff = rng.uniform(1e2, 1e5)
        b0 = rng.uniform(1e2, 1e5)
        e_int = rng.uniform(0.0, 1e5) * HBAR
        kappa = rng.uniform(1e4, 1e8)
        pp = ExperimentParams(cavity_decay=kappa,
                              single_atom_lightshift=-rng.uniform(1, 1e4))
        ov = OverlapIntegrals(n_eff=n_eff, bunching_0=b0,
                              interaction_energy=e_int, shifted_detuning=0.0)
        delta_c = pp.single_atom_lightshift * b0 - rng.uniform(1e5, 5e8)
        cp = critical_pump(delta_c, ov, pp)
        lam_ref = critical_coupling(-cp.delta_tilde,
                                    2 * d.recoil_frequency + 4 * e_int / HBAR,
                                    kappa)
        worst = max(worst, abs(cp.eta_cr - lam_ref / math.sqrt(n_eff))
                    / cp.eta_cr)
    report(1, "Eq.8 <-> Eq.9 equivalence, 1000 draws", worst <= 1e-12,
           f"worst rel dev {worst:.2e}")


def test_criterion_02_thomas_fermi_regression():
    tf = thomas_fermi(ExperimentParams())
    radii = (tf.radius_x * 1e6, tf.radius_y * 1e6, tf.radius_z * 1e6)
    targets = (3.2, 16.6, 3.3)
    devs = [abs(r - t) / t for r, t in zip(radii, targets)]
    report(2, "Thomas-Fermi radii vs published (5%)", max(devs) < 0.05,
           "radii (um) = %.3f, %.3f, %.3f" % radii)


def test_criterion_03_dispersive_shift():
    kappa = TWO_PI * 1.3e6
    p = ExperimentParams(atom_number=1.0e5, cavity_decay=kappa,
                         single_atom_lightshift=-6.5 * kappa / 1.0e5)
    ov = overlap_integrals(thomas_fermi(p), p)
    shift = p.single_atom_lightshift * ov.bunching_0
    target = -TWO_PI * 3.5e6
    dev = abs(shift - target) / abs(target)
    report(3, "U0*B0 vs -2pi*3.5 MHz (20%)", dev < 0.20,
           f"U0*B0 = -2pi x {abs(shift)/TWO_PI/1e6:.3f} MHz, dev {dev:.1%}")


def test_criterion_04_exact_diagonalization_crossover():
    lam_cr = critical_coupling(1.0, 1.0, 0.0)
    below, n_below = converged_ground_state_observables(
        DickeParams(omega=1.0, omega0=1.0, coupling=0.8 * lam_cr, n_atoms=8),
        n_max_start=20)
    above, n_above = converged_ground_state_observables(
        DickeParams(omega=1.0, omega0=1.0, coupling=2.0 * lam_cr, n_atoms=8),
        n_max_start=30)
    # mean-field fixed point, corroborated by the damped long-time ODE
    # (integrated in chunks until the tail average settles)
    mf = steadystate_photon_fraction(
        DickeParams(omega=1.0, omega0=1.0, coupling=2 * lam_cr, kappa=0.0))
    p_damped = DickeParams(omega=1.0, omega0=1.0,
                           coupling=2 * critical_coupling(1.0, 1.0, 0.2),
                           kappa=0.2)
    state = normal_state(noise=1e-4, seed=3)
    settled = prev = None
    for _ in range(40):
        rec = integrate_semiclassical(state, p_damped, t_final=150.0)
        state = rec["state"]
        tail = rec["photon_frac"][len(rec["photon_frac"]) // 2:]
        settled = float(tail.mean())
        if prev is not None and abs(settled - prev) <= 2e-4 * settled:
            break
        prev = settled
    ode_check = abs(settled - steadystate_photon_fraction(p_damped)) \
        / steadystate_photon_fraction(p_damped)
    ok = (below["photon_fraction"] < 0.05
          and above["photon_fraction"] > 0.5 * mf
          and ode_check < 1e-3)
    report(4, "N=8 exact crossover vs mean field", ok,
           f"n/N(0.8 lam_cr) = {below['photon_fraction']:.4f} (cutoff "
           f"{n_below}), n/N(2 lam_cr) = {above['photon_fraction']:.4f} "
           f"(cutoff {n_above}) vs 0.5*MF = {0.5*mf:.4f}; "
           f"ODE corroboration dev {ode_check:.1e}")


def test_criterion_05_semiclassical_threshold_grid():
    omega0 = 2.0
    worst = 0.0
    for omega in np.linspace(0.5, 2.5, 5):
        for kappa in np.linspace(0.1, 2.0, 5):
            p = DickeParams(omega=omega, omega0=omega0, coupling=0.0,
                            kappa=kappa)
            lam_num = instability_threshold(p)
            lam_ref = critical_coupling(omega, omega0, kappa)
            worst = max(worst, abs(lam_num - lam_ref) / lam_ref)
    report(5, "instability threshold vs formula on 5x5 grid (1e-3)",
           worst < 1e-3, f"worst rel dev {worst:.2e}")


# -- criterion 6 ------------------------------------------------------------

def _ramp_point(psi_bytes, shape, delta_c_scaled, p_end, seed, t_ramp, dt):
    sim = trapped_sim(delta_c_scaled, n=shape[0], boxes=16)
    psi0 = np.frombuffer(psi_bytes, dtype=np.float64).reshape(shape).copy()
    rng = np.random.default_rng(seed)
    psi0 = psi0 * (1.0 + 1e-5 * (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape)))
    psi0 = sim.renormalize(psi0)
    ramp = PowerRamp(sim.params, [(0.0, 0.0), (t_ramp, p_end)])
    rec = sim.real_time_evolve(psi0, ramp, t_ramp, dt, record_every=2)
    rep = detect_threshold(rec, floor_factor=1e4)
    return rep


@pytest.mark.slow
def test_criterion_06_dynamic_threshold_vs_analytic():
    # five detunings on the far-detuned branch at 128x128; ramp-detected
    # P_cr within 10% of the instability formula fed with the overlaps of
    # the same simulated ground state; fitted P_cr vs -Dt linear, R^2 > 0.99
    deltas = [-1230.0, -1280.0, -1330.0, -1390.0, -1440.0]
    sim0 = trapped_sim(deltas[0], n=128, boxes=16)
    gs = sim0.imaginary_time_ground_state(0.0, seed=1, noise=1e-4)
    psi0 = gs["psi"]
    ov = sim0.overlap_integrals_2d(psi0)
    t_ramp, dt, p_end = 234.0, 2.5e-3, 140e-6
    jobs = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        for i, dc in enumerate(deltas):
            jobs.append(pool.submit(
                _ramp_point, psi0.tobytes(), psi0.shape, dc, p_end,
                1000 + i, t_ramp, dt))
        reports = [j.result() for j in jobs]
    p_detected = []
    p_analytic = []
    dts = []
    for dc, rep in zip(deltas, reports):
        assert rep["detected"], f"no threshold detected at delta_c={dc}"
        params = trapped_params(dc)
        ov_dc = OverlapIntegrals(
            n_eff=ov.n_eff, bunching_0=ov.bunching_0,
            interaction_energy=ov.interaction_energy,
            shifted_detuning=params.pump_cavity_detuning
            - params.single_atom_lightshift * ov.bunching_0)
        cp = critical_pump(params.pump_cavity_detuning, ov_dc, params)
        p_detected.append(rep["power"])
        p_analytic.append(cp.p_cr)
        dts.append(-cp.delta_tilde)
    devs = [abs(pd - pa) / pa for pd, pa in zip(p_detected, p_analytic)]
    coef = np.polyfit(dts, p_detected, 1)
    fit = np.polyval(coef, dts)
    ss_res = float(((np.array(p_detected) - fit) ** 2).sum())
    ss_tot = float(((np.array(p_detected) - np.mean(p_detected)) ** 2).sum())
    r_sq = 1 - ss_res / ss_tot
    ok = max(devs) < 0.10 and r_sq > 0.99
    report(6, "GPE ramp thresholds vs instability formula (10%), linear in "
              "-Dt (R^2>0.99)", ok,
           "devs " + ", ".join(f"{d:.1%}" for d in devs)
           + f"; R^2 = {r_sq:.5f}")


@pytest.mark.slow
def test_criterion_07_symmetry_breaking_ensemble(tmp_path):
    eta = 2 * 1.3 * LAM_CR_ID / math.sqrt(N_ID)
    mapping = {
        "atom_number": repr(N_ID), "scattering_length": "0",
        "cavity_decay": repr(KAPPA_ID * W_R),
        "single_atom_lightshift": repr(U0_ID * W_R),
        "pump_cavity_detuning": repr((-OMEGA_ID + U0_ID * N_ID / 2) * W_R),
        "envelopes": "false", "trap": "false", "pump_lattice": "false",
        "grid_extent_x": repr(4 * TWO_PI), "grid_extent_z": repr(4 * TWO_PI),
        "grid_points_x": "32", "grid_points_z": "32",
        "noise_amplitude": "1e-2", "n_seeds": "100",
        "ensemble_eta": repr(eta),
    }
    config = resolve_config(mapping, seed=20)
    rd = RunDir(str(tmp_path / "ens"), config)
    rows, stats = sweeps.run_symmetry_ensemble(config, rd, workers=2)
    both = stats["n_plus"] > 0 and stats["n_minus"] > 0
    balance = stats["binomial_p"] > 0.01
    # a one-sided ensemble has no mean |Theta| for the missing sign (None)
    mag_dev = abs(stats["mean_abs_theta_plus"] - stats["mean_abs_theta_minus"]) \
        / stats["mean_abs_theta_plus"] if both else math.inf
    # mirrored noise must flip the sign exactly (small paired batch)
    config_m = resolve_config({**mapping, "n_seeds": "5"}, seed=20)
    rows_m, _ = sweeps.run_symmetry_ensemble(
        config_m, RunDir(str(tmp_path / "mirror"), config_m), workers=2,
        mirrored_pairs=True)
    base = [r for r in rows_m if not r[5]]
    mirror = [r for r in rows_m if r[5]]
    flips = all(b[1] == -m[1] for b, m in zip(base, mirror))
    ok = both and balance and mag_dev < 1e-4 and flips
    report(7, "100-seed symmetry breaking", ok,
           f"+{stats['n_plus']}/-{stats['n_minus']}, binomial p = "
           f"{stats['binomial_p']:.3f}, |Theta| branch dev {mag_dev:.2e}, "
           f"mirror flips exact: {flips}")


@pytest.mark.slow
def test_criterion_08_momentum_signatures():
    # below threshold in a 7 E_r pump lattice: (0, +-2hk) doublet, no
    # checkerboard peaks above 1e-6 relative; above threshold all four
    # (+-hk, +-hk) peaks with symmetric weights.  The 7 E_r lattice spreads
    # the cloud along the pump axis, so its trap is kept stiff there.
    sim_b = trapped_sim(-8500.0, trap_z=2000.0, trap_x=1200.0)
    eta_7er = math.sqrt(7.0 * abs(U0_SC))
    gs_b = sim_b.imaginary_time_ground_state(eta_7er, seed=2, noise=1e-4)
    peaks_b = dict(((cx, cz), w)
                   for cx, cz, w in sim_b.momentum_peaks(gs_b["psi"]))
    doublet = min(peaks_b[(0.0, 2.0)], peaks_b[(0.0, -2.0)]) / 2000
    quartet_b = max(peaks_b[(1.0, 1.0)], peaks_b[(1.0, -1.0)],
                    peaks_b[(-1.0, 1.0)], peaks_b[(-1.0, -1.0)]) / 2000
    # organized state on the stable branch (Delta_c below U0*N)
    sim_a = trapped_sim(-2500.0)
    eta_above = math.sqrt(4.0 * abs(U0_SC))
    gs_a = sim_a.imaginary_time_ground_state(eta_above, seed=2, noise=1e-2)
    peaks_a = dict(((cx, cz), w)
                   for cx, cz, w in sim_a.momentum_peaks(gs_a["psi"]))
    quartet = [peaks_a[c] for c in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                                    (-1.0, -1.0))]
    spread = (max(quartet) - min(quartet)) / max(quartet)
    ok = (doublet > 1e-4 and quartet_b < 1e-6
          and min(quartet) / 2000 > 1e-3 and spread < 1e-6)
    report(8, "momentum signatures below/above threshold", ok,
           f"(0,2hk) weight/N = {doublet:.2e}; checkerboard below thr "
           f"{quartet_b:.1e}; above thr min weight/N = "
           f"{min(quartet)/2000:.3f}, spread {spread:.1e}")


def _frustration_point(delta_c, p_end, psi_bytes, shape):
    sim = trapped_sim(delta_c)
    psi0 = np.frombuffer(psi_bytes, dtype=np.float64).reshape(shape).copy()
    rng = np.random.default_rng(77)
    psi0 = psi0 * (1.0 + 1e-5 * (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape)))
    psi0 = sim.renormalize(psi0)
    ramp = PowerRamp(sim.params, [(0.0, 0.0), (234.0, p_end),
                                  (434.0, p_end)])
    rec = sim.real_time_evolve(psi0, ramp, 434.0, 2.5e-3, record_every=4)
    return oscillation_metric(rec, window_fraction=0.35)


@pytest.mark.slow
def test_criterion_09_frustrated_regime():
    # U0*N < Delta_c < U0*B0: organization drags the dressed resonance
    # across the pump and the photon trace oscillates; a normal point
    # (Delta_c < U0*N) settles instead.  Ramp then hold, metric on the hold.
    gs = trapped_sim(-1400.0).imaginary_time_ground_state(0.0, seed=1,
                                                          noise=1e-4)
    psi_bytes, shape = gs["psi"].tobytes(), gs["psi"].shape
    with ProcessPoolExecutor(max_workers=2) as pool:
        fut_f = pool.submit(_frustration_point, -1400.0, 250e-6,
                            psi_bytes, shape)
        fut_n = pool.submit(_frustration_point, -2500.0, 280e-6,
                            psi_bytes, shape)
        frustrated, normal = fut_f.result(), fut_n.result()
    ok = frustrated > 0.5 and normal < 0.05
    report(9, "frustrated-regime oscillation vs settled organized phase",
           ok, f"metric frustrated = {frustrated:.2f}, normal = {normal:.3f}")


@pytest.mark.slow
def test_criterion_10_conservation_and_determinism(tmp_path):
    # norm drift per step, imaginary-time energy monotonicity, and
    # byte-identical reruns of a full ramp for a fixed (config, seed)
    sim = ideal_sim()
    psi0 = sim.initial_state(seed=4, noise=1e-3)
    eta = 2 * 1.2 * LAM_CR_ID / math.sqrt(N_ID)
    rec = sim.real_time_evolve(psi0, lambda t: (math.nan, eta), 40.0, 2e-3,
                               record_every=1)
    per_step = np.abs(np.diff(rec["norm"])) / rec["norm"][0]
    norm_ok = per_step.max() < 1e-8

    gs = sim.imaginary_time_ground_state(eta, seed=4, noise=1e-2)
    trace = gs["energy_trace"]
    mono_ok = bool(np.all(np.diff(trace) < 1e-10 * abs(trace[0]) + 1e-12))

    mapping = {
        "atom_number": repr(N_ID), "scattering_length": "0",
        "cavity_decay": repr(KAPPA_ID * W_R),
        "single_atom_lightshift": repr(U0_ID * W_R),
        "pump_cavity_detuning": repr((-OMEGA_ID + U0_ID * N_ID / 2) * W_R),
        "envelopes": "false", "trap": "false", "pump_lattice": "false",
        "grid_extent_x": repr(4 * TWO_PI), "grid_extent_z": repr(4 * TWO_PI),
        "grid_points_x": "32", "grid_points_z": "32",
        "noise_amplitude": "1e-5", "floor_factor": "1e4",
        "ramp_time": repr(150.0 / W_R), "dt": repr(4e-3 / W_R),
        "eta_end": repr(2 * 2 * LAM_CR_ID / math.sqrt(N_ID)),
    }
    blobs = []
    for name in ("r1", "r2"):
        config = resolve_config(mapping, seed=33)
        rd = RunDir(str(tmp_path / name), config)
        sweeps.run_ramp(config, rd)
        blobs.append((tmp_path / name / "trajectory.csv").read_bytes()
                     + (tmp_path / name / "threshold.json").read_bytes())
    det_ok = blobs[0] == blobs[1]
    ok = norm_ok and mono_ok and det_ok
    report(10, "norm drift / energy monotonicity / byte-identical reruns",
           ok, f"max per-step drift {per_step.max():.1e}, monotone "
               f"{mono_ok}, identical bytes {det_ok}")
