"""Independent checks of the program's outputs.

Nothing here imports ``selforg``: every expected value is recomputed from
the physics (constants, mode profiles, closed forms, a plane-wave solver,
a dense exact diagonalization) or is a property the method must have.
Tolerances follow the accuracy of the method, not today's output, so a
change that moves where alpha is evaluated or that integrates the Dicke
equations more accurately still passes.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output is correct.
"""

import csv
import json
import math
import os

import numpy as np
from scipy.special import erf

# CODATA 2018 and 87Rb (the published experiment's species)
HBAR = 1.054571817e-34
AMU = 1.66053906660e-27
BOHR = 5.29177210903e-11
RB87_MASS = 86.909180520 * AMU
RB87_A = 100.4 * BOHR
TWO_PI = 2 * math.pi

# default experiment (the published parameter set)
DEFAULTS = {
    "atom_number": 1.0e5,
    "pump_wavelength": 784.5e-9,
    "cavity_decay": TWO_PI * 1.3e6,
    "pump_cavity_detuning": -TWO_PI * 14.9e6,
    "single_atom_lightshift": -6.5 * TWO_PI * 1.3e6 / 1.0e5,
    "trap": (TWO_PI * 252.0, TWO_PI * 48.0, TWO_PI * 238.0),
    "cavity_waist": 25e-6,
    "pump_waist_x": 29e-6,
    "pump_waist_y": 53e-6,
}


def wavenumber(wavelength=DEFAULTS["pump_wavelength"]):
    return TWO_PI / wavelength


def recoil_frequency(wavelength=DEFAULTS["pump_wavelength"]):
    k = wavenumber(wavelength)
    return HBAR * k * k / (2 * RB87_MASS)


def calibration_constant():
    """Pump calibration: -10 recoil energies of lattice depth per mW."""
    return -10.0 * HBAR * recoil_frequency() / 1e-3


def dicke_critical_coupling(omega, omega0, kappa):
    """lambda_cr = sqrt((omega^2 + kappa^2) omega0 / omega) / 2."""
    return 0.5 * math.sqrt((omega * omega + kappa * kappa) / omega * omega0)


def _number(text, path, row, column):
    if text in ("true", "false"):
        return float(text == "true")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{os.path.basename(path)} row {row}, column "
                         f"{column}: {text!r} is not a number") from None


def read_csv(path):
    """Header list and a float array (true/false read as 1/0)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = [[_number(v, path, i, name) for v, name in zip(row, header)]
            for i, row in enumerate(rows[1:], start=1)]
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError(f"{os.path.basename(path)}: ragged rows")
    return header, np.array(data, dtype=float).reshape(len(data), len(header))


def unreadable(path):
    """What keeps a data file from being read as numbers, or None."""
    try:
        if path.endswith(".csv"):
            read_csv(path)
        else:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
    except (OSError, ValueError) as exc:
        return str(exc)
    return None


def _columns(path):
    header, data = read_csv(path)
    return {name: data[:, i] for i, name in enumerate(header)}


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# ramp-256: split-step ramp of the default trapped cloud
# ---------------------------------------------------------------------------

def mode_profiles(extent, points):
    """phi_c, phi_p at y = 0 on the cell grid (lengths in 1/k)."""
    k = wavenumber()
    d = extent / points
    x = (np.arange(points) * d - extent / 2).reshape(-1, 1)
    z = (np.arange(points) * d - extent / 2).reshape(1, -1)
    phi_c = np.cos(x) * np.exp(-(z / (k * DEFAULTS["cavity_waist"])) ** 2)
    phi_p = np.exp(-(x / (k * DEFAULTS["pump_waist_x"])) ** 2) * np.cos(z)
    return phi_c, phi_p, d * d


def cavity_alpha(eta, theta, bunching):
    """alpha = eta Theta / (Delta_c - U0 B + i kappa), recoil units."""
    w_r = recoil_frequency()
    delta = DEFAULTS["pump_cavity_detuning"] / w_r
    u0 = DEFAULTS["single_atom_lightshift"] / w_r
    kappa = DEFAULTS["cavity_decay"] / w_r
    return eta * theta / ((delta - u0 * bunching) + 1j * kappa)


def check_ramp(run_dir, psi, spec):
    """trajectory.csv and threshold.json of a default-config ramp.

    spec: ramp_time_s, power_end_w, extent, points.
    """
    bad = []
    col = _columns(os.path.join(run_dir, "trajectory.csv"))
    n_atoms = DEFAULTS["atom_number"]
    w_r = recoil_frequency()
    t, power, eta = col["t"], col["P"], col["eta"]
    t_ramp = spec["ramp_time_s"] * w_r

    # the schedule: uniform steps from 0 to the ramp end, linear power,
    # eta^2 = U0 c_cal P / hbar
    steps = np.diff(t)
    if len(t) < 3 or t[0] != 0.0:
        bad.append("ramp: time column does not start at 0")
    elif np.ptp(steps) > 1e-9 * steps.mean():
        bad.append("ramp: time column is not uniformly spaced "
                   f"(steps {steps.min():.6g}..{steps.max():.6g})")
    elif abs(t[-1] - t_ramp) > 0.5 * steps.mean():
        bad.append(f"ramp: last time {t[-1]:.6g} != ramp end {t_ramp:.6g}")
    p_expect = spec["power_end_w"] * np.minimum(t / t_ramp, 1.0)
    if np.abs(power - p_expect).max() > 1e-9 * spec["power_end_w"]:
        bad.append("ramp: P column does not follow the linear schedule")
    eta_sq_per_watt = DEFAULTS["single_atom_lightshift"] \
        * calibration_constant() / HBAR / w_r**2
    if np.abs(eta - np.sqrt(eta_sq_per_watt * power)).max() \
            > 1e-9 * max(eta.max(), 1e-300):
        bad.append("ramp: eta column is not sqrt(U0 c_cal P / hbar)/omega_r")

    # the split step is unitary: the norm stays N to round-off
    drift = np.abs(col["norm"] / n_atoms - 1.0).max()
    if drift > 1e-10:
        bad.append(f"ramp: norm drifts by {drift:.3e} (unitary step)")

    # every row: alpha = eta Theta / (Delta_c - U0 B + i kappa) and
    # n_photon = |alpha|^2
    alpha = col["alpha_re"] + 1j * col["alpha_im"]
    expect = cavity_alpha(eta, col["theta"], col["bunching"])
    scale = np.maximum(np.abs(expect), 1e-300)
    worst = (np.abs(alpha - expect) / scale)[eta > 0].max()
    if worst > 1e-9:
        bad.append(f"ramp: alpha differs from eta*Theta/(...) by {worst:.3e}")
    if alpha[eta == 0].size and np.abs(alpha[eta == 0]).max() != 0.0:
        bad.append("ramp: alpha is nonzero at zero pump")
    nph_dev = (np.abs(col["nphoton"] - np.abs(alpha) ** 2)
               / np.maximum(np.abs(alpha) ** 2, 1e-300))[eta > 0].max()
    if nph_dev > 1e-9:
        bad.append(f"ramp: n_photon != |alpha|^2 (rel {nph_dev:.3e})")

    # Theta and B of the returned field, from our own mode profiles; the
    # last record may be taken anywhere within the last step, so it must
    # lie within one step's change of the field's value
    phi_c, phi_p, da = mode_profiles(spec["extent"], spec["points"])
    dens = np.abs(psi) ** 2
    for name, prof in (("theta", phi_c * phi_p), ("bunching", phi_c**2)):
        own = float((prof * dens).sum() * da)
        step_change = abs(col[name][-1] - col[name][-2])
        tol = max(step_change, 1e-9 * abs(own))
        if abs(col[name][-1] - own) > tol:
            bad.append(f"ramp: last {name} {col[name][-1]:.9g} vs field "
                       f"{own:.9g} (tolerance {tol:.3g})")
    norm_field = float(dens.sum() * da)
    if _rel(norm_field, n_atoms) > 1e-10:
        bad.append(f"ramp: returned field holds {norm_field:.9g} atoms")

    with open(os.path.join(run_dir, "threshold.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report["detected"]:
        j = report["index"]
        if not (0 <= j < len(t)) or report["power"] != power[j] \
                or _rel(report["eta"], eta[j]) > 1e-12:
            bad.append("ramp: threshold.json does not point at a record")
    elif not math.isnan(report["power"]):
        bad.append("ramp: undetected threshold with a power")
    return bad


# ---------------------------------------------------------------------------
# ensemble-32: ideal two-mode test bed, plane-wave self-consistency
# ---------------------------------------------------------------------------

def plane_wave_ground_state(n_atoms, eta, omega_eff, kappa, u0, modes=8,
                            tol=1e-13, max_iter=10_000):
    """Self-consistent organized ground state in a plane-wave basis.

    Homogeneous periodic box, no trap, no envelopes, no pump lattice, no
    contact interaction (recoil units).  h = k^2 + u0|alpha|^2 cos^2 x
    + 2 eta Re(alpha) cos x cos z with alpha = eta Theta / (Delta_c - u0 B
    + i kappa), Delta_c = -omega_eff + u0 N/2.

    The basis holds the integer momenta -modes/2 .. modes/2 - 1 per axis and
    products wrap modulo ``modes``: this is exactly the set of lattice
    momenta a periodic grid of ``modes`` points per pump wavelength carries
    (its pointwise products alias the same way), so the result is the
    exact ground state of that grid without any time-stepping error.  A
    large ``modes`` gives the continuum.  Returns |Theta|/N, B/N,
    |alpha|^2 and the energy N*epsilon_0.
    """
    half = modes // 2
    states = [(m, n) for m in range(-half, half)
              for n in range(-half, half) if (m + n) % 2 == 0]
    index = {mn: i for i, mn in enumerate(states)}
    dim = len(states)

    def wrap(m):
        return (m + half) % modes - half

    kin = np.diag([float(m * m + n * n) for m, n in states])
    cc = np.zeros((dim, dim))       # cos x cos z
    c2 = 0.5 * np.eye(dim)          # cos^2 x
    for i, (m, n) in enumerate(states):
        for dm in (-1, 1):
            for dn in (-1, 1):
                cc[i, index[(wrap(m + dm), wrap(n + dn))]] += 0.25
        for dm in (-2, 2):
            c2[i, index[(wrap(m + dm), n)]] += 0.25
    delta_c = -omega_eff + u0 * n_atoms / 2

    def solve(theta, bunching):
        alpha = eta * theta / ((delta_c - u0 * bunching) + 1j * kappa)
        h = kin + u0 * abs(alpha) ** 2 * c2 + 2 * eta * alpha.real * cc
        w, v = np.linalg.eigh(h)
        c = v[:, 0]
        # the Theta > 0 branch; its mirror image has the same |Theta|
        return alpha, float(w[0]), abs(n_atoms * float(c @ cc @ c)), \
            n_atoms * float(c @ c2 @ c)

    theta, bunching = 0.5 * n_atoms, 0.5 * n_atoms
    for _ in range(max_iter):
        alpha, eps, new_theta, new_b = solve(theta, bunching)
        if abs(new_theta - theta) < tol * n_atoms \
                and abs(new_b - bunching) < tol * n_atoms:
            break
        theta = 0.5 * (theta + new_theta)
        bunching = 0.5 * (bunching + new_b)
    else:
        raise RuntimeError("plane-wave self-consistency did not converge")
    return {"theta_per_atom": new_theta / n_atoms,
            "bunching_per_atom": new_b / n_atoms,
            "nphoton": abs(alpha) ** 2, "energy": n_atoms * eps}


def check_ensemble(run_dir, spec):
    """ensemble.csv and ensemble_stats.json of the ideal 32^2 test bed.

    spec: n_atoms, eta, omega_eff, kappa, u0, n_seeds, modes (grid points
    per pump wavelength).
    """
    bad = []
    col = _columns(os.path.join(run_dir, "ensemble.csv"))
    n = spec["n_atoms"]
    if len(col["seed"]) != spec["n_seeds"]:
        bad.append(f"ensemble: {len(col['seed'])} rows for "
                   f"{spec['n_seeds']} seeds")
        return bad
    theta, sign, energy, nph = col["theta"], col["sign"], col["energy"], \
        col["nphoton"]
    if not np.array_equal(sign, np.sign(theta)):
        bad.append("ensemble: sign column differs from sign(theta)")
    if (energy >= 0).any():
        bad.append("ensemble: an energy is not below the normal state's 0")
    mags = np.abs(theta)
    # every member relaxes onto one of two mirror branches: |Theta| is
    # fixed to the solver's convergence tolerance (1e-8 N per step)
    if np.ptp(mags) > 1e-5 * mags.mean():
        bad.append(f"ensemble: |theta| spread {np.ptp(mags):.3e} across members")
    if np.ptp(energy) > 1e-6 * abs(energy.mean()):
        bad.append(f"ensemble: energy spread {np.ptp(energy):.3e} across members")
    ref = plane_wave_ground_state(n, spec["eta"], spec["omega_eff"],
                                  spec["kappa"], spec["u0"],
                                  modes=spec["modes"])
    # the reference is exact for the grid's momenta; what remains is the
    # O(dtau^2) splitting error of imaginary-time relaxation (~3e-6 at
    # dtau = 2e-3) and the solver's convergence tolerance
    tol = 1e-4
    for name, got, want in (
            ("|theta|/N", mags.mean() / n, ref["theta_per_atom"]),
            ("n_photon", nph.mean(), ref["nphoton"]),
            ("energy", energy.mean(), ref["energy"])):
        if _rel(got, want) > tol:
            bad.append(f"ensemble: {name} {got:.8g} vs plane-wave {want:.8g}")
    with open(os.path.join(run_dir, "ensemble_stats.json"),
              encoding="utf-8") as fh:
        stats = json.load(fh)
    n_plus = int((sign > 0).sum())
    if stats["n_plus"] != n_plus or stats["n_minus"] != len(sign) - n_plus \
            or stats["n_seeds"] != len(sign):
        bad.append("ensemble: ensemble_stats.json disagrees with ensemble.csv")
    return bad


# ---------------------------------------------------------------------------
# dicke-ed: dense exact diagonalization from scratch
# ---------------------------------------------------------------------------

def dicke_ed_reference(n_atoms, omega, omega0, coupling, n_max=80):
    """Photon fraction, inversion and gap of the closed Dicke model,
    H = omega0 Jz + omega a^+a + lam/sqrt(N) (a^+ + a)(J+ + J-)."""
    j = n_atoms / 2.0
    m = np.arange(-j, j + 1.0)
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1)
    nb = np.arange(n_max + 1.0)
    a = np.diag(np.sqrt(nb[1:]), 1)
    h = omega0 * np.kron(np.diag(m), np.eye(n_max + 1)) \
        + omega * np.kron(np.eye(len(m)), np.diag(nb)) \
        + coupling / math.sqrt(n_atoms) * np.kron(jp + jp.T, a + a.T)
    w, v = np.linalg.eigh(h)
    prob = (v[:, 0] ** 2).reshape(len(m), n_max + 1)
    return {"photon_frac": float(prob.sum(axis=0) @ nb) / n_atoms,
            "jz": float(prob.sum(axis=1) @ m) / n_atoms,
            "gap": float(w[1] - w[0])}


def check_dicke_ed(run_dir, spec):
    """eigen.csv of an N = 8 coupling sweep.

    spec: n_atoms, omega, omega0, lambdas.
    """
    bad = []
    col = _columns(os.path.join(run_dir, "eigen.csv"))
    lams = np.asarray(spec["lambdas"])
    if len(col["lambda"]) != len(lams) or \
            np.abs(col["lambda"] - lams).max() > 1e-12:
        return ["dicke-ed: the lambda column is not the requested sweep"]
    # a nondegenerate ground state is a parity eigenstate: <J+ + J-> = 0;
    # deep in the superradiant phase the two parity states are degenerate
    # to round-off and any mixture of them is a valid eigenvector
    resolved = col["gap"] > 1e-6
    if np.abs(col["order"][resolved]).max(initial=0.0) > 1e-8:
        bad.append("dicke-ed: nonzero order parameter in a parity eigenstate")
    # the program stops its cutoff scan at 1e-6 changes per 10 photons
    tol = 1e-5
    for i, lam in enumerate(lams):
        ref = dicke_ed_reference(spec["n_atoms"], spec["omega"],
                                 spec["omega0"], lam)
        for name in ("photon_frac", "jz", "gap"):
            if abs(col[name][i] - ref[name]) > tol * max(1.0, abs(ref[name])):
                bad.append(f"dicke-ed: {name} at lambda={lam:.6g} is "
                           f"{col[name][i]:.9g}, dense ED gives {ref[name]:.9g}")
        if lam == 0.0 and abs(col["gap"][i]
                              - min(spec["omega"], spec["omega0"])) > 1e-9:
            bad.append("dicke-ed: gap at lambda = 0 is not min(omega, omega0)")
    return bad


# ---------------------------------------------------------------------------
# dicke-ode: damped coupling ramp through the transition
# ---------------------------------------------------------------------------

def check_dicke_ode(run_dir, spec):
    """trajectory.csv of a linear coupling ramp 0 -> lam_end over t_final.

    spec: omega, omega0, kappa, lam_end, t_final (recoil units).
    """
    bad = []
    col = _columns(os.path.join(run_dir, "trajectory.csv"))
    t, frac = col["t"], col["photon_frac"]
    lam_cr = dicke_critical_coupling(spec["omega"], spec["omega0"],
                                     spec["kappa"])
    if t[0] != 0.0 or abs(t[-1] - spec["t_final"]) > np.diff(t).max():
        bad.append("dicke-ode: time column does not span the ramp")
    if np.ptp(np.diff(t)) > 1e-9 * np.diff(t).mean():
        bad.append("dicke-ode: time column is not uniformly spaced")
    alpha_sq = col["alpha_re"] ** 2 + col["alpha_im"] ** 2
    if np.abs(alpha_sq - frac).max() > 1e-12 * max(frac.max(), 1.0):
        bad.append("dicke-ode: photon_frac != |alpha|^2")
    lam_end = spec["lam_end"]
    fixed_point = lam_end**2 * (1 - (lam_cr / lam_end) ** 4) \
        / (spec["omega"] ** 2 + spec["kappa"] ** 2)
    # a slow ramp follows the fixed point to the adiabatic lag
    if _rel(frac[-1], fixed_point) > 5e-3:
        bad.append(f"dicke-ode: final photon fraction {frac[-1]:.6g}, fixed "
                   f"point {fixed_point:.6g}")
    # the normal phase is stable below lam_cr: the cavity stays dark
    onset = np.nonzero(frac > 1e-3)[0]
    if not onset.size:
        bad.append("dicke-ode: the cavity never lights up")
    else:
        lam_on = lam_end * t[onset[0]] / spec["t_final"]
        if lam_on < lam_cr:
            bad.append(f"dicke-ode: photons at lambda={lam_on:.6g} below "
                       f"lambda_cr={lam_cr:.6g}")
    # on the sphere: |j_z| <= 1/2 and Re(j_minus) = order/2 within it
    if (np.abs(col["jz"]) > 0.5 + 1e-3).any() or \
            (col["order"] ** 2 / 4 + col["jz"] ** 2 > 0.25 + 1e-3).any():
        bad.append("dicke-ode: spin leaves the Bloch sphere")
    return bad


# ---------------------------------------------------------------------------
# boundary: Thomas-Fermi overlaps with y in closed form
# ---------------------------------------------------------------------------

def thomas_fermi(n_atoms):
    wx, wy, wz = DEFAULTS["trap"]
    wbar = (wx * wy * wz) ** (1 / 3)
    abar = math.sqrt(HBAR / (RB87_MASS * wbar))
    mu = 0.5 * HBAR * wbar * (15 * n_atoms * RB87_A / abar) ** 0.4
    g = 4 * math.pi * HBAR**2 * RB87_A / RB87_MASS
    radii = tuple(math.sqrt(2 * mu / (RB87_MASS * w * w)) for w in (wx, wy, wz))
    return radii, mu / g, g


def _y_integral(s, ry, a):
    """int_{-ry s}^{ry s} (s^2 - y^2/ry^2) exp(-a y^2) dy, in closed form."""
    y = ry * s
    e = erf(math.sqrt(a) * y)
    g0 = math.sqrt(math.pi / a) * e
    g2 = math.sqrt(math.pi) * e / (2 * a**1.5) - y * np.exp(-a * y * y) / a
    return s * s * g0 - g2 / ry**2


def overlaps(n_atoms, n_s=160, n_phi=256):
    """B0 = int n phi_c^2 and N_eff = int n phi_c^2 phi_p^2 over the cloud.

    The y integral is done in closed form; the (x, z) ellipse uses
    x = Rx rho cos(phi), z = Rz rho sin(phi), s = sqrt(1 - rho^2), in
    which the integrand is analytic, with Gauss-Legendre nodes in s and
    the trapezoid rule in phi.  Also returns E_int from the closed form.
    """
    (rx, ry, rz), n0, g = thomas_fermi(n_atoms)
    k = wavenumber()
    wc, wpx, wpy = DEFAULTS["cavity_waist"], DEFAULTS["pump_waist_x"], \
        DEFAULTS["pump_waist_y"]
    u, wu = np.polynomial.legendre.leggauss(n_s)
    s = (0.5 * (u + 1)).reshape(-1, 1)
    ws = (0.5 * wu).reshape(-1, 1)
    phi = (TWO_PI * np.arange(n_phi) / n_phi).reshape(1, -1)
    rho = np.sqrt(1 - s * s)
    x = rx * rho * np.cos(phi)
    z = rz * rho * np.sin(phi)
    # area element rx rz rho drho dphi = rx rz s ds dphi
    w = n0 * rx * rz * s * ws * (TWO_PI / n_phi)
    phic2_xz = np.cos(k * x) ** 2 * np.exp(-2 * z * z / wc**2)
    phip2_xz = np.cos(k * z) ** 2 * np.exp(-2 * x * x / wpx**2)
    b0 = float((w * phic2_xz * _y_integral(s, ry, 2 / wc**2)).sum())
    n_eff = float((w * phic2_xz * phip2_xz
                   * _y_integral(s, ry, 2 / wc**2 + 2 / wpy**2)).sum())
    e_int = g / (2 * n_atoms) * n0**2 * rx * ry * rz * 32 * math.pi / 105
    return {"bunching_0": b0, "n_eff": n_eff, "interaction_energy": e_int}


def check_boundary(run_dir, spec):
    """boundary.csv over a detuning list for one cloud.

    spec: n_atoms, delta_c (rad/s list).
    """
    bad = []
    col = _columns(os.path.join(run_dir, "boundary.csv"))
    deltas = np.asarray(spec["delta_c"])
    if len(col["delta_c_hz"]) != len(deltas) or \
            np.abs(col["delta_c_hz"] * TWO_PI - deltas).max() \
            > 1e-12 * np.abs(deltas).max():
        return ["boundary: the delta_c column is not the requested list"]
    ref = overlaps(spec["n_atoms"])
    u0 = DEFAULTS["single_atom_lightshift"]
    kappa = DEFAULTS["cavity_decay"]
    w_r = recoil_frequency()
    delta_tilde = col["delta_tilde_hz"] * TWO_PI
    b0 = (deltas - delta_tilde) / u0
    # both quadratures converge to 1e-7 or better
    if np.abs(b0 / ref["bunching_0"] - 1).max() > 1e-6:
        bad.append(f"boundary: B0 {b0.mean():.9g} vs closed-form-y "
                   f"quadrature {ref['bunching_0']:.9g}")
    real = col["transition_exists"] == 1.0
    if not np.array_equal(real, delta_tilde < 0):
        bad.append("boundary: transition_exists is not (delta_tilde < 0)")
    if real.any():
        eta, lam, p_cr = col["eta_cr"][real], col["lambda_cr"][real], \
            col["p_cr_watt"][real]
        n_eff = (lam / eta) ** 2
        if np.abs(n_eff / ref["n_eff"] - 1).max() > 1e-6:
            bad.append(f"boundary: N_eff {n_eff.mean():.9g} vs closed-form-y "
                       f"quadrature {ref['n_eff']:.9g}")
        omega0 = 2 * w_r + 4 * ref["interaction_energy"] / HBAR
        lam_dicke = np.array([dicke_critical_coupling(-dt, omega0, kappa)
                              for dt in delta_tilde[real]])
        if np.abs(lam / lam_dicke - 1).max() > 1e-9:
            bad.append("boundary: eta_cr sqrt(N_eff) is not the Dicke lambda_cr")
        p_expect = HBAR * eta**2 / (u0 * calibration_constant())
        if np.abs(p_cr / p_expect - 1).max() > 1e-9:
            bad.append("boundary: p_cr is not hbar eta_cr^2 / (U0 c_cal)")
    if (~real).any() and not np.isnan(col["eta_cr"][~real]).all():
        bad.append("boundary: a threshold above the shifted resonance")
    if spec["n_atoms"] == DEFAULTS["atom_number"]:
        shift = u0 * ref["bunching_0"]
        # the published dispersive shift, -2pi x 3.5 MHz, within 20%
        if abs(shift / (-TWO_PI * 3.5e6) - 1) > 0.2:
            bad.append(f"boundary: U0 B0 = 2pi x {shift / TWO_PI / 1e6:.3f} MHz")
    return bad
