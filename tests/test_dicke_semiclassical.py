import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from selforg.dicke import (DickeParams, DivergenceError, SemiclassicalState,
                           normal_state, semiclassical_rhs,
                           integrate_semiclassical,
                           integrate_semiclassical_ramp,
                           steadystate_photon_fraction, critical_coupling,
                           superradiant_fixed_point, normal_phase_growth_rate,
                           instability_threshold, max_stable_dt)


def _oracle(s0, p, t_final):
    """Tight-tolerance DOP853 solution of semiclassical_rhs at t_final."""
    def rhs(_, y):
        s = SemiclassicalState(complex(y[0], y[1]), complex(y[2], y[3]), y[4])
        da, djm, djz = semiclassical_rhs(s, p)
        return [da.real, da.imag, djm.real, djm.imag, djz]

    y0 = [s0.alpha.real, s0.alpha.imag, s0.j_minus.real, s0.j_minus.imag,
          s0.j_z]
    y = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853", rtol=1e-13,
                  atol=1e-15).y[:, -1]
    return SemiclassicalState(complex(y[0], y[1]), complex(y[2], y[3]), y[4])


def _distance(s, r):
    return max(abs(s.alpha - r.alpha), abs(s.j_minus - r.j_minus),
               abs(s.j_z - r.j_z))


# a state off every fixed point, on the spin sphere
OFF_EQUILIBRIUM = SemiclassicalState(0.1 + 0.05j, 0.06 - 0.08j,
                                     -math.sqrt(0.25 - 0.01))
# the damped test system (lam_cr = 0.707), with the dispersive shifts
# (3/4) U0 N = -0.75 when they are on; its dt bound is 0.05
DAMPED = DickeParams(omega=1.0, omega0=1.0, coupling=0.8, kappa=1.0,
                     n_atoms=20, u0=-0.05)


def test_decoupled_field_decays_as_analytic():
    # lam = 0, alpha(0) = 1: alpha(t) = exp(-(i omega + kappa) t)
    p = DickeParams(omega=1.3, omega0=1.0, coupling=0.0, kappa=0.4)
    s0 = SemiclassicalState(1.0 + 0.0j, 0.0j, -0.5)
    rec = integrate_semiclassical(s0, p, t_final=5.0, dt=0.01)
    expect = np.exp(-(1j * 1.3 + 0.4) * rec["t"])
    assert np.abs(rec["alpha"] - expect).max() < 1e-8


def test_normal_state_is_fixed_point():
    for lam in (0.0, 0.5, 3.0):
        p = DickeParams(omega=1.0, omega0=1.0, coupling=lam, kappa=0.7,
                        dispersive_shift_enabled=True, u0=-0.3, n_atoms=10)
        da, djm, djz = semiclassical_rhs(normal_state(), p)
        assert abs(da) == 0.0 and abs(djm) == 0.0 and djz == 0.0


def test_spin_length_conserved_closed():
    # kappa = 0: |j_minus|^2 + j_z^2 conserved to 1e-8 over t = 100/omega0
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.8, kappa=0.0)
    s0 = SemiclassicalState(0.1 + 0.05j, 0.1 - 0.02j, -0.45)
    ell0 = s0.spin_length_sq()
    rec = integrate_semiclassical(s0, p, t_final=100.0, dt=0.01)
    s = rec["state"]
    assert abs(s.spin_length_sq() - ell0) < 1e-8


def test_below_threshold_decays_above_grows_and_saturates():
    lam_cr = critical_coupling(1.0, 1.0, 0.5)
    below = DickeParams(omega=1.0, omega0=1.0, coupling=0.6 * lam_cr,
                        kappa=0.5)
    s0 = normal_state(noise=1e-4, seed=5)
    rec = integrate_semiclassical(s0, below, t_final=200.0)
    assert rec["photon_frac"][-1] < abs(s0.alpha) ** 2
    above = DickeParams(omega=1.0, omega0=1.0, coupling=1.6 * lam_cr,
                        kappa=0.5)
    rec_p = integrate_semiclassical(normal_state(noise=1e-4, seed=5),
                                    above, t_final=400.0)
    rec_m = integrate_semiclassical(
        SemiclassicalState(-s0.alpha, -s0.j_minus, s0.j_z), above,
        t_final=400.0)
    target = steadystate_photon_fraction(above)
    assert rec_p["photon_frac"][-1] == pytest.approx(target, rel=1e-3)
    # opposite seeds end on opposite order-parameter branches
    assert np.sign(rec_p["order"][-1]) == -np.sign(rec_m["order"][-1])
    assert abs(rec_p["order"][-1]) > 0.1


def test_steadystate_formula():
    # continuous at threshold: zero exactly at lam_cr, tiny just above
    p_at = DickeParams(omega=1.0, omega0=1.0, coupling=critical_coupling(1, 1, 1),
                       kappa=1.0)
    assert steadystate_photon_fraction(p_at) == 0.0
    lam_cr = critical_coupling(1.0, 1.0, 1.0)
    p_just = DickeParams(omega=1.0, omega0=1.0,
                         coupling=lam_cr * (1 + 1e-4), kappa=1.0)
    assert 0 < steadystate_photon_fraction(p_just) < 1e-2
    # closed-model limit: |alpha|^2/N = lam^2 (1 - (lam_cr/lam)^4)/omega^2,
    # hand-derived from the Bloch-sphere fixed point
    p0 = DickeParams(omega=1.0, omega0=1.0, coupling=1.0, kappa=0.0)
    assert steadystate_photon_fraction(p0) == pytest.approx(0.9375, rel=1e-14)
    # below threshold and no-transition cases return 0
    assert steadystate_photon_fraction(
        DickeParams(omega=1.0, omega0=1.0, coupling=0.3, kappa=0.0)) == 0.0
    assert steadystate_photon_fraction(
        DickeParams(omega=-1.0, omega0=1.0, coupling=5.0, kappa=0.0)) == 0.0


def test_fixed_point_is_stationary():
    p = DickeParams(omega=1.2, omega0=0.9, coupling=1.1, kappa=0.6)
    for sign in (+1, -1):
        s = superradiant_fixed_point(p, sign)
        da, djm, djz = semiclassical_rhs(s, p)
        assert max(abs(da), abs(djm), abs(djz)) < 1e-14


def _settled_photon_fraction(p, t_chunk=150.0, max_chunks=60, rtol=3e-4):
    """Integrate in chunks until the chunk-tail average stops moving."""
    s = normal_state(noise=1e-4, seed=123)
    prev = None
    for _ in range(max_chunks):
        rec = integrate_semiclassical(s, p, t_final=t_chunk)
        s = rec["state"]
        tail = rec["photon_frac"][len(rec["photon_frac"]) // 2:]
        cur = float(tail.mean())
        if prev is not None and abs(cur - prev) <= rtol * max(cur, 1e-12):
            return cur
        prev = cur
    return prev


def test_ode_matches_fixed_point_for_random_draws():
    # 20 above-threshold draws: long-time ODE photon fraction vs the
    # analytic fixed point to 1e-3 relative
    rng = np.random.default_rng(2024)
    for _ in range(20):
        omega = rng.uniform(0.8, 2.0)
        omega0 = rng.uniform(0.5, 2.0)
        kappa = rng.uniform(0.4, 1.2)
        lam = rng.uniform(1.2, 1.9) * critical_coupling(omega, omega0, kappa)
        p = DickeParams(omega=omega, omega0=omega0, coupling=lam, kappa=kappa)
        target = steadystate_photon_fraction(p)
        settled = _settled_photon_fraction(p)
        assert settled == pytest.approx(target, rel=1e-3), \
            f"(omega={omega}, omega0={omega0}, kappa={kappa}, lam={lam})"


def test_growth_rate_crosses_zero_at_critical_coupling():
    omega, omega0, kappa = 1.0, 2.0, 1.0
    lam_cr = critical_coupling(omega, omega0, kappa)
    below = DickeParams(omega=omega, omega0=omega0, coupling=0.99 * lam_cr,
                        kappa=kappa)
    above = DickeParams(omega=omega, omega0=omega0, coupling=1.01 * lam_cr,
                        kappa=kappa)
    assert normal_phase_growth_rate(below) < 0 < normal_phase_growth_rate(above)


def test_instability_threshold_matches_formula_on_grid():
    # 5x5 (omega, kappa) grid, 1e-3 relative (acceptance criterion 5 core)
    omega0 = 2.0
    for omega in np.linspace(0.5, 2.5, 5):
        for kappa in np.linspace(0.1, 2.0, 5):
            p = DickeParams(omega=omega, omega0=omega0, coupling=0.0,
                            kappa=kappa)
            lam_num = instability_threshold(p)
            lam_ref = critical_coupling(omega, omega0, kappa)
            assert lam_num == pytest.approx(lam_ref, rel=1e-3)
    assert math.isnan(instability_threshold(
        DickeParams(omega=-1.0, omega0=omega0, coupling=0.0, kappa=0.5)))


def test_dt_contract():
    p = DickeParams(omega=10.0, omega0=1.0, coupling=0.0, kappa=0.0)
    assert max_stable_dt(p) == pytest.approx(0.005)
    with pytest.raises(ValueError, match="resolve"):
        integrate_semiclassical(normal_state(), p, t_final=1.0, dt=0.1)


def test_unresolved_schedule_diverges():
    # the dt bound sees only the end-point couplings, so a coupling spike
    # in mid-ramp is left unresolved and must end in DivergenceError
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.0, kappa=0.5)
    with pytest.raises(DivergenceError, match="diverged"):
        integrate_semiclassical_ramp(
            normal_state(noise=1e-3, seed=1), p,
            lambda t: 1e3 if 1.0 < t < 9.0 else 0.0, t_final=10.0)


def test_trajectory_record_fields():
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.2, kappa=0.3)
    rec = integrate_semiclassical(normal_state(noise=1e-3, seed=1), p,
                                  t_final=2.0, dt=0.01, record_every=10)
    assert set(rec) >= {"t", "alpha", "photon_frac", "jz", "order", "state"}
    assert rec["t"][0] == 0.0
    assert np.all(np.diff(rec["t"]) > 0)
    assert np.allclose(rec["photon_frac"], np.abs(rec["alpha"]) ** 2)


@pytest.mark.parametrize("dispersive", [False, True])
def test_splitting_is_second_order(dispersive):
    # the error at t = 20 quarters per dt halving, from the dt bound down
    p = replace(DAMPED, dispersive_shift_enabled=dispersive)
    ref = _oracle(OFF_EQUILIBRIUM, p, 20.0)
    errors = [_distance(integrate_semiclassical(
        OFF_EQUILIBRIUM, p, t_final=20.0, dt=max_stable_dt(p) / 2**k)
        ["state"], ref) for k in range(4)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.6 < r < 4.4 for r in ratios), (errors, ratios)


def test_spin_length_conserved_on_damped_run():
    # criterion 4's damped run over 1e5 steps: the spin rotation keeps
    # |j_minus|^2 + j_z^2 to round-off (fixed-step RK4 drifted by ~2e-4)
    p = DickeParams(omega=1.0, omega0=1.0,
                    coupling=2 * critical_coupling(1.0, 1.0, 0.2), kappa=0.2)
    s0 = normal_state(noise=1e-4, seed=3)
    rec = integrate_semiclassical(s0, p, t_final=1e5 * max_stable_dt(p),
                                  record_every=1000)
    assert len(rec["t"]) == 101
    assert abs(rec["state"].spin_length_sq() - s0.spin_length_sq()) < 1e-12
    assert rec["photon_frac"][-1] == pytest.approx(
        steadystate_photon_fraction(p), rel=1e-3)


def _dispersive_fixed_point(p, sign):
    """Superradiant fixed point with the dispersive shifts, by root finding
    on j_z along the spin sphere (Im j_minus = 0, alpha slaved)."""
    lam, shift = p.coupling, 0.75 * p.u0 * p.n_atoms

    def slaved_alpha(jz):
        omega_s = p.omega + shift * (jz + 0.5)
        jm = sign * math.sqrt(0.25 - jz * jz)
        return -2j * lam * jm / complex(p.kappa, omega_s), jm

    def spin_balance(jz):
        # Omega x j = 0: omega0' Re(j_minus) = 4 lam Re(alpha) j_z
        alpha, jm = slaved_alpha(jz)
        return (p.omega0 + shift * abs(alpha) ** 2) * jm \
            - 4 * lam * alpha.real * jz

    jz = brentq(spin_balance, -0.5 + 1e-12, -1e-12, xtol=1e-17, rtol=1e-15)
    alpha, jm = slaved_alpha(jz)
    return SemiclassicalState(alpha, complex(jm), jz)


@pytest.mark.parametrize("dispersive", [False, True])
def test_fixed_points_kept_by_one_step(dispersive):
    p = DickeParams(omega=1.2, omega0=0.9, coupling=1.1, kappa=0.6,
                    n_atoms=10, dispersive_shift_enabled=dispersive,
                    u0=-0.03)
    states = [normal_state()]
    for sign in (+1, -1):
        s = (_dispersive_fixed_point(p, sign) if dispersive
             else superradiant_fixed_point(p, sign))
        assert max(map(abs, semiclassical_rhs(s, p))) < 1e-14
        states.append(s)
    for s in states:
        step = integrate_semiclassical(s, p, t_final=max_stable_dt(p))
        assert len(step["t"]) == 2
        assert _distance(step["state"], s) < 1e-14


def test_dispersive_flows_match_oracle_at_dt_bound():
    p = replace(DAMPED, dispersive_shift_enabled=True)
    rec = integrate_semiclassical(OFF_EQUILIBRIUM, p, t_final=20.0)
    assert rec["t"][1] == max_stable_dt(p) and rec["t"][-1] == 20.0
    ref = _oracle(OFF_EQUILIBRIUM, p, 20.0)
    assert _distance(rec["state"], ref) < 1e-6
    # the shifts move the trajectory far more than that
    plain = integrate_semiclassical(
        OFF_EQUILIBRIUM, replace(p, dispersive_shift_enabled=False),
        t_final=20.0)
    assert _distance(plain["state"], ref) > 1e-3
