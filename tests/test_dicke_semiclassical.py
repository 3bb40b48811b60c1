import cmath
import math

import numpy as np
import pytest

from selforg.dicke import (DickeParams, DivergenceError, SemiclassicalState,
                           normal_state, semiclassical_rhs,
                           integrate_semiclassical,
                           integrate_semiclassical_ramp,
                           steadystate_photon_fraction, critical_coupling,
                           superradiant_fixed_point, normal_phase_growth_rate,
                           instability_threshold, max_stable_dt)


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
