import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from selforg import dicke
from selforg.dicke import (DickeParams, build_hamiltonian, critical_coupling,
                           ground_state_observables,
                           converged_ground_state_observables,
                           parity_transform, parity_vector, has_transition)


def dense(p, n_max):
    return build_hamiltonian(p, n_max).toarray()


def test_critical_coupling_formulas():
    # closed model: lam_cr = sqrt(omega0*omega)/2
    assert critical_coupling(1.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert critical_coupling(2.0, 3.0, 0.0) == pytest.approx(
        math.sqrt(6.0) / 2, rel=1e-15)
    # with decay: omega = omega0 = kappa = 1 -> sqrt(2)/2 (hand substitution)
    assert critical_coupling(1.0, 1.0, 1.0) == pytest.approx(
        math.sqrt(2) / 2, rel=1e-15)
    # no real solution for omega <= 0: representable, not an exception
    assert math.isnan(critical_coupling(-1.0, 1.0, 1.0))
    assert math.isnan(critical_coupling(0.0, 1.0))
    assert has_transition(0.5) and not has_transition(-0.5)


def test_decoupled_spectrum():
    # lam = 0: eigenvalues omega*n + omega0*m, ground energy -omega0*N/2
    p = DickeParams(omega=0.7, omega0=1.3, coupling=0.0, n_atoms=4)
    n_max = 3
    w = np.linalg.eigvalsh(dense(p, n_max))
    expect = sorted(0.7 * n + 1.3 * m
                    for n in range(n_max + 1)
                    for m in (-2, -1, 0, 1, 2))
    assert np.allclose(w, expect, atol=1e-12)
    assert w[0] == pytest.approx(-1.3 * 4 / 2, abs=1e-12)


def test_single_atom_matrix_by_hand():
    # N = 1, n_max = 1: four states |m=-1/2,n>, |m=+1/2,n>;
    # couplings lam*(a^dag + a)(J+ + J-) with <+|J+|-> = 1
    omega, omega0, lam = 0.9, 1.7, 0.33
    p = DickeParams(omega=omega, omega0=omega0, coupling=lam, n_atoms=1)
    h = dense(p, 1)
    expect = np.array([
        [-omega0 / 2, 0.0, 0.0, lam],
        [0.0, -omega0 / 2 + omega, lam, 0.0],
        [0.0, lam, omega0 / 2, 0.0],
        [lam, 0.0, 0.0, omega0 / 2 + omega],
    ])
    assert np.allclose(h, expect, atol=1e-14)


@pytest.mark.parametrize("dispersive", [False, True])
def test_hermitian_and_parity(dispersive):
    p = DickeParams(omega=1.1, omega0=0.8, coupling=0.6, n_atoms=5,
                    dispersive_shift_enabled=dispersive, u0=-0.21)
    h = dense(p, 12)
    assert np.abs(h - h.T.conj()).max() < 1e-12
    par = parity_vector(5, 12)
    hp = (par[:, None] * h) * par[None, :]      # P H P
    assert np.abs(hp - h).max() < 1e-12


def test_parity_transform_properties():
    n_atoms, n_max = 3, 6
    dim = (n_atoms + 1) * (n_max + 1)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    # involution
    twice = parity_transform(parity_transform(psi, n_atoms, n_max),
                             n_atoms, n_max)
    assert np.allclose(twice, psi, atol=1e-15)
    # vacuum x all-down invariant; single photon state negated
    vac = np.zeros(dim)
    vac[0] = 1.0
    assert np.allclose(parity_transform(vac, n_atoms, n_max), vac)
    one = np.zeros(dim)
    one[1] = 1.0
    assert np.allclose(parity_transform(one, n_atoms, n_max), -one)
    # <psi|P^dag H P|psi> = <psi|H|psi>
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.7, n_atoms=n_atoms)
    h = dense(p, n_max)
    ppsi = parity_transform(psi, n_atoms, n_max)
    assert np.vdot(ppsi, h @ ppsi) == pytest.approx(np.vdot(psi, h @ psi),
                                                    rel=1e-12)


def test_ground_state_decoupled_limit():
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.0, n_atoms=6)
    obs = ground_state_observables(p, 10)
    assert obs["photon_fraction"] == pytest.approx(0.0, abs=1e-14)
    assert obs["inversion"] == pytest.approx(-0.5, abs=1e-14)


def test_crossover_against_independent_dense_oracle():
    # frozen from a hand-built loop-constructed dense diagonalization
    # (N = 8, n_max = 60, omega = omega0 = 1, closed):
    #   lam = 2*lam_cr = 1.0:  <a^dag a>/N = 0.9328544725, <Jz>/N = -0.1284759124
    #   lam = 0.8*lam_cr:      <a^dag a>/N = 0.0101072749
    p = DickeParams(omega=1.0, omega0=1.0, coupling=1.0, n_atoms=8)
    obs = ground_state_observables(p, 60)
    assert obs["photon_fraction"] == pytest.approx(0.9328544725, abs=1e-6)
    assert obs["inversion"] == pytest.approx(-0.1284759124, abs=1e-6)
    below = ground_state_observables(
        DickeParams(omega=1.0, omega0=1.0, coupling=0.4, n_atoms=8), 60)
    assert below["photon_fraction"] == pytest.approx(0.0101072749, abs=1e-6)


def test_order_parameter_vanishes_in_parity_eigenstate():
    # parity symmetry is unbroken at finite N: <J+ + J-> = 0 for all lam.
    # Deep in the superradiant regime the two parity sectors become
    # numerically degenerate, so allow the eigensolver a tiny admixture;
    # broken symmetry would give order parameters of order one.
    for lam in (0.2, 0.5, 1.0, 1.6):
        p = DickeParams(omega=1.0, omega0=1.0, coupling=lam, n_atoms=6)
        obs = ground_state_observables(p, 40)
        assert abs(obs["order"]) < 1e-6


def test_cutoff_convergence_loop():
    p = DickeParams(omega=1.0, omega0=1.0, coupling=1.0, n_atoms=8)
    obs, n_used = converged_ground_state_observables(p, n_max_start=20)
    assert n_used >= 30
    again = ground_state_observables(p, n_used + 10)
    assert abs(again["photon_fraction"] - obs["photon_fraction"]) < 1e-6


def test_dimension_guard():
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.1, n_atoms=2000)
    with pytest.raises(ValueError, match="dimension"):
        build_hamiltonian(p, 200)
    with pytest.raises(ValueError):
        build_hamiltonian(DickeParams(omega=1, omega0=1, coupling=0.1), 0)


def test_sparse_eigensolver_matches_dense(monkeypatch):
    # below threshold (lam_cr = 0.5) the lowest pair is well separated, so
    # the Lanczos path must reproduce the dense observables
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.35, n_atoms=8)
    dense_obs = ground_state_observables(p, 30)
    monkeypatch.setattr(dicke, "_DENSE_CAP", 100)      # dimension 279
    sparse_obs = ground_state_observables(p, 30)
    for key in ("photon_fraction", "inversion", "gap"):
        assert sparse_obs[key] == pytest.approx(dense_obs[key], abs=1e-8)
    assert ground_state_observables(p, 30) == sparse_obs     # deterministic


def test_sparse_eigensolver_above_dense_cap(monkeypatch):
    # parity blocks of 21 * 61 / 2 = 640 and 641 > _DENSE_CAP take the
    # sparse path unpatched
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.3, n_atoms=20)
    assert (p.n_atoms + 1) * 61 // 2 > dicke._DENSE_CAP
    real, calls = spla.eigsh, []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    obs = ground_state_observables(p, 60)
    assert sorted(calls) == [(640, 640), (641, 641)]
    assert obs["gap"] > 0
    assert 0 < obs["photon_fraction"] < 0.05
    assert obs["inversion"] == pytest.approx(-0.5, abs=0.05)


@settings(max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 8), n_max=st.integers(1, 20),
       omega=st.floats(-3.0, 3.0), omega0=st.floats(0.01, 3.0),
       coupling=st.floats(-3.0, 3.0), u0=st.floats(-1.0, 1.0),
       dispersive=st.booleans())
def test_parity_commutes_with_hamiltonian(n_atoms, n_max, omega, omega0,
                                          coupling, u0, dispersive):
    p = DickeParams(omega=omega, omega0=omega0, coupling=coupling,
                    n_atoms=n_atoms, dispersive_shift_enabled=dispersive,
                    u0=u0)
    h = dense(p, n_max)
    par = parity_vector(n_atoms, n_max)
    assert np.array_equal((par[:, None] * h) * par[None, :], h)
    rng = np.random.default_rng(n_atoms * 100 + n_max)
    psi = rng.standard_normal(h.shape[0])
    twice = parity_transform(parity_transform(psi, n_atoms, n_max),
                             n_atoms, n_max)
    assert np.array_equal(twice, psi)


def _full_space_observables(p, n_max):
    """Photon fraction, inversion and gap from a dense eigh of the whole
    space, parity ignored."""
    w, v = np.linalg.eigh(dense(p, n_max))
    prob = (v[:, 0] ** 2).reshape(p.n_atoms + 1, n_max + 1)
    m = -p.n_atoms / 2.0 + np.arange(p.n_atoms + 1)
    return {"photon_fraction": prob.sum(axis=0) @ np.arange(n_max + 1)
            / p.n_atoms,
            "inversion": prob.sum(axis=1) @ m / p.n_atoms,
            "gap": w[1] - w[0]}


@pytest.mark.parametrize("n_max", [60, 70])
def test_parity_blocks_match_full_space_oracle(n_max):
    # N = 8, omega = 1, omega0 = 2 from the normal phase to 2 lam_cr, where
    # the lowest doublet is degenerate to 1e-12; lam = 1.124 has a gap of
    # about 1.2e-6
    lam_cr = critical_coupling(1.0, 2.0)
    for lam in list(np.linspace(0.0, 2 * lam_cr, 11)) + [1.124]:
        p = DickeParams(omega=1.0, omega0=2.0, coupling=lam, n_atoms=8)
        obs = ground_state_observables(p, n_max)
        ref = _full_space_observables(p, n_max)
        assert obs["order"] == 0.0
        for key in ("photon_fraction", "inversion", "gap"):
            assert obs[key] == pytest.approx(ref[key], abs=1e-12), (lam, key)


@pytest.mark.parametrize("omega,omega0", [(1.0, 2.0), (2.0, 1.3)])
def test_gap_at_zero_coupling(omega, omega0):
    # the lowest odd state is one photon or one excitation above the even
    # ground state; the second even state lies higher
    p = DickeParams(omega=omega, omega0=omega0, coupling=0.0, n_atoms=8)
    gap = ground_state_observables(p, 20)["gap"]
    assert gap == pytest.approx(min(omega, omega0), abs=1e-12)


def test_sparse_blocks_above_dense_cap(monkeypatch):
    # dimension 141 * 61 = 8601: both parity blocks exceed the unpatched
    # dense cap and go through Lanczos
    import scipy.sparse.linalg as spla
    calls = []
    eigsh = spla.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting_eigsh)
    p = DickeParams(omega=1.0, omega0=1.0, coupling=0.3, n_atoms=140)
    obs = ground_state_observables(p, 60)
    assert len(calls) == 2 and min(calls) > dicke._DENSE_CAP
    assert obs["gap"] > 0 and obs["order"] == 0.0
    assert 0 < obs["photon_fraction"] < 0.05
    assert obs["inversion"] == pytest.approx(-0.5, abs=0.05)
    assert ground_state_observables(p, 60) == obs     # deterministic
