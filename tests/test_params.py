import math

import numpy as np
import pytest
from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from selforg.constants import HBAR
from selforg.gpe import CondensateSim
from selforg.grid import Grid2D
from selforg.params import (ExperimentParams, ParameterError, derive,
                            cavity_profile, pump_profile, external_potential,
                            mode_profiles, parse_key_value_text,
                            params_from_mapping, format_params,
                            with_pump_power, with_pump_depth, csv_table)

TWO_PI = 2 * math.pi


def test_recoil_frequency_at_pump_wavelength():
    # hand value: hbar k^2 / 2m at 784.5 nm for 86.909180520 u
    d = derive(ExperimentParams())
    assert d.recoil_frequency == pytest.approx(23437.1745, rel=1e-6)
    assert d.recoil_energy == pytest.approx(2.4716184e-30, rel=1e-6)
    assert d.two_level_splitting == 2 * d.recoil_frequency


def test_effective_cavity_frequency_paper_example():
    # kappa = 2pi*1.3 MHz, N U0 = -6.5 kappa, Delta_c = -2pi*14.9 MHz
    # => omega = 2pi*(14.9 - 4.225) MHz
    kappa = TWO_PI * 1.3e6
    p = ExperimentParams(atom_number=1e5,
                         cavity_decay=kappa,
                         single_atom_lightshift=-6.5 * kappa / 1e5,
                         pump_cavity_detuning=-TWO_PI * 14.9e6)
    d = derive(p)
    assert d.effective_cavity_frequency == pytest.approx(TWO_PI * 10.675e6,
                                                         rel=1e-12)


def test_dicke_coupling_definition_at_single_atom():
    # N = 1, eta = 2*lam_target -> lam = lam_target
    p = ExperimentParams(atom_number=1, pump_depth=-2e-30,
                         single_atom_lightshift=-500.0)
    d = derive(p)
    assert d.dicke_coupling == pytest.approx(d.two_photon_rabi / 2, rel=1e-15)
    # and the exact identity lam^2 = eta^2 N / 4 at larger N
    p2 = ExperimentParams(atom_number=3.7e4, pump_depth=-2e-30,
                          single_atom_lightshift=-500.0)
    d2 = derive(p2)
    assert d2.dicke_coupling**2 == pytest.approx(
        d2.two_photon_rabi**2 * 3.7e4 / 4, rel=1e-14)


def test_eta_sign_convention():
    # same-sign U0, V0 gives eta^2 = U0*V0/hbar; mixed signs are rejected
    p = ExperimentParams(pump_depth=-3e-30, single_atom_lightshift=-530.0)
    d = derive(p)
    assert d.two_photon_rabi**2 == pytest.approx(
        (-530.0) * (-3e-30) / HBAR, rel=1e-14)
    with pytest.raises(ParameterError):
        derive(ExperimentParams(pump_depth=+3e-30,
                                single_atom_lightshift=-530.0))
    # zero depth is fine and gives eta = 0
    assert derive(ExperimentParams(pump_depth=0.0)).two_photon_rabi == 0.0


def test_eta_squared_linear_in_power():
    p1 = derive(with_pump_power(ExperimentParams(), 0.4e-3))
    p2 = derive(with_pump_power(ExperimentParams(), 0.8e-3))
    assert p2.two_photon_rabi**2 == pytest.approx(2 * p1.two_photon_rabi**2,
                                                  rel=1e-14)


def test_effective_frequency_affine_in_detuning():
    base = ExperimentParams()
    omegas = []
    for dc in (-1e8, -5e7, 0.0, 3e7):
        p = ExperimentParams(pump_cavity_detuning=dc)
        omegas.append(derive(p).effective_cavity_frequency)
    d_omega = np.diff(omegas)
    d_dc = np.diff([-1e8, -5e7, 0.0, 3e7])
    assert np.allclose(d_omega / d_dc, -1.0, rtol=1e-13)
    assert base is not None


def test_mode_profiles():
    p = ExperimentParams()
    lam = p.pump_wavelength
    assert cavity_profile(p, 0, 0, 0) == pytest.approx(1.0)
    assert pump_profile(p, 0, 0, 0) == pytest.approx(1.0)
    assert cavity_profile(p, lam / 4, 0, 0) == pytest.approx(0.0, abs=1e-12)
    assert pump_profile(p, p.pump_waist_x, 0, 0) == pytest.approx(math.exp(-1))
    # cavity envelope is transverse (y, z), pump envelope is (x, y)
    assert cavity_profile(p, 0, p.cavity_waist, 0) == pytest.approx(math.exp(-1))
    assert pump_profile(p, 0, p.pump_waist_y, 0) == pytest.approx(math.exp(-1))


def test_external_potential():
    p = with_pump_depth(ExperimentParams(), 0.0)
    assert external_potential(p, 0, 0, 0) == 0.0
    z = 2.3e-6
    expected = 0.5 * p.atom_mass * p.trap_frequency_z**2 * z * z
    assert external_potential(p, 0, 0, z) == pytest.approx(expected, rel=1e-12)
    e_r = derive(p).recoil_energy
    p_latt = with_pump_depth(ExperimentParams(), e_r)
    harm0 = 0.0
    assert external_potential(p_latt, 0, 0, 0) == pytest.approx(
        harm0 + e_r, rel=1e-12)


def test_dimensionless_round_trip():
    # SI -> recoil units -> SI reproduces inputs to 1e-12 relative
    p = ExperimentParams()
    d = derive(p)
    k, w_r, e_r = d.wavenumber, d.recoil_frequency, d.recoil_energy
    for value, scale in ((3.2e-6, k), (1.7e-3, w_r), (5.1e-29, 1 / e_r),
                         (p.cavity_decay, 1 / w_r)):
        scaled = value * scale
        assert scaled / scale == pytest.approx(value, rel=1e-12)


def test_invariants_rejected():
    with pytest.raises(ParameterError):
        ExperimentParams(atom_number=0)
    with pytest.raises(ParameterError):
        ExperimentParams(cavity_decay=0.0)
    with pytest.raises(ParameterError):
        ExperimentParams(trap_frequency_y=-1.0)
    with pytest.raises(ParameterError):
        ExperimentParams(pump_depth=-1e-30, pump_power=1e-3)


class TestParameterFile:
    def test_round_trip(self):
        p = ExperimentParams(atom_number=5e4, pump_depth=-3e-30)
        text = format_params(p)
        q = params_from_mapping(parse_key_value_text(text))
        assert q == p

    def test_comments_and_defaults(self):
        mapping = parse_key_value_text(
            "# a comment\natom_number = 2e4  # trailing\n\n")
        p = params_from_mapping(mapping)
        assert p.atom_number == 2e4
        assert p.pump_wavelength == ExperimentParams().pump_wavelength

    def test_unknown_key_is_fatal(self):
        with pytest.raises(ParameterError, match="unknown"):
            params_from_mapping({"atom_numberr": "1e5"})

    def test_malformed_lines(self):
        with pytest.raises(ParameterError):
            parse_key_value_text("atom_number 1e5")
        with pytest.raises(ParameterError):
            parse_key_value_text("atom_number = 1\natom_number = 2")
        with pytest.raises(ParameterError):
            params_from_mapping({"atom_number": "lots"})


@given(st.lists(st.tuples(*[st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))] * 3),
    max_size=20))
def test_csv_table_same_text_for_numpy_and_list_columns(rows):
    # trajectory tables hand csv_table .tolist() columns; the text must be
    # the one numpy scalars give, for nan, +-inf and -0.0 too
    cols = np.array(rows, dtype=float).reshape(-1, 3).T
    as_numpy = csv_table("a,b,c", zip(*cols))
    as_lists = csv_table("a,b,c", zip(*(c.tolist() for c in cols)))
    assert as_numpy == as_lists


# ---------------------------------------------------------------------------
# the one geometry: SI forms, the simulator's y = 0 grids, parameter files
# ---------------------------------------------------------------------------

waists = st.floats(min_value=5e-6, max_value=100e-6)
lengths = st.floats(min_value=-3.0, max_value=3.0)     # in waists


@settings(max_examples=200, deadline=None)
@given(w_c=waists, w_x=waists, w_y=waists,
       x=lengths, y=lengths, z=lengths)
def test_profiles_match_closed_forms(w_c, w_x, w_y, x, y, z):
    p = ExperimentParams(cavity_waist=w_c, pump_waist_x=w_x, pump_waist_y=w_y)
    k = derive(p).wavenumber
    x, y, z = x * w_x, y * w_y, z * w_c
    assert cavity_profile(p, x, y, z) == pytest.approx(
        math.cos(k * x) * math.exp(-(y * y + z * z) / w_c**2), abs=1e-13)
    assert pump_profile(p, x, y, z) == pytest.approx(
        math.cos(k * z) * math.exp(-x * x / w_x**2 - y * y / w_y**2),
        abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(w_c=waists, w_x=waists, w_y=waists, x=lengths, y=lengths, z=lengths,
       depth=st.floats(min_value=-20.0, max_value=20.0))
def test_external_potential_is_trap_plus_lattice(w_c, w_x, w_y, x, y, z,
                                                 depth):
    # depth > 0 is a V0 of the opposite sign to the default U0 < 0, which
    # derive() rejects; the static potential must not
    base = ExperimentParams(cavity_waist=w_c, pump_waist_x=w_x,
                            pump_waist_y=w_y)
    v0 = depth * derive(base).recoil_energy
    p = with_pump_depth(base, v0)
    x, y, z = x * w_x, y * w_y, z * w_c
    harm = 0.5 * p.atom_mass * (p.trap_frequency_x**2 * x * x
                                + p.trap_frequency_y**2 * y * y
                                + p.trap_frequency_z**2 * z * z)
    lattice = v0 * pump_profile(p, x, y, z) ** 2
    got = external_potential(p, x, y, z)
    assert abs(got - (harm + lattice)) <= 1e-12 * (harm + abs(lattice))


@settings(max_examples=25, deadline=None)
@given(w_c=waists, w_x=waists, w_y=waists)
def test_simulator_grids_are_the_profiles_at_y0(w_c, w_x, w_y):
    p = ExperimentParams(cavity_waist=w_c, pump_waist_x=w_x, pump_waist_y=w_y)
    grid = Grid2D(8 * math.pi, 8 * math.pi, 32, 32)
    x, z = grid.x(), grid.z()
    sim = CondensateSim(p, grid, trap=False)
    phi_c, phi_p = mode_profiles(p, x, 0.0, z)
    assert np.array_equal(sim.prof_c2, phi_c**2)
    assert np.array_equal(sim.prof_p2, phi_p**2)
    assert np.array_equal(sim.prof_cc, phi_c * phi_p)
    # the y = 0 plane adds nothing: the bits of the two-axis envelopes
    k = derive(p).wavenumber
    env_c = np.cos(x) * np.exp(-(z / (k * w_c)) ** 2)
    env_p = np.exp(-(x / (k * w_x)) ** 2) * np.cos(z)
    assert np.array_equal(phi_c, env_c) and np.array_equal(phi_p, env_p)
    bare = CondensateSim(p, grid, envelopes=False, trap=False)
    cos_x, cos_z = np.cos(x), np.cos(z)
    assert np.array_equal(bare.prof_c2, (cos_x * np.ones_like(z)) ** 2)
    assert np.array_equal(bare.prof_p2, (np.ones_like(x) * cos_z) ** 2)
    assert np.array_equal(bare.prof_cc, cos_x * cos_z)


def _valid_params():
    """Any valid ExperimentParams: finite or infinite positive fields where
    positivity is required, pump given by depth, power or neither."""
    positive = st.floats(min_value=1e-300, allow_nan=False)
    anything = st.floats(allow_nan=False)
    kwargs = {f.name: positive for f in fields(ExperimentParams)
              if f.name not in ("atom_number", "pump_depth", "pump_power",
                                "pump_cavity_detuning",
                                "single_atom_lightshift",
                                "calibration_constant",
                                "scattering_length")}
    kwargs.update(atom_number=st.floats(min_value=1.0, allow_nan=False),
                  pump_cavity_detuning=anything,
                  single_atom_lightshift=anything,
                  calibration_constant=anything, scattering_length=anything)
    pump = st.one_of(st.just({}),
                     st.builds(lambda v: {"pump_depth": v}, anything),
                     st.builds(lambda v: {"pump_power": v}, anything))
    return st.builds(lambda base, extra: replace(base, **extra),
                     st.builds(ExperimentParams, **kwargs), pump)


@settings(max_examples=300, deadline=None)
@given(_valid_params())
def test_parameter_file_round_trips_exactly(p):
    text = format_params(p)
    q = params_from_mapping(parse_key_value_text(text))
    assert q == p
    assert format_params(q) == text
