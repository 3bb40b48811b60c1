import copy
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import binomtest

import selforg.boundary as boundary
import selforg.sweeps as sweeps
from selforg import cli
from selforg.constants import HBAR
from selforg.boundary import BOUNDARY_CSV_HEADER
from selforg.dicke import (DickeParams, critical_coupling,
                           steadystate_photon_fraction)
from selforg.gpe import PowerRamp
from selforg.grid import load_field
from selforg.params import ExperimentParams, ParameterError, derive
from selforg.sweeps import (ConfigError, RunDir, default_config, load_config,
                            point_seed, resolve_config, format_resolved,
                            run_boundary, run_dicke_ed, run_phase_diagram,
                            run_ramp, run_symmetry_ensemble)

W_R = derive(ExperimentParams()).recoil_frequency
TWO_PI = 2 * math.pi

# idealized gpe test bed (same family as test_gpe): kappa = 2pi*1.3 MHz
# = 348.5 omega_r, U0*N = -10 omega_r, effective cavity frequency 500 omega_r
N_AT = 1e4
U0_SCALED = -1e-3
OMEGA_EFF = 500.0
KAPPA_SCALED = 348.5121851045933
LAM_CR = critical_coupling(OMEGA_EFF, 2.0, KAPPA_SCALED)

IDEAL_KEYS = {
    "atom_number": repr(N_AT),
    "scattering_length": "0",
    "cavity_decay": repr(KAPPA_SCALED * W_R),
    "single_atom_lightshift": repr(U0_SCALED * W_R),
    "pump_cavity_detuning": repr((-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R),
    "envelopes": "false",
    "trap": "false",
    "pump_lattice": "false",
    "grid_extent_x": repr(4 * TWO_PI),
    "grid_extent_z": repr(4 * TWO_PI),
    "grid_points_x": "32",
    "grid_points_z": "32",
    "noise_amplitude": "1e-5",
    "floor_factor": "1e4",
    "ramp_time": repr(300.0 / W_R),
    "dt": repr(4e-3 / W_R),
    "eta_end": repr(2.0 * 2 * LAM_CR / math.sqrt(N_AT)),
}


# the same bed on a linear power ramp to 1 mW that ends at the same eta
# (eta^2 = U0 c_cal P / hbar / omega_r^2): sample powers need a power ramp
POWER_RAMP = {
    "eta_end": "nan",
    "power_end": "1e-3",
    "calibration_constant": repr(float(IDEAL_KEYS["eta_end"]) ** 2 * HBAR
                                 * W_R**2 / (U0_SCALED * W_R * 1e-3)),
}


def write_ideal_config(path, extra=None):
    keys = dict(IDEAL_KEYS)
    if extra:
        keys.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                    encoding="utf-8")
    return str(path)


def _field_values(f):
    """Every value of a run key's type that a config file can hold."""
    if f.name == "engine":
        return st.sampled_from(sweeps.ENGINES)
    # resolve_config rejects counts below 1, time steps and floor_factor
    # that are not > 0, and trace fractions outside (0, 1]
    if f.name in ("record_every", "consecutive", "n_seeds", "gs_max_steps"):
        return st.integers(min_value=1)
    if f.name in ("dt", "dtau", "floor_factor"):
        positive = st.floats(min_value=0.0, exclude_min=True)
        return positive | st.just(math.nan) if f.name == "dt" else positive
    if f.name in ("baseline_fraction", "final_window_fraction"):
        return st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    if f.type is str:       # one token: no '#', line break or blank
        return st.from_regex(r"[A-Za-z0-9_.+-]+", fullmatch=True)
    if f.type is bool:
        return st.booleans()
    if f.type is int:
        return st.integers()
    if f.type is float:
        return st.floats()
    return st.lists(st.floats()).map(tuple)


def _same(a, b):
    """Equal values of equal type; NaN equals NaN, -0.0 differs from 0.0."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) \
            and all(map(_same, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and repr(a) == repr(b)
    return type(a) is type(b) and a == b


class TestConfig:
    def test_defaults_and_unknown_keys(self):
        config = default_config()
        assert config.engine == "gpe"
        assert config.grid_points_x == 256
        with pytest.raises(ConfigError, match="unknown config keys"):
            resolve_config({"not_a_key": "1"})
        with pytest.raises(ConfigError, match="unknown engine"):
            resolve_config({"engine": "vortex"})
        with pytest.raises(ConfigError, match="bad value"):
            resolve_config({"grid_points_x": "a few"})
        with pytest.raises(ConfigError, match="bad value"):
            resolve_config({"n_seeds": "inf"})

    def test_overrides_and_lists(self):
        config = default_config(overrides=["delta_c_list=-1e8,-2e8",
                                           "trap=false"])
        assert config.delta_c_list == (-1e8, -2e8)
        assert config.trap is False
        with pytest.raises(ConfigError):
            default_config(overrides=["delta_c_list"])

    def test_resolved_round_trip(self):
        config = default_config(overrides=["power_end=0.7e-3",
                                           "delta_c_list=-1e8"])
        text = format_resolved(config)
        again = resolve_config(sweeps.parse_key_value_text(text))
        assert again.params == config.params
        # idempotent echo (NaN-valued optional keys are omitted, so compare
        # the canonical text form)
        assert format_resolved(again) == text
        assert again.delta_c_list == (-1e8,)
        assert again.power_end == 0.7e-3

    def test_config_survives_copying(self):
        config = default_config(overrides=["delta_c_list=-1e8,-2e8",
                                           "trap=false", "ensemble_eta=0.5"],
                                seed=7)
        for copied in (pickle.loads(pickle.dumps(config)),
                       copy.deepcopy(config)):
            # compare echoes: the unset NaN defaults come back as new NaN
            # objects, so == on the dataclass is False
            assert format_resolved(copied) == format_resolved(config)
            assert copied.params == config.params
            assert copied.seed == config.seed

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({f.name: _field_values(f)
                                  for f in sweeps._RUN_FIELDS}))
    def test_echo_round_trip_of_every_field(self, values):
        config = replace(default_config(), **values)
        text = format_resolved(config)
        again = resolve_config(sweeps.parse_key_value_text(text))
        assert format_resolved(again) == text
        assert again.params == config.params
        for name, value in values.items():
            assert _same(getattr(again, name), value), name

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(alphabet="ab #=\t\n\r"), st.text()))
    @example("a#b")
    @example("")
    def test_override_is_one_config_line(self, text):
        # an accepted override is what the config file would hold: its echo
        # reloads to the same text
        try:
            config = default_config([f"sigma_y_mode={text}"])
        except ConfigError:
            return
        echo = format_resolved(config)
        again = resolve_config(sweeps.parse_key_value_text(echo))
        assert format_resolved(again) == echo
        assert again.sigma_y_mode == config.sigma_y_mode

    def test_point_seed_deterministic(self):
        assert point_seed(7, 3) == point_seed(7, 3)
        assert point_seed(7, 3) != point_seed(7, 4)
        assert 0 <= point_seed(7, 3) < 2**32


class TestRunDir:
    def test_echo_and_manifest(self, tmp_path):
        config = default_config()
        rd = RunDir(str(tmp_path / "run"), config, command="test")
        rd.stage_done("stage1")
        rd.finish()
        resolved = (tmp_path / "run" / "config.resolved").read_text()
        assert "atom_number" in resolved
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["package"] == "selforg"
        assert "stage1" in manifest["wall_times_s"]
        assert manifest["status"] == "ok"


def test_run_boundary_table(tmp_path):
    config = default_config(overrides=[
        "delta_c_list=" + ",".join(repr(-TWO_PI * f * 1e6)
                                   for f in (25.0, 15.0, 8.0, 2.0))])
    rd = RunDir(str(tmp_path / "b"), config)
    curve = run_boundary(config, rd)
    assert len(curve) == 4
    text = (tmp_path / "b" / "boundary.csv").read_text()
    assert text.startswith(BOUNDARY_CSV_HEADER)
    # -2pi*2 MHz is above the shifted resonance (-2pi*3.75 MHz): flagged
    assert "false" in text.strip().split("\n")[-1]
    # every field is a plain number or a boolean
    for line in text.strip().split("\n")[1:]:
        *numbers, flag = line.split(",")
        assert len(numbers) == 5 and flag in ("true", "false")
        for field in numbers:
            float(field)


def test_run_dicke_ed_sweep(tmp_path):
    config = default_config(overrides=[
        "engine=dicke-exact", "dicke_omega=1", "dicke_omega0=1",
        "dicke_n_atoms=6", "dicke_n_max=30", "lambda_list=0.1,1.0"])
    rd = RunDir(str(tmp_path / "ed"), config)
    rows = run_dicke_ed(config, rd)
    assert len(rows) == 2
    text = (tmp_path / "ed" / "eigen.csv").read_text()
    assert text.splitlines()[0] == sweeps.ED_HEADER
    # second row is deep in the superradiant regime
    assert rows[1][1] > 0.5


# a mean-field Dicke ramp from below to above lam_cr = critical_coupling(1,
# 1, 0.5), over 8000 / omega_r
ODE_RAMP = [
    "engine=dicke-semiclassical", "dicke_omega=1.0", "dicke_omega0=1.0",
    "dicke_kappa=0.5", "dicke_coupling=1.2",
    "ramp_time=" + repr(8000.0 / W_R), "noise_amplitude=1e-4",
    "floor_factor=1e4", "record_every=10"]


def test_ode_ramp_detects_threshold(tmp_path):
    # the photon signal of the mean-field Dicke ramp turns on only once the
    # seeded spin fluctuation has grown macroscopic, so the detected point
    # lies above lam_cr but never below; by the end of the ramp the system
    # must sit near the superradiant fixed point
    config = default_config(overrides=ODE_RAMP)
    rd = RunDir(str(tmp_path / "ode"), config)
    rec, report = run_ramp(config, rd)
    lam_ref = critical_coupling(1.0, 1.0, 0.5)
    assert report["detected"]
    assert lam_ref < report["eta"] < 1.6 * lam_ref
    target = steadystate_photon_fraction(
        DickeParams(omega=1.0, omega0=1.0, coupling=1.2, kappa=0.5))
    assert rec["photon_frac"][-1] == pytest.approx(target, rel=0.25)
    assert (tmp_path / "ode" / "trajectory.csv").read_text().splitlines()[0] \
        == sweeps.ODE_TRAJ_HEADER


def test_cli_names_the_threshold_of_a_coupling_ramp_by_eta(tmp_path, capsys):
    # a ramp without a power axis reports its power as NaN; the CLI line
    # gives the threshold's eta (here the Dicke coupling) instead
    argv = ["ramp", "--out", str(tmp_path / "ode")]
    for item in ODE_RAMP:
        argv += ["--override", item]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "ode" / "threshold.json").read_text())
    assert out == f"threshold detected at eta = {report['eta']:.6g}\n"
    assert "nan" not in out


@pytest.mark.slow
def test_cli_ramp_deterministic(tmp_path):
    cfg = write_ideal_config(tmp_path / "ideal.cfg")
    for name in ("run_a", "run_b"):
        code = cli.main(["ramp", "--config", cfg, "--out",
                         str(tmp_path / name), "--seed", "11"])
        assert code == cli.EXIT_OK
    traj_a = (tmp_path / "run_a" / "trajectory.csv").read_bytes()
    traj_b = (tmp_path / "run_b" / "trajectory.csv").read_bytes()
    assert traj_a == traj_b
    report = json.loads((tmp_path / "run_a" / "threshold.json").read_text())
    assert report["detected"]
    lam_det = report["eta"] * math.sqrt(N_AT) / 2
    assert lam_det == pytest.approx(LAM_CR, rel=0.05)
    cfg_echo = (tmp_path / "run_a" / "config.resolved").read_text()
    assert "eta_end" in cfg_echo


def test_thomas_fermi_cloud_computed_once_per_simulator(monkeypatch):
    real = boundary.thomas_fermi
    calls = []

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(boundary, "thomas_fermi", counting)
    # the default trapped run: the grid check, the 2D interaction and
    # every start state read one cloud
    sim = sweeps.build_sim(default_config())
    for seed in range(3):
        sim.initial_state(seed=seed, noise=1e-4)
    assert len(calls) == 1
    # an untrapped, non-interacting simulator never needs it
    calls.clear()
    ideal = replace(default_config(), trap=False, params=replace(
        ExperimentParams(), scattering_length=0.0))
    sweeps.build_sim(ideal).initial_state(seed=1, noise=1e-4)
    assert calls == []


@pytest.mark.parametrize("dt, every", [(math.nan, 800), (1e-3, 2000)])
def test_ramp_edge_guard_checks_every_two_recoil_times(tmp_path,
                                                        monkeypatch, dt,
                                                        every):
    # the automatic step (2.5e-3) and an explicit one both put the edge
    # checks about 2 recoil times apart
    seen = []
    real = sweeps.CondensateSim.real_time_evolve

    def spy(self, *args, **kwargs):
        seen.append(kwargs["edge_check_every"])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(sweeps.CondensateSim, "real_time_evolve", spy)
    config = load_config(write_ideal_config(tmp_path / "ramp.cfg"), seed=1)
    config = replace(config, ramp_time=0.02 / W_R, dt=dt / W_R)
    run_ramp(config, RunDir(str(tmp_path / "ramp"), config))
    assert seen == [every]


@pytest.mark.slow
def test_cli_ramp_snapshots(tmp_path):
    # snapshots at given powers along a power ramp, plus peak tables
    d = derive(ExperimentParams())
    cfg = write_ideal_config(tmp_path / "snap.cfg", extra={
        "eta_end": "nan", "power_end": "1e-3",
        "calibration_constant": repr(-10 * d.recoil_energy / 1e-3),
        "single_atom_lightshift": repr(-0.05 * W_R),
        "pump_cavity_detuning": repr((-OMEGA_EFF - 0.05 * N_AT / 2) * W_R),
        "pump_lattice": "true",
        "snapshot_powers": "2e-4,8e-4",
        "ramp_time": repr(100.0 / W_R)})
    out = str(tmp_path / "snaprun")
    assert cli.main(["ramp", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "snapshot_00.fld"))
    assert os.path.exists(os.path.join(out, "snapshot_01_peaks.csv"))
    peaks = (tmp_path / "snaprun" / "snapshot_01_peaks.csv").read_text()
    assert peaks.splitlines()[0] == sweeps.PEAKS_HEADER


def test_ramp_snapshots_go_through_the_run_directory_writer(tmp_path,
                                                           monkeypatch):
    # a snapshot's field file is written like every data file, atomically
    # by RunDir.write, and reads back as the recorded field
    written = []
    real = RunDir.write

    def spy(self, name, data):
        written.append(name)
        real(self, name, data)

    monkeypatch.setattr(RunDir, "write", spy)
    config = load_config(write_ideal_config(tmp_path / "snap.cfg", extra={
        **POWER_RAMP, "snapshot_powers": "5e-4",
        "ramp_time": repr(2.0 / W_R)}), seed=3)
    rec, _ = run_ramp(config, RunDir(str(tmp_path / "snap"), config))
    assert "snapshot_00.fld" in written
    (_, psi), = rec["snapshots"]
    grid, field, n_atoms = load_field(str(tmp_path / "snap" / "snapshot_00.fld"))
    assert grid == sweeps.build_sim(config).grid and n_atoms == N_AT
    assert np.array_equal(field, psi)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("definitely_not_a_key = 3\n")
    assert cli.main(["ramp", "--config", str(bad),
                     "--out", str(tmp_path / "x1")]) == cli.EXIT_CONFIG
    # missing config file
    assert cli.main(["ramp", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x2")]) == cli.EXIT_CONFIG
    # engine failure: trapped cloud does not fit the configured grid
    small = tmp_path / "small.cfg"
    small.write_text("grid_extent_x = 25.132741228718345\n"
                     "grid_extent_z = 25.132741228718345\n"
                     "grid_points_x = 32\ngrid_points_z = 32\n")
    assert cli.main(["ramp", "--config", str(small),
                     "--out", str(tmp_path / "x3")]) == cli.EXIT_ENGINE
    # an output path that is a file is a config error
    assert cli.main(["dicke-ed", "--out", str(bad)]) == cli.EXIT_CONFIG
    # diagram without detunings is a config error
    ok = tmp_path / "ok.cfg"
    ok.write_text("trap = false\n")
    assert cli.main(["diagram", "--config", str(ok),
                     "--out", str(tmp_path / "x4")]) == cli.EXIT_CONFIG
    # sample powers on an eta ramp, whose power is NaN, are config errors
    eta_ramp = write_ideal_config(tmp_path / "eta.cfg",
                                  extra={"eta_end": "0.5"})
    assert cli.main(["ramp", "--config", eta_ramp, "--override",
                     "snapshot_powers=1e-4,2e-4",
                     "--out", str(tmp_path / "x5")]) == cli.EXIT_CONFIG
    assert cli.main(["diagram", "--config", eta_ramp, "--override",
                     "delta_c_list=-1e8", "--override", "power_list=1e-4",
                     "--out", str(tmp_path / "x6")]) == cli.EXIT_CONFIG
    # a failing engine exits 3 and finishes the manifest on every subcommand
    failing = {
        "boundary": ["scattering_length=0", "delta_c_list=-1e8"],
        "dicke-ed": ["dicke_omega0=0"],
        "ensemble": ["scattering_length=0", "ensemble_eta=1", "n_seeds=1"],
        "dicke-ode": ["dicke_omega0=0"],
    }
    capsys.readouterr()
    for command, overrides in failing.items():
        out = tmp_path / f"fail-{command}"
        argv = [command, "--out", str(out), "--workers", "2"]
        for item in overrides:
            argv += ["--override", item]
        assert cli.main(argv) == cli.EXIT_ENGINE, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "engine-failure", command
        # the message names the engine that ran, not the config's default
        err = capsys.readouterr().err
        assert "engine failure" in err and "engine=gpe" not in err, command
        if command == "dicke-ode":
            assert "engine=dicke-semiclassical" in err


def test_every_subcommand_writes_its_files(tmp_path):
    # the persistence contract on tiny inputs: each run directory holds the
    # config echo, the manifest and exactly its subcommand's data files
    ideal = ["--config", write_ideal_config(tmp_path / "ideal.cfg", extra={
        **ENSEMBLE_KEYS, **POWER_RAMP, "n_seeds": "1",
        "ramp_time": repr(2.0 / W_R), "power_list": "5e-4",
        "delta_c_list": IDEAL_KEYS["pump_cavity_detuning"]})]
    ode = ["--override", "dicke_omega0=1", "--override", "dicke_coupling=1.2",
           "--override", "t_final=" + repr(50.0 / W_R)]
    ramp_files = {"trajectory.csv", "threshold.json"}
    runs = [
        ("ramp", ["ramp"] + ideal, ramp_files),
        ("dicke-ode", ["dicke-ode"] + ode, ramp_files),
        ("ramp-ode", ["ramp", "--override", "engine=dicke-semiclassical"]
         + ode, ramp_files),
        ("dicke-ed", ["dicke-ed", "--override", "dicke_n_atoms=2",
                      "--override", "dicke_n_max=10",
                      "--override", "lambda_list=0.5,1.5"], {"eigen.csv"}),
        ("boundary", ["boundary", "--override", "delta_c_list=-1e8,-5e7"],
         {"boundary.csv"}),
        ("ensemble", ["ensemble"] + ideal,
         {"ensemble.csv", "ensemble_stats.json"}),
        ("diagram", ["diagram"] + ideal, {"sweep.csv", "points"}),
    ]
    for name, argv, data in runs:
        out = tmp_path / name
        code = cli.main(argv + ["--out", str(out), "--seed", "3",
                                "--workers", "1"])
        assert code == cli.EXIT_OK, name
        assert set(os.listdir(out)) == \
            {"config.resolved", "manifest.json"} | data, name
    assert os.listdir(tmp_path / "diagram" / "points") == ["point_0000.csv"]
    # dicke-ode is the ramp on the dicke-semiclassical engine
    for name in ("trajectory.csv", "threshold.json"):
        assert (tmp_path / "dicke-ode" / name).read_bytes() \
            == (tmp_path / "ramp-ode" / name).read_bytes()


def test_dicke_ode_echo_reruns_the_ode(tmp_path):
    # dicke-ode's config.resolved names the engine that ran, so `ramp` on
    # that echo reruns the same ODE, byte for byte
    first = tmp_path / "dicke-ode"
    assert cli.main(["dicke-ode", "--override", "dicke_omega0=1",
                     "--override", "t_final=" + repr(50.0 / W_R),
                     "--out", str(first), "--seed", "3"]) == cli.EXIT_OK
    echo = (first / "config.resolved").read_text()
    assert "engine = dicke-semiclassical" in echo.splitlines()
    again = tmp_path / "rerun"
    assert cli.main(["ramp", "--config", str(first / "config.resolved"),
                     "--out", str(again), "--seed", "3"]) == cli.EXIT_OK
    assert (again / "trajectory.csv").read_bytes() \
        == (first / "trajectory.csv").read_bytes()


def test_dicke_ode_steps_at_the_config_dt(tmp_path, capsys):
    # the default dicke_* rates give an automatic step 0.05/2 = 0.025/omega_r;
    # a config dt of half that doubles the steps, and one coarser than that
    # bound is an engine error that names dt
    base = ["dicke-ode", "--override", "t_final=" + repr(50.0 / W_R),
            "--seed", "3"]
    steps = {}
    for name, extra in (("auto", []),
                        ("half", ["--override", f"dt={0.0125 / W_R!r}"])):
        out = tmp_path / name
        assert cli.main(base + extra + ["--out", str(out)]) == cli.EXIT_OK
        # the header and the t = 0 record are no steps
        lines = (out / "trajectory.csv").read_text().splitlines()
        steps[name] = len(lines) - 2
    assert steps == {"auto": 2000, "half": 4000}
    capsys.readouterr()
    assert cli.main(base + ["--override", f"dt={0.05 / W_R!r}", "--out",
                            str(tmp_path / "coarse")]) == cli.EXIT_ENGINE
    assert "dt=0.05 does not resolve" in capsys.readouterr().err


def test_manifest_command_names_the_subcommand_once(tmp_path):
    out = tmp_path / "run"
    argv = ["boundary", "--override", "delta_c_list=-1e8", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == " ".join(argv)


def test_start_loads_no_heavy_scipy_module():
    # a selforg start (import, config, first engine object) loads none of
    # the scipy submodules whose import alone costs 0.15-0.3 s
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from selforg import cli, dicke, sweeps\n"
        "sweeps.build_sim(sweeps.default_config())\n"
        "sweeps.build_sim(replace(sweeps.default_config(), trap=False,\n"
        "                         pump_lattice=False))\n"
        "heavy = ('scipy.fft', 'scipy.sparse', 'scipy.linalg',\n"
        "         'scipy.optimize', 'scipy.special')\n"
        "print(sorted(m for m in sys.modules if m in heavy))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweeps.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command, override", [
    ("ramp", "record_every=0"), ("ramp", "record_every=-1"),
    ("ramp", "consecutive=0"), ("ensemble", "n_seeds=0"),
    ("ensemble", "gs_max_steps=0"), ("ensemble", "dtau=0"),
    ("ensemble", "dtau=-2e-3"), ("ramp", "dt=0"), ("ramp", "dt=-1e-9"),
    ("ramp", "baseline_fraction=0"), ("ramp", "baseline_fraction=1.5"),
    ("ramp", "final_window_fraction=0"),
    ("ramp", "final_window_fraction=1.5"),
    ("ramp", "final_window_fraction=nan"), ("ramp", "floor_factor=0"),
    ("ramp", "floor_factor=-10"), ("ramp", "floor_factor=nan")])
def test_out_of_range_counts_and_steps_are_config_errors(tmp_path, capsys,
                                                         command, override):
    cfg = write_ideal_config(tmp_path / "c.cfg", extra=ENSEMBLE_KEYS)
    code = cli.main([command, "--config", cfg, "--override", override,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert override.split("=")[0] in capsys.readouterr().err


@pytest.mark.slow
def test_diagram_sweep_and_empty_power_list(tmp_path):
    deltas = [(-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R,
              (-1.3 * OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R]
    cfg = write_ideal_config(tmp_path / "diag.cfg", extra={
        **POWER_RAMP,
        "delta_c_list": ",".join(repr(v) for v in deltas),
        "power_list": "1e-4,5e-4,9e-4"})
    out = str(tmp_path / "diag")
    code = cli.main(["diagram", "--config", cfg, "--out", out,
                     "--workers", "2", "--seed", "4"])
    assert code == cli.EXIT_OK
    table = (tmp_path / "diag" / "sweep.csv").read_text().strip().split("\n")
    assert table[0] == sweeps.SWEEP_HEADER
    assert len(table) == 1 + 2 * 3
    assert os.path.exists(os.path.join(out, "points", "point_0000.csv"))
    assert os.path.exists(os.path.join(out, "points", "point_0001.csv"))
    # empty power list: empty result, success
    cfg2 = write_ideal_config(tmp_path / "diag2.cfg", extra={
        "delta_c_list": repr(deltas[0])})
    out2 = str(tmp_path / "diag2")
    assert cli.main(["diagram", "--config", cfg2, "--out", out2]) == cli.EXIT_OK
    assert (tmp_path / "diag2" / "sweep.csv").read_text().strip() \
        == sweeps.SWEEP_HEADER


@pytest.mark.slow
def test_sweep_files_do_not_depend_on_workers(tmp_path):
    # determinism contract: a sweep's points give the same data files
    # whether they run in this process or in a pool of two
    deltas = [(-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R,
              (-1.3 * OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R]
    cfg = write_ideal_config(tmp_path / "det.cfg", extra={
        **POWER_RAMP,
        "delta_c_list": ",".join(repr(v) for v in deltas),
        "power_list": "1e-4,9e-4", "ramp_time": repr(30.0 / W_R),
        "n_seeds": "2", "noise_amplitude": "1e-2",
        "ensemble_eta": repr(2 * 1.3 * LAM_CR / math.sqrt(N_AT))})
    files = {}
    for workers in (1, 2):
        config = load_config(cfg, seed=5)
        path = tmp_path / f"workers{workers}"
        rd = RunDir(str(path), config)
        run_phase_diagram(config, rd, workers=workers)
        run_symmetry_ensemble(config, rd, workers=workers)
        sweep = [line.rsplit(",", 1)[0]       # without wall_time_s
                 for line in (path / "sweep.csv").read_text().splitlines()]
        files[workers] = (sweep, (path / "ensemble.csv").read_text(),
                          (path / "config.resolved").read_text())
    assert len(files[1][0]) == 1 + 2 * 2
    assert files[1] == files[2]


def test_diagram_partial_failure_persists_points(tmp_path, monkeypatch):
    real = sweeps._run_ramp_gpe
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected failure")
        return real(config)

    monkeypatch.setattr(sweeps, "_run_ramp_gpe", flaky)
    deltas = [(-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R,
              (-1.2 * OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R]
    cfg = write_ideal_config(tmp_path / "flaky.cfg", extra={
        **POWER_RAMP,
        "delta_c_list": ",".join(repr(v) for v in deltas),
        "power_list": "5e-4", "ramp_time": repr(20.0 / W_R)})
    config = load_config(cfg)
    rd = RunDir(str(tmp_path / "flaky"), config)
    rows, all_ok = run_phase_diagram(config, rd, workers=1)
    assert not all_ok
    statuses = [r[9] for r in rows]
    assert "ok" in statuses
    assert any(s.startswith("failed:") for s in statuses)
    # the completed point file survived independently of the merge
    assert os.path.exists(str(tmp_path / "flaky" / "points" / "point_0000.csv"))
    # the CLI maps partial completion to exit code 4
    monkeypatch.setattr(cli, "run_phase_diagram",
                        lambda *a, **k: ([], False))
    out = str(tmp_path / "flaky-cli")
    assert cli.main(["diagram", "--config", cfg, "--out", out]) \
        == cli.EXIT_PARTIAL


def test_diagram_points_ramp_to_their_caps(tmp_path, monkeypatch):
    caps = []

    def record(config):
        caps.append(config.power_end)
        raise RuntimeError("not run")

    monkeypatch.setattr(sweeps, "_run_ramp_gpe", record)
    deltas = [(-OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R,
              (-1.2 * OMEGA_EFF + U0_SCALED * N_AT / 2) * W_R]
    cfg = write_ideal_config(tmp_path / "caps.cfg", extra={
        **POWER_RAMP, "delta_c_list": ",".join(repr(v) for v in deltas),
        "power_end_list": "7e-4,9e-4", "power_list": "5e-4"})
    config = load_config(cfg)
    run_phase_diagram(config, RunDir(str(tmp_path / "caps"), config))
    assert caps == [7e-4, 9e-4]


def test_diagram_points_take_no_snapshots(tmp_path, monkeypatch):
    # nothing writes a diagram point's snapshots, so its ramp takes none
    seen = []
    real = sweeps.CondensateSim.real_time_evolve

    def spy(self, *args, **kwargs):
        seen.append(kwargs["snapshot_times"])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(sweeps.CondensateSim, "real_time_evolve", spy)
    cfg = write_ideal_config(tmp_path / "snap.cfg", extra={
        **POWER_RAMP, "delta_c_list": repr(float(IDEAL_KEYS[
            "pump_cavity_detuning"])),
        "power_list": "5e-4", "snapshot_powers": "2e-4,8e-4",
        "ramp_time": repr(2.0 / W_R)})
    config = load_config(cfg)
    rows, all_ok = run_phase_diagram(
        config, RunDir(str(tmp_path / "diag"), config), workers=1)
    assert all_ok and len(rows) == 1
    assert seen == [None]


@pytest.mark.slow
def test_symmetry_ensemble_and_mirrors(tmp_path):
    cfg = write_ideal_config(tmp_path / "ens.cfg", extra={
        "n_seeds": "6", "noise_amplitude": "1e-2",
        "ensemble_eta": repr(2 * 1.3 * LAM_CR / math.sqrt(N_AT))})
    config = load_config(cfg, seed=1)
    rd = RunDir(str(tmp_path / "ens"), config)
    rows, stats = run_symmetry_ensemble(config, rd, workers=2,
                                        mirrored_pairs=True)
    assert stats["n_seeds"] == 6
    assert stats["n_plus"] + stats["n_minus"] == 6
    base = [r for r in rows if not r[5]]
    mirrored = [r for r in rows if r[5]]
    assert len(base) == len(mirrored) == 6
    for b, m in zip(base, mirrored):
        assert b[1] == -m[1]                      # exact sign flip
        assert abs(b[2]) == pytest.approx(abs(m[2]), rel=1e-6)
    text = (tmp_path / "ens" / "ensemble.csv").read_text()
    assert text.splitlines()[0] == sweeps.ENSEMBLE_HEADER + ",mirrored"
    stats_file = json.loads((tmp_path / "ens" / "ensemble_stats.json")
                            .read_text())
    assert 0.0 <= stats_file["binomial_p"] <= 1.0


ENSEMBLE_KEYS = {"n_seeds": "2", "noise_amplitude": "1e-2",
                 "ensemble_eta": repr(2 * 1.3 * LAM_CR / math.sqrt(N_AT))}


def test_ensemble_file_does_not_depend_on_batches(tmp_path):
    # one batch of two members, or two batches of one in a pool of two:
    # each member relaxes bit for bit the same
    cfg = write_ideal_config(tmp_path / "ens.cfg", extra=ENSEMBLE_KEYS)
    texts = []
    for workers in (1, 2):
        config = load_config(cfg, seed=5)
        rd = RunDir(str(tmp_path / f"workers{workers}"), config)
        run_symmetry_ensemble(config, rd, workers=workers)
        texts.append((tmp_path / f"workers{workers}" / "ensemble.csv")
                     .read_text())
    assert len(texts[0].splitlines()) == 3
    assert texts[0] == texts[1]


def test_one_sided_ensemble_stats_are_strict_json(tmp_path):
    # one member takes one sign, so the other sign has no mean: null, not
    # a bare NaN that strict JSON parsers reject
    cfg = write_ideal_config(tmp_path / "ens.cfg",
                             extra={**ENSEMBLE_KEYS, "n_seeds": "1"})
    config = load_config(cfg, seed=5)
    run_symmetry_ensemble(config, RunDir(str(tmp_path / "one"), config))

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    stats = json.loads((tmp_path / "one" / "ensemble_stats.json").read_text(),
                       parse_constant=reject)
    assert stats["n_plus"] + stats["n_minus"] == 1
    assert None in (stats["mean_abs_theta_plus"],
                    stats["mean_abs_theta_minus"])


@pytest.mark.parametrize("extra, reason", [
    ({"trap": "true"}, "trap"),
    ({"envelopes": "true"}, "envelopes"),
    # 12 pi over 64 points: a roll of 64 // 12 = 5 points is 0.83 pi
    ({"grid_extent_x": repr(12 * math.pi), "grid_points_x": "64"},
     "whole number of pi"),
    # 8.5 pi is no whole number of half pump wavelengths
    ({"grid_extent_x": repr(8.5 * math.pi), "grid_points_x": "64"},
     "whole number of pi"),
])
def test_mirrored_pairs_need_an_exact_mirror(tmp_path, extra, reason):
    cfg = write_ideal_config(tmp_path / "ens.cfg",
                             extra={**ENSEMBLE_KEYS, **extra})
    config = load_config(cfg)
    with pytest.raises(ConfigError, match=reason):
        run_symmetry_ensemble(config, None, mirrored_pairs=True)
    # without mirrored pairs the grid is valid (the trapped bed is not
    # built: its grid fails the Thomas-Fermi extent rule)
    if "trap" not in extra:
        sweeps.build_sim(config)


def test_ensemble_failure_names_the_member(tmp_path, capsys):
    cfg = write_ideal_config(tmp_path / "ens.cfg", extra={
        **ENSEMBLE_KEYS, "n_seeds": "3", "gs_max_steps": "50"})
    out = tmp_path / "fail"
    code = cli.main(["ensemble", "--config", cfg, "--out", str(out),
                     "--workers", "1", "--seed", "4"])
    assert code == cli.EXIT_ENGINE
    seeds = [point_seed(4, i) for i in range(3)]
    named = ", ".join(f"member {i} (seed {s})" for i, s in enumerate(seeds))
    message = f"not converged after 50 steps: {named}"
    assert message in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "engine-failure"
    assert message in manifest["error"]


def test_ensemble_requires_pump(tmp_path):
    cfg = write_ideal_config(tmp_path / "e2.cfg")
    config = load_config(cfg)
    with pytest.raises(ConfigError, match="ensemble"):
        sweeps.ensemble_eta(config)


def test_ensemble_power_uses_the_ramp_eta():
    # one power -> eta rule: a fixed ensemble power and a power ramp held at
    # that power give the same eta, and both reject a wrong-sign calibration
    power = 4e-4
    config = default_config(overrides=[f"ensemble_power={power!r}"])
    ramp = PowerRamp(config.params, [(0.0, power), (1.0, power)])
    assert sweeps.ensemble_eta(config) == ramp(0.5)[1]
    flipped = default_config(overrides=[f"ensemble_power={power!r}",
                                        "calibration_constant=1e-26"])
    with pytest.raises(ParameterError, match="same sign"):
        sweeps.ensemble_eta(flipped)
    with pytest.raises(ParameterError, match="same sign"):
        PowerRamp(flipped.params, [(0.0, 0.0), (1.0, power)])


def test_binomial_pvalue_matches_scipy():
    for n in range(1, 65):
        for k in range(n + 1):
            expected = binomtest(k, n, 0.5).pvalue
            assert sweeps.binomial_pvalue(k, n) == pytest.approx(
                expected, rel=1e-12, abs=0.0), (k, n)
