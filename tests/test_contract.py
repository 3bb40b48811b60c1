"""The public contract: package names, CLI subcommands, exit codes and the
config-file format.

Internals may move freely; these may not change without a deliberate edit
here.
"""

import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

import selforg
from selforg import cli
from selforg.params import ExperimentParams
from selforg.sweeps import (ConfigError, RunConfig, default_config,
                            format_resolved, resolve_config)

PUBLIC_NAMES = [
    "CondensateSim", "CriticalPoint", "DerivedParams", "DickeParams",
    "EtaRamp", "ExperimentParams", "Grid2D", "GridError", "OverlapIntegrals",
    "ParameterError", "PowerRamp", "SemiclassicalState", "ThomasFermiProfile",
    "boundary", "boundary_curve", "boundary_table_csv", "build_hamiltonian",
    "cavity_amplitude", "cavity_profile", "constants",
    "converged_ground_state_observables", "critical_coupling",
    "critical_pump", "derive", "detect_threshold", "dicke",
    "external_potential", "gpe", "grid", "ground_state_observables",
    "has_transition", "instability_threshold", "integrate_semiclassical",
    "load_field", "load_params", "normal_state", "oscillation_metric",
    "overlap_integrals", "params", "parity_transform", "pump_profile",
    "save_field", "semiclassical_rhs", "steadystate_photon_fraction",
    "thomas_fermi", "with_pump_depth", "with_pump_power",
]

CONFIG_KEYS = [
    "atom_mass", "atom_number", "baseline_fraction", "calibration_constant",
    "cavity_decay", "cavity_waist", "consecutive", "delta_c_list",
    "dicke_coupling", "dicke_kappa", "dicke_n_atoms", "dicke_n_max",
    "dicke_omega", "dicke_omega0", "dt", "dtau", "engine", "ensemble_eta",
    "ensemble_power", "envelopes", "eta_end", "final_window_fraction",
    "floor_factor", "grid_extent_x", "grid_extent_z", "grid_points_x",
    "grid_points_z", "gs_max_steps", "gs_tol_energy", "gs_tol_theta",
    "lambda_list", "n_seeds", "noise_amplitude", "oscillation_threshold",
    "power_end", "power_end_list", "power_list", "power_start",
    "pump_cavity_detuning", "pump_depth", "pump_lattice", "pump_power",
    "pump_waist_x", "pump_waist_y", "pump_wavelength", "ramp_time",
    "record_every", "scattering_length", "sigma_y", "sigma_y_mode",
    "single_atom_lightshift", "snapshot_powers", "t_final", "trap",
    "trap_frequency_x", "trap_frequency_y", "trap_frequency_z",
]

DEFAULT_ECHO = """\
# resolved run configuration
atom_number = 100000.0
pump_wavelength = 7.845e-07
atom_mass = 1.443160894996517e-25
cavity_decay = 8168140.899333462
pump_cavity_detuning = -93619461.07697584
single_atom_lightshift = -530.929158456675
calibration_constant = -2.4716183702836547e-26
trap_frequency_x = 1583.3626974092558
trap_frequency_y = 301.59289474462014
trap_frequency_z = 1495.3981031087415
cavity_waist = 2.5e-05
pump_waist_x = 2.9e-05
pump_waist_y = 5.3e-05
scattering_length = 5.31293919746612e-09
baseline_fraction = 0.05
consecutive = 50
dicke_coupling = 1.0
dicke_kappa = 1.0
dicke_n_atoms = 8
dicke_n_max = 60
dicke_omega = 1.0
dicke_omega0 = 2.0
dtau = 0.002
engine = gpe
envelopes = true
final_window_fraction = 0.2
floor_factor = 10.0
grid_extent_x = 160.0
grid_extent_z = 160.0
grid_points_x = 256
grid_points_z = 256
gs_max_steps = 200000
gs_tol_energy = 1e-10
gs_tol_theta = 1e-08
n_seeds = 1
noise_amplitude = 0.0001
oscillation_threshold = 0.5
power_end = 0.0013
power_start = 0.0
pump_lattice = true
ramp_time = 0.01
record_every = 1
sigma_y_mode = thomas-fermi
trap = true
"""

SUBCOMMANDS = ["ramp", "diagram", "ensemble", "boundary", "dicke-ed",
               "dicke-ode"]


def test_public_names():
    assert sorted(selforg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(selforg, name)


def test_cli_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    choices = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == SUBCOMMANDS


def test_exit_codes():
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ENGINE,
            cli.EXIT_PARTIAL) == (0, 2, 3, 4)


def test_default_config_echo():
    assert format_resolved(default_config()) == DEFAULT_ECHO


def test_config_keys():
    # every listed key is accepted: only the extra one is reported
    mapping = {key: "1" for key in CONFIG_KEYS + ["not_a_key"]}
    with pytest.raises(ConfigError, match="unknown config keys: not_a_key$"):
        resolve_config(mapping)
    # and no other key is
    run_keys = [f.name for f in fields(RunConfig)
                if f.name not in ("params", "seed")]
    assert sorted(run_keys + [f.name for f in fields(ExperimentParams)]) \
        == CONFIG_KEYS


def test_cli_import_loads_no_heavy_scipy_modules():
    # `import selforg.cli` must not load scipy.fft (gpe imports it on the
    # first FFT), scipy.special (which scipy.fft loads), scipy.sparse
    # (only the ED path needs it) or scipy.stats.
    src = os.path.dirname(os.path.dirname(os.path.abspath(selforg.__file__)))
    probe = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import selforg.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in\n"
        "    (['scipy', 'fft'], ['scipy', 'special'], ['scipy', 'sparse'],\n"
        "     ['scipy', 'stats'])))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_probes_install_and_uninstall(monkeypatch):
    # perfbench traces a run by patching the program's names in place; a
    # name it patches that the program no longer has fails here, not only
    # as an AttributeError in a traced benchmark run
    from selforg import boundary, dicke, gpe, sweeps
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
    tracer = _load_by_path("tracer", os.path.join(bench, "tracer.py"))
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    layers = _load_by_path("layers", os.path.join(bench, "layers.py"))
    owners = [boundary, cli, dicke, gpe, sweeps, gpe.CondensateSim,
              sweeps.RunDir]
    before = [dict(vars(owner)) for owner in owners]
    probes = tracer.Tracer()
    layers.install_probes(probes, layers.Counts())
    probes.install()
    try:
        patched = {(owner.__name__, name)
                   for owner, was in zip(owners, before)
                   for name, value in vars(owner).items()
                   if was.get(name) is not value}
    finally:
        probes.uninstall()
    assert {owner for owner, _ in patched} == {o.__name__ for o in owners}
    for owner, was in zip(owners, before):
        now = vars(owner)
        assert now.keys() == was.keys()
        assert all(now[name] is value for name, value in was.items())
