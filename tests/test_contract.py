"""The public contract: package names, CLI subcommands and exit codes.

Internals may move freely; these may not change without a deliberate edit
here.
"""

import re

import pytest

import selforg
from selforg import cli

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
