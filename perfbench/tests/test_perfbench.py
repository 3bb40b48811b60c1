"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every output check must pass on the program's real output and fail on a
perturbed copy; the command must print its one-line JSON result with the
metrics BENCHMARK.json names; each workload gets a tiny-size smoke run.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks       # noqa: E402
import workloads    # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny round of every workload, run in this process."""
    workloads.import_program()
    out = str(tmp_path_factory.mktemp("rounds"))
    done = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(seed=7, out_dir=out, tiny=True)
        w.reset()
        results = w.round()
        done[name] = (w, results, w.faults(results))
    return done


def _copy(w, op, tmp_path):
    dest = tmp_path / op
    shutil.copytree(w.path(op), dest)
    return str(dest)


def _edit_csv(path, edit):
    """Apply edit(header, rows) to a CSV of text fields, in place."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = edit(header, [line.split(",") for line in lines[1:]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header)]
                           + [",".join(r) for r in rows]) + "\n")


def scale(column, factor, row=None):
    def edit(header, rows):
        j = header.index(column)
        for i, r in enumerate(rows):
            if row is None or i == row % len(rows):
                r[j] = repr(float(r[j]) * factor)
        return rows
    return edit


def drop_row(index):
    def edit(header, rows):
        del rows[index]
        return rows
    return edit


def flip_sign(column, row):
    return scale(column, -1.0, row)


# ---------------------------------------------------------------------------
# the checks pass on real output and fail on perturbed output
# ---------------------------------------------------------------------------

def test_real_outputs_pass(outputs):
    for name, (w, results, faults) in outputs.items():
        assert w.check(results, faults) == [], name


RAMP_PERTURBATIONS = [scale("alpha_re", 1 + 1e-3), flip_sign("alpha_re", -1),
                      drop_row(2), scale("nphoton", 1 + 1e-3, row=-1),
                      scale("theta", 1 + 1e-3, row=-1), scale("norm", 1 + 1e-8)]


@pytest.mark.parametrize("edit", RAMP_PERTURBATIONS)
def test_ramp_check_catches(outputs, tmp_path, edit):
    w, results, _ = outputs["ramp-256"]
    path = _copy(w, "ramp", tmp_path)
    _edit_csv(os.path.join(path, "trajectory.csv"), edit)
    spec = {"ramp_time_s": w.ramp_time, "power_end_w": w.power_end,
            "extent": 160.0, "points": 256}
    assert checks.check_ramp(path, results["ramp"][1], spec)


def test_ramp_check_catches_a_wrong_field(outputs, tmp_path):
    w, results, _ = outputs["ramp-256"]
    psi = results["ramp"][1]
    spec = {"ramp_time_s": w.ramp_time, "power_end_w": w.power_end,
            "extent": 160.0, "points": 256}
    shifted = np.roll(psi, 3, axis=0)
    assert checks.check_ramp(w.path("ramp"), shifted, spec)


ENSEMBLE_PERTURBATIONS = [flip_sign("sign", 0), scale("theta", 1 + 1e-3),
                          scale("energy", 1 + 1e-3), scale("nphoton", 1 + 1e-3),
                          drop_row(0)]


@pytest.mark.parametrize("edit", ENSEMBLE_PERTURBATIONS)
def test_ensemble_check_catches(outputs, tmp_path, edit):
    w, _, _ = outputs["ensemble-32"]
    path = _copy(w, "ensemble", tmp_path)
    _edit_csv(os.path.join(path, "ensemble.csv"), edit)
    spec = {**workloads.IDEAL, "eta": w.eta, "n_seeds": w.n_seeds,
            "modes": 8}
    assert checks.check_ensemble(path, spec)


ED_PERTURBATIONS = [scale("photon_frac", 1 + 1e-3, row=-1),
                    flip_sign("jz", 1), scale("gap", 1 + 1e-3, row=1),
                    drop_row(1)]


@pytest.mark.parametrize("edit", ED_PERTURBATIONS)
def test_dicke_ed_check_catches(outputs, tmp_path, edit):
    w, _, _ = outputs["dicke-boundary"]
    path = _copy(w, "dicke-ed", tmp_path)
    _edit_csv(os.path.join(path, "eigen.csv"), edit)
    spec = {"n_atoms": 8, "omega": 1.0, "omega0": 2.0, "lambdas": w.lambdas}
    assert checks.check_dicke_ed(path, spec)


ODE_PERTURBATIONS = [scale("alpha_re", 1 + 1e-3), drop_row(100),
                     scale("photon_frac", 1.01, row=-1)]


@pytest.mark.parametrize("edit", ODE_PERTURBATIONS)
def test_dicke_ode_check_catches(outputs, tmp_path, edit):
    w, _, _ = outputs["dicke-boundary"]
    path = _copy(w, "dicke-ode", tmp_path)
    _edit_csv(os.path.join(path, "trajectory.csv"), edit)
    spec = {"omega": 1.0, "omega0": 2.0, "kappa": 1.0, "lam_end": w.lam_end,
            "t_final": w.t_ode}
    assert checks.check_dicke_ode(path, spec)


def _readable_boundary(w, tmp_path):
    """The boundary table with np.float64(x) fields written as x."""
    path = _copy(w, "boundary", tmp_path)
    csv_path = os.path.join(path, "boundary.csv")
    with open(csv_path, encoding="utf-8") as fh:
        text = re.sub(r"np\.float64\(([^)]*)\)", r"\1", fh.read())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def test_boundary_numbers_pass_once_readable(outputs, tmp_path):
    w, _, _ = outputs["dicke-boundary"]
    path = _readable_boundary(w, tmp_path)
    assert checks.check_boundary(path, {"n_atoms": 1e5,
                                        "delta_c": w.deltas}) == []


BOUNDARY_PERTURBATIONS = [scale("delta_tilde_hz", 1 + 1e-3),
                          flip_sign("lambda_cr", 0), scale("eta_cr", 1 + 1e-3),
                          scale("p_cr_watt", 1 + 1e-3), drop_row(2)]


@pytest.mark.parametrize("edit", BOUNDARY_PERTURBATIONS)
def test_boundary_check_catches(outputs, tmp_path, edit):
    w, _, _ = outputs["dicke-boundary"]
    path = _readable_boundary(w, tmp_path)
    _edit_csv(os.path.join(path, "boundary.csv"), edit)
    assert checks.check_boundary(path, {"n_atoms": 1e5, "delta_c": w.deltas})


def test_unreadable_table_is_an_operation_fault(outputs):
    w, results, faults = outputs["dicke-boundary"]
    text = open(w.path("boundary", "boundary.csv"), encoding="utf-8").read()
    if "np.float64(" in text:
        assert "is not a number" in faults["boundary"]
    assert set(faults) <= {"boundary"}


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def test_overlap_quadrature_converged_and_published_shift():
    coarse = checks.overlaps(1e5)
    fine = checks.overlaps(1e5, n_s=320, n_phi=512)
    for key in ("bunching_0", "n_eff"):
        assert fine[key] == pytest.approx(coarse[key], rel=1e-10)
    shift = checks.DEFAULTS["single_atom_lightshift"] * coarse["bunching_0"]
    assert shift / (-2 * math.pi * 3.5e6) == pytest.approx(1, abs=0.2)


def test_plane_wave_continuum_limit():
    ideal = workloads.IDEAL
    lam_cr = checks.dicke_critical_coupling(ideal["omega_eff"], 2.0,
                                            ideal["kappa"])
    eta = 2 * 1.3 * lam_cr / math.sqrt(ideal["n_atoms"])
    wide = checks.plane_wave_ground_state(
        ideal["n_atoms"], eta, ideal["omega_eff"], ideal["kappa"],
        ideal["u0"], modes=24)
    wider = checks.plane_wave_ground_state(
        ideal["n_atoms"], eta, ideal["omega_eff"], ideal["kappa"],
        ideal["u0"], modes=32)
    assert wide["theta_per_atom"] == pytest.approx(wider["theta_per_atom"],
                                                   rel=1e-10)
    # harmonics enhance |Theta|/N well above the two-mode value
    two_mode = math.sqrt(1 - (1 / 1.3**2) ** 2) / 2
    assert 1.3 < wide["theta_per_atom"] / two_mode < 1.8


def test_dense_ed_gap_at_zero_coupling():
    ref = checks.dicke_ed_reference(8, 1.0, 2.0, 0.0, n_max=20)
    assert ref["gap"] == pytest.approx(1.0, abs=1e-12)
    assert ref["photon_frac"] == 0.0 and ref["jz"] == -0.5


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def _run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd)
    return done


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace, tmp_path):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny",
                 "--out", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # what the code does per step at this commit
        if workload == "ramp-256":
            assert m["gpe.fft_per_step"] == 4
            assert 2 <= m["gpe.alpha_per_step"] <= 2.5
        if workload == "ensemble-32":
            assert m["gpe.fft_per_step"] == 4
            assert m["sweeps.build_sim_per_state"] == 1
            assert m["gpe.imag_steps_per_state"] > 1000
        if workload == "dicke-boundary":
            assert m["dicke.rhs_per_step"] == 4
            assert m["dicke.cutoffs_per_coupling"] >= 2
            assert m["boundary.overlap_peak_mib"] > 0
    else:
        assert result["metrics"]["peak_rss_mib"]["value"] > 10


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(["--workload", "ramp-256", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
