"""The benchmark's workloads.

Each workload turns the run's seed into the program's inputs, runs one
round of fixed work through ``selforg``'s public entry points (the same
calls the ``selforg`` command makes), and checks the round's outputs with
``checks``, which never imports the program.

Nothing here imports ``selforg`` at module level, so that a fresh set-up
process can time that import on its own.
"""

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import sys

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``selforg`` under src/."""


def import_program():
    """Import ``selforg`` from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "selforg", "__init__.py")):
        raise ProgramMissing(f"no selforg package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import selforg
    if os.path.dirname(os.path.dirname(os.path.abspath(selforg.__file__))) \
            != SRC:
        raise ProgramMissing(f"selforg imported from {selforg.__file__}")
    return selforg


def _overrides(mapping):
    out = []
    for key, value in mapping.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        out.append(f"{key}={value}")
    return out


def _cli(args, overrides):
    """One ``selforg`` invocation in this process; True on exit code 0."""
    from selforg import cli
    argv = list(args)
    for item in _overrides(overrides):
        argv += ["--override", item]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv) == 0


class Workload:
    """A round is ``ops`` program invocations over the same inputs.

    ``round()`` returns {op: (exited_ok, returned_output)}.  ``faults()``
    names the ops that failed: a non-zero exit, or a data file that is not
    the declared table of numbers.  ``check()`` checks the other ops.
    """

    name = None
    data_files = {}

    def __init__(self, seed, out_dir):
        self.out_dir = os.path.join(out_dir, self.name)
        self.rng = random.Random(f"{self.name}:{seed}")
        # the program's own seed, a 32-bit draw from the run's seed
        self.prog_seed = self.rng.getrandbits(32)

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def path(self, op, name=""):
        return os.path.join(self.out_dir, op, name)

    def setup_spec(self):
        """What a fresh process resolves and builds first (setup_probe)."""
        return {"engine": "sim", "overrides": _overrides(self.config)}

    def faults(self, results):
        out = {}
        for op, (ok, _) in results.items():
            if not ok:
                out[op] = "non-zero exit"
                continue
            for name in self.data_files[op]:
                problem = checks.unreadable(self.path(op, name))
                if problem:
                    out[op] = problem
                    break
        return out

    def digest(self, results):
        """Hash of every data file the round wrote (manifests excluded)."""
        h = hashlib.sha256()
        for op, (ok, _) in sorted(results.items()):
            for name in self.data_files[op] if ok else ():
                with open(self.path(op, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def check(self, results, faults):
        bad = []
        for op, (_, output) in results.items():
            if op not in faults:
                bad += self.check_op(op, output)
        return bad


# ---------------------------------------------------------------------------
# ramp-256: `selforg ramp` at the default configuration
# ---------------------------------------------------------------------------

class Ramp256(Workload):
    """The default 256^2 trapped ramp, shortened to a fixed step count at
    the default pump slope (1.3 mW per 10 ms); it stays far below the
    threshold.  Record every step, write trajectory.csv and threshold.json.
    """

    name = "ramp-256"
    data_files = {"ramp": ["trajectory.csv", "threshold.json"]}
    ops = 1

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        steps = 4 if tiny else 200
        # the default grid's automatic step is 0.05/k_max^2 = 9.895e-4
        self.ramp_time = steps * 9.9e-4 / checks.recoil_frequency()
        self.power_end = 1.3e-3 * self.ramp_time / 10e-3
        self.config = {"ramp_time": self.ramp_time,
                       "power_end": self.power_end}

    def round(self):
        from selforg import sweeps
        # what `selforg ramp --override ...` does, keeping the final field
        config = sweeps.default_config(_overrides(self.config),
                                       seed=self.prog_seed)
        rundir = sweeps.RunDir(self.path("ramp"), config, command="ramp")
        try:
            rec, _ = sweeps.run_ramp(config, rundir)
        except sweeps.EngineError:
            rundir.finish("engine-failure")
            return {"ramp": (False, None)}
        rundir.finish("ok")
        return {"ramp": (True, rec["psi"])}

    def check_op(self, op, psi):
        return checks.check_ramp(self.path(op), psi, {
            "ramp_time_s": self.ramp_time, "power_end_w": self.power_end,
            "extent": 160.0, "points": 256})


# ---------------------------------------------------------------------------
# ensemble-32: `selforg ensemble --workers 1` on the ideal 32^2 test bed
# ---------------------------------------------------------------------------

IDEAL = {"n_atoms": 1e4, "u0": -1e-3, "omega_eff": 500.0,
         "kappa": 348.5121851045933}


class Ensemble32(Workload):
    """Ground states of the two-mode test bed: no trap, no envelopes, no
    pump lattice, N = 1e4, eta at 1.3 lambda_cr, noise 1e-2, on a 32^2
    grid over four pump wavelengths."""

    name = "ensemble-32"
    data_files = {"ensemble": ["ensemble.csv", "ensemble_stats.json"]}
    ops = 1

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        w_r = checks.recoil_frequency()
        n, u0 = IDEAL["n_atoms"], IDEAL["u0"]
        lam_cr = checks.dicke_critical_coupling(IDEAL["omega_eff"], 2.0,
                                                IDEAL["kappa"])
        self.eta = 2 * 1.3 * lam_cr / math.sqrt(n)
        self.n_seeds = 1 if tiny else 4
        self.config = {
            "atom_number": n, "scattering_length": 0.0,
            "cavity_decay": IDEAL["kappa"] * w_r,
            "single_atom_lightshift": u0 * w_r,
            "pump_cavity_detuning": (-IDEAL["omega_eff"] + u0 * n / 2) * w_r,
            "envelopes": "false", "trap": "false", "pump_lattice": "false",
            "grid_extent_x": 8 * math.pi, "grid_extent_z": 8 * math.pi,
            "grid_points_x": 32, "grid_points_z": 32,
            "noise_amplitude": 1e-2, "n_seeds": self.n_seeds,
            "ensemble_eta": self.eta,
        }

    def round(self):
        ok = _cli(["ensemble", "--out", self.path("ensemble"), "--seed",
                   str(self.prog_seed), "--workers", "1"], self.config)
        return {"ensemble": (ok, None)}

    def check_op(self, op, _):
        return checks.check_ensemble(self.path(op), {
            **IDEAL, "eta": self.eta, "n_seeds": self.n_seeds,
            "modes": 32 // 4})


# ---------------------------------------------------------------------------
# dicke-boundary: dicke-ed, dicke-ode and two boundary tables
# ---------------------------------------------------------------------------

class DickeBoundary(Workload):
    """The Dicke model and the analytic boundary, no gpe layer.

    dicke-ed: N = 8, couplings 0 .. 2 lambda_cr, cutoff scan from 60.
    dicke-ode: omega = 1, omega0 = 2, kappa = 1, coupling ramped to
    2 lambda_cr over 1e5 steps of the fixed RK4 bound (dt = 0.025).
    boundary: 100 detunings from -2pi x 40 MHz to -2pi x 1 MHz for the
    default cloud and for N = 1e6, whose overlap quadrature climbs to
    (192, 192, 256) nodes.  These inputs do not depend on the seed.
    """

    name = "dicke-boundary"
    data_files = {"dicke-ed": ["eigen.csv"], "dicke-ode": ["trajectory.csv"],
                  "boundary": ["boundary.csv"],
                  "boundary-wide": ["boundary.csv"]}

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        lam_ed = checks.dicke_critical_coupling(1.0, 2.0, 0.0)
        n_lam = 3 if tiny else 11
        # interior couplings jittered by up to a third of the spacing
        self.lambdas = [0.0] + [
            2 * lam_ed * (i + self.rng.uniform(-1 / 3, 1 / 3)) / (n_lam - 1)
            for i in range(1, n_lam - 1)] + [2 * lam_ed]
        self.ed = {"dicke_omega": 1.0, "dicke_omega0": 2.0,
                   "dicke_n_atoms": 8, "dicke_n_max": 60,
                   "lambda_list": self.lambdas}
        self.lam_end = 2 * checks.dicke_critical_coupling(1.0, 2.0, 1.0)
        steps = 20_000 if tiny else 100_000
        self.t_ode = steps * 0.05 / max(1.0, 2.0, 1.0, self.lam_end)
        self.ode = {"dicke_omega": 1.0, "dicke_omega0": 2.0,
                    "dicke_kappa": 1.0, "dicke_coupling": self.lam_end,
                    "t_final": self.t_ode / checks.recoil_frequency()}
        n_det = 5 if tiny else 100
        self.deltas = [-2 * math.pi * (40e6 - 39e6 * i / (n_det - 1))
                       for i in range(n_det)]
        self.clouds = {"boundary": 1e5} if tiny else \
            {"boundary": 1e5, "boundary-wide": 1e6}
        self.ops = 2 + len(self.clouds)

    def setup_spec(self):
        return {"engine": "dicke", "overrides": _overrides(self.ed)}

    def round(self):
        common = ["--seed", str(self.prog_seed), "--workers", "1"]
        results = {
            "dicke-ed": (_cli(["dicke-ed", "--out", self.path("dicke-ed")]
                              + common, self.ed), None),
            "dicke-ode": (_cli(["dicke-ode", "--out", self.path("dicke-ode")]
                               + common, self.ode), None),
        }
        for op, n_atoms in self.clouds.items():
            results[op] = (_cli(["boundary", "--out", self.path(op)] + common,
                                {"atom_number": n_atoms,
                                 "delta_c_list": self.deltas}), None)
        return results

    def check_op(self, op, _):
        if op == "dicke-ed":
            return checks.check_dicke_ed(self.path(op), {
                "n_atoms": 8, "omega": 1.0, "omega0": 2.0,
                "lambdas": self.lambdas})
        if op == "dicke-ode":
            return checks.check_dicke_ode(self.path(op), {
                "omega": 1.0, "omega0": 2.0, "kappa": 1.0,
                "lam_end": self.lam_end, "t_final": self.t_ode})
        return checks.check_boundary(self.path(op), {
            "n_atoms": self.clouds[op], "delta_c": self.deltas})


WORKLOADS = {cls.name: cls for cls in (Ramp256, Ensemble32, DickeBoundary)}
