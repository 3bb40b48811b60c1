"""Experiment orchestration: ramps, phase diagrams, seed ensembles.

A run is described by a flat key = value config (SI units, same format as
the parameter files; unknown keys are a hard error), executes one of the
engines, and persists everything into one output directory, the RunDir
every run_* function is given and writes into (RunDir.write is the one
writer of its data files, save_field of the .fld snapshots):

    config.resolved     exact config used, defaults expanded (RunDir)
    manifest.json       package version, git hash, wall times (RunDir)
    run_ramp            trajectory.csv, threshold.json; on the gpe engine
                        snapshot_NN.fld and snapshot_NN_peaks.csv
    run_phase_diagram   points/point_NNNN.csv, sweep.csv; boundary.csv for
                        a trapped, interacting cloud
    run_symmetry_ensemble  ensemble.csv, ensemble_stats.json
    run_dicke_ed        eigen.csv
    run_boundary        boundary.csv

Determinism contract: for a fixed (config, seed) the data files are
byte-identical across runs on one platform.  Excluded by construction:
manifest.json and the wall_time_s column of sweep tables, which exist to
record timings.  Sweep points run in a worker pool and receive the resolved
RunConfig itself: a diagram point replaces its detuning and seed.  The
members of an ensemble share one CondensateSim and run as batches, one
contiguous chunk of members per worker (capped by a field budget), each
batch one CondensateSim.ground_states call on a stack of start fields; a
member's result does not depend on its batch, so ensemble.csv does not
depend on the number of workers.  Each completed diagram point is
persisted immediately (a killed sweep loses at most the in-flight point)
and the merged table is written in point order, independent of completion
order.
"""

import functools
import json
import math
import os
import platform
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy

from . import __version__
from .params import (ExperimentParams, ParameterError, csv_table, derive,
                     eta_of_power, format_value, param_lines,
                     parse_key_value_text, params_from_mapping, _PARAM_KEYS)
from .grid import Grid2D, save_field
from .gpe import (CondensateSim, PowerRamp, EtaRamp, detect_threshold,
                  oscillation_metric)
from . import dicke
from .dicke import ConvergenceError
# thomas_fermi is unused here but traced on this module by perfbench/layers.py
from .boundary import thomas_fermi, boundary_curve, boundary_table_csv


class ConfigError(ParameterError):
    """Invalid run configuration."""


class EngineError(RuntimeError):
    """An engine failed; the message carries the run context."""


ENGINES = ("gpe", "dicke-exact", "dicke-semiclassical", "boundary")

Floats = tuple[float, ...]      # a comma-separated list in the config file


@dataclass(frozen=True)
class RunConfig:
    """A resolved run: experiment parameters, base seed and one typed field
    per run key.  A field's type (float, int, bool, str or Floats) decides
    how resolve_config parses the key's text and how format_resolved echoes
    it; a key at an unset default (NaN, empty list) is left out of the echo.
    """

    params: ExperimentParams
    seed: int = 0
    engine: str = "gpe"
    # grid (extents in units of 1/k)
    grid_extent_x: float = 160.0
    grid_extent_z: float = 160.0
    grid_points_x: int = 256
    grid_points_z: int = 256
    envelopes: bool = True
    trap: bool = True
    pump_lattice: bool = True
    sigma_y_mode: str = "thomas-fermi"
    sigma_y: float = math.nan           # m; NaN = use sigma_y_mode
    # ramp protocol (SI)
    ramp_time: float = 10e-3            # s
    power_start: float = 0.0            # W
    power_end: float = 1.3e-3           # W
    eta_end: float = math.nan           # scaled eta ramp instead of power
    dt: float = math.nan                # s; NaN = auto
    record_every: int = 1
    noise_amplitude: float = 1e-4
    snapshot_powers: Floats = ()        # W
    # sweep axes
    delta_c_list: Floats = ()           # rad/s
    power_list: Floats = ()             # W, diagram sample powers
    power_end_list: Floats = ()         # optional per-detuning ramp caps
    # threshold detector and frustration metric
    baseline_fraction: float = 0.05
    floor_factor: float = 10.0
    consecutive: int = 50
    oscillation_threshold: float = 0.5
    final_window_fraction: float = 0.2
    # ensemble / ground-state relaxation
    n_seeds: int = 1
    ensemble_power: float = math.nan    # W, fixed pump for ensembles
    ensemble_eta: float = math.nan      # scaled, overrides ensemble_power
    dtau: float = 2e-3                  # imaginary time step, 1/omega_r
    gs_tol_energy: float = 1e-10
    gs_tol_theta: float = 1e-8
    gs_max_steps: int = 200_000
    # dicke engines
    dicke_omega: float = 1.0            # units of omega_r
    dicke_omega0: float = 2.0
    dicke_kappa: float = 1.0
    dicke_coupling: float = 1.0
    dicke_n_atoms: int = 8
    dicke_n_max: int = 60
    lambda_list: Floats = ()            # units of omega_r, ED sweeps
    t_final: float = math.nan           # s, ODE runs; NaN = ramp_time


# every config key beyond the embedded experiment parameters
_RUN_FIELDS = tuple(f for f in fields(RunConfig)
                    if f.name not in ("params", "seed"))
_CONFIG_KEYS = set(_PARAM_KEYS) | {f.name for f in _RUN_FIELDS}


def _coerce(name, typ, raw):
    """Parse one config value as its RunConfig field type ``typ``."""
    text = str(raw).strip()
    try:
        if typ is int:
            try:
                return int(text)
            except ValueError:          # integral float notation, e.g. 2e5
                value = float(text)
            if value != int(value):
                raise ValueError("not an integer")
            return int(value)
        if typ is bool:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError("not a boolean")
        if typ == Floats:
            return tuple(float(v) for v in text.split(",")) if text else ()
        return typ(text)                # float or str
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"key {name!r}: bad value {raw!r} ({exc})") from exc


def resolve_config(mapping, seed=0):
    """Resolve a flat mapping of config text into a RunConfig.

    Unknown keys are rejected; every missing key takes its documented
    default.  Step and member counts below 1, time steps and floor_factor
    that are not positive, and trace fractions outside (0, 1] are rejected
    too.
    """
    unknown = sorted(set(mapping) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    param_map = {k: v for k, v in mapping.items() if k in _PARAM_KEYS}
    try:
        params = params_from_mapping(param_map)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    options = {f.name: _coerce(f.name, f.type, mapping[f.name])
               for f in _RUN_FIELDS if f.name in mapping}
    config = RunConfig(params=params, seed=int(seed), **options)
    if config.engine not in ENGINES:
        raise ConfigError(f"unknown engine {config.engine!r}; "
                          f"choose from {', '.join(ENGINES)}")
    for key in ("record_every", "consecutive", "n_seeds", "gs_max_steps"):
        if (value := getattr(config, key)) < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    for key, value in (("dtau", config.dtau), ("dt", config.dt),
                       ("floor_factor", config.floor_factor)):
        if not (value > 0 or key == "dt" and math.isnan(value)):  # NaN: auto
            raise ConfigError(f"{key} must be > 0, got {value!r}")
    # a fraction of the trace: int((1 - f) * n) < 0 for f > 1 indexes from
    # the end, and f = 0 leaves an empty window
    for key in ("baseline_fraction", "final_window_fraction"):
        if not 0 < (value := getattr(config, key)) <= 1:
            raise ConfigError(f"{key} must be in (0, 1], got {value!r}")
    return config


def load_config(path, overrides=(), seed=0):
    with open(path, encoding="utf-8") as fh:
        mapping = parse_key_value_text(fh.read())
    return _resolve_with_overrides(mapping, overrides, seed)


def default_config(overrides=(), seed=0):
    return _resolve_with_overrides({}, overrides, seed)


def _resolve_with_overrides(mapping, overrides, seed):
    """Apply ``key=value`` overrides, each read as one config-file line,
    on top of ``mapping``, then resolve."""
    for item in overrides:
        try:
            (key, value), = parse_key_value_text(item).items()
        except ValueError as exc:   # a ParameterError, or not one key
            raise ConfigError(f"override {item!r}: {exc}") from exc
        mapping[key] = value
    return resolve_config(mapping, seed=seed)


def _unset(value):
    """NaN or an empty list: the value of a key that is not set."""
    return value == () or (isinstance(value, float) and math.isnan(value))


def format_resolved(config: RunConfig):
    """Full config echo (defaults expanded), reparseable."""
    lines = ["# resolved run configuration"] + param_lines(config.params)
    for f in sorted(_RUN_FIELDS, key=lambda f: f.name):
        value = getattr(config, f.name)
        if _unset(value) and _unset(f.default):
            continue
        if f.type == Floats:
            text = ",".join(map(format_value, value))
        elif f.type in (int, str):
            text = str(value)
        else:
            text = format_value(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output directory plumbing
# ---------------------------------------------------------------------------

def _git_hash():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _atomic_write(path, data):
    tmp = path + ".tmp"
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class RunDir:
    """One output directory per run, with config echo and manifest."""

    def __init__(self, path, config: RunConfig, command=""):
        self.path = path
        os.makedirs(path, exist_ok=True)
        _atomic_write(os.path.join(path, "config.resolved"),
                      format_resolved(config))
        self._t0 = time.monotonic()
        self._manifest = {
            "package": "selforg",
            "version": __version__,
            "git_hash": _git_hash(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "command": command,
            "seed": config.seed,
            "wall_times_s": {},
        }

    def file(self, name):
        return os.path.join(self.path, name)

    def write(self, name, data):
        _atomic_write(self.file(name), data)

    def stage_done(self, stage):
        self._manifest["wall_times_s"][stage] = round(
            time.monotonic() - self._t0, 6)

    def finish(self, status="ok", error=None):
        """Write manifest.json with the run's status and, for a failed
        run, the error message."""
        self._manifest["status"] = status
        if error is not None:
            self._manifest["error"] = error
        self._manifest["wall_times_s"]["total"] = round(
            time.monotonic() - self._t0, 6)
        _atomic_write(self.file("manifest.json"),
                      json.dumps(self._manifest, indent=2, sort_keys=True)
                      + "\n")


GPE_TRAJ_HEADER = "t,P,eta,alpha_re,alpha_im,nphoton,theta,bunching,norm"
ODE_TRAJ_HEADER = "t,alpha_re,alpha_im,photon_frac,jz,order"
ED_HEADER = "lambda,photon_frac,jz,order,gap"
PEAKS_HEADER = "px_over_hk,pz_over_hk,weight"
SWEEP_HEADER = ("delta_c,power,seed,mean_nphoton,theta,thresholded,"
                "p_cr,oscillation,frustrated,status,wall_time_s")
ENSEMBLE_HEADER = "seed,sign,theta,nphoton,energy"


def gpe_trajectory_csv(rec):
    cols = (rec["t"], rec["power"], rec["eta"],
            rec["alpha"].real, rec["alpha"].imag, rec["nphoton"],
            rec["theta"], rec["bunching"], rec["norm"])
    return csv_table(GPE_TRAJ_HEADER, zip(*(c.tolist() for c in cols)))


def ode_trajectory_csv(rec):
    cols = (rec["t"], rec["alpha"].real, rec["alpha"].imag,
            rec["photon_frac"], rec["jz"], rec["order"])
    return csv_table(ODE_TRAJ_HEADER, zip(*(c.tolist() for c in cols)))


def peaks_csv(peaks):
    return csv_table(PEAKS_HEADER, peaks)


# ---------------------------------------------------------------------------
# engine assembly
# ---------------------------------------------------------------------------

def build_sim(config: RunConfig):
    grid = Grid2D(config.grid_extent_x, config.grid_extent_z,
                  config.grid_points_x, config.grid_points_z)
    sigma_y = None if math.isnan(config.sigma_y) else config.sigma_y
    sim = CondensateSim(config.params, grid,
                        envelopes=config.envelopes, trap=config.trap,
                        pump_lattice=config.pump_lattice,
                        sigma_y_mode=config.sigma_y_mode, sigma_y=sigma_y)
    if config.trap:
        k = sim.derived.wavenumber
        grid.require_encloses_cloud(k * sim.cloud.radius_x,
                                    k * sim.cloud.radius_z)
    return sim


def build_ramp(config: RunConfig):
    """Schedule from the config: linear power ramp, or linear eta ramp when
    eta_end is set (idealized mode).  Times are scaled by omega_r."""
    d = derive(config.params)
    t_ramp = config.ramp_time * d.recoil_frequency
    if not math.isnan(config.eta_end):
        return EtaRamp([(0.0, 0.0), (t_ramp, config.eta_end)]), t_ramp
    return PowerRamp(config.params, [(0.0, config.power_start),
                                     (t_ramp, config.power_end)]), t_ramp


def _auto_dt(config: RunConfig):
    """Time step in 1/omega_r: the config's dt, else 2.5e-3.

    There is no grid term: the kinetic factor is the exact spectral
    propagator, unitary for any dt, and the potential half-steps are exact,
    so the splitting error is set by the commutator of the two on the
    resolved field, i.e. by its physical momenta and potential depth, not by
    the grid's k_max.  A grid rule such as 0.05/k_max^2 only shrinks the
    step as the grid is refined.
    """
    if not math.isnan(config.dt):
        return config.dt * derive(config.params).recoil_frequency
    return 2.5e-3


def _map_points(fn, jobs, workers):
    """Yield ``fn(*job)`` for every job, in job order: serially in this
    process, or from a pool of ``workers`` processes when workers > 1."""
    if workers is None or workers <= 1:
        for job in jobs:
            yield fn(*job)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        for fut in futures:
            yield fut.result()


def point_seed(base_seed, index):
    """Deterministic independent seed stream per sweep point."""
    return int(np.random.SeedSequence([int(base_seed), int(index)])
               .generate_state(1)[0])


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _engine_boundary(run):
    """Let ConfigError and EngineError through ``run`` unchanged and report
    every other failure as EngineError carrying the run context (the engine
    only for a ramp, the one run that reads the engine key)."""
    @functools.wraps(run)
    def wrapper(config, *args, **kwargs):
        try:
            return run(config, *args, **kwargs)
        except (ConfigError, EngineError):
            raise
        except Exception as exc:
            name = run.__name__.removeprefix("run_")
            engine = f"engine={config.engine} " if name == "ramp" else ""
            raise EngineError(f"{name} failed ({type(exc).__name__}: {exc}) "
                              f"with {engine}seed={config.seed}") from exc
    return wrapper


@_engine_boundary
def run_ramp(config: RunConfig, rundir: RunDir):
    """Pump ramp with threshold detection, the one ramp pipeline of both
    engines.

    Engine per config: gpe (default) or dicke-semiclassical (what `selforg
    dicke-ode` runs).  Writes the engine's trajectory.csv, threshold.json
    and, on gpe, a field file and a peak table per snapshot power, then
    marks the "ramp" stage done.  Returns the trajectory record and the
    threshold report.
    """
    if config.engine == "dicke-semiclassical":
        rec, report = _run_ramp_ode(config)
        rundir.write("trajectory.csv", ode_trajectory_csv(rec))
    elif config.engine == "gpe":
        _require_power_ramp(config, "snapshot_powers")
        sim, rec, report = _run_ramp_gpe(config)
        rundir.write("trajectory.csv", gpe_trajectory_csv(rec))
        for i, (_, psi) in enumerate(rec["snapshots"]):
            save_field(rundir.file(f"snapshot_{i:02d}.fld"), sim.grid, psi,
                       config.params.atom_number)
            rundir.write(f"snapshot_{i:02d}_peaks.csv",
                         peaks_csv(sim.momentum_peaks(psi)))
    else:
        raise ConfigError(f"ramp needs the gpe or dicke-semiclassical "
                          f"engine, not {config.engine!r}")
    rundir.write("threshold.json",
                 json.dumps(report, indent=2, sort_keys=True) + "\n")
    rundir.stage_done("ramp")
    return rec, report


def _require_power_ramp(config, key):
    """A list of sample powers needs a power ramp: an eta ramp reports its
    power as NaN, so no sample could be placed on it."""
    if getattr(config, key) and not math.isnan(config.eta_end):
        raise ConfigError(f"{key} needs a power ramp; eta_end is set")


def _threshold(config, trajectory):
    """The config's threshold detector applied to a ramp's trajectory."""
    return detect_threshold(trajectory,
                            baseline_fraction=config.baseline_fraction,
                            floor_factor=config.floor_factor,
                            consecutive=config.consecutive)


def _run_ramp_gpe(config):
    """The gpe ramp from the start state; returns (sim, rec, report) and
    writes nothing."""
    sim = build_sim(config)
    ramp, t_ramp = build_ramp(config)
    dt = _auto_dt(config)
    psi0 = sim.initial_state(seed=config.seed, noise=config.noise_amplitude)

    snap_times = []
    if config.snapshot_powers:
        times = np.linspace(0, t_ramp, 4096)
        powers = np.array([ramp(t)[0] for t in times])
        for p_want in config.snapshot_powers:
            j = int(np.searchsorted(powers, p_want))
            snap_times.append(float(times[min(j, 4095)]))
    # the edge guard looks about every 2 recoil times, whatever the step
    rec = sim.real_time_evolve(psi0, ramp, t_ramp, dt,
                               record_every=config.record_every,
                               edge_check_every=max(1, round(2.0 / dt)),
                               snapshot_times=snap_times or None)
    report = _threshold(config, rec)
    report["oscillation"] = oscillation_metric(
        rec, config.final_window_fraction)
    return sim, rec, report


def _run_ramp_ode(config):
    """Coupling ramp 0 -> dicke_coupling over t_final, else ramp_time
    (semiclassical); returns (rec, report) and writes nothing.

    Runs in recoil units like the gpe engine: dicke_* config keys are in
    units of omega_r and the trajectory time axis is in 1/omega_r.  The
    step is the config's dt, else dicke.max_stable_dt; a dt coarser than
    that bound is an engine error.
    """
    w_r = derive(config.params).recoil_frequency
    p = dicke.DickeParams(omega=config.dicke_omega,
                          omega0=config.dicke_omega0,
                          coupling=config.dicke_coupling,
                          kappa=config.dicke_kappa,
                          n_atoms=max(1, int(config.params.atom_number)))
    t_final = (config.ramp_time if math.isnan(config.t_final)
               else config.t_final) * w_r
    lam_end = config.dicke_coupling

    def lam_of(t):
        return lam_end * min(1.0, t / t_final)

    s0 = dicke.normal_state(noise=config.noise_amplitude, seed=config.seed)
    dt = None if math.isnan(config.dt) else config.dt * w_r
    rec = dicke.integrate_semiclassical_ramp(
        s0, p, lam_of, t_final, dt=dt, record_every=config.record_every)
    report = _threshold(config, {
        "nphoton": rec["photon_frac"],
        "power": np.full_like(rec["t"], math.nan), "eta": rec["coupling"]})
    return rec, report


def _diagram_point(config, index, delta_c):
    """Worker: one detuning of the phase diagram (its own ramp)."""
    t0 = time.monotonic()
    config = replace(config, seed=point_seed(config.seed, index),
                     params=replace(config.params,
                                    pump_cavity_detuning=float(delta_c)))
    rows = []
    try:
        _, rec, report = _run_ramp_gpe(config)
        osc = report["oscillation"]
        frustrated = osc > config.oscillation_threshold
        p_cr = report["power"] if report["detected"] else math.nan
        n = len(rec["t"])
        window = max(1, int(0.01 * n))
        for p_sample in config.power_list:
            j = int(np.searchsorted(rec["power"], p_sample))
            j = min(max(j, window - 1), n - 1)
            mean_nph = float(rec["nphoton"][j - window + 1:j + 1].mean())
            thresholded = bool(report["detected"]
                               and p_sample >= p_cr - 1e-300)
            rows.append((delta_c, p_sample, config.seed, mean_nph,
                         float(rec["theta"][j]), thresholded, p_cr, osc,
                         frustrated, "ok", round(time.monotonic() - t0, 3)))
    except Exception as exc:      # persists the failure, keeps the sweep alive
        rows.append((delta_c, math.nan, config.seed, math.nan, math.nan,
                     False, math.nan, math.nan, False,
                     f"failed:{type(exc).__name__}",
                     round(time.monotonic() - t0, 3)))
        return index, rows, False
    return index, rows, True


@_engine_boundary
def run_phase_diagram(config: RunConfig, rundir: RunDir, workers=None):
    """Detuning x power sweep (each detuning is one ramp) plus the analytic
    boundary table for overlay.  Completed points are persisted immediately
    under points/; the merged sweep.csv is written in point order.  Returns
    (rows, all_ok)."""
    deltas = config.delta_c_list
    if not deltas:
        raise ConfigError("diagram runs need delta_c_list")
    caps = config.power_end_list
    if caps and len(caps) != len(deltas):
        raise ConfigError("power_end_list length must match delta_c_list")
    _require_power_ramp(config, "power_list")
    os.makedirs(rundir.file("points"), exist_ok=True)

    # analytic overlay (cheap, done first so it survives any interruption)
    if config.trap and config.params.scattering_length > 0:
        curve = boundary_curve(deltas, config.params)
        rundir.write("boundary.csv", boundary_table_csv(curve))
        rundir.stage_done("boundary")

    merged = []
    all_ok = True
    jobs = [(replace(config, power_end=caps[i]) if caps else config, i, dc)
            for i, dc in enumerate(deltas)]
    for index, rows, ok in _map_points(_diagram_point, jobs, workers):
        merged.extend(rows)
        all_ok &= ok
        rundir.write(f"points/point_{index:04d}.csv",
                     csv_table(SWEEP_HEADER, rows))
    rundir.write("sweep.csv", csv_table(SWEEP_HEADER, merged))
    rundir.stage_done("sweep")
    return merged, all_ok


# grid points per ensemble batch: a stack of (B, nx, nz) fields and its
# temporaries, about 100 bytes a point, stay within a few tens of MiB
_BATCH_POINTS = 2**18


def _mirror_shift(config):
    """Grid points in half a pump wavelength (pi in 1/k) along the cavity
    axis x: the roll that swaps the checkerboard sublattices.

    The roll is a symmetry of the run only when it moves by exactly pi (the
    extent is a whole number n of pi and points_x divides by n) and nothing
    but cos(x) depends on x (no trap, no envelopes; the trap would also see
    the start cloud moved off its centre).  ConfigError otherwise.
    """
    if config.trap or config.envelopes:
        raise ConfigError("mirrored pairs need trap = false and envelopes = "
                          "false: a shift by half a pump wavelength moves the "
                          "trap and the envelopes")
    halves = config.grid_extent_x / math.pi
    n = round(halves)
    if n < 1 or abs(halves - n) > 1e-9 * halves or config.grid_points_x % n:
        raise ConfigError(
            f"mirrored pairs need grid_extent_x to be a whole number of pi "
            f"whose count divides grid_points_x; got {halves:.6g} pi over "
            f"{config.grid_points_x} points")
    return config.grid_points_x // n


def _ensemble_batch(sim, config, eta, members, shift_x):
    """Worker: relax one batch of members, each an (index, mirrored) pair,
    as one ground_states call; returns their ensemble.csv rows."""
    seeds = [point_seed(config.seed, index) for index, _ in members]
    psi0s = []
    for seed, (_, mirrored) in zip(seeds, members):
        psi0 = sim.initial_state(seed=seed, noise=config.noise_amplitude)
        # a mirrored member's noise is shifted by half a pump wavelength
        # along the cavity axis: that swaps the checkerboard sublattices, so
        # the relaxed state must come out with the opposite sign of Theta
        psi0s.append(np.roll(psi0, shift_x, axis=0) if mirrored else psi0)
    try:
        states = sim.ground_states(
            eta, psi0s, dtau=config.dtau, tol_energy=config.gs_tol_energy,
            tol_theta=config.gs_tol_theta, max_steps=config.gs_max_steps)
    except ConvergenceError as exc:
        names = ", ".join(
            f"member {members[j][0]}{' mirrored' * members[j][1]} "
            f"(seed {seeds[j]})" for j in exc.members)
        err = ConvergenceError(f"imaginary time not converged after "
                               f"{config.gs_max_steps} steps: {names}")
        err.theta_trace = exc.theta_trace
        raise err from exc
    return [(seed, float(np.sign(gs["theta"])), gs["theta"],
             abs(gs["alpha"]) ** 2, gs["energy"], mirrored)
            for seed, (_, mirrored), gs in zip(seeds, members, states)]


def ensemble_eta(config: RunConfig):
    """Fixed pump strength for ensemble runs, from eta or power."""
    if not math.isnan(config.ensemble_eta):
        return config.ensemble_eta
    if math.isnan(config.ensemble_power):
        raise ConfigError("ensemble runs need ensemble_eta or ensemble_power")
    return eta_of_power(config.params, config.ensemble_power)


def binomial_pvalue(k, n):
    """Exact two-sided p-value of k successes in n fair trials.

    Follows scipy.stats.binomtest: the sum of the probabilities of every
    outcome no more likely than k (pmf <= pmf(k) * (1 + 1e-7)), capped at 1,
    in integer arithmetic up to the final division.
    """
    counts = [math.comb(n, i) for i in range(n + 1)]
    limit = counts[k]
    # c <= limit * (1 + 1e-7), exactly
    total = sum(c for c in counts if c * 10**7 <= limit * (10**7 + 1))
    return min(1.0, total / 2**n)


@_engine_boundary
def run_symmetry_ensemble(config: RunConfig, rundir: RunDir,
                          workers=None, mirrored_pairs=False):
    """Relax n_seeds noise realizations above threshold; tabulate sign(Theta).

    With mirrored_pairs each seed also runs with its noise shifted by half a
    pump wavelength, which must flip the sign exactly; that needs a grid
    and a model with that symmetry (ConfigError otherwise).  The members
    run as one batch per worker, each batch at most _BATCH_POINTS grid
    points.  Returns (rows, stats) where stats carries the two-sided
    binomial test of the 50/50 sign hypothesis.
    """
    eta = ensemble_eta(config)
    shift_x = _mirror_shift(config) if mirrored_pairs else 0
    sim = build_sim(config)
    members = [(i, mirrored) for i in range(config.n_seeds)
               for mirrored in ((False, True) if mirrored_pairs else (False,))]
    per_worker = math.ceil(len(members) / max(1, workers or 1))
    size = max(1, min(per_worker, _BATCH_POINTS
                      // (config.grid_points_x * config.grid_points_z)))
    jobs = [(sim, config, eta, members[k:k + size], shift_x)
            for k in range(0, len(members), size)]
    ordered = [row for rows in _map_points(_ensemble_batch, jobs, workers)
               for row in rows]
    base = [r for r in ordered if not r[5]]
    n_plus = sum(1 for r in base if r[1] > 0)
    n_minus = len(base) - n_plus
    # a sign no member took has no mean: null, as strict JSON has no NaN
    stats = {
        "n_seeds": len(base),
        "n_plus": n_plus,
        "n_minus": n_minus,
        "binomial_p": binomial_pvalue(n_plus, len(base)),
        "mean_abs_theta_plus": float(np.mean([abs(r[2]) for r in base
                                              if r[1] > 0])) if n_plus else None,
        "mean_abs_theta_minus": float(np.mean([abs(r[2]) for r in base
                                               if r[1] < 0])) if n_minus else None,
    }
    rundir.write("ensemble.csv",
                 csv_table(ENSEMBLE_HEADER + ",mirrored", ordered))
    rundir.write("ensemble_stats.json",
                 json.dumps(stats, indent=2, sort_keys=True) + "\n")
    rundir.stage_done("ensemble")
    return ordered, stats


@_engine_boundary
def run_dicke_ed(config: RunConfig, rundir: RunDir):
    """Exact-diagonalization coupling sweep; observables CSV per coupling.

    Couplings and the gap are in units of omega_r (the closed two-mode model
    is scale free, so only ratios matter).
    """
    lams = config.lambda_list or (config.dicke_coupling,)
    rows = []
    for lam in lams:
        p = dicke.DickeParams(omega=config.dicke_omega,
                              omega0=config.dicke_omega0,
                              coupling=lam,
                              n_atoms=config.dicke_n_atoms)
        obs, _ = dicke.converged_ground_state_observables(
            p, n_max_start=config.dicke_n_max)
        rows.append((lam, obs["photon_fraction"], obs["inversion"],
                     obs["order"], obs["gap"]))
    rundir.write("eigen.csv", csv_table(ED_HEADER, rows))
    rundir.stage_done("dicke-ed")
    return rows


@_engine_boundary
def run_boundary(config: RunConfig, rundir: RunDir):
    deltas = config.delta_c_list
    if not deltas:
        raise ConfigError("boundary runs need delta_c_list")
    curve = boundary_curve(deltas, config.params)
    rundir.write("boundary.csv", boundary_table_csv(curve))
    rundir.stage_done("boundary")
    return curve
