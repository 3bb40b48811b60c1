"""Per-layer metrics of a traced run.

``install_probes`` registers, on a ``Tracer``, the public functions of
``gpe``, ``dicke``, ``boundary``, ``sweeps`` and ``cli`` whose time or
call count a per-layer metric needs, under every name the program calls
them by.  ``layer_metrics`` turns the aggregates of the traced rounds
into per-round figures.

Step counts come from the public calls' arguments and results (the
propagators' ``t_final``/``dt``, the ground-state ``steps``, the ODE
record), never from private helpers, so the counters stay valid when a
propagator's internals are rearranged.
"""

import inspect
import statistics
from collections import Counter

from tracer import Namespace

PROPAGATE = "gpe.propagate"


class Counts:
    """Work counted from the traced calls' arguments and results."""

    def __init__(self):
        self.n = Counter()
        self.spin_drift = 0.0
        self.overlap_peak_mib = 0.0


def install_probes(tracer, counts):
    import scipy.fft
    from selforg import boundary, cli, dicke, gpe, sweeps

    n = counts.n
    sim = gpe.CondensateSim

    def real_time(args, kwargs, rec, _):
        bound = _bind(sim.real_time_evolve, args, kwargs)
        n["real_steps"] += max(1, int(round(bound["t_final"] / bound["dt"])))

    def imaginary_time(args, kwargs, gs, _):
        n["imag_steps"] += gs["steps"]
        n["states"] += 1

    def ode(args, kwargs, rec, _):
        bound = _bind(dicke.integrate_semiclassical_ramp, args, kwargs)
        t = rec["t"]
        dt = (t[1] - t[0]) / bound.get("record_every", 1)
        n["ode_steps"] += int(round(bound["t_final"] / dt))
        s0, s1 = bound["s0"], rec["state"]
        counts.spin_drift = max(counts.spin_drift, abs(
            s1.spin_length_sq() - s0.spin_length_sq()))

    def write(args, kwargs, result, _):
        data = _bind(sweeps.RunDir.write, args, kwargs)["data"]
        n["write_bytes"] += len(data.encode() if isinstance(data, str)
                                else data)

    def overlap(args, kwargs, result, peak):
        counts.overlap_peak_mib = max(counts.overlap_peak_mib, peak)

    # gpe: FFTs only where the gpe module calls them
    fft = Namespace(scipy.fft)
    tracer.substitute(gpe, "sfft", fft)
    tracer.trace([fft], "fft2", "gpe.fft")
    tracer.trace([fft], "ifft2", "gpe.fft")
    tracer.trace([sim], "real_time_evolve", PROPAGATE, real_time)
    tracer.trace([sim], "imaginary_time_ground_state", PROPAGATE,
                 imaginary_time)
    for method in ("alpha_of", "potential", "norm", "energy"):
        tracer.trace([sim], method, f"gpe.{method}")

    # sweeps and cli
    tracer.trace([cli], "main", "cli.main")
    for fn in ("run_ramp", "run_symmetry_ensemble", "run_dicke_ed",
               "run_boundary"):
        tracer.trace([sweeps, cli], fn, "sweeps.run")
    tracer.trace([sweeps], "build_sim", "sweeps.build_sim")
    tracer.trace([sweeps], "resolve_config", "sweeps.config")
    tracer.trace([sweeps], "format_resolved", "sweeps.config")
    tracer.trace([sweeps], "parse_key_value_text", "sweeps.config")
    tracer.trace([sweeps.RunDir], "write", "sweeps.write", write)
    for fn in ("gpe_trajectory_csv", "peaks_csv"):
        tracer.trace([sweeps], fn, "sweeps.csv")
    tracer.trace([sweeps, cli], "ode_trajectory_csv", "sweeps.csv")
    tracer.trace([sweeps], "boundary_table_csv", "sweeps.csv")
    tracer.trace([sweeps], "detect_threshold", "sweeps.threshold")
    tracer.trace([sweeps], "oscillation_metric", "sweeps.threshold")

    # dicke
    tracer.trace([dicke], "build_hamiltonian", "dicke.hamiltonian")
    tracer.trace([dicke], "ground_state", "dicke.eigensolve")
    tracer.trace([dicke], "ground_state_observables", "dicke.cutoff")
    tracer.trace([dicke], "converged_ground_state_observables",
                 "dicke.coupling")
    tracer.trace([dicke], "integrate_semiclassical_ramp", "dicke.ode", ode)
    tracer.trace([dicke], "semiclassical_rhs", "dicke.rhs")

    # boundary
    tracer.trace([boundary], "overlap_integrals", "boundary.overlap",
                 overlap, measure_memory=True)
    tracer.trace([boundary, sweeps], "boundary_curve", "boundary.curve")
    tracer.trace([boundary, sweeps], "thomas_fermi", "boundary.thomas_fermi")


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, counts, rounds, setup_phases):
    """Per-round per-layer figures from ``rounds`` traced rounds."""
    total, self_s, calls, pcalls = (tracer.total_s, tracer.self_s,
                                    tracer.calls, tracer.parent_calls)
    n = counts.n
    steps = n["real_steps"] + n["imag_steps"]

    def per_round(value):
        return value / rounds

    return {
        "gpe.fft_s": (per_round(self_s["gpe.fft"]), "s"),
        "gpe.fft_per_step": (
            _ratio(pcalls[(PROPAGATE, "gpe.fft")], steps), "count"),
        "gpe.propagate_self_s": (per_round(self_s[PROPAGATE]), "s"),
        "gpe.alpha_of_s": (per_round(total["gpe.alpha_of"]), "s"),
        "gpe.alpha_per_step": (
            _ratio(pcalls[(PROPAGATE, "gpe.alpha_of")], steps), "count"),
        "gpe.potential_s": (per_round(self_s["gpe.potential"]), "s"),
        "gpe.norm_s": (per_round(self_s["gpe.norm"]), "s"),
        "gpe.energy_s": (per_round(total["gpe.energy"]), "s"),
        "gpe.energy_per_step": (
            _ratio(pcalls[(PROPAGATE, "gpe.energy")], steps), "count"),
        "gpe.imag_steps_per_state": (
            _ratio(n["imag_steps"], n["states"]), "count"),
        "sweeps.build_sim_per_state": (
            _ratio(calls["sweeps.build_sim"], n["states"]), "count"),
        "sweeps.build_sim_s": (per_round(total["sweeps.build_sim"]), "s"),
        "sweeps.config_s": (per_round(total["sweeps.config"]), "s"),
        "sweeps.csv_s": (per_round(total["sweeps.csv"]), "s"),
        "sweeps.write_s": (per_round(total["sweeps.write"]), "s"),
        "sweeps.write_mib": (per_round(n["write_bytes"]) / 2**20, "MiB"),
        "sweeps.threshold_s": (per_round(total["sweeps.threshold"]), "s"),
        "dicke.hamiltonian_s": (per_round(total["dicke.hamiltonian"]), "s"),
        "dicke.eigensolve_s": (per_round(total["dicke.eigensolve"]), "s"),
        "dicke.cutoffs_per_coupling": (
            _ratio(calls["dicke.cutoff"], calls["dicke.coupling"]), "count"),
        "dicke.ode_self_s": (per_round(self_s["dicke.ode"]), "s"),
        "dicke.rhs_s": (per_round(total["dicke.rhs"]), "s"),
        "dicke.rhs_per_step": (
            _ratio(pcalls[("dicke.ode", "dicke.rhs")], n["ode_steps"]),
            "count"),
        "dicke.spin_length_drift": (counts.spin_drift, "1"),
        "boundary.overlap_s": (per_round(total["boundary.overlap"]), "s"),
        "boundary.curve_s": (per_round(self_s["boundary.curve"]), "s"),
        "boundary.overlap_peak_mib": (counts.overlap_peak_mib, "MiB"),
        "setup.import_s": (statistics.median(
            p["import_s"] for p in setup_phases), "s"),
        "setup.build_s": (statistics.median(
            p["build_s"] for p in setup_phases), "s"),
    }
