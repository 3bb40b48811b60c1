"""Command-line front end.

    selforg SUBCOMMAND [--config PATH] [--out DIR] [--seed U64]
                       [--workers N] [--override key=value ...]

Subcommands: ramp, diagram, ensemble, boundary, dicke-ed, dicke-ode.
dicke-ode is the ramp on the dicke-semiclassical engine: it runs and writes
what `ramp --override engine=dicke-semiclassical` does.
Exit codes: 0 success, 2 config error, 3 engine failure, 4 partial
completion (some sweep points failed; completed points are persisted).
Every failure exits 2, 3 or 4 without a traceback.  A config that does not
load or an output directory that cannot be made exits 2 at once; every
later failure also writes manifest.json with its status (config-error,
engine-failure or partial), a config error or engine failure also with
its message under "error", and a partial sweep with each failed point's
"ExcName: message" under "failed_points" (by point index).
All behavior is controlled by flags and the config file; no environment
variables are read.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

from .params import ParameterError
# ode_trajectory_csv is unused here but traced on this module by
# perfbench/layers.py
from .sweeps import (ConfigError, EngineError, RunDir, default_config,
                     load_config, run_boundary, run_dicke_ed,
                     run_phase_diagram, run_ramp, run_symmetry_ensemble,
                     ode_trajectory_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3
EXIT_PARTIAL = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="selforg",
        description="Self-organization of a pumped BEC in a lossy cavity: "
                    "ramps, phase diagrams, symmetry ensembles and Dicke "
                    "engines.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key=value config file (SI units)")
    common.add_argument("--out", metavar="DIR", default="selforg-run",
                        help="output directory (created if missing)")
    common.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="base seed for all stochastic choices")
    common.add_argument("--workers", type=int, default=os.cpu_count(),
                        metavar="N", help="worker processes for sweeps; an "
                        "ensemble runs one batch of members per worker")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key "
                        "(repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ramp", parents=[common],
                   help="pump ramp with threshold detection (Fig.-3a-style)")
    sub.add_parser("diagram", parents=[common],
                   help="detuning x power sweep with analytic boundary overlay")
    sub.add_parser("ensemble", parents=[common],
                   help="seed ensemble of ground states; sign statistics")
    sub.add_parser("boundary", parents=[common],
                   help="analytic phase-boundary table over detuning")
    sub.add_parser("dicke-ed", parents=[common],
                   help="exact-diagonalization coupling sweep")
    sub.add_parser("dicke-ode", parents=[common],
                   help="semiclassical Dicke trajectory")
    return parser


def _load(args):
    if args.config:
        return load_config(args.config, overrides=args.override,
                           seed=args.seed)
    return default_config(overrides=args.override, seed=args.seed)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "dicke-ode":
            # the echo names the engine that runs, so it reloads as this run
            config = replace(config, engine="dicke-semiclassical")
        rundir = RunDir(args.out, config, command=" ".join(
            argv if argv is not None else sys.argv[1:]))
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"selforg: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "ramp":
            _, report = run_ramp(config, rundir)
            if not report.get("detected"):
                print("no threshold detected")
            elif math.isnan(report["power"]):   # an eta or coupling ramp
                print(f"threshold detected at eta = {report['eta']:.6g}")
            else:
                print(f"threshold detected at P = {report['power']:.6g} W")
        elif args.command == "diagram":
            rows, all_ok = run_phase_diagram(config, rundir,
                                             workers=args.workers)
            print(f"swept {len(config.delta_c_list)} detunings, "
                  f"{len(rows)} records")
            if not all_ok:
                rundir.finish("partial")
                failed = ", ".join(map(str, sorted(rundir.failed_points)))
                print(f"selforg: sweep points {failed} failed (errors in "
                      "manifest.json); completed points are persisted",
                      file=sys.stderr)
                return EXIT_PARTIAL
        elif args.command == "ensemble":
            _, stats = run_symmetry_ensemble(config, rundir,
                                             workers=args.workers)
            print(f"signs: +{stats['n_plus']} / -{stats['n_minus']}, "
                  f"binomial p = {stats['binomial_p']:.4g}")
        elif args.command == "boundary":
            curve = run_boundary(config, rundir)
            n_real = sum(1 for pt in curve if pt.transition_exists)
            print(f"boundary table: {len(curve)} detunings, "
                  f"{n_real} with a real threshold")
        elif args.command == "dicke-ed":
            rows = run_dicke_ed(config, rundir)
            print(f"diagonalized {len(rows)} couplings")
        elif args.command == "dicke-ode":
            rec, _ = run_ramp(config, rundir)
            print(f"integrated {len(rec['t'])} samples")
    except ConfigError as exc:
        print(f"selforg: config error: {exc}", file=sys.stderr)
        rundir.finish("config-error", error=str(exc))
        return EXIT_CONFIG
    except EngineError as exc:
        print(f"selforg: engine failure: {exc}", file=sys.stderr)
        rundir.finish("engine-failure", error=str(exc))
        return EXIT_ENGINE
    rundir.finish("ok")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
