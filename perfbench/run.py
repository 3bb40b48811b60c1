"""selforg benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ramp-256, ensemble-32, dicke-boundary (see README.md).  The
run first starts the program in a few fresh processes, one at a time, to
time set-up.  It then repeats rounds of the workload's fixed work until
``--seconds`` have passed and reports the median round.  With
``--trace 1`` untraced and traced rounds alternate; the per-layer figures
come from the traced rounds and the overhead from comparing the two.
Finally it checks the outputs and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BLAS and OpenMP run on one thread, and nothing else runs while a round
is timed.  Exit code 2: the checkout holds no program under src/.
"""

import os

# before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse     # noqa: E402
import json         # noqa: E402
import resource     # noqa: E402
import statistics   # noqa: E402
import subprocess   # noqa: E402
import sys          # noqa: E402
import time         # noqa: E402

import layers       # noqa: E402
import workloads    # noqa: E402
from tracer import Tracer   # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run of the same "
                             "code paths (used by the benchmark's tests)")
    parser.add_argument("--out", default=OUT,
                        help="directory for run outputs and the trace")
    return parser.parse_args(argv)


def setup_phases(workload, probes):
    """Wall time and phase times of ``probes`` fresh program starts."""
    spec = dict(workload.setup_spec(), src=workloads.SRC,
                seed=workload.prog_seed)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           json.dumps(spec)]
    walls, phases = [], []
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        phases.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return walls, phases


def run(args):
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.out, tiny=args.size == "tiny")
    workload.reset()
    probes = SETUP_PROBES if args.size == "full" else 1
    setup_walls, phases = setup_phases(workload, probes)

    tracer = Tracer()
    counts = layers.Counts()
    if args.trace:
        layers.install_probes(tracer, counts)
    times = {False: [], True: []}      # traced -> round wall times
    attempted = failed = 0
    digests = set()
    start = None
    t_warm = time.perf_counter()
    while True:
        # the first round only warms up (first calls, caches, allocator)
        # and is left out of the figures; the measuring window follows it
        warm_up = start is None
        traced = not warm_up and bool(args.trace) \
            and len(times[False]) > len(times[True])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            results = workload.round()
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
        if warm_up:
            start = t1
        else:
            times[traced].append(t1 - t0)
        attempted += workload.ops
        faults = workload.faults(results)
        failed += len(faults)
        digests.add(workload.digest(results))
        enough = time.perf_counter() - start >= args.seconds
        if enough and times[False] and (not args.trace or times[True]):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"warm-up round {start - t_warm:.3f} s; rounds (s): " + " ".join(
        f"{t:.3f}{'*' if traced else ''}" for traced in (False, True)
        for t in times[traced]) + "   set-up (s): "
        + " ".join(f"{t:.3f}" for t in setup_walls), file=sys.stderr)

    for op, fault in sorted(faults.items()):
        print(f"operation {op} failed: {fault}", file=sys.stderr)
    problems = workload.check(results, faults)
    if len(digests) != 1:
        problems.append(f"rounds wrote {len(digests)} different sets of "
                        "data files from the same inputs")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = layers.layer_metrics(tracer, counts, len(times[True]),
                                       phases)
        untraced = statistics.median(times[False])
        overhead = statistics.median(times[True]) / untraced - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        tracer.write(os.path.join(workload.out_dir, "trace.jsonl"), {
            "workload": args.workload, "seed": args.seed,
            "untraced_rounds_s": times[False],
            "traced_rounds_s": times[True],
            "metrics": {k: v for k, (v, _) in metrics.items()}})
    else:
        metrics = {
            "wall_s": (statistics.median(times[False]), "s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
