"""One fresh ``selforg`` start: import the program, resolve a workload's
config and build its first engine object.

    python3 setup_probe.py '<json spec>'

The spec holds ``src`` (the checkout's src/ directory), ``overrides``
(config key=value strings), ``seed`` and ``engine`` ("sim" for a
``CondensateSim``, "dicke" for the first Dicke Hamiltonian).  Prints the
phase times as one JSON line.  Only the standard library is imported
before the program, so the import time is what a ``selforg`` start pays.
"""

import json
import sys
import time


def main(spec):
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    from selforg import cli, dicke, sweeps     # noqa: F401 (cli: full start)
    t1 = time.perf_counter()
    config = sweeps.default_config(spec["overrides"], seed=spec["seed"])
    t2 = time.perf_counter()
    if spec["engine"] == "dicke":
        p = dicke.DickeParams(omega=config.dicke_omega,
                              omega0=config.dicke_omega0,
                              coupling=config.lambda_list[0],
                              n_atoms=config.dicke_n_atoms)
        dicke.build_hamiltonian(p, config.dicke_n_max)
    else:
        sweeps.build_sim(config)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1,
                      "build_s": t3 - t2}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
