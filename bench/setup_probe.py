"""Set-up of one workload in a fresh interpreter; started by bench/run.py.

Imports eikamp and, for the table workloads, loads the model file and
passes the chi gate at the workload's tolerance; then prints ``ready``.
bench/run.py times it from process start to that line.

    python3 bench/setup_probe.py WORKLOAD [MODEL_FILE]
"""

import sys

import eikamp

import workloads as W


def main(argv):
    name = argv[0]
    if name in W.TABLES:
        spec = W.TABLES[name]
        model = eikamp.load_model(argv[1])
        eikamp.build_profile(model, W.S, eikamp.QuadratureConfig(
            rel_tol=spec.rel_tol, abs_tol=spec.abs_tol))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
