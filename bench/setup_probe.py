"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <output dir>

Set-up is importing cellspaces from the checkout's ``src``, building the
space and generating the inputs of all 8 variants at the workload's
largest size. Prints the
seconds it took.
"""

import sys
import time

import workloads
from run import import_cellspaces


def main() -> None:
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = workloads.WORKLOADS[name]
    start = time.perf_counter()
    cs = import_cellspaces()
    workloads.setup_variants(cs, workload, seed, workload.sizes[-1], outdir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
