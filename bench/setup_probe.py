"""Time one workload's set-up in this fresh interpreter and print seconds.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SIZE

Set-up is ``import spinhl`` (plus ``spinhl.cli`` and ``build_parser()`` for
verify_all) and sampling the workload's inputs, up to the first job.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (does not import spinhl)

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = perf_counter()
    workloads.setup(name, seed, size)
    print(repr(perf_counter() - start))
