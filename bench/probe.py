"""One set-up of the program, for the set-up time that run.py measures.

Usage: python3 bench/probe.py ROOT WORKLOAD WORKDIR

Imports the program from ROOT/src as run.py does, runs the workload's
warm-up op and, once the first timed op could start, prints ``ready`` and the
CPU seconds this process has used since it started.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main():
    root, workload, workdir = sys.argv[1:4]
    program, _ = workloads.load_program(root)
    workloads.warm_up(program, workload, workdir)
    print(f"ready {time.process_time()!r}", flush=True)


if __name__ == "__main__":
    main()
