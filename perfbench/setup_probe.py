"""Time one fresh-interpreter set-up of a workload: import curvlab and
build every spec the workload uses.  Prints the seconds as the only line.

    python3 perfbench/setup_probe.py chart-cpn5
"""

import sys
import time

import workloads


def main() -> None:
    name = sys.argv[1]
    t0 = time.perf_counter()
    workloads.import_curvlab()
    workloads.build_specs(name)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
