"""Time one cold set-up of a workload and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Run in a fresh interpreter, so the import of qkdauth and its standard
library dependencies is paid as a user of the command line pays it.  The
workload's inputs are generated before the clock starts.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, load_program


def main(argv: "list[str]") -> int:
    name, seed, workdir = argv
    w = WORKLOADS[name](int(seed), Path(workdir))
    t0 = perf_counter()
    w.q = load_program()
    w.build()
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
