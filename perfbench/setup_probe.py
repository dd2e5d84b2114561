"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Prints the seconds from before ``import bornexact`` until the workload's
media are built and their lazy caches filled.  ``run.py`` starts this
several times per run and reports the median as ``setup_s``.
"""

import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import bootstrap

    bootstrap.prepare()
    import bornexact

    bootstrap.check_imported(bornexact)
    from pathlib import Path

    import workloads

    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    workloads.WORKLOADS[name].setup(seed, out_dir)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
