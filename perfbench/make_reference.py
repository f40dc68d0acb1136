"""Write the stored reference rows for one workload and a range of seeds.

The committed files under perfbench/reference/ were produced by the source
tree the benchmark was introduced on. Regenerate them only in a change that
means to alter results, and say so in that change:

    python3 perfbench/make_reference.py --workload sweep-p --seeds 0:64 \
        --out perfbench/reference/sweep-p.csv
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import envinfo  # noqa: E402

envinfo.pin_blas_threads()
envinfo.import_package()

import gate  # noqa: E402
import workloads  # noqa: E402
from specshare import harness  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seeds", required=True, help="start:stop, stop excluded")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    start, stop = (int(x) for x in args.seeds.split(":"))
    wl = workloads.build(args.workload)
    lines = []
    warnings.simplefilter("ignore", RuntimeWarning)
    for seed in range(start, stop):
        t0 = time.perf_counter()
        for label, spec, value in wl.jobs(seed):
            lines += [gate.reference_line(label, r) for r in harness.run_compare(spec, value)]
        print(f"{args.workload} seed {seed}: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    lines.sort(key=lambda l: (l[0], float(l[2]), l[1], int(l[3])))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(gate.REFERENCE_HEADER)
        w.writerows(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
