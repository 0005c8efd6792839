"""trajpred benchmark: one command, two seeded workloads.

    python3 bench/run.py --workload {ingest,train} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from the root of a checkout. Every run sets up its inputs from the
seed, then runs three phases against the public entry points of the
package: ingest (`cli ingest` of a sparse and a dense scene, read back),
train (`model.train` of M-LSTM) and predict (a closed-loop client of
`model.predict_multimodal`, then `cli predict` and `cli eval`). The
workload names the phase that gets the measured `--seconds`; the other
phases run a fixed amount of work, so that every metric is present on
every workload. See bench/README.md for why each workload exists and
which layer metric should move which end-to-end metric.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the phases run untraced and then traced
with the same amount of work, and it holds the per-layer metrics and the
tracing overhead. A result file with a machine note goes to
bench/results/. Exit 0 with `"correct": false` means some output failed
its check; exit 2 means the program could not be loaded or set up.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS runs single-threaded so that the `cli predict` pool (one process
# per core) and BLAS threads together stay within the core count. This
# must happen before NumPy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ingest", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs, for the smoke test")
    args = p.parse_args(argv)

    src = ROOT / "src"
    spec = ROOT / "BENCHMARK.json"
    if not (src / "trajpred" / "__init__.py").is_file() or not spec.is_file():
        print(f"bench: no trajpred sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import harness

    return harness.run(args, spec, BENCH_DIR)


if __name__ == "__main__":
    sys.exit(main())
