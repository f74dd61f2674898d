"""Re-measure the ROADMAP baseline table with the benchmark's timer.

    python3 bench/baseline.py --seed 1 [--out bench/BASELINE.json]

Times the rows of the baseline table this benchmark can run (operator
forms at their default tolerance and sweep limit, and the pair study at
1 and 2 threads) and records the environment: python and numpy versions,
git commit, processor count and last-level cache size.  The result is
merged into the ``roadmap_rows`` and ``environment`` fields of the
output file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from rectfrac import (ExponentConfig, GridConfig, gen_cascade,  # noqa: E402
                      operator_norm_lower)
from rectfrac.studies import (kernel_equiv_study,  # noqa: E402
                              sample_distinct_pairs)

# (form, dims, depth); the (1,1) K=5 kernel row is left out, as in the
# ROADMAP, because its dense matrix needs 680 MB.
ROWS = (
    ("dyadic", (1, 1), 5), ("perez", (1, 1), 5), ("shifted-sum", (1, 1), 5),
    ("shifted-sum", (1, 1), 4), ("kernel", (1, 1), 4), ("kernel", (1,), 10),
)


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.CalledProcessError):
        llc = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "git_sha": sha, "nproc": os.cpu_count(),
            "llc_bytes": llc, "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args()

    rows = []
    for form, dims, K in ROWS:
        mu = gen_cascade(GridConfig(dims, K), 2.0, args.seed)
        ec = ExponentConfig.hls(0.5, 4 / 3, mu.config.total_dim)
        t0 = time.perf_counter()
        est = operator_norm_lower(mu, ec.alpha, ec.p, ec.q, form)
        rows.append({"what": f"operator_norm_lower {form} {list(dims)} K={K}",
                     "seconds": time.perf_counter() - t0,
                     "sweeps": est.sweeps, "converged": est.converged})
        print(rows[-1], file=sys.stderr)
    mu = gen_cascade(GridConfig((1, 1), 6), 2.0, args.seed)
    pairs = sample_distinct_pairs(mu.config, 4000, args.seed)
    for threads in (1, 2):
        t0 = time.perf_counter()
        kernel_equiv_study(mu, 0.5, pairs, threads=threads)
        rows.append({"what": f"kernel_equiv_study 4000 pairs [1, 1] K=6 "
                             f"threads={threads}",
                     "seconds": time.perf_counter() - t0})
        print(rows[-1], file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["environment"] = environment()
    doc["roadmap_rows"] = {"seed": args.seed, "rows": rows}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
