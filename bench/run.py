"""rectfrac benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload frac-forms --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics with the library untouched.
It alternates three set-up probes (each a fresh process that imports the
package and builds the workload's inputs) with a whole pass over the task
list until ``--seconds`` have passed:

* ``setup_s``: the fastest set-up probe;
* ``wall_s``: the sum over tasks of each task's fastest time, i.e. one
  pass at the machine's best observed speed;
* ``peak_rss_mb``: the process's peak resident memory after the passes.

Fastest rather than median: on a shared host the same work runs in two
speed states about 1.5x apart that switch within a second, so a median
over one run measures the host's state more than the program, and the
set-up probe, being short, needs many tries to see the fast state.

``--trace 1`` alternates untraced passes with passes in which every
listed library function is wrapped in spans (see tracer.py), twice, then
runs the apply probes; it reports the per-layer metrics, the per-group
times of the untraced passes and the tracing overhead (traced minus
untraced, each as a sum of per-task fastest times).
Spans are written to ``bench/_work/spans-<workload>.jsonl``.

Every run checks the outputs of its last untraced pass; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts wrong outputs only; pairs whose masses are right to
within rounding but miss 1e-12 relative are reported by the traced run
(``error_rate``, ``checks.mass_misses``), see checks.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded closed loop: pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS_PER_PASS = 3


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "rectfrac" / "__init__.py").is_file():
        sys.exit(f"error: no rectfrac sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import rectfrac
    if Path(rectfrac.__file__).resolve().parent != SRC / "rectfrac":
        sys.exit(f"error: imported rectfrac from {rectfrac.__file__}")


def run_pass(tasks):
    """Run every task once, in order; return the results and per-task seconds."""
    results, times = [], []
    for task in tasks:
        t0 = time.perf_counter()
        results.append(task.run())
        times.append(time.perf_counter() - t0)
    return results, times


def fastest(best, times):
    """Per-task minimum over the passes seen so far."""
    return [min(b, t) for b, t in zip(best, times)] if best else list(times)


def setup_once(workload: str, seed: int, tiny: bool) -> float:
    """Wall time of a fresh process that only imports and builds the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    if tiny:
        argv.append("--tiny")
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_metrics(wl, inputs, args):
    """Alternate set-up probes and a pass until ``--seconds`` have passed."""
    tasks = wl.tasks(inputs)
    setups, walls, best = [], [], []
    start = time.perf_counter()
    while True:
        setups += [setup_once(wl.name, args.seed, args.tiny)
                   for _ in range(SETUPS_PER_PASS)]
        results, times = run_pass(tasks)
        walls.append(sum(times))
        best = fastest(best, times)
        if time.perf_counter() - start >= args.seconds:
            break
        results = None
    rss = peak_rss_mb()
    print(f"passes: {' '.join(f'{w:.3f}' for w in walls)} s; set-ups: "
          f"{' '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    for task, t in zip(tasks, best):
        print(f"fastest {t:.3f} s  {task.label}", file=sys.stderr)
    metrics = {"setup_s": min(setups), "wall_s": sum(best),
               "peak_rss_mb": rss}
    return results, metrics


def traced_metrics(wl, inputs, args):
    """Untraced and traced passes, alternated twice; per-task minimum of each."""
    from metrics import derived_layer_metrics
    from tracer import Tracer
    from workloads import work_dir

    tasks = wl.tasks(inputs)
    plain, traced = [], []
    for _ in range(2):
        results, times = run_pass(tasks)
        plain = fastest(plain, times)
        tracer = Tracer()
        with tracer.patched():
            _, times = run_pass(tasks)
        traced = fastest(traced, times)
    if hasattr(wl, "probes"):
        wl.probes(inputs, tracer)
    layer = tracer.layer_metrics()
    groups = {}
    for task, t in zip(tasks, plain):
        groups[task.group] = groups.get(task.group, 0.0) + t
    pairs = sum(t.count for t in tasks if t.group == "pairs_s")
    layer.update(derived_layer_metrics(groups, pairs))
    layer["trace.overhead_s"] = sum(traced) - sum(plain)
    tracer.write(work_dir() / f"spans-{wl.name}.jsonl")
    return results, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    args = parser.parse_args(argv)

    _import_library()
    from metrics import format_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed, tiny=args.tiny)
    try:
        if args.setup_only:
            return 0
        if args.trace:
            results, metrics = traced_metrics(wl, inputs, args)
        else:
            results, metrics = untraced_metrics(wl, inputs, args)
        attempted, failed, imprecise, notes = wl.check(inputs, results)
        if args.trace:
            metrics["error_rate"] = (failed + imprecise) / attempted
            metrics["checks.mass_misses"] = imprecise
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(inputs)
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": format_metrics(metrics, traced=args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
