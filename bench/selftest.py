"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that BENCHMARK.json and metrics.py agree, that every workload in
both trace modes prints every metric with its unit, that deliberately
perturbed results raise the failure count (so the checks cannot pass
without checking), and that the benchmark refuses to run without the
library sources.  Exit status 0 iff every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import metrics  # noqa: E402
from run import run_pass  # noqa: E402
from workloads import WORKLOADS, work_dir  # noqa: E402

RESULTS: list[tuple[str, bool, str]] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append((name, bool(ok), detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = metrics.benchmark_spec()
    expect("BENCHMARK.json end_to_end matches metrics.py",
           spec["end_to_end"] == want["end_to_end"])
    expect("BENCHMARK.json per_layer matches metrics.py",
           spec["per_layer"] == want["per_layer"])
    expect("BENCHMARK.json workloads match workloads.py",
           [w["name"] for w in spec["workloads"]] == list(WORKLOADS))


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_emitted() -> None:
    for name in WORKLOADS:
        for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            proc = run_benchmark(ROOT, "--workload", name, "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace),
                                 "--tiny")
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(f"{label} exits 0", False, proc.stderr[-400:])
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(f"{label} result keys",
                   set(doc) == {"correct", "attempted", "failed", "metrics"})
            expect(f"{label} attempted >= 1", doc["attempted"] >= 1)
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            want = {m[0]: m[1] for m in table}
            expect(f"{label} emits every metric with its unit", got == want,
                   f"missing {sorted(set(want) - set(got))}" if got != want
                   else "")
            expect(f"{label} values are numbers", all(
                isinstance(v["value"], (int, float))
                for v in doc["metrics"].values()))


def check_perturbations() -> None:
    ff = WORKLOADS["frac-forms"]
    inputs = ff.build(0, tiny=True)
    results, _ = run_pass(ff.tasks(inputs))
    _, base, _, _ = ff.check(inputs, results)
    expect("frac-forms: tiny run passes its checks", base == 0, str(base))
    results[0].value *= 1.01
    _, failed, _, _ = ff.check(inputs, results)
    expect("frac-forms: a bound scaled by 1.01 fails", failed == base + 1,
           f"{base} -> {failed}")

    wa = WORKLOADS["weight-audit"]
    inputs = wa.build(0, tiny=True)
    try:
        results, _ = run_pass(wa.tasks(inputs))
        _, base, _, _ = wa.check(inputs, results)
        expect("weight-audit: tiny run passes its checks", base == 0,
               str(base))
        results[1] = 1
        _, failed, _, _ = wa.check(inputs, results)
        expect("weight-audit: a non-zero exit fails", failed == base + 1,
               f"{base} -> {failed}")
    finally:
        wa.cleanup(inputs)

    ps = WORKLOADS["pair-study"]
    inputs = ps.build(0, tiny=True)
    results, _ = run_pass(ps.tasks(inputs))
    _, base, _, _ = ps.check(inputs, results)
    n_pairs = sum(len(p) for _, _, p in inputs["studies"])
    n_cascade = sum(len(p) for label, _, p in inputs["studies"]
                    if label.startswith("cascade"))
    from rectfrac.weights import Weight
    real_mass = Weight.mass
    with mock.patch.object(Weight, "mass", lambda self, t:
                           real_mass(self, t) * (1 + 1e-9)):
        _, failed, imprecise, _ = ps.check(inputs, results)
    expect("pair-study: box masses off by 1e-9 miss the precision on "
           "every pair", failed + imprecise >= n_pairs,
           f"{failed} + {imprecise} of {n_pairs} pairs")
    with mock.patch.object(Weight, "mass", lambda self, t:
                           real_mass(self, t) + self.cell_masses.min()):
        _, failed, _, _ = ps.check(inputs, results)
    expect("pair-study: box masses off by the lightest cell fail every "
           "cascade pair", failed >= n_cascade,
           f"{base} -> {failed} of {n_cascade} cascade pairs")
    results[-1]["failures"].append({"level": 0, "index": [0]})
    _, failed, _, _ = ps.check(inputs, results)
    expect("pair-study: a shift-cover failure counts", failed == base + 1,
           f"{base} -> {failed}")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and bench/: must exit non-zero, print no result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_dir()))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run_benchmark(bare, "--workload", "pair-study", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        expect("bare directory exits non-zero", proc.returncode != 0)
        expect("bare directory prints no result", '"metrics"' not in
               proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_spec()
    check_perturbations()
    check_emitted()
    check_bare_directory()
    failed = [name for name, ok, _ in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-test checks "
          f"passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
