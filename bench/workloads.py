"""The three benchmark workloads: inputs from a seed, a task list, checks.

Each workload is a closed loop: one caller runs its tasks in a fixed
order, single-threaded.  ``build`` makes every input from the seed (the
library receives only those inputs), ``tasks`` lists the timed calls,
``check`` verifies their outputs outside the timed region and returns
(operations attempted, operations failed, operations imprecise, notes).
An operation is one bound, one CLI call, one pair or one shift-cover
cube; an imprecise one is a pair whose box masses are right to within
rounding but miss ``checks.MASS_RTOL`` (see checks.py).

Timed calls look the library function up on its module at call time, so
the traced run's rebinding reaches them.

``tiny=True`` shrinks every size for the self-test; the benchmark itself
always runs the full sizes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rectfrac import (ExponentConfig, GridConfig, GridFunction,
                      apply_frac_dyadic, apply_frac_kernel, apply_perez, cli,
                      estimators, gen_cascade, gen_power, load_weight,
                      min_rect, product_minimal, rect_box, studies)
from rectfrac.studies import sample_distinct_pairs, scale_pairs

import checks

ALPHA = 0.5
P = 4.0 / 3.0
RHO = 2.0


@dataclass
class Task:
    label: str                   # for the per-task log on standard error
    group: str                   # the timing metric this task adds to
    run: Callable[[], object]
    count: int = 1               # pairs handled, for pairs_per_s


def _derive(seed: int, k: int) -> int:
    """Independent child seed ``k`` of the run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# frac-forms


# (form, dims, depth, weight, max_sweeps).  Every row stops at a fixed
# sweep budget below its convergence point, so every seed does the same
# work (run to convergence, the sweep counts of the cascade rows vary up
# to 4x between seeds), and a pass is short enough to repeat several
# times in one run.
FRAC_ROWS = (
    ("dyadic", (1, 1), 7, "cascade", 10),
    ("dyadic", (1, 1, 1), 3, "cascade", 10),
    ("perez", (1, 1), 5, "cascade", 8),
    ("perez", (1, 1, 1), 3, "cascade", 5),
    ("perez", (1,), 10, "power", 30),
    ("shifted-sum", (1, 1), 4, "cascade", 8),
    ("shifted-sum", (1,), 10, "power", 15),
    ("kernel", (1, 1), 4, "cascade", 8),
    ("kernel", (1,), 10, "cascade", 20),
)
TINY_DEPTH = {(1,): 5, (1, 1): 3, (1, 1, 1): 2}
# The shifted-sum probe is apply_frac_dyadic summed over all 3**N shifts.
PROBE_NAMES = {"dyadic": "dyadic", "perez": "perez", "kernel": "kernel",
               "shifted-sum": "shifted"}


class FracForms:
    name = "frac-forms"

    def build(self, seed: int, tiny: bool = False) -> dict:
        weights = {}
        rows = []
        for form, dims, K, kind, cap in FRAC_ROWS:
            if tiny:
                K, cap = TINY_DEPTH[dims], min(cap, 5)
            key = (kind, dims, K)
            if key not in weights:
                cfg = GridConfig(dims, K)
                if kind == "power":
                    weights[key] = gen_power(cfg, (6,) * len(dims),
                                             centers=(0.5,) * len(dims))
                else:
                    weights[key] = gen_cascade(cfg, RHO,
                                               _derive(seed, len(weights)))
                weights[key].prefix
            rows.append((form, dims, K, kind, cap, weights[key]))
        return {"rows": rows}

    def tasks(self, inputs) -> list[Task]:
        out = []
        for form, dims, K, kind, cap, mu in inputs["rows"]:
            ec = ExponentConfig.hls(ALPHA, P, mu.config.total_dim)

            def run(mu=mu, ec=ec, form=form, cap=cap):
                return estimators.operator_norm_lower(
                    mu, ec.alpha, ec.p, ec.q, form, max_sweeps=cap)
            out.append(Task(f"{form} {dims} K={K} {kind}",
                            f"bound_s.{form}", run))
        return out

    def check(self, inputs, results):
        attempted, failed, notes = 0, 0, []
        for (form, dims, K, kind, cap, mu), est in zip(inputs["rows"],
                                                      results):
            ec = ExponentConfig.hls(ALPHA, P, mu.config.total_dim)
            attempted += 1
            problems = checks.check_bound(mu, form, ec.alpha, ec.p, ec.q,
                                          est)
            if problems:
                failed += 1
                notes.append(f"{form} {dims} K={K}: {'; '.join(problems)}")
        return attempted, failed, 0, notes

    def probes(self, inputs, tracer) -> None:
        """One apply per form on each distinct size that form is bounded at."""
        seen = set()
        for form, dims, K, kind, cap, mu in inputs["rows"]:
            if (form, kind, dims, K) in seen:
                continue
            seen.add((form, kind, dims, K))
            f = GridFunction.ones(mu.config)
            with tracer.span(f"operators.apply_s.{PROBE_NAMES[form]}"):
                if form == "dyadic":
                    outs = [apply_frac_dyadic(mu, ALPHA, f,
                                              return_diagnostics=True)]
                elif form == "perez":
                    outs = [apply_perez(mu, ALPHA, f, return_diagnostics=True)]
                elif form == "kernel":
                    outs = [apply_frac_kernel(mu, ALPHA, f,
                                              return_diagnostics=True)]
                else:
                    outs = [apply_frac_dyadic(mu, ALPHA, f, tau,
                                              return_diagnostics=True)
                            for tau in itertools.product(
                                (-1, 0, 1), repeat=mu.config.total_dim)]
            for _, diag in outs:
                tracer.count("operators.skipped_terms", diag["skipped_terms"])
                tracer.count("operators.excluded_pairs",
                             diag["excluded_pairs"])


# ---------------------------------------------------------------------------
# weight-audit


AUDIT_WEIGHTS = (
    # (file stem, gen-weight arguments, depth, seeded)
    ("cascade2", ["--kind", "cascade", "--dims", "1,1", "--rho", "2"], 7,
     True),
    ("cascade3", ["--kind", "cascade", "--dims", "1,1,1", "--rho", "2"], 4,
     True),
    ("power1", ["--kind", "power", "--dims", "1", "--exponents", "6"], 12,
     False),
)
# Sweep budgets below the cascade weights' convergence points, so every
# seed does the same work (unbounded, carleson alone varies 2x by seed).
AUDIT_SWEEPS = {"carleson": 20, "embed-norm": 4, "hls": 12}
TINY_AUDIT_DEPTH = {"cascade2": 3, "cascade3": 3, "power1": 5}


class WeightAudit:
    name = "weight-audit"

    def build(self, seed: int, tiny: bool = False) -> dict:
        """CLI argument lists, plus each weight built in memory for the check."""
        work = Path(tempfile.mkdtemp(prefix="audit-", dir=work_dir()))
        calls, expected = [], []
        for i, (stem, gen_args, K, seeded) in enumerate(AUDIT_WEIGHTS):
            if tiny:
                K = TINY_AUDIT_DEPTH[stem]
            wseed = _derive(seed, i) % (1 << 31)
            path = str(work / f"{stem}.json")
            depths = f"{K - 2}:{K}"
            gen = ["gen-weight", *gen_args, "--depth", str(K), "--out", path]
            if seeded:
                gen += ["--seed", str(wseed)]
            calls.append(("gen-weight", stem, gen))
            cfg = GridConfig(tuple(int(d) for d in gen_args[3].split(",")), K)
            if seeded:
                w = gen_cascade(cfg, RHO, wseed)
            else:
                w = gen_power(cfg, (6.0,))
            w.prefix
            expected.append((path, w))
            for cmd, extra in (
                    ("check-weight", []),
                    ("fp", ["--alpha", "0.5", "--p", "4/3"]),
                    ("carleson", ["--p", "2", "--q", "4"]),
                    ("embed-norm", ["--exponents", "2,2",
                                    "--kernel-seed", str(wseed)]),
                    ("hls", ["--alpha", "0.5", "--p", "4/3",
                             "--form", "dyadic"])):
                if cmd in AUDIT_SWEEPS:
                    extra += ["--depths", depths,
                              "--max-sweeps", str(AUDIT_SWEEPS[cmd])]
                out = str(work / f"{stem}.{cmd}.json")
                src = ["--weights", f"{path},{path}"] if cmd == "embed-norm" \
                    else ["--weight", path]
                calls.append((cmd, stem, [cmd, *src, *extra, "--out", out]))
        return {"work": work, "calls": calls, "expected": expected}

    def tasks(self, inputs) -> list[Task]:
        out = []
        for cmd, stem, argv in inputs["calls"]:
            group = f"sweep_s.{cmd}" if cmd in AUDIT_SWEEPS else "cli_s"
            out.append(Task(f"{cmd} {stem}", group,
                            lambda argv=argv: _run_cli(argv)))
        return out

    def check(self, inputs, results):
        attempted, failed, notes = 0, 0, []
        for (cmd, stem, argv), code in zip(inputs["calls"], results):
            attempted += 1
            problem = f"exit {code}" if code != 0 else None
            if problem is None and cmd == "gen-weight":
                path = argv[argv.index("--out") + 1]
                w = dict(inputs["expected"])[path]
                if not np.array_equal(load_weight(path).density, w.density):
                    problem = "weight file differs from the generator"
            if problem:
                failed += 1
                notes.append(f"{cmd} {stem}: {problem}")
        return attempted, failed, 0, notes

    def cleanup(self, inputs) -> None:
        shutil.rmtree(inputs["work"], ignore_errors=True)


def _run_cli(argv) -> int:
    """One in-process CLI call, console output captured; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def work_dir() -> Path:
    """The benchmark's scratch directory, inside its own checkout."""
    root = Path(__file__).resolve().parent / "_work"
    root.mkdir(exist_ok=True)
    return root


# ---------------------------------------------------------------------------
# pair-study


class PairStudy:
    name = "pair-study"

    def build(self, seed: int, tiny: bool = False) -> dict:
        k_lo = 3 if tiny else 6
        count = 60 if tiny else 4000
        cfg_hi = GridConfig((1, 1), k_lo + 1)
        cascade = gen_cascade(cfg_hi, RHO, _derive(seed, 0))
        coarse = cascade.coarsen(k_lo)
        power = gen_power(GridConfig((1, 1), k_lo), (2, 2), centers=(0.5, 0.5))
        for w in (cascade, coarse, power):
            w.prefix
        pairs = sample_distinct_pairs(GridConfig((1, 1), k_lo), count,
                                      _derive(seed, 1))
        runs = [(f"cascade K={k_lo}", coarse, pairs),
                (f"cascade K={k_lo + 1}", cascade, scale_pairs(pairs, 2)),
                (f"power K={k_lo}", power, pairs)]
        covers = [(2, 2), (3, 1)] if tiny else [(2, 5), (3, 3)]
        return {"studies": runs, "covers": covers,
                "subsample": 20 if tiny else 500}

    def tasks(self, inputs) -> list[Task]:
        out = []
        for label, mu, pairs in inputs["studies"]:
            out.append(Task(f"kernel_equiv {label}", "pairs_s",
                            lambda mu=mu, pairs=pairs:
                            studies.kernel_equiv_study(mu, ALPHA, pairs,
                                                       threads=1),
                            len(pairs)))
        for dim, level in inputs["covers"]:
            out.append(Task(f"shift_cover {dim} {level}", "cover_s",
                            lambda dim=dim, level=level:
                            studies.shift_cover_report(dim, level)))
        return out

    def check(self, inputs, results):
        attempted, failed, imprecise, notes = 0, 0, 0, []
        n_studies = len(inputs["studies"])
        for i, ((label, mu, pairs), stats) in enumerate(
                zip(inputs["studies"], results)):
            bad, loose = _pair_mass_verdicts(mu, pairs)
            if bad:
                notes.append(f"{label}: {len(bad)} of {len(pairs)} pairs "
                             f"miss the direct box mass by more than "
                             f"rounding")
            if loose:
                notes.append(f"{label}: {len(loose)} of {len(pairs)} pairs "
                             f"within rounding but not "
                             f"{checks.MASS_RTOL:g} relative")
            if stats["pairs"] != len(pairs) or not all(
                    np.isfinite(stats[k]) and stats[k] > 0 for k in
                    ("kernel_ratio_min", "kernel_ratio_max")):
                bad = set(range(len(pairs)))
                notes.append(f"{label}: malformed study summary")
            if i == 0:
                sub = pairs[:inputs["subsample"]]
                threaded = studies.kernel_equiv_study(
                    mu, ALPHA, sub, threads=os.cpu_count() or 1)
                if threaded != studies.kernel_equiv_study(mu, ALPHA, sub,
                                                          threads=1):
                    bad |= set(range(len(sub)))
                    notes.append(f"{label}: threaded subsample differs")
            attempted += len(pairs)
            failed += len(bad)
            imprecise += len(loose - bad)
        for (dim, level), report in zip(inputs["covers"],
                                        results[n_studies:]):
            attempted += report["cubes_checked"]
            failed += len(report["failures"])
            if report["failures"]:
                notes.append(f"shift_cover({dim},{level}): "
                             f"{len(report['failures'])} failures")
        return attempted, failed, imprecise, notes


def _pair_mass_verdicts(mu, pairs) -> tuple[set[int], set[int]]:
    """Indices of pairs with a wrong box mass, and with an imprecise one."""
    cfg, cm = mu.config, mu.cell_masses
    tol = checks.mass_tolerance(cfg, float(cm.sum()))
    found = {"wrong": set(), "imprecise": set(), "ok": set()}
    for i, (x, y) in enumerate(pairs):
        rect, box = product_minimal(cfg, x, y), min_rect(x, y)
        for lib, region in ((mu.mass(rect), rect_box(cfg, rect)),
                            (mu.mass(box), box)):
            direct = checks.direct_box_mass(cfg, cm, region)
            found[checks.mass_verdict(lib, direct, tol)].add(i)
    return found["wrong"], found["imprecise"]


WORKLOADS = {w.name: w for w in (FracForms(), WeightAudit(), PairStudy())}
