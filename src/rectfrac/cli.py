"""Batch experiment driver.

Subcommands generate weights, audit their structural constants, run
norm-estimation depth sweeps, and verify the grid-covering and
kernel-equivalence claims.  Everything is seeded and reproducible:
output files never embed wall-clock data (timings go to standard
error), and every loop runs in one thread: the thread flag is accepted
for compatibility and never changes output, so files are
byte-identical across thread counts.

Each JSON output embeds a manifest (subcommand, parameters, seed, tool
version, input file hashes); CSV outputs get the same manifest as a
``<out>.manifest.json`` sidecar.  Exit status is 0 iff every requested
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .conditions import (condition_d_constant, doubling_constant,
                         fp_constant, reverse_doubling_constant)
from .estimators import depth_sweep, rows_to_csv
from .operators import OPERATOR_FORMS, ExponentConfig, RectKernel
from .studies import (kernel_equiv_study, sample_distinct_pairs, scale_pairs,
                      shift_cover_report)
from .weights import (GridConfig, gen_cascade, gen_power, gen_uniform,
                      load_weight, save_weight)

_IDENTITY_TOL = 1e-9


def _number(text: str) -> float:
    """Parse '4/3' or '1.25' to float."""
    return float(Fraction(text))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _num_list(text: str) -> tuple[float, ...]:
    return tuple(_number(t) for t in text.split(","))


def _depth_list(text: str) -> tuple[int, ...]:
    """Parse '3:6' (inclusive range) or '3,4,6'; every depth is >= 1."""
    if ":" not in text:
        depths = tuple(int(t) for t in text.split(","))
    else:
        lo, hi = (int(t) for t in text.split(":"))
        if hi < lo:
            raise ValueError(f"the depth range {text!r} is empty")
        depths = tuple(range(lo, hi + 1))
    if min(depths) < 1:
        raise ValueError(f"depths start at 1, got {min(depths)} "
                         f"in {text!r}")
    return depths


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(args: argparse.Namespace, inputs) -> dict:
    """The run description embedded in every output file.

    It holds only deterministic fields (no timestamps, no thread count),
    so reruns of a command with the same seed produce byte-identical
    files; ``main`` logs start and finish times to standard error.
    """
    skip = {"func", "out", "threads", "format", "command",
            "out_required", "_started_at"}
    params = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        params[key] = str(val) if isinstance(val, Path) else val
    return {"subcommand": args.command, "params": params,
            "seed": getattr(args, "seed", 0), "version": __version__,
            "input_hashes": {str(p): _sha256(p) for p in inputs}}


def _emit(args: argparse.Namespace, body: dict, checks: list[dict],
          inputs=(), csv_text: str | None = None,
          to_stdout: bool = False) -> int:
    doc = {"manifest": _manifest(args, inputs)}
    doc.update(body)
    doc["checks"] = checks
    out = None if to_stdout else args.out
    if args.format == "csv":
        if csv_text is None:
            print("error: csv output is not available for this subcommand",
                  file=sys.stderr)
            return 2
        if out:
            Path(out).write_text(csv_text)
            Path(str(out) + ".manifest.json").write_text(
                json.dumps(doc["manifest"], sort_keys=True, indent=2) + "\n")
        else:
            sys.stdout.write(csv_text)
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _check(name: str, passed: bool, detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _cmd_gen_weight(args) -> int:
    config = GridConfig(_int_list(args.dims), args.depth)
    if args.kind == "uniform":
        w = gen_uniform(config)
    elif args.kind == "power":
        if args.exponents is None:
            raise ValueError("power weights need --exponents")
        centers = _num_list(args.centers) if args.centers else None
        w = gen_power(config, _num_list(args.exponents), centers)
    else:
        if args.rho is None:
            raise ValueError("cascade weights need --rho")
        w = gen_cascade(config, args.rho, args.seed)
    save_weight(w, args.out)
    body = {"file": str(args.out), "sha256": _sha256(args.out),
            "total_mass": w.total_mass}
    # the weight file is the artifact; the report goes to stdout
    return _emit(args, body, [], to_stdout=True)


def _cmd_check_weight(args) -> int:
    w = load_weight(args.weight)
    cfg = w.config
    doubling = doubling_constant(w)
    reverse = reverse_doubling_constant(w)
    checks = []
    tol = 1e-12
    for j, (dj, gj) in enumerate(zip(doubling.per_factor,
                                     reverse.per_factor)):
        bound = 1.0 + (2 ** cfg.dims[j] - 1) / dj
        margin = gj - bound
        checks.append(_check(f"reverse_from_doubling[j={j}]",
                             margin >= -tol * max(1.0, abs(bound)), margin))
    top = 2 ** max(cfg.dims)
    if reverse.value > top - 1:
        bound = reverse.value / (reverse.value + 1 - top)
        margin = bound - doubling.value
        checks.append(_check("doubling_from_reverse",
                             margin >= -tol * max(1.0, bound), margin))
    cond = {}
    for eps in _num_list(args.eps):
        rep = condition_d_constant(w, eps)
        cond[repr(eps)] = rep.to_json()
        geom = sum(reverse.value ** (-k * eps) for k in range(cfg.depth + 1))
        margin = geom - rep.value
        checks.append(_check(f"summability_geometric_bound[eps={eps}]",
                             margin >= -tol * geom, margin))
    body = {"doubling": doubling.to_json(),
            "reverse_doubling": reverse.to_json(),
            "condition_d": cond}
    return _emit(args, body, checks, inputs=[args.weight])


def _cmd_fp(args) -> int:
    checks = []
    if args.alpha is not None:
        w = load_weight(args.weight)
        ec = ExponentConfig.hls(args.alpha, args.p, w.config.total_dim)
        rep = fp_constant(RectKernel.hls(w, ec.alpha), (w, w),
                          (ec.p, ec.q_conj))
        checks.append(_check("hls_identity",
                             abs(rep.value - 1.0) <= _IDENTITY_TOL,
                             rep.value - 1.0))
        inputs = [args.weight]
    else:
        if not args.weights or not args.exponents:
            raise ValueError("general mode needs --weights and --exponents")
        paths = args.weights.split(",")
        ws = [load_weight(p) for p in paths]
        kern = RectKernel.random_uniform(ws[0].config, args.kernel_seed)
        rep = fp_constant(kern, ws, _num_list(args.exponents))
        checks.append(_check("value_finite", math.isfinite(rep.value),
                             rep.value))
        inputs = paths
    return _emit(args, {"report": rep.to_json()}, checks, inputs=inputs)


def _sweep_checks(rows, require_ratio: bool) -> list[dict]:
    checks = []
    if require_ratio:
        for r in rows:
            checks.append(_check(f"c2_le_c1[K={r.depth}]",
                                 r.ratio >= 1.0 - _IDENTITY_TOL, r.ratio))
    else:
        for r in rows:
            checks.append(_check(f"positive_estimate[K={r.depth}]",
                                 r.c1_hat > 0, r.c1_hat))
    return checks


def _rows_json(rows) -> list[dict]:
    return [{"K": r.depth, "c2": r.c2, "c1_hat": r.c1_hat, "ratio": r.ratio,
             "seconds": r.seconds, "sweeps": r.sweeps,
             "converged": r.converged} for r in rows]


def _sweep_opts(args) -> dict:
    """A sweep subcommand's ascent options, as ``depth_sweep`` keywords."""
    if args.max_sweeps < 1:
        raise ValueError(
            f"--max-sweeps must be at least 1, got {args.max_sweeps}")
    if not args.tol >= 0:
        raise ValueError(f"--tol must be at least 0, got {args.tol}")
    return {"tol": args.tol, "max_sweeps": args.max_sweeps,
            "seed": args.seed, "timing": args.timing}


def _cmd_embed_norm(args) -> int:
    opts = _sweep_opts(args)
    paths = args.weights.split(",")
    ws = [load_weight(p) for p in paths]
    rows = depth_sweep("embed", _depth_list(args.depths), weights=ws,
                       exponents=_num_list(args.exponents),
                       kernel_seed=args.kernel_seed, **opts)
    return _emit(args, {"sweep": _rows_json(rows)},
                 _sweep_checks(rows, require_ratio=True), inputs=paths,
                 csv_text=rows_to_csv(rows))


def _cmd_hls(args) -> int:
    opts = _sweep_opts(args)
    w = load_weight(args.weight)
    ec = ExponentConfig.hls(args.alpha, args.p, w.config.total_dim)
    rows = depth_sweep("hls", _depth_list(args.depths), weight=w,
                       alpha=ec.alpha, p=ec.p, form=args.form, **opts)
    checks = _sweep_checks(rows, require_ratio=args.form != "kernel")
    drift = [rows[i + 1].c1_hat / rows[i].c1_hat - 1.0
             for i in range(len(rows) - 1)]
    body = {"sweep": _rows_json(rows), "q": ec.q,
            "successive_change": drift}
    return _emit(args, body, checks, inputs=[args.weight],
                 csv_text=rows_to_csv(rows))


def _cmd_carleson(args) -> int:
    opts = _sweep_opts(args)
    w = load_weight(args.weight)
    rows = depth_sweep("carleson", _depth_list(args.depths), weight=w,
                       p=args.p, q=args.q, **opts)
    n = w.config.n_factors
    body = {"sweep": _rows_json(rows),
            "c1_over_c2_pow_n": [r.c1_hat / r.c2 ** n for r in rows]}
    return _emit(args, body, _sweep_checks(rows, require_ratio=True),
                 inputs=[args.weight], csv_text=rows_to_csv(rows))


def _cmd_kernel_equiv(args) -> int:
    if args.pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {args.pairs}")
    w = load_weight(args.weight)
    depths = sorted(set(_depth_list(args.depths)))
    if depths[-1] > w.config.depth:
        raise ValueError(f"depth {depths[-1]} exceeds the weight depth "
                         f"{w.config.depth}")
    base_cfg = GridConfig(w.config.dims, depths[0])
    pairs = sample_distinct_pairs(base_cfg, args.pairs, args.seed)
    per_depth = {}
    widths = []
    for K in depths:
        wk = w.coarsen(K) if w.config.depth != K else w
        scaled = scale_pairs(pairs, 1 << (K - depths[0]))
        stats = kernel_equiv_study(wk, args.alpha, scaled,
                                   threads=args.threads)
        per_depth[str(K)] = stats
        widths.append(stats["kernel_log_width"])
    checks = [_check("ratio_interval_finite",
                     all(math.isfinite(v) for v in widths), widths)]
    drifts = [abs(widths[i + 1] - widths[i]) for i in range(len(widths) - 1)]
    for (d, K) in zip(drifts, depths[1:]):
        checks.append(_check(f"log_width_drift[K={K}]", d < 0.2, d))
    body = {"per_depth": per_depth, "log_width_drift": drifts}
    return _emit(args, body, checks, inputs=[args.weight])


def _cmd_shift_cover(args) -> int:
    report = shift_cover_report(args.dim, args.maxlevel,
                                threads=args.threads)
    checks = [_check("all_covered", not report["failures"],
                     len(report["failures"]))]
    print(f"checked {report['cubes_checked']} cubes at |level| <= "
          f"{args.maxlevel} in dimension {args.dim}: "
          f"{len(report['failures'])} failures", file=sys.stderr)
    return _emit(args, {"report": report}, checks)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; every loop runs in "
                         "one thread and output never depends on it")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", type=Path, default=None,
                    help="output file (default: stdout)")


def _add_sweep_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-sweeps", type=int, default=200)
    sp.add_argument("--timing", action="store_true",
                    help="record wall time in the seconds column "
                         "(off by default to keep outputs reproducible)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectfrac",
        description="product-dyadic weights, embedding constants and "
                    "rectangular fractional integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-weight", help="generate and save a weight")
    sp.add_argument("--kind", choices=("uniform", "power", "cascade"),
                    required=True)
    sp.add_argument("--dims", required=True, help="factor dims, e.g. 1,1")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--rho", type=_number, default=None,
                    help="cascade splitting ratio bound, 1 < rho <= 4")
    sp.add_argument("--exponents", default=None,
                    help="power exponents per axis, each > -1")
    sp.add_argument("--centers", default=None,
                    help="power singularity centers per axis")
    _add_common(sp)
    sp.set_defaults(func=_cmd_gen_weight)
    # gen-weight writes the weight itself, so --out is mandatory there
    sp.set_defaults(out_required=True)

    sp = sub.add_parser("check-weight",
                        help="doubling / reverse doubling / summability audit")
    sp.add_argument("--weight", required=True)
    sp.add_argument("--eps", default="0.25,0.5,1",
                    help="summability powers to audit")
    _add_common(sp)
    sp.set_defaults(func=_cmd_check_weight)

    sp = sub.add_parser("fp", help="single-rectangle testing constant")
    sp.add_argument("--weight", default=None, help="weight file (hls mode)")
    sp.add_argument("--alpha", type=_number, default=None)
    sp.add_argument("--p", type=_number, default=None)
    sp.add_argument("--weights", default=None,
                    help="comma-separated weight files (general mode)")
    sp.add_argument("--exponents", default=None)
    sp.add_argument("--kernel-seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fp)

    sp = sub.add_parser("embed-norm",
                        help="testing constant vs ascent bound across depths")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--exponents", required=True)
    sp.add_argument("--kernel-seed", type=int, default=0)
    sp.add_argument("--depths", required=True, help="e.g. 3:5 or 3,4,5")
    _add_sweep_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_embed_norm)

    sp = sub.add_parser("hls", help="fractional-integral norm depth sweep")
    sp.add_argument("--weight", required=True)
    sp.add_argument("--alpha", type=_number, required=True)
    sp.add_argument("--p", type=_number, required=True)
    sp.add_argument("--form", choices=OPERATOR_FORMS, default="dyadic")
    sp.add_argument("--depths", required=True)
    _add_sweep_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_hls)

    sp = sub.add_parser("carleson",
                        help="averaging-sum embedding constant sweep")
    sp.add_argument("--weight", required=True)
    sp.add_argument("--p", type=_number, required=True)
    sp.add_argument("--q", type=_number, required=True)
    sp.add_argument("--depths", required=True)
    _add_sweep_opts(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_carleson)

    sp = sub.add_parser("kernel-equiv",
                        help="rectangle-sum vs closed kernel ratio study")
    sp.add_argument("--weight", required=True)
    sp.add_argument("--alpha", type=_number, required=True)
    sp.add_argument("--pairs", type=int, default=1000)
    sp.add_argument("--depths", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_kernel_equiv)

    sp = sub.add_parser("shift-cover",
                        help="exhaustive one-third-shift covering check")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--maxlevel", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_cover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and args.out is None:
        print("error: this subcommand requires --out", file=sys.stderr)
        return 2
    args._started_at = time.time()
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[rectfrac] {args.command}: started {args._started_at:.3f}, "
          f"finished {time.time():.3f} (epoch seconds)", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
