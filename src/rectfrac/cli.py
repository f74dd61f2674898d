"""Batch experiment driver.

Subcommands generate weights, audit their structural constants, run
norm-estimation depth sweeps, and verify the grid-covering and
kernel-equivalence claims.  Each takes only the options it reads:
``--seed`` on gen-weight and kernel-equiv, which draw from it, and on
the sweeps embed-norm, hls and carleson, which draw nothing from it and
record it as each bound's ``seed`` and in the manifest; ``--format
json|csv`` on the sweeps, ``--threads`` (output never depends on it)
and ``--out`` everywhere.  Output files never embed wall-clock data, so
reruns are byte-identical; each JSON output embeds a manifest
(subcommand, parameters, seed, version, input hashes), and a CSV gets
it as a ``<out>.manifest.json`` sidecar.  JSON is strict RFC 8259: an
infinite value is written as the string "inf" or "-inf".  ``main``
returns 0 iff every check passed, 1 if one failed, and 2 for any
refusal, the parser's included.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .conditions import (_positive_eps, condition_d_constant,
                         doubling_constant, fp_constant,
                         reverse_doubling_constant, tail_bound)
from .estimators import _check_limits, _ratio, depth_sweep, rows_to_csv
from .operators import (OPERATOR_FORMS, ExponentConfig, RectKernel,
                        check_kernel_seed)
from .studies import (kernel_equiv_study, sample_distinct_pairs, scale_pairs,
                      shift_cover_report)
from .weights import (GridConfig, gen_cascade, gen_power, gen_uniform,
                      load_weight, save_weight)

_IDENTITY_TOL = 1e-9
_KERNEL_SEED = ("random kernel seed in [-2**63, 2**63); each level's "
                "table is one draw from its own PCG64 stream")


def _number(text: str) -> float:
    """Parse '4/3' or '1.25' to a finite float.

    Refuses with ``argparse.ArgumentTypeError``, whose text argparse
    prints as it is when the option is parsed and ``main`` prints as an
    error line when a command parses a list of numbers.
    """
    try:
        return float(Fraction(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except (ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"not a finite number: {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _num_list(text: str) -> tuple[float, ...]:
    return tuple(_number(t) for t in text.split(","))


def _kernel_seed(text: str) -> int:
    """Parse a random kernel seed in the domain ``check_kernel_seed`` sets."""
    try:
        seed = int(text)
    except ValueError:
        seed = text  # check_kernel_seed refuses it as not an integer
    try:
        return check_kernel_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _load_weights(text: str):
    """The comma-separated paths and their weights, each file read once."""
    paths = text.split(",")
    loaded = {p: load_weight(p) for p in dict.fromkeys(paths)}
    return paths, [loaded[p] for p in paths]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(args: argparse.Namespace, inputs) -> dict:
    """The run description embedded in every output file.

    It holds only deterministic fields (no timestamps, no thread count),
    so reruns of a command with the same seed produce byte-identical
    files; ``main`` logs start and finish times to standard error.
    """
    skip = {"func", "out", "threads", "format", "command"}
    params = {key: val for key, val in sorted(vars(args).items())
              if key not in skip and val is not None}
    return {"subcommand": args.command, "params": params,
            "seed": getattr(args, "seed", 0), "version": __version__,
            "input_hashes": {str(p): _sha256(p) for p in inputs}}


def _finite(obj):
    """``obj`` with every infinite float written as "inf" or "-inf"."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {key: _finite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(val) for val in obj]
    return obj


def _json(doc) -> str:
    """Strict RFC 8259 JSON: a NaN left in ``doc`` raises ValueError."""
    return json.dumps(_finite(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _emit(args: argparse.Namespace, body: dict, checks: list[dict],
          inputs=(), csv_text: str | None = None,
          to_stdout: bool = False) -> int:
    doc = {"manifest": _manifest(args, inputs)}
    doc.update(body)
    doc["checks"] = checks
    out = None if to_stdout else args.out
    if csv_text is not None and args.format == "csv":
        text = csv_text
        if out:
            Path(str(out) + ".manifest.json").write_text(_json(doc["manifest"]))
    else:
        text = _json(doc)
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
    epsilons = [_positive_eps(e) for e in _num_list(args.eps)]
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
    for eps in epsilons:
        rep = condition_d_constant(w, eps)
        cond[repr(eps)] = dict(rep.to_json(),
                               tail_bound=tail_bound(reverse, eps))
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
        if args.weight is None or args.p is None:
            raise ValueError("hls mode needs --weight and --p")
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
        exponents = _num_list(args.exponents)
        paths, ws = _load_weights(args.weights)
        kern = RectKernel.random_uniform(ws[0].config, args.kernel_seed)
        rep = fp_constant(kern, ws, exponents)
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
    """A sweep's depths and ascent options, as ``depth_sweep`` keywords."""
    _check_limits(args.tol, args.max_sweeps, "--tol", "--max-sweeps")
    return {"depths": _depth_list(args.depths), "tol": args.tol,
            "max_sweeps": args.max_sweeps, "seed": args.seed,
            "timing": args.timing}


def _cmd_embed_norm(args) -> int:
    opts = _sweep_opts(args)
    exponents = _num_list(args.exponents)
    paths, ws = _load_weights(args.weights)
    rows = depth_sweep("embed", weights=ws, exponents=exponents,
                       kernel_seed=args.kernel_seed, **opts)
    return _emit(args, {"sweep": _rows_json(rows)},
                 _sweep_checks(rows, require_ratio=True), inputs=paths,
                 csv_text=rows_to_csv(rows))


def _cmd_hls(args) -> int:
    opts = _sweep_opts(args)
    w = load_weight(args.weight)
    ec = ExponentConfig.hls(args.alpha, args.p, w.config.total_dim)
    rows = depth_sweep("hls", weight=w, alpha=ec.alpha, p=ec.p,
                       form=args.form, **opts)
    checks = _sweep_checks(rows, require_ratio=args.form != "kernel")
    drift = [_ratio(b.c1_hat, a.c1_hat, both_zero=1.0) - 1.0
             for a, b in zip(rows, rows[1:])]
    body = {"sweep": _rows_json(rows), "q": ec.q,
            "successive_change": drift}
    return _emit(args, body, checks, inputs=[args.weight],
                 csv_text=rows_to_csv(rows))


def _cmd_carleson(args) -> int:
    opts = _sweep_opts(args)
    w = load_weight(args.weight)
    rows = depth_sweep("carleson", weight=w, p=args.p, q=args.q, **opts)
    n = w.config.n_factors
    body = {"sweep": _rows_json(rows),
            "c1_over_c2_pow_n": [r.c1_hat / r.c2 ** n for r in rows]}
    return _emit(args, body, _sweep_checks(rows, require_ratio=True),
                 inputs=[args.weight], csv_text=rows_to_csv(rows))


def _cmd_kernel_equiv(args) -> int:
    if args.pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {args.pairs}")
    depths = sorted(set(_depth_list(args.depths)))
    w = load_weight(args.weight)
    if depths[-1] > w.config.depth:
        raise ValueError(f"depth {depths[-1]} exceeds the weight depth "
                         f"{w.config.depth}")
    base_cfg = GridConfig(w.config.dims, depths[0])
    pairs = sample_distinct_pairs(base_cfg, args.pairs, args.seed)
    per_depth = {}
    widths = []
    for K in depths:
        wk = w.coarsen(K)
        scaled = scale_pairs(pairs, 1 << (K - depths[0]))
        stats = kernel_equiv_study(wk, args.alpha, scaled)
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
    report = shift_cover_report(args.dim, args.maxlevel)
    checks = [_check("all_covered", not report["failures"],
                     len(report["failures"]))]
    print(f"checked {report['cubes_checked']} cubes at |level| <= "
          f"{args.maxlevel} in dimension {args.dim}: "
          f"{len(report['failures'])} failures", file=sys.stderr)
    return _emit(args, {"report": report}, checks)


def _add_common(sp: argparse.ArgumentParser,
                out_help: str | None = None) -> None:
    """--threads, and --out: required when ``out_help`` names its file."""
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; every loop runs in "
                         "one thread and output never depends on it")
    sp.add_argument("--out", type=Path, required=out_help is not None,
                    help=out_help or "output file (default: stdout)")


def _add_sweep_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-sweeps", type=int, default=200)
    sp.add_argument("--timing", action="store_true",
                    help="record wall time in the seconds column "
                         "(off by default to keep outputs reproducible)")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand."""
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
    sp.add_argument("--seed", type=int, default=0, help="cascade draw seed")
    _add_common(sp, out_help="weight file to write")
    sp.set_defaults(func=_cmd_gen_weight)

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
    sp.add_argument("--kernel-seed", type=_kernel_seed, default=0,
                    help=_KERNEL_SEED)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fp)

    sp = sub.add_parser("embed-norm",
                        help="testing constant vs ascent bound across depths")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--exponents", required=True)
    sp.add_argument("--kernel-seed", type=_kernel_seed, default=0,
                    help=_KERNEL_SEED)
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
    sp.add_argument("--seed", type=int, default=0, help="pair draw seed")
    _add_common(sp)
    sp.set_defaults(func=_cmd_kernel_equiv)

    sp = sub.add_parser("shift-cover",
                        help="exhaustive one-third-shift covering check")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--maxlevel", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_cover)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` builds once per process and keeps unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a refusal (2) or --help (0)
        return exc.code
    started = time.time()
    try:
        code = args.func(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[rectfrac] {args.command}: started {started:.3f}, "
          f"finished {time.time():.3f} (epoch seconds)", file=sys.stderr)
    return code

