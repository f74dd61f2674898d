"""Every metric the benchmark reports, with its unit and what it should move.

``END_TO_END`` is what ``--trace 0`` prints and ``PER_LAYER`` what
``--trace 1`` prints; BENCHMARK.json lists the same names and units (the
self-test checks that).  Each per-layer entry records, before any
optimisation is measured, the end-to-end metric it should move and the
workload it should move it on, with the workload where it should stay
put in parentheses.

The per-workload timings (``bound_s.*``, ``sweep_s.*``, ``pairs_per_s``)
are zero on the workloads that do not run them, while every end-to-end
metric must be non-zero on every workload, so they are reported here,
from the untraced pass of the traced run.  ``error_rate`` can be zero
and so is reported here too.  It counts the operations that failed
their check or missed the 1e-12 box-mass precision
(``checks.mass_misses``, ROADMAP item 3); the ``failed`` count every run
prints has only the failed ones (see checks.py).
``operators.kernel_matrix.bytes`` is computed as 8 * C**(2N) for the
largest dense kernel matrix built, not measured.
"""

from __future__ import annotations

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_FF, _WA, _PS = "frac-forms", "weight-audit", "pair-study"
_ALL = "all"


def _fn(name, moves, where):
    return [(f"{name}.calls", "count", "lower", moves, where),
            (f"{name}.self_s", "s", "lower", moves, where)]


# (name, unit, better, end-to-end metric it should move, workload)
PER_LAYER = tuple(
    # untraced per-group timings and the check outcome
    [(f"bound_s.{f}", "s", "lower", "wall_s", _FF)
     for f in ("dyadic", "perez", "shifted-sum", "kernel")]
    + [(f"sweep_s.{c}", "s", "lower", "wall_s", _WA)
       for c in ("carleson", "embed-norm", "hls")]
    + [("pairs_per_s", "1/s", "higher", "wall_s", _PS),
       ("error_rate", "ratio", "lower", "correctness", _ALL),
       ("checks.mass_misses", "count", "lower", "correctness", _PS),
       ("trace.overhead_s", "s", "lower", "none (tracing cost)", _ALL)]
    # weights
    + _fn("weights.build_mass_tree", "sweep_s.carleson, sweep_s.embed-norm",
          f"{_WA} ({_PS})")
    + _fn("weights.build_prefix", "bound_s.perez, bound_s.shifted-sum",
          f"{_FF} ({_WA})")
    + _fn("weights.Weight.mass", "pairs_per_s", f"{_PS} ({_FF})")
    + _fn("weights.save_weight", "wall_s", f"{_WA} ({_FF})")
    + _fn("weights.load_weight", "wall_s", f"{_WA} ({_FF})")
    + [("weights.bytes_written", "B", "lower", "wall_s", f"{_WA} ({_FF})"),
       ("weights.bytes_read", "B", "lower", "wall_s", f"{_WA} ({_FF})")]
    + _fn("weights.gen_cascade", "setup_s", _ALL)
    + _fn("weights.gen_power", "setup_s", _ALL)
    # grids
    + [m for fn in ("minimal_cube", "min_rect", "product_minimal",
                    "shift_cover")
       for m in _fn(f"grids.{fn}", "pairs_per_s, wall_s", f"{_PS} ({_FF})")]
    # conditions
    + [m for fn in ("doubling_constant", "reverse_doubling_constant",
                    "condition_d_constant", "carleson_testing_constant",
                    "fp_constant")
       for m in _fn(f"conditions.{fn}", "wall_s, sweep_s.*",
                    f"{_WA} ({_PS})")]
    # operators
    + _fn("operators.kernel_matrix", "bound_s.kernel, peak_rss_mb",
          f"{_FF} ({_WA})")
    + [("operators.kernel_matrix.bytes", "B", "lower",
        "bound_s.kernel, peak_rss_mb", f"{_FF} ({_WA})")]
    + [(f"operators.apply_s.{f}", "s", "lower", f"bound_s.{b}", _FF)
       for f, b in (("dyadic", "dyadic"), ("shifted", "shifted-sum"),
                    ("perez", "perez"), ("kernel", "kernel"))]
    + [("operators.skipped_terms", "count", "lower", "correctness", _FF),
       ("operators.excluded_pairs", "count", "lower", "correctness", _FF)]
    + _fn("operators.RectKernel.hls", "sweep_s.embed-norm, bound_s.dyadic",
          f"{_WA}, {_FF}")
    + _fn("operators.RectKernel.random_uniform",
          "sweep_s.embed-norm, bound_s.dyadic", f"{_WA}, {_FF}")
    + _fn("operators.kernel_sum", "pairs_per_s", f"{_PS} ({_FF})")
    + _fn("operators.pair_kernel", "pairs_per_s", f"{_PS} ({_FF})")
    # estimators
    + [("estimators.operator_norm_lower.calls", "count", "lower",
        "bound_s.*", f"{_FF} ({_PS})")]
    + [(f"estimators.operator_norm_lower.self_s.{f}", "s", "lower",
        f"bound_s.{f}", f"{_FF} ({_PS})")
       for f in ("dyadic", "perez", "shifted-sum", "kernel")]
    + [(f"estimators.sweep_s.{f}", "s", "lower", f"bound_s.{f}",
        f"{_FF} ({_PS})")
       for f in ("dyadic", "perez", "shifted-sum", "kernel")]
    + [(f"estimators.sweeps.{f}", "count", "lower", "bound_s.kernel", _FF)
       for f in ("dyadic", "perez", "shifted-sum", "kernel")]
    + [("estimators.converged_frac", "ratio", "higher", "bound_s.kernel",
        _FF)]
    + [m for fn in ("carleson_norm_lower", "embed_norm_lower",
                    "depth_sweep")
       for m in _fn(f"estimators.{fn}", "sweep_s.*", f"{_WA} ({_PS})")]
    + [(f"estimators.sweeps.{t}", "count", "lower", f"sweep_s.{c}",
        f"{_WA} ({_PS})")
       for t, c in (("carleson", "carleson"), ("embed", "embed-norm"))]
    # studies, oracle and CLI
    + _fn("studies.kernel_equiv_study", "pairs_per_s, wall_s",
          f"{_PS} ({_FF})")
    + _fn("studies.shift_cover_report", "pairs_per_s, wall_s",
          f"{_PS} ({_FF})")
    + _fn("bruteforce.shift_cover_exhaustive", "pairs_per_s, wall_s",
          f"{_PS} ({_FF})")
    + _fn("cli.main", "wall_s", f"{_WA} ({_FF})")
    + [("cli.bytes_written", "B", "lower", "wall_s", f"{_WA} ({_FF})")]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def derived_layer_metrics(groups: dict, pair_count: int) -> dict:
    """Per-group seconds of the untraced pass; zero where a group is absent."""
    out = {f"bound_s.{f}": groups.get(f"bound_s.{f}", 0.0)
           for f in ("dyadic", "perez", "shifted-sum", "kernel")}
    out.update({f"sweep_s.{c}": groups.get(f"sweep_s.{c}", 0.0)
                for c in ("carleson", "embed-norm", "hls")})
    pairs_s = groups.get("pairs_s", 0.0)
    out["pairs_per_s"] = pair_count / pairs_s if pairs_s else 0.0
    return out


def format_metrics(values: dict, traced: bool) -> dict:
    """The result's ``metrics`` object; every expected name must be present."""
    names = [m[0] for m in (PER_LAYER if traced else END_TO_END)]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {missing}, "
                       f"unexpected {extra}")
    return {n: {"value": values[n], "unit": UNITS[n]} for n in names}


def benchmark_spec() -> dict:
    """The metric part of BENCHMARK.json."""
    return {
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }
