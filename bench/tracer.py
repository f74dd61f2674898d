"""In-memory span recorder that wraps rectfrac's public functions from outside.

The library has no tracing of its own, so the traced run patches it:
``Tracer.patched()`` replaces each listed function by a wrapper that
records a span (name, start, end, parent) and rebinds that wrapper under
every name any ``rectfrac`` module imported the function as (for example
both ``operators.kernel_sum`` and ``studies.kernel_sum``).  Leaving the
context restores every original binding, so untraced passes run the
library untouched.  Spans stay in memory until ``write`` is called.

Self time of a span is its duration minus the time its child spans
cover; the traced run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

from rectfrac import (bruteforce, cli, conditions, estimators, grids,
                      operators, studies, weights)

# (metric prefix, owner, attribute); the owner is a module or a class.
TRACED = [
    ("weights.build_mass_tree", weights, "build_mass_tree"),
    ("weights.build_prefix", weights, "build_prefix"),
    ("weights.Weight.mass", weights.Weight, "mass"),
    ("weights.save_weight", weights, "save_weight"),
    ("weights.load_weight", weights, "load_weight"),
    ("weights.gen_cascade", weights, "gen_cascade"),
    ("weights.gen_power", weights, "gen_power"),
    ("grids.minimal_cube", grids, "minimal_cube"),
    ("grids.min_rect", grids, "min_rect"),
    ("grids.product_minimal", grids, "product_minimal"),
    ("grids.shift_cover", grids, "shift_cover"),
    ("conditions.doubling_constant", conditions, "doubling_constant"),
    ("conditions.reverse_doubling_constant", conditions,
     "reverse_doubling_constant"),
    ("conditions.condition_d_constant", conditions, "condition_d_constant"),
    ("conditions.carleson_testing_constant", conditions,
     "carleson_testing_constant"),
    ("conditions.fp_constant", conditions, "fp_constant"),
    ("operators.kernel_matrix", operators, "kernel_matrix"),
    ("operators.RectKernel.hls", operators.RectKernel, "hls"),
    ("operators.RectKernel.random_uniform", operators.RectKernel,
     "random_uniform"),
    ("operators.kernel_sum", operators, "kernel_sum"),
    ("operators.pair_kernel", operators, "pair_kernel"),
    ("estimators.operator_norm_lower", estimators, "operator_norm_lower"),
    ("estimators.carleson_norm_lower", estimators, "carleson_norm_lower"),
    ("estimators.embed_norm_lower", estimators, "embed_norm_lower"),
    ("estimators.depth_sweep", estimators, "depth_sweep"),
    ("studies.kernel_equiv_study", studies, "kernel_equiv_study"),
    ("studies.shift_cover_report", studies, "shift_cover_report"),
    ("bruteforce.shift_cover_exhaustive", bruteforce,
     "shift_cover_exhaustive"),
    ("cli.main", cli, "main"),
]

FORMS = ("dyadic", "perez", "shifted-sum", "kernel")

# A dyadic bound is an embed_norm_lower call made by operator_norm_lower;
# its time belongs to the bound, so no separate span is opened for it.
_INLINE_UNDER = {
    "estimators.embed_norm_lower": "estimators.operator_norm_lower"}


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _stdout_pos() -> int:
    """Characters written so far to a captured (in-memory) standard output."""
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[str, int]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        inline_parent = _INLINE_UNDER.get(name)

        def wrapper(*args, **kwargs):
            if inline_parent and self._stack and \
                    self._stack[-1][0].startswith(inline_parent):
                return fn(*args, **kwargs)
            span_name = name
            if name == "estimators.operator_norm_lower":
                form = str(_arg(args, kwargs, 4, "form", "dyadic"))
                span_name = f"{name}[{form.replace('_', '-')}]"
            elif name == "weights.load_weight":
                self.counters["weights.bytes_read"] += _file_size(
                    _arg(args, kwargs, 0, "path"))
            elif name == "cli.main":
                self.counters["cli.bytes_written"] -= _stdout_pos()
            parent = self._stack[-1][1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((span_name, 0.0, 0.0, parent))
            self._stack.append((span_name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent)
            self._count(name, span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, name, span_name, args, kwargs, result) -> None:
        c = self.counters
        if name == "cli.main":
            argv = list(_arg(args, kwargs, 0, "argv") or [])
            c["cli.bytes_written"] += _stdout_pos()
            if "--out" in argv and argv[0] != "gen-weight":
                out = argv[argv.index("--out") + 1]
                c["cli.bytes_written"] += _file_size(out) + _file_size(
                    out + ".manifest.json")
        elif name == "weights.save_weight":
            c["weights.bytes_written"] += _file_size(
                _arg(args, kwargs, 1, "path"))
        elif name == "operators.kernel_matrix":
            cfg = _arg(args, kwargs, 0, "mu").config
            nbytes = 8 * cfg.axis_cells ** (2 * cfg.total_dim)
            c["operators.kernel_matrix.bytes"] = max(
                c["operators.kernel_matrix.bytes"], nbytes)
        elif name == "estimators.operator_norm_lower":
            form = span_name[len(name) + 1:-1]
            c[f"estimators.sweeps.{form}"] += result.sweeps
            c["estimators.converged"] += bool(result.converged)
        elif name == "estimators.carleson_norm_lower":
            c["estimators.sweeps.carleson"] += result.sweeps
        elif name == "estimators.embed_norm_lower":
            c["estimators.sweeps.embed"] += result.sweeps

    def count(self, name: str, k: int) -> None:
        self.counters[name] += k

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the apply probes)."""
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append((name, index))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def patched(self):
        """Rebind every traced function in every rectfrac module, then restore."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and
                   (key == "rectfrac" or key.startswith("rectfrac."))]
        undo = []
        try:
            for name, owner, attr in TRACED:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapper = self._wrap(name, raw)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            undo.append((mod, key, raw))
                            setattr(mod, key, wrapper)
                if isinstance(owner, type):
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- reduction ---------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict, dict]:
        """Per span name: number of calls, summed self time, summed duration."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), kids in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - kids
            total_s[name] += end - start
        return calls, self_s, total_s

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by metric name (units in metrics.py)."""
        calls, self_s, total_s = self.span_totals()
        out = {}
        for name, _, _ in TRACED:
            if name == "estimators.operator_norm_lower":
                total_calls = 0
                for form in FORMS:
                    key = f"{name}[{form}]"
                    total_calls += calls.get(key, 0)
                    sweeps = self.counters.get(f"estimators.sweeps.{form}", 0)
                    s = self_s.get(key, 0.0)
                    out[f"{name}.self_s.{form}"] = s
                    out[f"estimators.sweep_s.{form}"] = (
                        s / sweeps if sweeps else 0.0)
                    out[f"estimators.sweeps.{form}"] = sweeps
                out[f"{name}.calls"] = total_calls
                out["estimators.converged_frac"] = (
                    self.counters.get("estimators.converged", 0) / total_calls
                    if total_calls else 0.0)
                continue
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key in ("weights.bytes_written", "weights.bytes_read",
                    "operators.kernel_matrix.bytes",
                    "estimators.sweeps.carleson", "estimators.sweeps.embed",
                    "operators.skipped_terms", "operators.excluded_pairs",
                    "cli.bytes_written"):
            out[key] = self.counters.get(key, 0)
        for form in ("dyadic", "shifted", "perez", "kernel"):
            out[f"operators.apply_s.{form}"] = total_s.get(
                f"operators.apply_s.{form}", 0.0)
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines (name, start, end, parent index)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
