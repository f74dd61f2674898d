"""Output checks that share no code with what they check.

Every check runs outside the timed region.  Box masses are summed here
cell by cell from the density (no prefix table, no mass tree); bounds
are recomputed from the returned maximizers through the public apply
functions, never compared with stored values, so a change that corrects
a number is not counted as a failure.

A box mass is judged twice.  It is *wrong* when it differs from the
direct sum by more than the rounding error a summed-area table may
carry (``mass_tolerance``): that is a failed operation.  It is
*imprecise* when it is within that error but misses ``MASS_RTOL``
relative, the precision the library is meant to reach (cancellation in
differences of large prefix sums); those are counted apart, in the
traced run's ``error_rate`` and ``checks.mass_misses``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from rectfrac import (GridConfig, RectKernel, apply_frac_dyadic,
                      apply_frac_kernel, apply_perez, fp_constant, lp_norm,
                      mlinear_form)
from rectfrac.grids import Box

BOUND_RTOL = 1e-9      # a bound against its recomputation from maximizers
NORM_RTOL = 1e-9       # a maximizer's norm against 1
MASS_RTOL = 1e-12      # a box mass against the direct summation
EPS = float(np.finfo(float).eps)


def _axis_weights(lo, hi, cells: int):
    """First cell and per-cell overlap fractions of [lo, hi) on one axis.

    Cells are two lattice units wide; only the two end cells can be
    partly covered, so interior weights are exactly one.
    """
    lo = max(Fraction(lo), Fraction(0))
    hi = min(Fraction(hi), Fraction(2 * cells))
    if hi <= lo:
        return None
    first = math.floor(lo / 2)
    last = math.ceil(hi / 2)
    w = np.ones(last - first)
    w[0] = float((min(hi, 2 * first + 2) - lo) / 2)
    w[-1] = float((hi - max(lo, 2 * (last - 1))) / 2)
    if last - first == 1:
        w[0] = float((hi - lo) / 2)
    return first, w


def direct_box_mass(config: GridConfig, cell_masses: np.ndarray,
                    box: Box) -> float:
    """Mass of a lattice box by a weighted sum over the cells it meets."""
    per_axis = [_axis_weights(lo, hi, config.axis_cells)
                for lo, hi in zip(box.lo, box.hi)]
    if any(p is None for p in per_axis):
        return 0.0
    block = cell_masses[tuple(slice(first, first + len(w))
                              for first, w in per_axis)]
    for _, w in reversed(per_axis):
        block = block @ w
    return float(block)


def mass_tolerance(config: GridConfig, total: float) -> float:
    """Worst-case absolute error of a box mass read off a summed-area table.

    A table entry is a sum of non-negative cell masses by one cumulative
    sum per axis, so its error is at most ``(sum of axis lengths) * eps``
    times the total mass.  A box mass adds or subtracts ``2**d`` entries
    for each of at most ``3**d`` pieces (partial first cell, whole cells,
    partial last cell on each axis), each weighted by at most one.
    """
    d = config.total_dim
    terms = d * config.axis_cells + 2 ** d
    return 6 ** d * terms * EPS * total


def mass_verdict(lib: float, direct: float, tol: float) -> str:
    """'ok', 'imprecise' (within ``tol`` but not ``MASS_RTOL``) or 'wrong'."""
    err = abs(lib - direct)
    if err <= MASS_RTOL * abs(direct):
        return "ok"
    return "imprecise" if err <= tol + MASS_RTOL * abs(direct) else "wrong"


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_bound(mu, form: str, alpha: float, p: float, q: float,
                est) -> list[str]:
    """Problems with one operator_norm_lower result (empty when it passes)."""
    problems = []
    f, g = est.maximizers
    q_conj = q / (q - 1.0)
    for label, fn, expo in (("f", f, p), ("g", g, q_conj)):
        nrm = lp_norm(mu, fn, expo)
        if not _close(nrm, 1.0, NORM_RTOL):
            problems.append(f"{label} has norm {nrm!r}, expected 1")
    if form == "dyadic":
        value = mlinear_form(RectKernel.hls(mu, alpha), (mu, mu), (f, g))
    else:
        if form == "perez":
            tf = apply_perez(mu, alpha, f).values
        elif form == "shifted-sum":
            tf = np.zeros_like(f.values)
            for tau in itertools.product((-1, 0, 1),
                                         repeat=mu.config.total_dim):
                tf = tf + apply_frac_dyadic(mu, alpha, f, tau).values
        else:
            tf = apply_frac_kernel(mu, alpha, f).values
        value = float(np.sum(tf * g.values * mu.cell_masses))
    if not _close(est.value, value, BOUND_RTOL):
        problems.append(f"bound {est.value!r} but maximizers give {value!r}")
    if form != "kernel":
        c2 = fp_constant(RectKernel.hls(mu, alpha), (mu, mu),
                         (p, q_conj)).value
        if est.value < c2 * (1.0 - BOUND_RTOL):
            problems.append(f"bound {est.value!r} below testing value {c2!r}")
    return problems
