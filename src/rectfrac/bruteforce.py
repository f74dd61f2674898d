"""Slow, obvious reference computations.

These are the independent cross-checks used by the test suite: plain
loops over cells, literal transcriptions of the defining sums, and
exhaustive searches.  They deliberately share no enumeration or tree
code with the production paths, and they are gated to small depths
where their cost is quadratic or worse.  ``_iter_family`` lists a
family's rectangles, standard or shifted, and is the package's one
such enumeration: the direct sums read it (the standard family for the
multilinear, positive and enlarged-region sums, any one shifted family
for the dyadic fractional sum), and so do the tests that enumerate
rectangles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .grids import Box, DyadicCube, GridConfig, ProductRect
from .weights import GridFunction, Weight


def mass_direct(w: Weight, box: Box) -> float:
    """Box mass by looping over every cell with its exact overlap fraction."""
    cfg = w.config
    total = 0.0
    cells = cfg.axis_cells
    ranges = []
    for lo, hi in zip(box.lo, box.hi):
        lo = max(Fraction(lo), Fraction(0))
        hi = min(Fraction(hi), Fraction(2 * cells))
        if hi <= lo:
            return 0.0
        first = (lo / 2).numerator // (lo / 2).denominator
        last = -((-hi / 2).numerator // (-hi / 2).denominator)  # ceil
        ranges.append((lo, hi, range(first, last)))
    for cell in itertools.product(*(r for _, _, r in ranges)):
        frac = Fraction(1)
        for a, c in enumerate(cell):
            lo, hi, _ = ranges[a]
            overlap = min(hi, 2 * c + 2) - max(lo, 2 * c)
            frac *= overlap / 2
        if frac > 0:
            total += w.density[cell] * float(frac) * cfg.cell_volume
    return total


def _direct_integral(w: Weight, values: np.ndarray, lo_cells, hi_cells) -> float:
    """Plain clipped block sum of values * density * cell volume."""
    cfg = w.config
    sl = tuple(slice(max(lo, 0), min(hi, cfg.axis_cells))
               for lo, hi in zip(lo_cells, hi_cells))
    if any(s.start >= s.stop for s in sl):
        return 0.0
    return float((w.density[sl] * values[sl]).sum()) * cfg.cell_volume


def _iter_family(config: GridConfig, tau=None):
    """Independent enumeration of one shifted family, with cell bounds.

    ``tau`` holds a shift per axis, -1, 0 or +1 thirds of a side; None
    is the standard family.  Yields ``(rect, lo, hi)`` for every cube
    whose interval meets [0, 1) on each axis: level tuples in order,
    then indices, the last axis fastest.  ``lo`` and ``hi`` are cell
    bounds, outside the lattice where a shifted cube sticks out.
    """
    K, n = config.depth, config.n_factors
    tau = (0,) * config.total_dim if tau is None else tuple(tau)
    shifts = config.split_axes(tau)
    for levels in itertools.product(range(K + 1), repeat=n):
        axis_levels = []
        for i, k in enumerate(levels):
            axis_levels.extend([k] * config.dims[i])
        thirds = [2 ** (K - k) for k in axis_levels]  # cells per third
        # a +1 shift adds the cube left of 0, a -1 shift the one at 1
        ranges = [range(-(s == 1), 2 ** k + (s == -1))
                  for k, s in zip(axis_levels, tau)]
        for flat in itertools.product(*ranges):
            lo = tuple((3 * m + s) * t for m, s, t in zip(flat, tau, thirds))
            hi = tuple(a + 3 * t for a, t in zip(lo, thirds))
            rect = ProductRect(tuple(
                DyadicCube(k, idx, sh) for k, idx, sh in
                zip(levels, config.split_axes(flat), shifts)))
            yield rect, lo, hi


def mlinear_direct(kernel_fn, sigmas, fs) -> float:
    """Literal transcription of the multilinear rectangle sum.

    kernel_fn is a plain callable on product rectangles.  Limited to
    depth 3 because the cost is (#rects x #cells).
    """
    config = sigmas[0].config
    if config.depth > 3:
        raise ValueError("direct multilinear oracle is limited to depth <= 3")
    total = 0.0
    for rect, lo, hi in _iter_family(config):
        val = kernel_fn(rect)
        if val == 0.0:
            continue
        for w, f in zip(sigmas, fs):
            val *= abs(_direct_integral(w, f.values, lo, hi))
        total += val
    return total


def positive_direct(kernel_fn, sigma: Weight, f: GridFunction) -> GridFunction:
    """Direct evaluation of the positive rectangle-sum operator."""
    config = sigma.config
    if config.depth > 3:
        raise ValueError("direct operator oracle is limited to depth <= 3")
    out = np.zeros_like(f.values)
    for rect, lo, hi in _iter_family(config):
        coeff = kernel_fn(rect) * _direct_integral(sigma, f.values, lo, hi)
        sl = tuple(slice(a, b) for a, b in zip(lo, hi))
        out[sl] += coeff
    return GridFunction(config, out)


def frac_dyadic_direct(mu: Weight, alpha: float, f: GridFunction,
                       tau=None) -> GridFunction:
    """Direct fractional rectangle sum over one shifted family."""
    config = mu.config
    if config.depth > 3:
        raise ValueError("direct operator oracle is limited to depth <= 3")
    expo = alpha / config.total_dim - 1.0
    out = np.zeros_like(f.values)
    cells = config.axis_cells
    for _, lo, hi in _iter_family(config, tau):
        m_val = _direct_integral(mu, np.ones_like(f.values), lo, hi)
        if m_val <= 0.0:
            continue
        coeff = m_val ** expo * _direct_integral(mu, f.values, lo, hi)
        sl = tuple(slice(max(a, 0), min(b, cells)) for a, b in zip(lo, hi))
        out[sl] += coeff
    return GridFunction(config, out)


def perez_direct(mu: Weight, alpha: float, f: GridFunction) -> GridFunction:
    """Direct enlarged-region fractional sum over the standard family."""
    config = mu.config
    if config.depth > 3:
        raise ValueError("direct operator oracle is limited to depth <= 3")
    N = config.total_dim
    expo = alpha / N - 1.0
    out = np.zeros_like(f.values)
    for _, lo, hi in _iter_family(config):
        m_val = _direct_integral(mu, np.ones_like(f.values), lo, hi)
        if m_val <= 0.0:
            continue
        lo3 = tuple(2 * a - b for a, b in zip(lo, hi))
        hi3 = tuple(2 * b - a for a, b in zip(lo, hi))
        coeff = m_val ** expo * _direct_integral(mu, f.values, lo3, hi3)
        out[tuple(slice(a, b) for a, b in zip(lo, hi))] += coeff
    return GridFunction(config, out)


def minimal_cube_exhaustive(config: GridConfig, u, v) -> DyadicCube:
    """Scan every standard cube containing u; smallest with triple holding v.

    Runs level by level with its own floor arithmetic, stopping once no
    deeper cube could qualify (the triple of a cube of side L cannot
    reach farther than 2L along any axis).
    """
    d = len(u)
    units = config.axis_units
    if len(v) != d:
        raise ValueError("point dimensions differ")
    if not all(0 <= c < units for c in u) or not all(0 <= c < units for c in v):
        raise ValueError("coordinates must lie inside [0,1)^d")
    if tuple(u) == tuple(v):
        raise ValueError("points coincide")
    gap = max(abs(a - b) for a, b in zip(u, v))
    best = None
    level = 0
    while True:
        up = max(0, level - (config.depth + 1))
        down = max(0, (config.depth + 1) - level)
        side = 3 << down            # cube side at the common scale
        idx = tuple((c << up) // side for c in u)
        qualifies = True
        for a in range(d):
            lo = idx[a] * side
            vv = v[a] << up
            if not lo - side <= vv < lo + 2 * side:
                qualifies = False
                break
        if qualifies:
            best = DyadicCube(level, idx)
        # side in true units is 3 * 2**(depth+1-level); stop when 2*side <= gap
        if 2 * Fraction(3 * 2 ** (config.depth + 1), 2 ** level) <= gap:
            break
        level += 1
        if level > config.depth + 80:  # pragma: no cover - safety net
            raise AssertionError("exhaustive scan ran away")
    assert best is not None
    return best


def shift_cover_candidates(cube: DyadicCube) -> list[list[tuple[int, int]]]:
    """Per axis, every ``(s, mp)`` whose shifted 8x interval holds the triple.

    Scans every shift and every candidate index in a window around the
    cube, filtering by exact containment: for the triple [m-1, m+2)
    (units of the side) and a candidate at coarse index mp with shift
    s, containment means
    24*mp + 8*s <= 3*(m-1) and 3*(m+2) <= 24*mp + 8*s + 24.
    """
    if not cube.is_standard:
        raise ValueError("exhaustive cover is defined for standard cubes")
    per_axis = []
    for m in cube.index:
        found = []
        for s in (-1, 0, 1):
            for mp in range((m - 1 - 16) // 8, (m + 2) // 8 + 3):
                if 24 * mp + 8 * s <= 3 * (m - 1) and \
                        3 * (m + 2) <= 24 * mp + 8 * s + 24:
                    found.append((s, mp))
        per_axis.append(found)
    return per_axis


def shift_cover_exhaustive(cube: DyadicCube) -> list[tuple[tuple[int, ...],
                                                           DyadicCube]]:
    """All shifted cubes of 8x side containing the triple of a standard cube.

    Every combination of the per-axis ``shift_cover_candidates``, the
    last axis fastest.
    """
    results = []
    for combo in itertools.product(*shift_cover_candidates(cube)):
        taus = tuple(s for s, _ in combo)
        idx = tuple(mp for _, mp in combo)
        results.append((taus, DyadicCube(cube.level - 3, idx, taus)))
    return results
