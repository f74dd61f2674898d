"""Batch studies shared by the command line driver and the test suite.

Pair sampling, the kernel-equivalence ratio study, and the exhaustive
shift-cover verification.  All randomness flows from one seed through
numpy's default PCG64 generator.  The kernel-equivalence study works
on whole ``(P, N)`` int64 pair arrays: kernel sums and minimal-cube
masses take one mass-tree gather per level tuple, and the
minimal-rectangle masses, with the minimal cubes below the depth, one
``box_sums`` batch each, bit for bit the masses of one box at a time.
The shift-cover report checks the boundary cube family as one array
pass per level, in blocks of ``COVER_ROWS`` cubes, so its memory stays
flat; it tests each axis of a cover against that axis's exhaustive
candidates, which the oracle gives once per level for the level's
distinct axis indices.  ``verify_shift_cover`` on each cube of
``boundary_cover_cubes`` is the per-cube reference it equals.
Everything runs in one thread; the ``threads`` argument of
``kernel_equiv_study`` is accepted for compatibility and never changes
the results.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .bruteforce import shift_cover_candidates
from .grids import (DegeneratePairError, DyadicCube, GridConfig, _points,
                    _shift_covers, cube_box, product_minimal_boxes,
                    shift_cover, triple, triple_depths)
from .operators import _hls_exponent, kernel_sums, level_combos
from .weights import Weight, box_sums

COVER_ROWS = 1 << 12  # cubes per block of the shift-cover pass


def sample_distinct_pairs(config: GridConfig, count: int,
                          seed: int) -> list[tuple[tuple[int, ...],
                                                   tuple[int, ...]]]:
    """Seeded pairs of lattice points distinct in every coordinate.

    Each round draws the pairs still needed as one ``(rows, 2, N)``
    block and keeps, in order, the rows whose x and y differ on every
    axis.  Row-major order is the stream of drawing x, then y, one
    pair at a time, so the pairs equal those of a one-pair loop.
    """
    rng = np.random.default_rng(seed)
    N = config.total_dim
    units = config.axis_units
    pairs = []
    while len(pairs) < count:
        draw = rng.integers(0, units, size=(count - len(pairs), 2, N))
        keep = draw[(draw[:, 0] != draw[:, 1]).all(axis=1)]
        pairs.extend((tuple(x), tuple(y)) for x, y in keep.tolist())
    return pairs


def scale_pairs(pairs, factor: int):
    """Map pairs to a lattice ``factor`` times finer (same physical points)."""
    return [(tuple(c * factor for c in x), tuple(c * factor for c in y))
            for x, y in pairs]


def minimal_cube_masses(mu: Weight, X, Y) -> np.ndarray:
    """``mu.mass(product_minimal(x, y))`` for every pair of rows of X, Y.

    Where no factor's minimal cube lies below the configured depth, the
    rectangle is in the mass tree: one gather per level tuple.  The
    other pairs have cubes down to level depth + 3, whose corners are
    whole quarters of a unit (``product_minimal_boxes``): one
    ``box_sums`` batch in quarter units.
    """
    cfg = mu.config
    X, Y = _points(X), _points(Y)
    depths = triple_depths(cfg, X, Y)
    out = np.empty(len(X))
    for levels in level_combos(cfg):
        sel = np.flatnonzero((depths == levels).all(axis=1))
        out[sel] = mu.tree_masses(levels, X[sel])
    deep = np.flatnonzero((depths > cfg.depth).any(axis=1))
    lo, hi = product_minimal_boxes(cfg, X[deep], Y[deep])
    out[deep] = box_sums(mu.cell_masses, lo, hi, denom=4)
    return out


def kernel_equiv_study(mu: Weight, alpha: float, pairs,
                       threads: int = 1) -> dict:
    """Ratio statistics of the rectangle-sum kernel against the closed kernel.

    For each pair also compares the mass of the product of factor-wise
    minimal cubes with the mass of the minimal rectangle itself.  The
    kernel sums and the minimal-cube masses are gathered from the mass
    tree over the whole pair array.  The minimal rectangles
    ``[min(x, y), max(x, y))`` take one ``box_sums`` batch, equal bit
    for bit to ``mu.mass(min_rect(x, y))``; their masses serve both the
    closed kernel and the mass ratio.  A pair sharing a coordinate
    raises ``DegeneratePairError``, and an empty pair list or pairs that
    are not ``(P, 2, N)`` ``ValueError``.  ``threads`` is accepted and
    ignored; the result never depends on it.
    """
    if len(pairs) == 0:
        raise ValueError("kernel_equiv_study needs at least one pair")
    N = mu.config.total_dim
    expo = _hls_exponent(alpha, N)
    XY = _points(pairs)
    if XY.shape != (len(pairs), 2, N):
        raise ValueError(f"pairs must be a (P, 2, {N}) array, got {XY.shape}")
    X, Y = XY[:, 0], XY[:, 1]
    shared = np.argwhere(X == Y)  # (pair, axis), first pair first
    if len(shared):
        raise DegeneratePairError(
            f"coincident coordinate on axis {shared[0, 1]}")
    rm = box_sums(mu.cell_masses, np.minimum(X, Y), np.maximum(X, Y)).tolist()
    summed = kernel_sums(mu, alpha, X, Y).tolist()
    r0 = minimal_cube_masses(mu, X, Y).tolist()
    kernel_ratios = [s / (m ** expo if m > 0 else math.inf)
                     for s, m in zip(summed, rm)]
    mass_ratios = [r / m if m > 0 else math.inf for r, m in zip(r0, rm)]
    r_min, r_max = min(kernel_ratios), max(kernel_ratios)
    return {
        "pairs": len(pairs),
        "kernel_ratio_min": r_min,
        "kernel_ratio_max": r_max,
        "kernel_log_width": math.log(r_max / r_min) if r_min > 0 else math.inf,
        "minimal_mass_ratio_min": min(mass_ratios),
        "minimal_mass_ratio_max": max(mass_ratios),
    }


def boundary_cover_cubes(dim: int, max_level: int) -> Iterator[DyadicCube]:
    """Standard cubes of level |k| <= max_level whose closure meets [0,1]^d.

    Yielded one at a time, levels upward and indices row-major: the
    family grows as ``2**(dim * max_level)``, and no caller holds it.
    """
    for k in range(-max_level, max_level + 1):
        axis_range = range(-1, (1 << k) + 1) if k >= 0 else range(-1, 1)
        for idx in itertools.product(axis_range, repeat=dim):
            yield DyadicCube(k, idx)


def verify_shift_cover(cube: DyadicCube, config: GridConfig) -> bool:
    """One cube: constructed cover is exact and agrees with the oracle."""
    tau, P = shift_cover(cube)
    pbox = cube_box(config, P)
    qbox = cube_box(config, cube)
    if pbox.hi[0] - pbox.lo[0] != 8 * (qbox.hi[0] - qbox.lo[0]):
        return False
    if not pbox.contains_box(triple(config, qbox)):
        return False
    if P.shift != tau or P.level != cube.level - 3:
        return False
    # the exhaustive covers are the product of the per-axis candidates
    return all(pair in found for pair, found in
               zip(zip(tau, P.index), shift_cover_candidates(cube)))


def shift_cover_report(dim: int, max_level: int) -> dict:
    """Exhaustive shift-cover verification over the boundary cube family.

    The family of ``boundary_cover_cubes``, in its order, as
    ``(rows, dim)`` index arrays of ``COVER_ROWS`` rows: each row is
    checked in exact integers, in thirds of its cube's side, against
    ``verify_shift_cover``'s conditions.  The cover ``(tau, P)`` from
    ``grids._shift_covers`` has level k - 3, so its side is 8 cube
    sides, 24 thirds, on every axis; on axis a with combined index
    ``c = 3 * P.index[a] + tau[a]`` it spans ``[8c, 8c + 24)``, which
    must hold the triple ``[3m - 3, 3m + 6)``; each ``tau[a]`` must be
    -1, 0 or +1; and ``(tau[a], P.index[a])`` must be one of the
    oracle's candidates for m.  The oracle runs once per level, on the
    level's distinct axis indices, and its candidates are sorted once
    per level, for a ``np.searchsorted`` lookup per block.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be at least 0, got {max_level}")
    GridConfig((dim,), 1)  # refuses a dimension outside 1..4
    checked, failures = 0, []
    for k in range(-max_level, max_level + 1):
        n = (1 << k) + 2 if k >= 0 else 2  # axis indices -1 .. n - 2
        axis = range(-1, n - 1)
        # (c, m) as one key c * n + m + 1, with m + 1 in [0, n), sorted
        # once so that each block looks its keys up by bisection
        found = np.sort([(3 * mp + s) * n + m + 1 for m, cands in zip(
            axis, shift_cover_candidates(DyadicCube(k, axis)))
            for s, mp in cands])
        for start in range(0, n ** dim, COVER_ROWS):
            rows = np.arange(start, min(start + COVER_ROWS, n ** dim))
            m = np.stack(np.unravel_index(rows, (n,) * dim), axis=1) - 1
            tau, idx = _shift_covers(m)
            c = 3 * idx + tau
            key = c * n + m + 1
            ok = ((np.abs(tau) <= 1) & (8 * c <= 3 * m - 3)
                  & (3 * m + 6 <= 8 * c + 24)
                  & (found.take(np.searchsorted(found, key), mode="clip")
                     == key)).all(axis=1)
            failures += [{"level": k, "index": i} for i in m[~ok].tolist()]
        checked += n ** dim
    return {"dim": dim, "max_level": max_level,
            "cubes_checked": checked, "failures": failures}
