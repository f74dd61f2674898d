"""Rectangular weights and grid functions on the finest lattice.

A weight is a nonnegative density, piecewise constant on the lattice of
``3 * 2**K`` cells per unit axis.  Lattice families are aggregated
bottom-up by pure additions, so no digits cancel: the mass tree holds
every standard product dyadic rectangle and serves the family sums and
the pair gathers (``tree_masses``); the third-cube pyramid holds the
blocks that one-third shifted cubes are runs of; tripled cubes 3R are
width-3 windows over the standard cubes (``operators`` sums the runs
and windows).  Both aggregates are a ``LevelTree``: one heap array per
tree, with each factor's levels laid end to end along one axis, and
every level combination's table a view of it.  ``_level_tree`` fills
the heap in N*K halving passes (``_passes``) by strided slice
additions, one per factor and level; ``_scatter``, its transpose, runs
the same passes backwards and pushes every level down onto the next
finer one: the one scatter of every rectangle sum.  Every single box
-- ``Weight.mass`` of any target, standard rectangles included, and
every ``integrate`` target -- is a direct sum over the cells the box
meets (``box_sum``), with exact fractional weights for end cells that a
corner splits; ``box_sums`` does the same for a whole array of boxes,
with the same bits.

Every input rule is written once here.  ``_cells`` checks a cell
array (a grid function's values, a weight's density): its shape, then
finite and nonnegative entries, which per-axis factors share.
``_check_same_grid`` refuses inputs on different grids, for
``integrate``, ``lp_norm``, the operators, the testing constants and
the estimators' warm starts alike.

The resolution rule is written once here too.  An array may hold one
value per cell, one per block (a level-K cube, a third-cube, or a cell
of a shallower grid) or one value for a constant.  ``_upsample`` puts
it on cells (``GridFunction.refine`` is its call onto the deeper grid),
``_weighted`` multiplies it by the masses at its resolution (the level-K
cube masses per cube, the cell masses otherwise) and ``_lp`` is the one
L^p formula, read by ``lp_norm`` and the estimators' steps alike.  The
three tensor generators build their ``Weight`` with ``_tensor``, which
keeps the per-axis densities as its factors.

Constructors freeze a float64 array in place rather than copy it, so
an array the caller passes in becomes read-only.  A view's base stays
writable: writing through it changes the density but not the masses
already aggregated from it.  A weight's mass-tree heap is read-only
too, so in-place work touches only the aggregates built per call.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .grids import Box, DepthExceededError, GridConfig, _as_box, _points

WEIGHT_SCHEMA_VERSION = 1
FACTOR_RTOL = 1e-12  # per-axis factors against the density, cell by cell
BOX_ROWS = 256  # boxes per block of box_sums: bounds its temporaries


class AlignmentError(ValueError):
    """A mass query with corners not expressible exactly on the lattice."""


class WeightFormatError(ValueError):
    """A weight file that fails validation."""


def _sum_blocks(arr: np.ndarray, axis: int, block: int) -> np.ndarray:
    """Sum consecutive groups of ``block`` entries along one axis."""
    if block == 1:
        return arr
    shape = arr.shape
    ns = shape[:axis] + (shape[axis] // block, block) + shape[axis + 1:]
    return arr.reshape(ns).sum(axis=axis + 1)


def _slice_sum(arr: np.ndarray, axis: int, block: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """``_sum_blocks`` for blocks of 2 or 3, by strided slice additions.

    Each block is summed from its first entry on, as the reduction of
    ``_sum_blocks`` adds it, so the two agree bit for bit.  The sums go
    to ``out`` when it is given.
    """
    lead = (slice(None),) * axis
    out = np.add(arr[lead + (slice(0, None, block),)],
                 arr[lead + (slice(1, None, block),)], out=out)
    if block == 3:
        out += arr[lead + (slice(2, None, 3),)]
    return out


@functools.lru_cache(maxsize=None)
def _view(config: GridConfig, blocks: int, key: tuple) -> tuple:
    """The heap index and shape of a ``LevelTree`` view, cached per grid.

    ``key`` holds per factor a level, whose heap axis the view splits
    into the factor's cube axes, or a ``(lo, hi)`` range of levels,
    which it keeps on one axis.
    """
    index, shape = [], []
    for k, d in zip(key, config.dims):
        s = list(itertools.accumulate(((blocks << lv) ** d for lv in range(
            config.depth + 1)), initial=0))
        lo, hi = k if isinstance(k, tuple) else (k, k + 1)
        index.append(slice(s[lo], s[hi]))
        shape += [s[hi] - s[lo]] if isinstance(k, tuple) else [blocks << k] * d
    return tuple(index), shape


def level_combos(config: GridConfig):
    """Factor-level tuples in enumeration order."""
    return itertools.product(range(config.depth + 1),
                             repeat=config.n_factors)


class LevelTree(Mapping):
    """Every level combination's table, each a view of one heap array.

    The heap has one axis per factor.  Along factor i's axis, of
    dimension d, the levels lie end to end: level k holds the
    ``(blocks * 2**k)**d`` entries of its cubes (``blocks`` 1) or
    third-cubes (``blocks`` 3) in row-major order, from offset
    ``blocks**d * sum_{l<k} 2**(l*d)``.  Every heap entry is a table
    entry, so one elementwise operation on heaps of one layout acts on
    every table at once.  Keys are level tuples in ``level_combos``
    order; without a ``heap`` the tree gets an empty one.
    """

    def __init__(self, config: GridConfig, blocks: int = 1,
                 heap: np.ndarray | None = None):
        self.config, self.blocks = config, blocks
        every = ((0, config.depth + 1),) * config.n_factors
        self.heap = np.empty(_view(config, blocks, every)[1]) \
            if heap is None else heap

    def like(self, heap: np.ndarray) -> "LevelTree":
        """The same layout over another heap."""
        return LevelTree(self.config, self.blocks, heap)

    def __getitem__(self, key) -> np.ndarray:
        index, shape = _view(self.config, self.blocks, tuple(key))
        return self.heap[index].reshape(shape)

    def __iter__(self):
        return level_combos(self.config)

    def __len__(self) -> int:
        return (self.config.depth + 1) ** self.config.n_factors

    def region(self, i: int, k: int) -> np.ndarray:
        """Factor i's level-k tables over every level of the other factors.

        Factor i's cube axes are axes ``i .. i + d - 1``; every other
        factor keeps one axis.
        """
        every = (0, self.config.depth + 1)
        return self[(every,) * i + (k,) +
                    (every,) * (self.config.n_factors - 1 - i)]


@functools.lru_cache(maxsize=None)
def _passes(config: GridConfig, blocks: int) -> tuple:
    """The halving passes of ``_level_tree``, in its order.

    One per factor, last factor first, and level k, finest first:
    factor i's cube axes, then the views (``_view``) of factor i at
    levels k + 1 and k, each earlier factor at its finest level and
    each later one at all of its levels.
    """
    K, n = config.depth, config.n_factors
    return tuple((range(i, i + config.dims[i]), *(_view(config, blocks, (
        (K, K + 1),) * i + (lv,) + ((0, K + 1),) * (n - 1 - i))
        for lv in (k + 1, k))) for i in reversed(range(n))
        for k in range(K - 1, -1, -1))


def _level_tree(config: GridConfig, base: np.ndarray,
                blocks: int) -> LevelTree:
    """Halve ``base`` factor by factor into every level combination.

    ``base`` holds the finest level on every factor.  Each pass of
    ``_passes`` writes factor i's level-k tables as the ``_slice_sum``
    halvings, axis by axis, of its level-(k + 1) ones.  So every table
    is halved from the one with its first lowerable factor one level
    deeper, by the same additions for every build.
    """
    tree = LevelTree(config, blocks)
    heap = tree.heap
    tree[(config.depth,) * config.n_factors][...] = base
    for axes, (fine, fshape), (coarse, cshape) in _passes(config, blocks):
        arr = heap[fine].reshape(fshape)
        for ax in axes[:-1]:
            arr = _slice_sum(arr, ax, 2)
        _slice_sum(arr, axes[-1], 2, out=heap[coarse].reshape(cshape))
    return tree


def _scatter(tree: LevelTree) -> np.ndarray:
    """The transpose of ``_level_tree``: every table summed onto the finest.

    The gather's passes run backwards, in place: each adds its coarse
    region onto every child block of its fine one.  Each finest entry
    then holds the entries of every table above it.  On one factor the
    additions are those of the term-by-term sum in ``level_combos``
    order, bit for bit; on several the order differs, so a sum of n
    positive terms moves by at most about n unit roundoffs.  Returns a
    copy of the finest table: per level-K cube for the mass tree, per
    cell for the pyramid.
    """
    heap, halves = tree.heap, (slice(0, None, 2), slice(1, None, 2))
    for axes, (fine, fshape), (coarse, cshape) in reversed(
            _passes(tree.config, tree.blocks)):
        dst, src = heap[fine].reshape(fshape), heap[coarse].reshape(cshape)
        for child in itertools.product(halves, repeat=len(axes)):
            dst[(slice(None),) * axes[0] + child] += src
    return tree[(tree.config.depth,) * tree.config.n_factors].copy()


def build_mass_tree(config: GridConfig, masses: np.ndarray) -> LevelTree:
    """Aggregate cell masses into every standard level combination.

    Keys are per-factor level tuples; values are arrays indexed by the
    per-axis cube indices at those levels, views of the tree's heap.
    Masses already per level-K cube (``2**K`` entries per axis, not
    ``3 * 2**K``) are the finest level as they are.
    """
    if len(masses) == config.axis_cells:  # per cell: sum each cube's cells
        for ax in range(config.total_dim):
            masses = _slice_sum(masses, ax, 3)
    return _level_tree(config, masses, 1)


def build_pyramid(config: GridConfig, cell_masses: np.ndarray) -> LevelTree:
    """Aggregate cell masses into third-cubes at every level combination.

    A third-cube at level k is a block of ``2**(K-k)`` cells per axis,
    one third of a level-k cube's side, so the value at levels ``lv``
    has ``3 * 2**k`` entries per axis.  Every level-k cube, standard or
    one-third shifted, is a run of three consecutive third-cubes.
    """
    return _level_tree(config, cell_masses, 3)


def build_prefix(cell_masses: np.ndarray) -> np.ndarray:
    """Zero-padded cumulative-sum table over the cell lattice."""
    arr = np.asarray(cell_masses, dtype=float)
    for ax in range(arr.ndim):
        arr = np.cumsum(arr, axis=ax)
    out = np.zeros(tuple(s + 1 for s in cell_masses.shape))
    out[(slice(1, None),) * arr.ndim] = arr
    return out


def box_sums(arr: np.ndarray, lo, hi, denom: int = 1) -> np.ndarray:
    """Integrals of per-cell values over ``P`` boxes in global units, clipped.

    ``lo`` and ``hi`` are ``(P, N)`` integer corner arrays counted in
    ``1/denom`` of the global unit, so a cell is ``2 * denom`` wide;
    non-integer corners are refused as ``grids._points`` refuses them.
    Each box's first cell, cell count and two end fractions per axis
    come from whole-array arithmetic, ``BOX_ROWS`` boxes at a time:
    interior cells weigh one and an end cell that a corner splits gets
    its exact overlap fraction.  Each box's slab is then contracted
    axis by axis, last axis first, with one ``@`` per axis.  Every mass
    is a sum of nonnegative terms for nonnegative cells, so no digits
    cancel however small it is; the relative error is about
    ``n_1 + ... + n_N`` unit roundoffs, with ``n_a`` the cells the box
    meets on axis a.  A box that misses the domain on some axis has
    mass 0.
    """
    lo, hi = _points(lo), _points(hi)
    if lo.ndim != 2 or lo.shape[1] != arr.ndim or hi.shape != lo.shape:
        raise ValueError("box dimension does not match the configuration")
    width = 2 * denom
    end = width * np.array(arr.shape, dtype=np.int64)
    axes = range(arr.ndim - 1, -1, -1)
    ones = np.ones(max(arr.shape))
    out = np.zeros(len(lo))
    for c in range(0, len(lo), BOX_ROWS):
        a = np.maximum(lo[c:c + BOX_ROWS], 0)
        b = np.minimum(hi[c:c + BOX_ROWS], end)
        first = a // width
        last = -(-b // width)
        head = (np.minimum(b, width * first + width) - a) / width
        tail = (b - np.maximum(a, width * last - width)) / width
        rows = zip(first.tolist(), last.tolist(), head.tolist(),
                   tail.tolist())
        for p, (starts, stops, heads, tails) in enumerate(rows, c):
            if min(heads) <= 0:  # b <= a on some axis
                continue
            slab = arr[tuple(map(slice, starts, stops))]
            for ax in axes:
                w = ones[:stops[ax] - starts[ax]].copy()
                w[0] = heads[ax]
                w[-1] = tails[ax]
                slab = slab @ w
            out[p] = slab
    return out


def box_sum(arr: np.ndarray, box: Box) -> float:
    """``box_sums`` of one box, whose corners may be ints or Fractions.

    The corners are brought to their least common denominator; floats
    are rejected (they cannot express the lattice exactly).
    """
    corners = box.lo + box.hi
    for c in corners:
        if not isinstance(c, (int, np.integer, Fraction)):
            raise AlignmentError(
                f"box corner {c!r} is not an exact lattice coordinate")
    denom = math.lcm(*(c.denominator for c in corners))
    scaled = np.array([int(c * denom) for c in corners], dtype=np.int64)
    return float(box_sums(arr, scaled[None, :box.dim],
                          scaled[None, box.dim:], denom)[0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


def _finite_nonnegative(arr: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(arr))) and not np.any(arr < 0)


def _cells(config: GridConfig, values, what: str) -> np.ndarray:
    """``values`` as a frozen float array with one entry per lattice cell.

    The one check of every cell array (a grid function's values, a
    weight's density): the shape, then finite and nonnegative entries.
    """
    shape = (config.axis_cells,) * config.total_dim
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not _finite_nonnegative(arr):
        raise ValueError(f"{what} must be finite and nonnegative")
    return _freeze(arr)


def _check_same_grid(*objs) -> GridConfig:
    """The one grid of ``objs`` (weights, grid functions), refused if several."""
    cfg = objs[0].config
    for o in objs[1:]:
        if o.config != cfg:
            raise ValueError("inputs live on different grids")
    return cfg


def _outer(factors) -> np.ndarray:
    return functools.reduce(np.multiply.outer, factors)


def _upsample(config: GridConfig, arr: np.ndarray) -> np.ndarray:
    """Spread per-block values onto cells.

    The blocks are level-K cubes, third-cubes or the cells of a
    shallower grid.  A cell array is returned as it is.  An array each
    of whose axes has either one block or one cell per block comes back
    as a read-only broadcast view sharing its memory, of stride 0 along
    the one-block axes; anything else is copied once.
    """
    cells = (config.axis_cells,) * arr.ndim
    if arr.shape == cells:
        return arr
    # per axis a block index and an offset within the block, along
    # which the block's value broadcasts
    view = [x for n, m in zip(cells, arr.shape) for x in (m, n // m)]
    term = [x for m in arr.shape for x in (m, 1)]
    return np.broadcast_to(arr.reshape(term), view).reshape(cells)


def _checked_meta(meta) -> dict:
    """A copy of a weight's meta, which with its params must be an object."""
    if not isinstance(meta, dict) or \
            not isinstance(meta.get("params", {}), dict):
        raise ValueError(f"meta and its params must be objects, got {meta!r}")
    return dict(meta)


def _checked_factors(config: GridConfig, density: np.ndarray,
                     factors) -> tuple[np.ndarray, ...]:
    """Per-axis densities, frozen, after checking their outer product."""
    factors = tuple(_freeze(a) for a in factors)
    if len(factors) != config.total_dim or \
            any(a.shape != (config.axis_cells,) for a in factors):
        raise ValueError(f"need {config.total_dim} factors of "
                         f"{config.axis_cells} values each")
    if not all(map(_finite_nonnegative, factors)):
        raise ValueError("factors must be finite and nonnegative")
    gap = np.abs(_outer(factors) - density)
    if not np.all(gap <= FACTOR_RTOL * density):
        raise ValueError("the outer product of the factors does not match "
                         f"the density to {FACTOR_RTOL:g} relative")
    return factors


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative piecewise-constant function on the finest lattice."""

    config: GridConfig
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _cells(self.config, self.values, "values"))

    @classmethod
    def ones(cls, config: GridConfig) -> "GridFunction":
        return cls(config, np.ones((config.axis_cells,) * config.total_dim))

    @classmethod
    def indicator(cls, config: GridConfig, target) -> "GridFunction":
        vals = np.zeros((config.axis_cells,) * config.total_dim)
        vals[cell_slices(config, target)] = 1.0
        return cls(config, vals)

    def refine(self, depth: int) -> "GridFunction":
        """Replicate cells onto a deeper lattice (same function)."""
        if depth == self.config.depth:
            return self
        if depth < self.config.depth:
            raise ValueError("refine only goes to deeper lattices")
        cfg = GridConfig(self.config.dims, depth)
        return GridFunction(cfg, _upsample(cfg, self.values))


def cell_slices(config: GridConfig, target) -> tuple[slice, ...]:
    """Cell index slices of a cell-aligned region (rect or box), clipped."""
    box = _as_box(config, target, "take cells of")
    slices = []
    for lo, hi in zip(box.lo, box.hi):
        if lo % 2 or hi % 2:
            raise AlignmentError("region is not aligned to whole cells")
        slices.append(slice(max(int(lo) // 2, 0),
                            min(int(hi) // 2, config.axis_cells)))
    return tuple(slices)


class Weight:
    """Nonnegative density with exact hierarchical mass machinery.

    ``density`` holds per-cell values and ``mass_tree`` the aggregated
    masses of all standard product cubes, a ``LevelTree`` whose heap is
    read-only; any other lattice box is summed directly over its cells.
    ``prefix`` (built lazily) is a summed-area table of the cell masses
    that no mass query reads.

    ``factors``, when given, are per-axis densities whose outer product
    is ``density`` to ``FACTOR_RTOL`` in every cell: a tensor weight's
    record of its product structure, which the kernel form uses.  They
    are never inferred from a density.  ``meta``, when given, must be
    an object whose ``params``, if any, is an object too: the rule of
    ``_checked_meta``, which a weight file's meta also passes.
    """

    def __init__(self, config: GridConfig, density, meta: dict | None = None,
                 factors=None):
        self.density = _cells(config, density, "density")
        if float(self.density.sum()) <= 0.0:
            raise ValueError("weight must carry positive total mass")
        self.config = config
        self.factors = None if factors is None else \
            _checked_factors(config, self.density, factors)
        self.cell_masses = _freeze(self.density * config.cell_volume)
        self.mass_tree = build_mass_tree(config, self.cell_masses)
        self.mass_tree.heap.flags.writeable = False
        self.meta = _checked_meta({} if meta is None else meta)

    @functools.cached_property
    def prefix(self) -> np.ndarray:
        return _freeze(build_prefix(self.cell_masses))

    @property
    def total_mass(self) -> float:
        return float(self.mass_tree[(0,) * self.config.n_factors][
            (0,) * self.config.total_dim])

    def tree_masses(self, levels: tuple[int, ...], points) -> np.ndarray:
        """Masses of the standard rectangles at ``levels`` containing each point.

        ``points`` is a ``(P, N)`` integer array in global units inside
        the domain; one gather from the mass tree.
        """
        cfg = self.config
        shifts = cfg.depth + 1 - np.repeat(levels, cfg.dims)
        return self.mass_tree[tuple(levels)][tuple((points // (3 << shifts)).T)]

    def mass(self, target) -> float:
        """Mass of a product rectangle or lattice-aligned box, clipped to the domain."""
        return box_sum(self.cell_masses,
                       _as_box(self.config, target, "measure"))

    def coarsen(self, depth: int) -> "Weight":
        """The same measure represented on a coarser lattice."""
        if depth == self.config.depth:
            return self
        if not 1 <= depth < self.config.depth:
            raise ValueError("coarsen target must be a shallower valid depth")
        f = 1 << (self.config.depth - depth)
        arr = self.density
        for ax in range(self.config.total_dim):
            arr = _sum_blocks(arr, ax, f) / f
        factors = None if self.factors is None else \
            [_sum_blocks(a, 0, f) / f for a in self.factors]
        meta = dict(self.meta)
        meta["params"] = dict(meta.get("params", {}),
                              coarsened_from=self.config.depth)
        return Weight(GridConfig(self.config.dims, depth), arr, meta, factors)


def integrate(w: Weight, f: GridFunction, target) -> float:
    """Integral of f against the weight over a rectangle or box."""
    _check_same_grid(w, f)
    return box_sum(w.cell_masses * f.values,
                   _as_box(w.config, target, "integrate over"))


def lp_norm(w: Weight, f: GridFunction, p: float) -> float:
    """Weighted p-norm over the whole domain, 1 < p < infinity."""
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    _check_same_grid(w, f)
    return _lp(w, f.values, p)


def _weighted(sigma: Weight, values: np.ndarray) -> np.ndarray:
    """``values`` times sigma's masses at their resolution.

    The level-K cube masses, ``mass_tree[(K,) * n]``, for values per
    level-K cube (``2**K`` entries per axis, at least 2), and the cell
    masses for any other values: on cells, or one value broadcast over
    them.
    """
    cubes = sigma.mass_tree[(sigma.config.depth,) * sigma.config.n_factors]
    return (cubes if values.shape == cubes.shape else sigma.cell_masses) * values


def _lp(sigma: Weight, values: np.ndarray, p: float) -> float:
    """The L^p(sigma) norm of ``values``: on cells, one value or per cube.

    Per cube, the sum runs over the cube masses ``_weighted`` reads.
    """
    return float(np.sum(_weighted(sigma, values ** p))) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Weight generators


def _tensor(config: GridConfig, axis_density, kind: str, seed=None,
            **params) -> Weight:
    """The tensor weight of per-axis densities, which it keeps as factors."""
    return Weight(config, _outer(axis_density), factors=axis_density,
                  meta={"kind": kind, "seed": seed, "params": params})


def gen_uniform(config: GridConfig) -> Weight:
    """Lebesgue measure: density one everywhere."""
    return _tensor(config, [np.ones(config.axis_cells)] * config.total_dim,
                   "uniform")


def gen_power(config: GridConfig, exponents, centers=None) -> Weight:
    """Tensor power weight prod_a |t_a - c_a|**a_a, each a_a > -1.

    Cell masses use the exact antiderivative per axis, so masses near
    the singularity are quadrature-free.
    """
    exps = tuple(float(a) for a in exponents)
    if len(exps) != config.total_dim:
        raise ValueError("need one exponent per axis")
    if any(a <= -1 for a in exps):
        raise ValueError("power exponents must exceed -1 for local integrability")
    if centers is None:
        centers = (0.0,) * config.total_dim
    centers = tuple(float(c) for c in centers)
    if len(centers) != config.total_dim:
        raise ValueError("need one center per axis")

    cells = config.axis_cells
    edges = np.arange(cells + 1, dtype=float) / cells
    axis_density = []
    for a, c in zip(exps, centers):
        s = edges - c
        anti = np.sign(s) * np.abs(s) ** (1.0 + a) / (1.0 + a)
        axis_density.append(np.diff(anti) * cells)
    return _tensor(config, axis_density, "power", exponents=list(exps),
                   centers=list(centers))


def gen_cascade(config: GridConfig, rho: float, seed: int) -> Weight:
    """Tensor product of per-axis dyadic multiplicative cascades.

    Each interval splits its mass into fractions (theta, 1 - theta)
    with theta drawn uniformly from [1/(1+rho), rho/(1+rho)], which
    bounds every one-axis halving ratio by 1 + rho from above and
    (1+rho)/rho from below.  Deterministic for a given seed.
    """
    rho = float(rho)
    if not 1.0 < rho <= 4.0:
        raise ValueError(f"cascade ratio must satisfy 1 < rho <= 4, got {rho}")
    rng = np.random.default_rng(seed)
    lo, hi = 1.0 / (1.0 + rho), rho / (1.0 + rho)
    cells = config.axis_cells
    axis_density = []
    for _ in range(config.total_dim):
        m = np.array([1.0])
        for _ in range(config.depth):
            theta = lo + (hi - lo) * rng.random(m.size)
            m = np.stack([m * theta, m * (1.0 - theta)], axis=1).reshape(-1)
        axis_density.append(np.repeat(m, 3) * (cells / 3.0))
    return _tensor(config, axis_density, "cascade", int(seed), rho=rho,
                   rng="numpy-default-pcg64")


# ---------------------------------------------------------------------------
# Persistence


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")


def _decode(payload, count: int, what: str) -> np.ndarray:
    """``count`` little-endian doubles from a base64 payload."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except (TypeError, ValueError) as exc:
        raise WeightFormatError(f"undecodable {what} payload: {exc}") from exc
    if len(raw) != 8 * count:
        raise WeightFormatError(
            f"{what} payload holds {len(raw) // 8} values, expected {count}")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def _parse_array_doc(doc) -> tuple[GridConfig, np.ndarray, dict]:
    if not isinstance(doc, dict):
        raise WeightFormatError("a weight file holds one JSON object")
    for key in ("version", "dims", "depth", "lattice", "density"):
        if key not in doc:
            raise WeightFormatError(f"missing field {key!r}")
    # type(...) is int, not isinstance: JSON true would pass as 1 (and,
    # for the version, == alone would pass 1.0)
    version = doc["version"]
    if type(version) is not int or version != WEIGHT_SCHEMA_VERSION:
        raise WeightFormatError(f"version must be the integer "
                                f"{WEIGHT_SCHEMA_VERSION}, got {version!r}")
    if type(doc["depth"]) is not int:
        raise WeightFormatError(f"depth must be an integer, got "
                                f"{doc['depth']!r}")
    for key in ("dims", "lattice"):
        if not isinstance(doc[key], list) or \
                not all(type(c) is int for c in doc[key]):
            raise WeightFormatError(f"{key} must be a list of integers, "
                                    f"got {doc[key]!r}")
    try:
        meta = _checked_meta(doc.get("meta", {}))
    except ValueError as exc:
        raise WeightFormatError(str(exc)) from None
    try:
        config = GridConfig(tuple(doc["dims"]), doc["depth"])
    except DepthExceededError as exc:
        raise WeightFormatError(f"{exc}, got {doc['depth']!r}") from exc
    except ValueError as exc:
        raise WeightFormatError(f"dims {doc['dims']!r} refused: {exc}") \
            from exc
    lattice = doc["lattice"]
    if lattice != [config.axis_cells] * config.total_dim:
        raise WeightFormatError(
            f"lattice {lattice} inconsistent with depth {config.depth}")
    arr = _decode(doc["density"], config.axis_cells ** config.total_dim,
                  "density").reshape((config.axis_cells,) * config.total_dim)
    return config, arr, meta


def save_weight(w: Weight, path) -> None:
    cfg = w.config
    doc = {"version": WEIGHT_SCHEMA_VERSION, "dims": list(cfg.dims),
           "depth": cfg.depth, "lattice": [cfg.axis_cells] * cfg.total_dim,
           "density": _encode(w.density),
           "meta": {"kind": "custom", "seed": None, "params": {}, **w.meta}}
    if w.factors is not None:
        doc["factors"] = [_encode(a) for a in w.factors]
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_weight(path) -> Weight:
    """Read a weight file; the optional ``factors`` field must match the density."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise WeightFormatError(f"malformed weight file: {exc}") from exc
    config, arr, meta = _parse_array_doc(doc)
    factors = doc.get("factors")
    if factors is not None:
        if not isinstance(factors, list) or \
                len(factors) != config.total_dim:
            raise WeightFormatError(
                f"factors must list {config.total_dim} payloads")
        factors = [_decode(a, config.axis_cells, "factor") for a in factors]
    try:
        return Weight(config, arr, meta, factors)
    except ValueError as exc:
        raise WeightFormatError(str(exc)) from exc
