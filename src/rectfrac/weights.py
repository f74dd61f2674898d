"""Rectangular weights and grid functions on the finest lattice.

A weight is a nonnegative density, piecewise constant on the lattice of
``3 * 2**K`` cells per unit axis.  Lattice families are aggregated
bottom-up by pure additions, so no digits cancel: the mass tree holds
every standard product dyadic rectangle (O(1) lookup), and the
third-cube pyramid holds the blocks that one-third shifted cubes and
tripled cubes are runs of (``operators`` sums the runs).  Single box
queries the tree cannot answer -- a shifted or tripled box passed to
``Weight.mass``, minimal rectangles between lattice points, every
``integrate`` target -- are direct sums over the cells the box meets
(``box_sum``), with exact fractional weights for end cells that a
corner splits.

Weights and grid functions are immutable after construction (the
backing arrays are marked read-only), so they can be shared freely
across threads.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .grids import (Box, DyadicCube, GridConfig, ProductRect, cube_box,
                    rect_box)

WEIGHT_SCHEMA_VERSION = 1
FACTOR_RTOL = 1e-12  # per-axis factors against the density, cell by cell


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


def _level_tree(config: GridConfig, base: np.ndarray) -> dict:
    """Halve ``base`` factor by factor into every level combination.

    ``base`` holds the finest level on every factor; each coarser array
    is derived from the one with the first-lowerable factor one level
    deeper, so the summation order is fixed for every build.
    """
    K, n = config.depth, config.n_factors
    tree: dict[tuple[int, ...], np.ndarray] = {}
    for levels in itertools.product(range(K, -1, -1), repeat=n):
        if all(k == K for k in levels):
            tree[levels] = base
            continue
        i = next(j for j in range(n) if levels[j] < K)
        arr = tree[levels[:i] + (levels[i] + 1,) + levels[i + 1:]]
        for ax in config.factor_axes(i):
            arr = _sum_blocks(arr, ax, 2)
        tree[levels] = arr
    return tree


def build_mass_tree(config: GridConfig, cell_masses: np.ndarray) -> dict:
    """Aggregate cell masses into every standard level combination.

    Keys are per-factor level tuples; values are arrays indexed by the
    per-axis cube indices at those levels.
    """
    base = cell_masses
    for ax in range(config.total_dim):
        base = _sum_blocks(base, ax, 3)
    return _level_tree(config, base)


def build_pyramid(config: GridConfig, cell_masses: np.ndarray) -> dict:
    """Aggregate cell masses into third-cubes at every level combination.

    A third-cube at level k is a block of ``2**(K-k)`` cells per axis,
    one third of a level-k cube's side, so the value at levels ``lv``
    has ``3 * 2**k`` entries per axis.  Every level-k cube, standard or
    one-third shifted, is a run of three consecutive third-cubes.
    """
    return _level_tree(config, cell_masses)


def build_prefix(cell_masses: np.ndarray) -> np.ndarray:
    """Zero-padded cumulative-sum table over the cell lattice."""
    arr = np.asarray(cell_masses, dtype=float)
    for ax in range(arr.ndim):
        arr = np.cumsum(arr, axis=ax)
    out = np.zeros(tuple(s + 1 for s in cell_masses.shape))
    out[(slice(1, None),) * arr.ndim] = arr
    return out


def _axis_weights(lo, hi, cells: int) -> tuple[int, np.ndarray] | None:
    """First cell and per-cell overlap fractions of [lo, hi) on one axis.

    Cells are 2 units wide; an end cell that a corner splits gets its
    exact overlap fraction.  Accepts int or Fraction endpoints; floats
    are rejected (they cannot express the lattice exactly).
    """
    for c in (lo, hi):
        if not isinstance(c, (int, np.integer, Fraction)):
            raise AlignmentError(
                f"box corner {c!r} is not an exact lattice coordinate")
    a, b = max(lo, 0), min(hi, 2 * cells)
    if b <= a:
        return None
    first, last = a // 2, -(-b // 2)
    weights = np.ones(last - first)
    weights[0] = (min(b, 2 * first + 2) - a) / 2
    weights[-1] = (b - max(a, 2 * last - 2)) / 2
    return first, weights


def box_sum(arr: np.ndarray, box: Box) -> float:
    """Integral of per-cell values over a box in global units, clipped.

    Slices the cells the box meets and contracts each axis with its
    overlap fractions, so the result is a sum of nonnegative terms for
    nonnegative cells: no digits cancel, however small the mass.  The
    relative error is about ``n_1 + ... + n_N`` unit roundoffs, with
    ``n_a`` the cells the box meets on axis a.
    """
    if box.dim != arr.ndim:
        raise ValueError("box dimension does not match the configuration")
    per_axis = [_axis_weights(lo, hi, n)
                for lo, hi, n in zip(box.lo, box.hi, arr.shape)]
    if any(p is None for p in per_axis):
        return 0.0
    out = arr[tuple(slice(first, first + len(w)) for first, w in per_axis)]
    for _, w in reversed(per_axis):
        out = out @ w
    return float(out)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


def _outer(factors) -> np.ndarray:
    return functools.reduce(np.multiply.outer, factors)


def _checked_factors(config: GridConfig, density: np.ndarray,
                     factors) -> tuple[np.ndarray, ...]:
    """Per-axis densities, frozen, after checking their outer product."""
    factors = tuple(_freeze(a) for a in factors)
    if len(factors) != config.total_dim or \
            any(a.shape != (config.axis_cells,) for a in factors):
        raise ValueError(f"need {config.total_dim} factors of "
                         f"{config.axis_cells} values each")
    if not all(np.all(np.isfinite(a)) and np.all(a >= 0) for a in factors):
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
        shape = (self.config.axis_cells,) * self.config.total_dim
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("grid function values must be finite and >= 0")
        object.__setattr__(self, "values", _freeze(arr))

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
        f = 1 << (depth - self.config.depth)
        arr = self.values
        for ax in range(self.config.total_dim):
            arr = np.repeat(arr, f, axis=ax)
        return GridFunction(GridConfig(self.config.dims, depth), arr)

    def scaled(self, c: float) -> "GridFunction":
        if c < 0:
            raise ValueError("scale factor must be >= 0")
        return GridFunction(self.config, self.values * c)


def _as_box(config: GridConfig, target, verb: str) -> Box:
    """The box in global units of a rectangle, cube or box."""
    if isinstance(target, ProductRect):
        return rect_box(config, target)
    if isinstance(target, DyadicCube):
        return cube_box(config, target)
    if isinstance(target, Box):
        return target
    raise TypeError(f"cannot {verb} {type(target).__name__}")


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
    masses of all standard product cubes; any other lattice box is
    summed directly over its cells.  ``prefix`` (built lazily) is a
    summed-area table of the cell masses that no mass query reads.

    ``factors``, when given, are per-axis densities whose outer product
    is ``density`` to ``FACTOR_RTOL`` in every cell: a tensor weight's
    record of its product structure, which the kernel form uses.  They
    are never inferred from a density.
    """

    def __init__(self, config: GridConfig, density, meta: dict | None = None,
                 factors=None):
        shape = (config.axis_cells,) * config.total_dim
        arr = np.asarray(density, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"density must have shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("density must be finite and nonnegative")
        if float(arr.sum()) <= 0.0:
            raise ValueError("weight must carry positive total mass")
        self.config = config
        self.density = _freeze(arr)
        self.factors = None if factors is None else \
            _checked_factors(config, self.density, factors)
        self.cell_masses = _freeze(self.density * config.cell_volume)
        self.mass_tree = build_mass_tree(config, self.cell_masses)
        self.meta = dict(meta or {})
        self._prefix: np.ndarray | None = None

    @property
    def prefix(self) -> np.ndarray:
        if self._prefix is None:
            self._prefix = build_prefix(self.cell_masses)
            self._prefix.flags.writeable = False
        return self._prefix

    @property
    def total_mass(self) -> float:
        return float(self.mass_tree[(0,) * self.config.n_factors][
            (0,) * self.config.total_dim])

    def _tree_lookup(self, rect: ProductRect) -> float | None:
        if not rect.is_standard:
            return None
        K = self.config.depth
        idx = []
        for q in rect.factors:
            if not 0 <= q.level <= K:
                return None
            for m in q.index:
                if not 0 <= m < (1 << q.level):
                    return None
                idx.append(m)
        return float(self.mass_tree[rect.levels][tuple(idx)])

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
        if isinstance(target, ProductRect):
            hit = self._tree_lookup(target)
            if hit is not None:
                return hit
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
        params = dict(meta.get("params", {}))
        params["coarsened_from"] = self.config.depth
        meta["params"] = params
        return Weight(GridConfig(self.config.dims, depth), arr, meta, factors)


def mass(w: Weight, target) -> float:
    return w.mass(target)


def integrate(w: Weight, f: GridFunction, target) -> float:
    """Integral of f against the weight over a rectangle or box."""
    if f.config != w.config:
        raise ValueError("weight and function live on different grids")
    return box_sum(w.cell_masses * f.values,
                   _as_box(w.config, target, "integrate over"))


def lp_norm(w: Weight, f: GridFunction, p: float) -> float:
    """Weighted p-norm over the whole domain, 1 < p < infinity."""
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if f.config != w.config:
        raise ValueError("weight and function live on different grids")
    return float(np.sum(f.values ** p * w.cell_masses)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Weight generators


def _gen_meta(kind: str, seed=None, **params) -> dict:
    return {"kind": kind, "seed": seed, "params": params}


def gen_uniform(config: GridConfig) -> Weight:
    """Lebesgue measure: density one everywhere."""
    axis_density = [np.ones(config.axis_cells)] * config.total_dim
    return Weight(config, _outer(axis_density), meta=_gen_meta("uniform"),
                  factors=axis_density)


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
        masses = np.diff(anti)
        axis_density.append(masses * cells)
    return Weight(config, _outer(axis_density),
                  meta=_gen_meta("power", exponents=list(exps),
                                 centers=list(centers)),
                  factors=axis_density)


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
    return Weight(config, _outer(axis_density),
                  meta=_gen_meta("cascade", seed=int(seed), rho=rho,
                                 rng="numpy-default-pcg64"),
                  factors=axis_density)


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


def _parse_array_doc(doc: dict) -> tuple[GridConfig, np.ndarray, dict]:
    for key in ("version", "dims", "depth", "lattice", "density"):
        if key not in doc:
            raise WeightFormatError(f"missing field {key!r}")
    if doc["version"] != WEIGHT_SCHEMA_VERSION:
        raise WeightFormatError(
            f"unsupported schema version {doc['version']!r}")
    config = GridConfig(tuple(int(d) for d in doc["dims"]), int(doc["depth"]))
    lattice = [int(c) for c in doc["lattice"]]
    if lattice != [config.axis_cells] * config.total_dim:
        raise WeightFormatError(
            f"lattice {lattice} inconsistent with depth {config.depth}")
    arr = _decode(doc["density"], config.axis_cells ** config.total_dim,
                  "density").reshape((config.axis_cells,) * config.total_dim)
    return config, arr, dict(doc.get("meta", {}))


def save_weight(w: Weight, path) -> None:
    cfg = w.config
    doc = {"version": WEIGHT_SCHEMA_VERSION, "dims": list(cfg.dims),
           "depth": cfg.depth, "lattice": [cfg.axis_cells] * cfg.total_dim,
           "density": _encode(w.density),
           "meta": {"kind": "custom", "seed": None, "params": {}, **w.meta}}
    if w.factors is not None:
        doc["factors"] = [_encode(a) for a in w.factors]
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_weight(path, expect_config: GridConfig | None = None) -> Weight:
    """Read a weight file; the optional ``factors`` field must match the density."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise WeightFormatError(f"malformed weight file: {exc}") from exc
    config, arr, meta = _parse_array_doc(doc)
    if expect_config is not None and config != expect_config:
        raise WeightFormatError(
            f"grid mismatch: file has dims={config.dims} depth={config.depth}, "
            f"expected dims={expect_config.dims} depth={expect_config.depth}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise WeightFormatError("density must be finite and nonnegative")
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
