"""Exact geometry of product dyadic grids and their one-third shifts.

A cube at level ``k`` with integer index ``m`` and per-axis shift
``s in {-1, 0, +1}`` (thirds of a side length) occupies

    2**-k * (m + s/3 + [0, 1)**d)

per axis.  All corner bookkeeping happens in the global integer unit
``1/(3 * 2**(K+1))``, where ``K`` is the configured depth: corners of
standard cubes down to level K+1 and corners of one-third shifted cubes
are then simultaneously integer multiples of that unit, so membership,
containment and distance decisions are exact integer comparisons.  The
one construction that may descend below level K+1, the minimal cube of
a nearly coincident point pair, stops by level K+3 and counts in
quarters of the unit, where cubes down to that level have integer
corners too.  One closed form, ``_minimal_shifts``, finds minimal
cubes on whole arrays of pairs: per axis, one test of the triple
predicate next to ``ceil(log2 D)``, D the pair's distance in quarter
units, picks the cube's level with no pass per level.
``minimal_cube`` is its one-pair call, and ``product_minimal``,
``triple_depths`` and ``product_minimal_boxes`` read it too.  Their
points are read by ``_points``, which refuses coordinates that are not
integers instead of truncating them.  ``_integer`` is the same rule for
one integer: a grid's dims and depth, a cube's level and indices, a
kernel seed and a sweep depth.  ``_shift_vector`` reads every shift
vector, a cube's and ``operators.plan``'s family's.  This module
enumerates no family: a family's rectangles, standard or shifted, are
listed by the oracle ``bruteforce._iter_family``.

The combined per-axis index ``c = 3*m + s`` makes the split algebra
uniform: the two halves of ``c`` along an axis are ``2*c`` and
``2*c + 3`` one level down, independent of the shift.  Note that
halving flips the sign of a nonzero shift (the halves of a +1/3 cube
are -1/3 cubes of the next level), which is what makes the split exact.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np


class DepthExceededError(ValueError):
    """Subdivision or enumeration beyond the configured depth."""


class DegeneratePairError(ValueError):
    """Two points coincide where distinct coordinates are required."""


Scalar = Union[int, Fraction]


def _scale2(c: int, e: int) -> Scalar:
    """c * 2**e, exact: int when e >= 0, Fraction otherwise."""
    if e >= 0:
        return c * (1 << e)
    return Fraction(c, 1 << -e)


def _split_c(c: int) -> tuple[int, int]:
    """Decompose a combined index 3*m + s into (m, s), s in {-1, 0, 1}."""
    s = (c + 1) % 3 - 1
    return (c - s) // 3, s


@dataclass(frozen=True)
class GridConfig:
    """Product-space layout: factor dimensions and enumeration depth.

    ``dims[i]`` is the dimension of the i-th factor; dyadic levels run
    0..depth.  The global coordinate unit is ``1/(3*2**(depth+1))`` and
    the finest mass lattice has ``3*2**depth`` cells per unit axis.
    """

    dims: tuple[int, ...]
    depth: int

    def __post_init__(self):
        dims = tuple(_integer(d, "factor dimensions must be integers")
                     for d in self.dims)
        depth = _integer(self.depth, "depth must be an integer",
                         DepthExceededError)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "depth", depth)
        if len(dims) < 1:
            raise ValueError("need at least one factor")
        if any(d < 1 or d > 4 for d in dims):
            raise ValueError("factor dimensions must lie in 1..4")
        if not 1 <= depth <= 12:
            raise DepthExceededError("depth must lie in 1..12")

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def axis_units(self) -> int:
        """Integer units per unit length: 3 * 2**(depth+1)."""
        return 3 * (1 << (self.depth + 1))

    @property
    def axis_cells(self) -> int:
        """Finest lattice cells per unit axis: 3 * 2**depth."""
        return 3 * (1 << self.depth)

    @property
    def cell_volume(self) -> float:
        return float(self.axis_cells) ** (-self.total_dim)

    def factor_axes(self, i: int) -> range:
        """Global axis indices belonging to factor i."""
        start = sum(self.dims[:i])
        return range(start, start + self.dims[i])

    def split_axes(self, flat: tuple) -> tuple[tuple, ...]:
        """Split an N-tuple of per-axis values into per-factor tuples."""
        out, pos = [], 0
        for d in self.dims:
            out.append(tuple(flat[pos:pos + d]))
            pos += d
        return tuple(out)


@dataclass(frozen=True)
class DyadicCube:
    """A cube ``2**-level * (index + shift/3 + [0,1)**d)`` on a shifted grid."""

    level: int
    index: tuple[int, ...]
    shift: tuple[int, ...] = ()

    def __post_init__(self):
        level = _integer(self.level, "cube level must be an integer")
        index = tuple([_integer(m, "cube indices must be integers")
                       for m in self.index])
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "shift",
                           _shift_vector(self.shift or None, len(index)))

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def is_standard(self) -> bool:
        return all(s == 0 for s in self.shift)

    def cvec(self) -> tuple[int, ...]:
        """Combined per-axis indices 3*m + s."""
        return tuple(3 * m + s for m, s in zip(self.index, self.shift))


@dataclass(frozen=True)
class ProductRect:
    """A product of dyadic cubes, one per factor space."""

    factors: tuple[DyadicCube, ...]

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(q.level for q in self.factors)

    @property
    def is_standard(self) -> bool:
        return all(q.is_standard for q in self.factors)


@dataclass(frozen=True)
class Box:
    """Axis-parallel box in global units.

    Boundary convention is irrelevant for mass queries (densities see
    null boundaries); containment predicates treat it as [lo, hi).
    """

    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains_point(self, x) -> bool:
        return all(l <= c < h for l, c, h in zip(self.lo, x, self.hi))

    def contains_box(self, other: "Box") -> bool:
        return all(a <= c and d <= b
                   for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi))


def cube_from_c(level: int, cvec: tuple[int, ...]) -> DyadicCube:
    parts = [_split_c(c) for c in cvec]
    return DyadicCube(level, tuple(m for m, _ in parts), tuple(s for _, s in parts))


def cube_box(config: GridConfig, cube: DyadicCube) -> Box:
    """Exact corner box of a cube in global units."""
    e = config.depth + 1 - cube.level
    side = _scale2(3, e)
    lo = tuple(_scale2(c, e) for c in cube.cvec())
    return Box(lo, tuple(l + side for l in lo))


def rect_box(config: GridConfig, rect: ProductRect) -> Box:
    boxes = [cube_box(config, q) for q in rect.factors]
    return Box(tuple(c for b in boxes for c in b.lo),
               tuple(c for b in boxes for c in b.hi))


def _as_box(config: GridConfig, target, verb: str) -> Box:
    """The box in global units of a rectangle, cube or box."""
    if isinstance(target, ProductRect):
        return rect_box(config, target)
    if isinstance(target, DyadicCube):
        return cube_box(config, target)
    if isinstance(target, Box):
        return target
    raise TypeError(f"cannot {verb} {type(target).__name__}")


def children(config: GridConfig, cube: DyadicCube) -> list[DyadicCube]:
    """The 2**d congruent halves of a cube, one level down.

    Halving a shifted axis flips the sign of its shift; standard cubes
    stay standard.  Children tile the parent exactly.
    """
    if cube.level >= config.depth:
        raise DepthExceededError(
            f"cannot subdivide level {cube.level} at depth {config.depth}")
    cv = cube.cvec()
    out = []
    for offs in itertools.product((0, 1), repeat=cube.dim):
        out.append(cube_from_c(cube.level + 1,
                               tuple(2 * c + 3 * e for c, e in zip(cv, offs))))
    return out


def parent(cube: DyadicCube) -> DyadicCube:
    """The unique cube one level up having this cube among its halves."""
    cv = []
    for c in cube.cvec():
        cv.append((c - 3 * (c % 2)) // 2)
    return cube_from_c(cube.level - 1, tuple(cv))


def replace(rect: ProductRect, cube: DyadicCube, j: int) -> ProductRect:
    """Swap factor j of a product rectangle for the given cube."""
    if not 0 <= j < len(rect.factors):
        raise ValueError(f"factor index {j} out of range")
    if cube.dim != rect.factors[j].dim:
        raise ValueError(
            f"dimension mismatch: factor {j} has dim {rect.factors[j].dim}, "
            f"cube has dim {cube.dim}")
    factors = list(rect.factors)
    factors[j] = cube
    return ProductRect(tuple(factors))


def triple(config: GridConfig, obj) -> Box:
    """The concentric box with three times the side lengths, per axis."""
    box = _as_box(config, obj, "triple")
    lo = tuple(l - (h - l) for l, h in zip(box.lo, box.hi))
    hi = tuple(h + (h - l) for l, h in zip(box.lo, box.hi))
    return Box(lo, hi)


def minimal_cube(config: GridConfig, u: tuple[int, ...],
                 v: tuple[int, ...]) -> DyadicCube:
    """Smallest standard dyadic cube containing u whose triple contains v.

    The one-pair call of ``_minimal_shifts``, with every axis in one
    group: the cube has level ``depth + 3 - s`` and index ``U >> s``.
    """
    d = len(u)
    if len(v) != d:
        raise ValueError("point dimensions differ")
    units = config.axis_units
    if not all(0 <= c < units for c in u) or not all(0 <= c < units for c in v):
        raise ValueError("coordinates must lie inside [0,1)^d")
    if tuple(u) == tuple(v):
        raise DegeneratePairError("minimal cube of coincident points")
    U, s = _minimal_shifts([slice(None)], [u], [v])
    return DyadicCube(config.depth + 3 - int(s[0, 0]), (U >> s)[0].tolist())


def _minimal_shifts(axes, X, Y):
    """``U = 4*X // 3`` and, per pair and axis, the minimal cube's shift s.

    ``X`` and ``Y`` are ``(P, N)`` integer arrays of points in global
    units, and ``axes`` the column indices (ranges or slices) of the
    axis groups (factors) that each get one cube.  Counted in quarters
    of the global unit, a level-k cube has side ``3 * 2**s`` with
    ``s = depth + 3 - k``.  The level-k cube containing x has index
    ``U >> s`` per axis (nested floor division), and its triple holds y
    exactly when ``|(U >> s) - (V >> s)| <= 1`` on every axis of the
    group, with ``V = 4*Y // 3``.

    On one axis let ``D = |U - V|`` and ``c = ceil(log2 D)``.  Two
    integers at most ``2**s`` apart have floors ``>> s`` at most one
    apart, and two at least ``2**(s+1)`` apart have floors at least two
    apart, so the predicate holds for every s >= c and fails for every
    s <= c - 2: one test at ``t = max(c - 1, 0)`` gives the least
    passing s, ``t`` or ``t + 1``.  ``c`` is the binary exponent of
    ``D - 1`` (``np.frexp``), exact for integers; at D = 1 it is 0, at
    D = 0 it is 1, and either way the test at t = 0 passes.  Inside the
    domain ``U, V < 2**(depth + 3)``, so s <= depth + 3 and the level
    ``depth + 3 - s`` lies in 0..depth + 3: at level depth + 4 the side
    is 3/8 of a unit, too small for the triple to reach another lattice
    point.  The predicate only ever turns from failing to holding as s
    grows, so a group's least passing s is the largest of its axes',
    and every axis of the group carries it.
    """
    U, V = 4 * _points(X) // 3, 4 * _points(Y) // 3
    t = np.maximum(np.frexp(np.abs(U - V) - 1)[1] - 1, 0, dtype=np.int64)
    s = t + (np.abs((U >> t) - (V >> t)) > 1)
    for ax in axes:
        s[:, ax] = s[:, ax].max(axis=1, keepdims=True)
    return U, s


def triple_depths(config: GridConfig, X, Y) -> np.ndarray:
    """Per pair and factor, minimal_cube's level, capped at depth + 1.

    ``X`` and ``Y`` are ``(P, N)`` integer arrays of points in global
    units.  Entry ``[p, i]`` is the deepest level k <= depth + 1 (the
    finest level whose cube corners are whole units) at which the
    level-k standard cube containing ``X[p]`` in factor i has ``Y[p]``
    in its triple.  ``minimal_cube``'s predicate holds at every level
    from 0 down to its level and at none below, so k is
    ``depth + 3 - s`` at the factor's least passing s (the closed form
    of ``_minimal_shifts``), capped.  Raises like ``kernel_sum``:
    points that are not integer arrays first, then points outside
    [0,1)^N, then a pair coinciding in a whole factor.
    """
    K, N = config.depth, config.total_dim
    X, Y = _points(X), _points(Y)
    if X.ndim != 2 or X.shape[1] != N or Y.shape != X.shape:
        raise ValueError(f"points must be (P, {N}) arrays of equal shape")
    _check_inside(config, X, Y)
    axes = [config.factor_axes(i) for i in range(config.n_factors)]
    for i, ax in enumerate(axes):
        if (X[:, ax] == Y[:, ax]).all(axis=1).any():
            raise DegeneratePairError(f"points coincide in factor {i}")
    s = _minimal_shifts(axes, X, Y)[1][:, [ax[0] for ax in axes]]
    return np.minimum(K + 3 - s, K + 1)


def _points(P) -> np.ndarray:
    """Points in global units as int64, refusing non-integer coordinates."""
    P = np.asarray(P)
    if P.dtype.kind not in "iu" and P.size:  # an empty array has none
        raise ValueError("points must have integer coordinates in global units")
    return P.astype(np.int64, copy=False)


def _check_inside(config: GridConfig, *points) -> None:
    """Refuse points, in global units, outside [0,1)^N."""
    for P in map(np.asarray, points):
        if ((P < 0) | (P >= config.axis_units)).any():
            raise ValueError("points must lie inside [0,1)^N")


def min_rect(x: tuple[int, ...], y: tuple[int, ...]) -> Box:
    """Minimal axis-parallel box containing two coordinate-distinct points."""
    if len(x) != len(y):
        raise ValueError("point dimensions differ")
    for a, (xa, ya) in enumerate(zip(x, y)):
        if xa == ya:
            raise DegeneratePairError(f"coincident coordinate on axis {a}")
    lo = tuple(min(a, b) for a, b in zip(x, y))
    hi = tuple(max(a, b) for a, b in zip(x, y))
    return Box(lo, hi)


def product_minimal(config: GridConfig, x: tuple[int, ...],
                    y: tuple[int, ...]) -> ProductRect:
    """Factor-wise minimal cubes: the product of minimal_cube per factor."""
    if len(x) != config.total_dim or len(y) != config.total_dim:
        raise ValueError(f"points must have {config.total_dim} coordinates")
    xs = config.split_axes(tuple(x))
    ys = config.split_axes(tuple(y))
    cubes = []
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if xi == yi:
            raise DegeneratePairError(f"points coincide in factor {i}")
        cubes.append(minimal_cube(config, xi, yi))
    return ProductRect(tuple(cubes))


def product_minimal_boxes(config: GridConfig, X, Y):
    """Corners ``(lo, hi)`` of ``product_minimal`` for every pair of rows.

    ``X`` and ``Y`` are ``(P, N)`` integer arrays of points in global
    units, inside the domain and distinct in every factor
    (``triple_depths`` checks both).  The shifts s come from
    ``_minimal_shifts``.  The corners count quarters of the global
    unit, in which cubes down to level depth + 3 have integer corners:
    the cube's lower corner is ``3 * (U >> s) << s`` and its side
    ``3 << s``.
    """
    axes = [config.factor_axes(i) for i in range(config.n_factors)]
    U, s = _minimal_shifts(axes, X, Y)
    lo = (U >> s) * 3 << s
    return lo, lo + (3 << s)


def shift_cover(cube: DyadicCube) -> tuple[tuple[int, ...], DyadicCube]:
    """Cover the triple of a standard cube by one shifted cube of 8x side.

    The one-cube call of ``_shift_covers``: the cover has level
    ``cube.level - 3`` and, per axis, that rule's shift and index.
    """
    if not cube.is_standard:
        raise ValueError("shift cover is defined for standard cubes")
    tau, idx = (tuple(a.tolist()) for a in _shift_covers(cube.index))
    return tau, DyadicCube(cube.level - 3, idx, tau)


def _shift_covers(index) -> tuple[np.ndarray, np.ndarray]:
    """Per axis, the shift and index of the 8x cover of standard cubes.

    ``index`` holds standard cube indices m, any shape; the cover of a
    level-k cube has level k - 3.  Along an axis the triple spans
    [m-1, m+2) in units of the side; length-8 aligned intervals cut it
    at multiples of 8, so with q, r = divmod(m - 1, 8) the triple fits
    in the standard interval q iff r <= 5.  Otherwise the grid shifted
    by +1/3 (r == 6, index q) or -1/3 (r == 7, index q + 1) of the 8x
    side swallows it whole.  Ties cannot occur: the overlap lengths 1
    and 2 with the two straddled intervals are never equal.
    """
    q, r = np.divmod(np.asarray(index, dtype=np.int64) - 1, 8)
    tau = (r == 6).astype(np.int64) - (r == 7)
    return tau, q + (r == 7)


def _integer(value, message: str, error=ValueError) -> int:
    """``value`` as an int, refused with ``message`` unless it is one.

    An integer is what ``operator.index`` takes: ints, bools and numpy
    integers, never a float or a string, so nothing is truncated.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{message}, got {value!r}") from None


def _shift_vector(tau, n: int) -> tuple[int, ...]:
    """Per-axis shifts over {-1, 0, +1}; None is the standard family's."""
    message = "tau must assign -1, 0 or +1 per axis"
    tau = (0,) * n if tau is None else tuple([_integer(t, message)
                                              for t in tau])
    if len(tau) != n or not {-1, 0, 1}.issuperset(tau):
        raise ValueError(message)
    return tau


def standard_rect(config: GridConfig, levels: tuple[int, ...],
                  axis_indices: tuple[int, ...]) -> ProductRect:
    """Build a standard product rectangle from per-factor levels and per-axis indices."""
    idx_by_factor = config.split_axes(tuple(axis_indices))
    return ProductRect(tuple(
        DyadicCube(levels[i], idx_by_factor[i])
        for i in range(config.n_factors)))


def cube_to_json(cube: DyadicCube) -> dict:
    return {"level": cube.level, "index": list(cube.index),
            "tau": list(cube.shift)}


def rect_to_json(rect: ProductRect) -> dict:
    return {"levels": [q.level for q in rect.factors],
            "indices": [list(q.index) for q in rect.factors],
            "tau": [t for q in rect.factors for t in q.shift]}


def rect_from_json(doc: dict) -> ProductRect:
    levels = doc["levels"]
    indices = doc["indices"]
    tau_flat = list(doc["tau"])
    cubes, pos = [], 0
    for k, idx in zip(levels, indices):
        d = len(idx)
        cubes.append(DyadicCube(k, tuple(idx), tuple(tau_flat[pos:pos + d])))
        pos += d
    return ProductRect(tuple(cubes))
