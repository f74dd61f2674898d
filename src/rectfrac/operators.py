"""Positive rectangle-sum operators and the fractional integral forms.

Four realizations of the fractional integral against a weight mu with
exponent 0 < alpha < N are provided on the truncated families:

* the dyadic form, summing mu(R)**(alpha/N - 1) * 1_R * int_R f dmu over
  one shifted grid family (the standard grid by default);
* the enlarged-region form, which integrates f over 3R instead of R;
* the kernel form, integrating mu(R(x,y))**(alpha/N - 1) f(y) dmu(y) by
  cell-center quadrature over the minimal rectangle of each point pair;
* pointwise sums and comparisons between them (kernel_sums over whole
  pair arrays, kernel_sum for one pair, shift_bound_ratio) used by the
  equivalence studies.

Each form of a weight and exponent is one ``plan``: a ``FormPlan``
with ``forward`` and ``adjoint`` maps that take cell arrays, its
``skipped_terms`` and ``excluded_pairs`` counts and, on the standard
family, its ``RectKernel.hls`` coefficients: the same fields for every
form, with the coefficients computed once.  ``apply_*`` build
a plan and apply its forward map (``apply_frac_kernel`` stays the
row-by-row reference), and the estimators ascend with its two maps.

Kernels on the standard family are tabulated per level combination
(``RectKernel``) on the mass tree, which keeps the multilinear form,
the positive operator and the standard-family plans (the dyadic form
with tau = 0 and the enlarged-region form) fully vectorized.  The
shifted and tripled families share one primitive: width-3 window sums
(``_windows``) over the standard cubes or over the third-cube pyramid.
A level-k cube with shift s and index m is the run of three
third-cubes starting at 3m + s, so along each axis

* the family with shift s is every third window, from (s + 2) % 3 on;
* the triple 3R of a standard cube is a width-3 window of standard cubes;
* the 3**N shifted families together are all windows, one pass per
  level combination.

Every rectangle sum is scattered by ``_spread``, the one scatter that
pairs with the gather ``_level_tree``: it adds the terms of all level
combinations (after the transposed window, for the window families) in
``level_combos`` order, keeping the running sum at the finest block
resolution of the terms so far, so each cell gets the additions of the
term-by-term sum in the same order, bit for bit.  A sum over the
standard family stays per level-K cube, on which all its terms are
constant (``2**K`` entries per axis instead of ``3 * 2**K``), until
``_upsample`` puts it on cells; the window families' sums are on cells.

The kernel form's minimal-rectangle masses grow, along each axis, by
cumulative sums of half-pair cell sums running outward from the anchor
cell.  For a weight with per-axis factors, mu(R(x,y)) is the product
of per-axis interval masses, so the kernel is the Kronecker product of
one C x C matrix per axis (``kernel_factor``), and the kernel plan
applies it as one mode product per axis: no C**N x C**N matrix is
built.  Any other weight falls back to the dense ``kernel_matrix``,
filled one anchor cell at a time (``_kernel_rows``).  Either matrix is
refused before it is allocated past ``KERNEL_MATRIX_BUDGET`` bytes, and
both are powered on their upper triangle and mirrored, so the kernel is
exactly symmetric.

Masses and integrals are formed by additions only, so a mass raised
to the negative power alpha/N - 1 keeps its relative accuracy.
Everything is a pure function of immutable inputs; outputs are
reproducible bit for bit for a fixed input.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (GridConfig, ProductRect, min_rect, standard_rect,
                    triple_depths)
from .weights import GridFunction, Weight, build_mass_tree, build_pyramid

EXPONENT_TOL = 1e-12
KERNEL_MATRIX_BUDGET = 1 << 30  # bytes a kernel matrix or factor may take
FACTOR_ROWS = 128  # rows of a kernel factor summed and powered at once
OPERATOR_FORMS = ("dyadic", "perez", "kernel", "shifted-sum")


class ExponentError(ValueError):
    """An exponent configuration outside the admissible range."""


class KernelBudgetError(ValueError):
    """A kernel matrix or factor larger than ``KERNEL_MATRIX_BUDGET``."""


@dataclass(frozen=True)
class ExponentConfig:
    """Validated exponent bundle for the fractional-integral regime.

    The defining relation is 1/q = 1/p - alpha/N with 0 < alpha < N and
    1 < p < q < infinity; ``hls`` derives q from (alpha, p) so the
    relation holds to machine precision.
    """

    alpha: float
    p: float
    q: float
    total_dim: int

    def __post_init__(self):
        N = self.total_dim
        if not 0.0 < self.alpha < N:
            raise ExponentError(f"alpha must lie in (0, {N}), got {self.alpha}")
        if not (1.0 < self.p < self.q < math.inf):
            raise ExponentError(
                f"need 1 < p < q < inf, got p={self.p}, q={self.q}")
        gap = abs(1.0 / self.q - (1.0 / self.p - self.alpha / N))
        if gap > EXPONENT_TOL:
            raise ExponentError(
                "exponents must satisfy 1/q = 1/p - alpha/N "
                f"(off by {gap:.3e})")

    @classmethod
    def hls(cls, alpha: float, p: float, total_dim: int) -> "ExponentConfig":
        inv_q = 1.0 / p - alpha / total_dim
        if inv_q <= 0.0:
            raise ExponentError(
                "exponents must satisfy 1/q = 1/p - alpha/N > 0 "
                f"(got 1/p - alpha/N = {inv_q:.3e})")
        return cls(alpha, p, 1.0 / inv_q, total_dim)

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)


def check_mlinear_exponents(ps) -> tuple[float, ...]:
    """Validate a multilinear exponent tuple.

    The embedding theorem lives in the regime sum(1/p_k) > 1; the
    boundary sum(1/p_k) = 1 is accepted for measurement (the one-sided
    indicator bound never uses the constraint).
    """
    ps = tuple(float(p) for p in ps)
    if any(not 1.0 < p < math.inf for p in ps):
        raise ExponentError(f"every p_k must lie in (1, inf), got {ps}")
    total = sum(1.0 / p for p in ps)
    if total < 1.0 - EXPONENT_TOL:
        raise ExponentError(
            f"exponents must satisfy sum(1/p_k) >= 1, got {total}")
    return ps


def _check_alpha(alpha: float, total_dim: int) -> float:
    if not 0.0 < alpha < total_dim:
        raise ExponentError(
            f"alpha must lie in (0, {total_dim}), got {alpha}")
    return float(alpha)


def _check_same_grid(*objs) -> GridConfig:
    cfg = objs[0].config
    for o in objs[1:]:
        if o.config != cfg:
            raise ValueError("inputs live on different grids")
    return cfg


def level_combos(config: GridConfig):
    """Factor-level tuples in enumeration order."""
    return itertools.product(range(config.depth + 1),
                             repeat=config.n_factors)


def _paired(fine, coarse) -> tuple[list[int], list[int]]:
    """Shapes pairing each axis of ``fine`` with the blocks of ``coarse``.

    Reshaped to the first, an array of shape ``fine`` has per axis a
    block index and an offset within the block; reshaped to the second,
    an array of shape ``coarse`` broadcasts over the offsets.
    """
    view, term = [], []
    for n, m in zip(fine, coarse):
        view += [m, n // m]
        term += [m, 1]
    return view, term


def _upsample(config: GridConfig, arr: np.ndarray) -> np.ndarray:
    """Spread per-block values (cubes or third-cubes) onto their cells.

    A cell array is returned as it is; anything else is copied once.
    """
    cells = (config.axis_cells,) * arr.ndim
    if arr.shape == cells:
        return arr
    view, term = _paired(cells, arr.shape)
    return np.broadcast_to(arr.reshape(term), view).reshape(cells)


def _spread(config: GridConfig, arrs) -> np.ndarray:
    """The sum of the block arrays in ``arrs``, on their finest blocks.

    ``arrs`` yields one array per level combination in ``level_combos``
    order.  The running sum holds, per axis, the finest block count of
    the terms so far, doubled by ``np.repeat`` when a term is finer, and
    each term is added in place through a broadcasting view.  Every
    entry then stands for cells that received the same additions, so
    ``_upsample`` of the result gets the additions of the fold ``out +=
    _upsample(arr)``, from 0 and in the same order, bit for bit.  Over
    standard cubes the result has ``2**K`` entries per axis, one per
    level-K cube; over third-cubes it is on cells.
    """
    out = None
    for arr in arrs:
        if out is None:
            out = np.zeros(arr.shape)
        for ax, (n, m) in enumerate(zip(out.shape, arr.shape)):
            if n < m:
                out = np.repeat(out, m // n, axis=ax)
        view, term = _paired(out.shape, arr.shape)
        fine = out.reshape(view)  # a view: out is contiguous
        fine += arr.reshape(term)
    return out


def _axis_levels(config: GridConfig, levels: tuple[int, ...]) -> list[int]:
    flat = []
    for i, k in enumerate(levels):
        flat.extend([k] * config.dims[i])
    return flat


def _neg_power(masses: np.ndarray, expo: float) -> np.ndarray:
    """masses**expo where the mass is positive, 0 where it vanishes."""
    pos = masses > 0
    return np.where(pos, np.where(pos, masses, 1.0) ** expo, 0.0)


def _windows(arr: np.ndarray, pad: int) -> np.ndarray:
    """Width-3 window sums along every axis of ``arr`` zero-padded by ``pad``.

    Over third-cubes, ``pad=2`` yields every cube of every shift that
    meets the domain -- window ``j`` on an axis is the cube with
    ``3*m + s = j - 2`` -- and ``pad=0`` is the transpose, collecting
    onto each third-cube the windows that cover it.  Over standard
    cubes, ``pad=1`` sums each cube with its neighbours, i.e. over its
    triple 3R clipped to the domain; that map is its own transpose.
    Only additions are used, so no digits cancel.
    """
    out = np.pad(arr, pad)
    for ax in range(out.ndim):
        n = out.shape[ax] - 2
        sl = [(slice(None),) * ax + (slice(a, a + n),) for a in range(3)]
        out = out[sl[0]] + out[sl[1]] + out[sl[2]]
    return out


@dataclass(frozen=True)
class RectKernel:
    """A nonnegative kernel tabulated on the standard truncated family."""

    config: GridConfig
    tables: dict

    def value(self, rect: ProductRect) -> float:
        if not rect.is_standard:
            raise ValueError("kernel tables cover the standard family only")
        idx = tuple(m for q in rect.factors for m in q.index)
        return float(self.tables[rect.levels][idx])

    __call__ = value

    @staticmethod
    def coerce(obj, config: GridConfig) -> "RectKernel":
        if isinstance(obj, RectKernel):
            if obj.config != config:
                raise ValueError("kernel tabulated on a different grid")
            return obj
        if callable(obj):
            return RectKernel.from_callable(config, obj)
        raise TypeError(f"cannot use {type(obj).__name__} as a kernel")

    @classmethod
    def from_callable(cls, config: GridConfig, fn) -> "RectKernel":
        tables = {}
        for levels in level_combos(config):
            shape = tuple(1 << k for k in _axis_levels(config, levels))
            arr = np.empty(shape)
            for idx in np.ndindex(shape):
                val = float(fn(standard_rect(config, levels, idx)))
                if val < 0:
                    raise ValueError("kernels must be nonnegative")
                arr[idx] = val
            tables[levels] = arr
        return cls(config, tables)

    @classmethod
    def hls(cls, mu: Weight, alpha: float) -> "RectKernel":
        """mu(R)**(alpha/N - 1); zero-mass rectangles get value 0."""
        N = mu.config.total_dim
        expo = _check_alpha(alpha, N) / N - 1.0
        return cls(mu.config, {levels: _neg_power(arr, expo)
                               for levels, arr in mu.mass_tree.items()})

    @classmethod
    def indicator(cls, config: GridConfig, rect: ProductRect) -> "RectKernel":
        if not rect.is_standard:
            raise ValueError("indicator kernels cover standard rectangles")
        tables = {}
        for levels in level_combos(config):
            shape = tuple(1 << k for k in _axis_levels(config, levels))
            tables[levels] = np.zeros(shape)
        idx = tuple(m for q in rect.factors for m in q.index)
        tables[rect.levels][idx] = 1.0
        return cls(config, tables)

    @classmethod
    def random_uniform(cls, config: GridConfig, seed: int) -> "RectKernel":
        """Values iid-uniform in [0,1), keyed by rectangle identity.

        Hash-based, so a rectangle keeps its value across different
        depths: nested truncated families see consistent kernels.
        """
        keyed = hashlib.blake2b(
            digest_size=8, key=int(seed).to_bytes(8, "little", signed=True))
        tables = {}
        for levels in level_combos(config):
            shape = tuple(1 << k for k in _axis_levels(config, levels))
            digests = bytearray()
            for idx in itertools.product(*map(range, shape)):
                h = keyed.copy()
                h.update(repr((levels, idx)).encode())
                digests += h.digest()
            words = np.frombuffer(digests, "<u8")
            tables[levels] = (words / 2.0 ** 64).reshape(shape)
        return cls(config, tables)

    def restrict(self, config: GridConfig) -> "RectKernel":
        """The same kernel on the family of a shallower ``config``.

        Meaningful for kernels keyed by rectangle identity
        (``random_uniform``, ``indicator``), whose values do not depend
        on the depth.
        """
        if config.dims != self.config.dims or config.depth > self.config.depth:
            raise ValueError("can only restrict to a shallower family")
        return RectKernel(config, {lv: self.tables[lv]
                                   for lv in level_combos(config)})


def mlinear_form(kernel, sigmas, fs) -> float:
    """Truncated multilinear rectangle sum sum_R K(R) prod_k int_R f_k dsigma_k."""
    if len(sigmas) != len(fs) or not sigmas:
        raise ValueError("need one function per weight")
    cfg = _check_same_grid(*sigmas, *fs)
    kernel = RectKernel.coerce(kernel, cfg)
    trees = [build_mass_tree(cfg, w.cell_masses * f.values)
             for w, f in zip(sigmas, fs)]
    total = 0.0
    for levels in level_combos(cfg):
        arr = kernel.tables[levels].copy()
        for t in trees:
            arr *= t[levels]
        total += float(arr.sum())
    return total


def apply_positive(kernel, sigma: Weight, f: GridFunction) -> GridFunction:
    """The positive operator sum_R K(R) 1_R int_R f dsigma on cells."""
    cfg = _check_same_grid(sigma, f)
    kernel = RectKernel.coerce(kernel, cfg)
    tree = build_mass_tree(cfg, sigma.cell_masses * f.values)
    return GridFunction(cfg, _upsample(cfg, _spread(
        cfg, (kernel.tables[lv] * tree[lv] for lv in level_combos(cfg)))))


def _report(cfg: GridConfig, values, skipped, excluded, return_diagnostics):
    """An applied form on cells, with its counts when asked for."""
    gf = GridFunction(cfg, _upsample(cfg, values))
    diag = {"skipped_terms": skipped, "excluded_pairs": excluded,
            "truncation_depth": cfg.depth}
    return (gf, diag) if return_diagnostics else gf


def apply_frac_dyadic(mu: Weight, alpha: float, f: GridFunction, tau=None,
                      return_diagnostics: bool = False):
    """Fractional rectangle sum over one shifted family.

    Shifted rectangles may overhang the domain; the overhang carries no
    mass, and only rectangles meeting the domain are summed.  Zero-mass
    rectangles are skipped and counted in the diagnostics.
    """
    cfg = _check_same_grid(mu, f)
    op = plan(mu, alpha, "dyadic", tau)
    return _report(cfg, op.forward(f.values), op.skipped_terms,
                   op.excluded_pairs, return_diagnostics)


def apply_perez(mu: Weight, alpha: float, f: GridFunction,
                return_diagnostics: bool = False):
    """Fractional sum over standard rectangles with integration over 3R."""
    cfg = _check_same_grid(mu, f)
    op = plan(mu, alpha, "perez")
    return _report(cfg, op.forward(f.values), op.skipped_terms,
                   op.excluded_pairs, return_diagnostics)


def _outward_cumsum(h: np.ndarray, ax: int, xi: int) -> np.ndarray:
    """Cumulative sums of ``h`` along ``ax`` running outward from ``xi``.

    The result has one more entry on ``ax`` than ``h``: entry ``xi`` is
    0, entry ``xi + j`` sums ``h[xi:xi + j]`` and entry ``xi - j`` sums
    ``h[xi - j:xi]``.
    """
    shape = list(h.shape)
    shape[ax] += 1
    out = np.zeros(shape)
    o, g = np.moveaxis(out, ax, 0), np.moveaxis(h, ax, 0)
    np.cumsum(g[xi:], axis=0, out=o[xi + 1:])
    o[:xi] = np.cumsum(g[:xi][::-1], axis=0)[::-1]
    return out


def _kernel_rows(mu: Weight):
    """Yield each anchor cell x with mu(R(x, y)) for every cell centre y.

    A centre-to-centre interval covers its end cells by one half, so
    along each axis the mass grows, outward from x, by the half-pair
    sums (m[i] + m[i+1]) / 2.  Only additions are used, and entries
    sharing a coordinate with x come out exactly 0.
    """
    h = mu.cell_masses
    for ax in range(h.ndim):
        n = h.shape[ax] - 1
        h = (h.take(range(n), axis=ax) + h.take(range(1, n + 1), axis=ax)) / 2
    for x in np.ndindex(mu.cell_masses.shape):
        row = h
        for ax, xi in enumerate(x):
            row = _outward_cumsum(row, ax, xi)
        yield x, row


def apply_frac_kernel(mu: Weight, alpha: float, f: GridFunction,
                      return_diagnostics: bool = False):
    """Kernel form by cell-center quadrature.

    For every cell center x, sums mu(R(x,y))**(alpha/N-1) f(y) mu(cell_y)
    over cell centers y that differ from x in every coordinate; pairs
    sharing a coordinate are excluded (the minimal rectangle degenerates
    there) and counted.
    """
    cfg = _check_same_grid(mu, f)
    N, C = cfg.total_dim, cfg.axis_cells
    expo = _check_alpha(alpha, N) / N - 1.0
    fw = f.values * mu.cell_masses
    out = np.empty_like(f.values)
    zeros = 0
    for x, masses in _kernel_rows(mu):
        out[x] = float(np.vdot(_neg_power(masses, expo), fw))
        zeros += int((masses <= 0).sum())
    excluded = C ** N * (C ** N - (C - 1) ** N)
    return _report(cfg, out, zeros - excluded, excluded, return_diagnostics)


def kernel_matrix(mu: Weight, alpha: float) -> np.ndarray:
    """Dense cell-center kernel matrix (excluded pairs set to zero).

    Refuses with ``KernelBudgetError`` before it allocates when the
    matrix would take more than ``KERNEL_MATRIX_BUDGET`` bytes.  Row r
    keeps its entries from column r on and mirrors them into column r,
    so the matrix is exactly symmetric.
    """
    N = mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    C = mu.config.axis_cells
    count = C ** N
    nbytes = 8 * count * count
    if nbytes > KERNEL_MATRIX_BUDGET:
        raise KernelBudgetError(
            f"the dense kernel matrix of {count} cells needs {nbytes} bytes, "
            f"over the budget of {KERNEL_MATRIX_BUDGET} bytes; a weight with "
            f"per-axis factors takes one {C} x {C} factor per axis, under the "
            f"same budget")
    A = np.empty((count, count))
    for r, (_, masses) in enumerate(_kernel_rows(mu)):
        A[r, r:] = _neg_power(masses.ravel()[r:], expo)
        A[r + 1:, r] = A[r, r + 1:]
    return A


def kernel_factor(masses: np.ndarray, expo: float) -> np.ndarray:
    """mass(I(x_i, x_j))**expo between the cell centres of one axis.

    ``masses`` are the axis's cell masses.  Row i from column i on is
    the outward cumulative sum of the half-pair sums, as in
    ``_kernel_rows``; blocks of ``FACTOR_ROWS`` rows are summed and
    powered together, then mirrored below the diagonal, so the matrix
    is exactly symmetric with a zero diagonal.  Refuses with
    ``KernelBudgetError`` before it allocates when the matrix would take
    more than ``KERNEL_MATRIX_BUDGET`` bytes.
    """
    C = len(masses)
    if 8 * C * C > KERNEL_MATRIX_BUDGET:
        raise KernelBudgetError(
            f"the kernel factor of {C} cells needs {8 * C * C} bytes, over "
            f"the budget of {KERNEL_MATRIX_BUDGET} bytes")
    h = (masses[:-1] + masses[1:]) / 2
    F = np.zeros((C, C))
    for b0 in range(0, C, FACTOR_ROWS):
        b1 = min(b0 + FACTOR_ROWS, C)
        # entry (i, k) of the block is F[b0 + i, b0 + 1 + k]
        blk = F[b0:b1, b0 + 1:]
        upper = np.arange(C - 1 - b0) >= np.arange(b1 - b0)[:, None]
        np.copyto(blk, h[b0:], where=upper)
        np.cumsum(blk, axis=1, out=blk)
        np.power(blk, expo, out=blk, where=blk > 0)
        F[b1:, b0:b1] = F[b0:b1, b1:].T
        diag = F[b0:b1, b0:b1]
        diag += diag.T  # one of each mirrored pair is still 0
    return F


@dataclass(frozen=True)
class FormPlan:
    """One fractional integral form of one weight, ready to apply.

    ``forward`` and ``adjoint`` map cell arrays to the ``_spread`` of
    their terms (per level-K cube for the standard family, whose terms
    are constant on those cubes, and on cells for every other form);
    ``_upsample`` puts a result on cells.  The adjoint is taken in
    L^2(mu), and every form but perez is its own adjoint.
    ``skipped_terms`` counts the zero-mass rectangles summed over (for
    the kernel form, the zero-mass pairs that are not excluded),
    ``excluded_pairs`` the kernel form's pairs that share a coordinate.
    ``kernel`` holds the ``RectKernel.hls`` coefficients of the forms
    that sum over the standard family, and is None for the others.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    skipped_terms: int
    excluded_pairs: int = 0
    kernel: RectKernel | None = None


def _window_plan(mu: Weight, expo: float, family) -> FormPlan:
    """The sum over the third-cube windows that ``family`` slices.

    Only those windows get a coefficient; the others carry 0 into the
    array that the pad-0 window transposes.
    """
    cfg = mu.config
    coeffs, skipped = {}, 0
    for lv, third in build_pyramid(cfg, mu.cell_masses).items():
        masses = _windows(third, 2)
        coeffs[lv] = np.zeros_like(masses)
        coeffs[lv][family] = _neg_power(masses[family], expo)
        skipped += int((masses[family] <= 0).sum())

    def apply(fv):
        pyr = build_pyramid(cfg, mu.cell_masses * fv)
        return _spread(cfg, (_windows(coeffs[lv] * _windows(pyr[lv], 2), 0)
                             for lv in level_combos(cfg)))

    return FormPlan(apply, apply, skipped)


def _kernel_plan(mu: Weight, alpha: float, expo: float) -> FormPlan:
    """The kernel form, by Kronecker factors when the weight has them.

    Counts come without a pass over a factor: the excluded pairs by
    their closed form, and, per axis, the centres i < j whose interval
    mass is 0 -- those with no positive half-pair sum between them,
    where the running count of positive ones ties at i and j.  Only
    the dense fallback counts the zeros of its matrix.
    """
    cm, N, C = mu.cell_masses, mu.config.total_dim, mu.config.axis_cells
    excluded = C ** N * (C ** N - (C - 1) ** N)
    if mu.factors is None:
        A = kernel_matrix(mu, alpha)
        skipped = A.size - int(np.count_nonzero(A)) - excluded
        dense = lambda fv: (A @ (fv * cm).ravel()).reshape(fv.shape)
        return FormPlan(dense, dense, skipped, excluded)
    # the weight's cell volume per axis, so that at N = 1 the factor's
    # masses are the weight's cell masses bit for bit
    masses = [a * float(C) ** -1 for a in mu.factors]
    mats = [kernel_factor(m, expo) for m in masses]
    ties = [np.bincount(np.cumsum(np.r_[0, (m[:-1] + m[1:]) / 2 > 0]))
            for m in masses]
    skipped = (C * (C - 1)) ** N - math.prod(
        C * (C - 1) - int((t * (t - 1)).sum()) for t in ties)

    def forward(fv):
        out = fv * cm
        for ax, F in enumerate(mats):
            out = np.moveaxis(np.tensordot(F, out, axes=(1, ax)), 0, ax)
        return out

    return FormPlan(forward, forward, skipped, excluded)


def plan(mu: Weight, alpha: float, form: str, tau=None) -> FormPlan:
    """The plan of one of the ``OPERATOR_FORMS``.

    Coefficients are computed once, here.  The dyadic form sums over
    the family with shift ``tau`` (standard by default); on the
    standard family it and the perez form read the weight's mass tree
    with ``RectKernel.hls`` coefficients, and only the shifted families
    and their sum build the third-cube pyramid.  The kernel form takes
    the Kronecker factors of a weight that has them, one mode product
    per axis, and the dense ``kernel_matrix`` otherwise.
    """
    if form not in OPERATOR_FORMS:
        raise ValueError(f"unknown operator form {form!r}; "
                         f"choose from {OPERATOR_FORMS}")
    cfg, cm, N = mu.config, mu.cell_masses, mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    if form == "dyadic":
        tau = (0,) * N if tau is None else tuple(int(t) for t in tau)
        if len(tau) != N or any(t not in (-1, 0, 1) for t in tau):
            raise ValueError("tau must assign -1, 0 or +1 per axis")
    elif tau is not None:
        raise ValueError("only the dyadic form takes a shift tau")
    if form == "kernel":
        return _kernel_plan(mu, alpha, expo)
    if form == "shifted-sum":
        # every padded window is a cube of exactly one shifted family
        return _window_plan(mu, expo, (slice(None),) * N)
    if form == "dyadic" and any(tau):
        # family s on an axis is every third window, from (s + 2) % 3 on
        return _window_plan(mu, expo, tuple(slice((s + 2) % 3, None, 3)
                                            for s in tau))
    kernel = RectKernel.hls(mu, alpha)
    hls = kernel.tables
    skipped = sum(int((m <= 0).sum()) for m in mu.mass_tree.values())

    def rect_sum(term):
        def apply(fv):
            tree = build_mass_tree(cfg, cm * fv)
            return _spread(cfg, (term(hls[lv], tree[lv])
                                 for lv in level_combos(cfg)))
        return apply

    if form == "dyadic":
        dyadic = rect_sum(np.multiply)
        return FormPlan(dyadic, dyadic, skipped, kernel=kernel)
    # integrating f over 3R is the width-3 window over the standard
    # cubes; the adjoint spreads each cube's term over 3R the same way
    return FormPlan(rect_sum(lambda c, m: c * _windows(m, 1)),
                    rect_sum(lambda c, m: _windows(c * m, 1)), skipped,
                    kernel=kernel)


def kernel_sums(mu: Weight, alpha: float, X, Y) -> np.ndarray:
    """``kernel_sum`` of every pair of rows of ``(P, N)`` point arrays.

    ``grids.triple_depths`` gives, per pair and factor, the levels whose
    cube around x has y in its triple; each level tuple then gathers
    its live pairs' masses from the tree at once.  Terms are added in
    ``level_combos`` order and each power is Python's scalar ``pow``,
    so every sum equals the one-pair loop bit for bit.
    """
    N = mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    X = np.asarray(X, dtype=np.int64)
    depths = triple_depths(mu.config, X, Y)
    totals = np.zeros(len(X))
    for levels in level_combos(mu.config):
        live = np.flatnonzero((depths >= levels).all(axis=1))
        masses = mu.tree_masses(levels, X[live])
        pos = masses > 0
        totals[live[pos]] += [m ** expo for m in masses[pos].tolist()]
    return totals


def kernel_sum(mu: Weight, alpha: float, x, y) -> float:
    """Sum of mu(R)**(alpha/N-1) over standard R with x in R and y in 3R.

    Truncated at the configured depth from below and at the unit cube
    from above (for in-domain points the unit cube already qualifies).
    """
    return float(kernel_sums(mu, alpha, [tuple(x)], [tuple(y)])[0])


def pair_kernel(mu: Weight, alpha: float, x, y) -> float:
    """The closed kernel mu(R(x,y))**(alpha/N - 1); +inf on zero mass."""
    N = mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    m = mu.mass(min_rect(tuple(x), tuple(y)))
    if m <= 0.0:
        return math.inf
    return m ** expo


def shift_bound_ratio(mu: Weight, alpha: float, f: GridFunction) -> float:
    """Pointwise domination of the enlarged form by the shifted-grid sum.

    Returns the largest cellwise ratio of the enlarged-region form to
    the sum of the dyadic forms over all 3**N shifted families (+inf if
    the numerator is positive where the denominator vanishes; cells
    where both vanish are skipped; 0 if every cell is skipped).
    """
    _check_same_grid(mu, f)
    num = _upsample(mu.config, plan(mu, alpha, "perez").forward(f.values))
    den = plan(mu, alpha, "shifted-sum").forward(f.values)
    live = ~((num == 0) & (den == 0))
    if not live.any():
        return 0.0
    if np.any(live & (den == 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(live, num / np.where(den > 0, den, 1.0), 0.0)
    return float(ratios.max())
