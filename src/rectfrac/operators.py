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

Kernels on the standard family are tabulated per level combination
(``RectKernel``) on the mass tree, which keeps the multilinear form and
the positive operator fully vectorized.  The shifted and tripled
families share one primitive: width-3 window sums (``_windows``) over
the standard cubes or over the third-cube pyramid.  A level-k cube with
shift s and index m is the run of three third-cubes starting at 3m + s,
so along each axis

* the family with shift s is every third window, from (s + 2) % 3 on;
* the triple 3R of a standard cube is a width-3 window of standard cubes;
* the 3**N shifted families together are all windows, one pass per
  level combination.

Every rectangle sum is scattered back onto cells by ``_spread``, the
one scatter that pairs with the gather ``_level_tree``: it adds the
terms of all level combinations (after the transposed window, for the
window families) in ``level_combos`` order, keeping the running sum
coarse in the first factor, so each cell gets the additions of the
term-by-term sum in the same order, bit for bit.

The kernel form's minimal-rectangle masses grow, along each axis, by
cumulative sums of half-pair cell sums running outward from the anchor
cell.  For a weight with per-axis factors, mu(R(x,y)) is the product
of per-axis interval masses, so the kernel is the Kronecker product of
one C x C matrix per axis (``kernel_factor``), and ``kernel_map``
applies it as one mode product per axis: no C**N x C**N matrix is
built.  Any other weight falls back to the dense ``kernel_matrix``,
filled one anchor cell at a time (``_kernel_rows``) and refused before
it allocates past ``KERNEL_MATRIX_BUDGET`` bytes.  Both are powered on
their upper triangle and mirrored, so the kernel is exactly symmetric.
``apply_frac_kernel`` is the row-by-row reference.

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

import numpy as np

from .grids import (GridConfig, ProductRect, min_rect, standard_rect,
                    triple_depths)
from .weights import GridFunction, Weight, build_mass_tree, build_pyramid

EXPONENT_TOL = 1e-12
KERNEL_MATRIX_BUDGET = 1 << 30  # bytes a dense kernel matrix may take
FACTOR_ROWS = 128  # rows of a kernel factor summed and powered at once


class ExponentError(ValueError):
    """An exponent configuration outside the admissible range."""


class KernelBudgetError(ValueError):
    """A dense kernel matrix larger than ``KERNEL_MATRIX_BUDGET``."""


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


def _upsample(config: GridConfig, arr: np.ndarray) -> np.ndarray:
    """Spread per-block values (cubes or third-cubes) onto their cells."""
    for ax in range(arr.ndim):
        if arr.shape[ax] < config.axis_cells:
            arr = np.repeat(arr, config.axis_cells // arr.shape[ax], axis=ax)
    return arr


def _spread(config: GridConfig, arrs) -> np.ndarray:
    """The sum of the ``_upsample`` of every block array in ``arrs``.

    ``arrs`` yields one array per level combination in ``level_combos``
    order, so the first factor's level never falls.  The terms up to
    one with first-factor level l0 depend on that factor only through
    its level-l0 ancestor, so the running sum keeps the first factor at
    the current block count, doubled by ``np.repeat`` as it rises, and
    every other factor on cells; each term is added in place through a
    broadcasting view, and one final ``_upsample`` spreads the first
    factor onto cells.  Every cell gets the same additions, from 0 and
    in the same order, as the fold ``out += _upsample(arr)``, so the
    sum is identical bit for bit.
    """
    C = config.axis_cells
    first = config.factor_axes(0)
    out = None
    for arr in arrs:
        if out is None:
            out = np.zeros([n if ax in first else C
                            for ax, n in enumerate(arr.shape)])
        for ax in first:
            if out.shape[ax] < arr.shape[ax]:
                out = np.repeat(out, arr.shape[ax] // out.shape[ax], axis=ax)
        view, term = [], []
        for ax, n in enumerate(arr.shape):
            if ax in first:
                view.append(n)
                term.append(n)
            else:
                view += [n, C // n]
                term += [n, 1]
        fine = out.reshape(view)  # a view: out is contiguous
        fine += arr.reshape(term)
    return _upsample(config, out)


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


def _window_coeffs(mu: Weight, alpha: float, family) -> tuple[dict, int]:
    """Per level combination, mu(R)**(alpha/N - 1) on the windows of a family.

    ``family`` slices the padded windows of each axis, and only those
    windows get a coefficient.  Also returns the number of zero-mass
    cubes in the family.
    """
    N = mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    coeffs, skipped = {}, 0
    for lv, third in build_pyramid(mu.config, mu.cell_masses).items():
        masses = _windows(third, 2)[family]
        coeffs[lv] = _neg_power(masses, expo)
        skipped += int((masses <= 0).sum())
    return coeffs, skipped


def _window_apply(mu: Weight, coeffs: dict, family,
                  fv: np.ndarray) -> np.ndarray:
    """sum_R coeff(R) 1_R int_R f dmu over the windows of ``family``.

    The other windows carry no term: they stay 0 in the array that the
    pad-0 window transposes.
    """
    cfg = mu.config
    pyr = build_pyramid(cfg, mu.cell_masses * fv)

    def term(lv):
        windows = _windows(pyr[lv], 2)
        kept = np.zeros_like(windows)
        kept[family] = coeffs[lv] * windows[family]
        return _windows(kept, 0)

    return _spread(cfg, (term(lv) for lv in level_combos(cfg)))


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
    return GridFunction(cfg, _spread(cfg, (kernel.tables[lv] * tree[lv]
                                           for lv in level_combos(cfg))))


def _empty_diagnostics(config: GridConfig) -> dict:
    return {"skipped_terms": 0, "excluded_pairs": 0,
            "truncation_depth": config.depth}


def apply_frac_dyadic(mu: Weight, alpha: float, f: GridFunction, tau=None,
                      return_diagnostics: bool = False):
    """Fractional rectangle sum over one shifted family.

    Shifted rectangles may overhang the domain; the overhang carries no
    mass, and only rectangles meeting the domain are summed.  Zero-mass
    rectangles are skipped and counted in the diagnostics.
    """
    cfg = _check_same_grid(mu, f)
    N = cfg.total_dim
    if tau is None:
        tau = (0,) * N
    else:
        tau = tuple(int(t) for t in tau)
        if len(tau) != N or any(t not in (-1, 0, 1) for t in tau):
            raise ValueError("tau must assign -1, 0 or +1 per axis")
    # family s on an axis is every third window, starting at (s + 2) % 3
    family = tuple(slice((s + 2) % 3, None, 3) for s in tau)
    coeffs, skipped = _window_coeffs(mu, alpha, family)
    diag = _empty_diagnostics(cfg)
    diag["skipped_terms"] = skipped
    gf = GridFunction(cfg, _window_apply(mu, coeffs, family, f.values))
    return (gf, diag) if return_diagnostics else gf


def shifted_sum_map(mu: Weight, alpha: float):
    """The sum of the dyadic forms over all 3**N shifted families.

    Every padded window is a cube of exactly one family, so one pass
    over all windows of each level combination covers every family.
    The returned map acts on cell arrays and is self-adjoint in L^2(mu).
    """
    family = (slice(None),) * mu.config.total_dim
    coeffs, _ = _window_coeffs(mu, alpha, family)
    return lambda fv: _window_apply(mu, coeffs, family, fv)


def perez_maps(mu: Weight, alpha: float):
    """Forward and adjoint of the enlarged-region form on cell arrays.

    Coefficients are ``RectKernel.hls``.  The forward map integrates f
    over 3R as the width-3 window over the standard cubes; the adjoint
    spreads each cube's term over its triple by the same window.
    """
    cfg, cm = mu.config, mu.cell_masses
    hls = RectKernel.hls(mu, alpha).tables

    def forward(fv):
        tree = build_mass_tree(cfg, cm * fv)
        return _spread(cfg, (hls[lv] * _windows(tree[lv], 1)
                             for lv in level_combos(cfg)))

    def adjoint(gv):
        tree = build_mass_tree(cfg, cm * gv)
        return _spread(cfg, (_windows(hls[lv] * tree[lv], 1)
                             for lv in level_combos(cfg)))

    return forward, adjoint


def apply_perez(mu: Weight, alpha: float, f: GridFunction,
                return_diagnostics: bool = False):
    """Fractional sum over standard rectangles with integration over 3R."""
    cfg = _check_same_grid(mu, f)
    forward, _ = perez_maps(mu, alpha)
    diag = _empty_diagnostics(cfg)
    diag["skipped_terms"] = sum(int((m <= 0).sum())
                                for m in mu.mass_tree.values())
    gf = GridFunction(cfg, forward(f.values))
    return (gf, diag) if return_diagnostics else gf


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
    diag = _empty_diagnostics(cfg)
    diag["excluded_pairs"] = C ** N * (C ** N - (C - 1) ** N)
    diag["skipped_terms"] = zeros - diag["excluded_pairs"]
    gf = GridFunction(cfg, out)
    return (gf, diag) if return_diagnostics else gf


def kernel_matrix(mu: Weight, alpha: float) -> np.ndarray:
    """Dense cell-center kernel matrix (excluded pairs set to zero).

    Refuses with ``KernelBudgetError`` before it allocates when the
    matrix would take more than ``KERNEL_MATRIX_BUDGET`` bytes.  Row r
    keeps its entries from column r on and mirrors them into column r,
    so the matrix is exactly symmetric.
    """
    N = mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    count = mu.config.axis_cells ** N
    nbytes = 8 * count * count
    if nbytes > KERNEL_MATRIX_BUDGET:
        raise KernelBudgetError(
            f"the dense kernel matrix of {count} cells needs {nbytes} bytes, "
            f"over the budget of {KERNEL_MATRIX_BUDGET} bytes; only a weight "
            f"with per-axis factors runs the kernel form at this size")
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
    is exactly symmetric with a zero diagonal.
    """
    h = (masses[:-1] + masses[1:]) / 2
    C = len(masses)
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


def kernel_map(mu: Weight, alpha: float):
    """The kernel form's forward map on cell arrays.

    Maps f to sum_y mu(R(x,y))**(alpha/N-1) f(y) mu(cell_y) at every
    cell centre x, as ``apply_frac_kernel`` does.  For a weight with
    per-axis factors the kernel is the Kronecker product of the
    ``kernel_factor`` matrices, applied as one mode product per axis;
    any other weight falls back to ``kernel_matrix``.  The kernel is
    exactly symmetric, so the map is its own adjoint in L^2(mu).
    """
    cm = mu.cell_masses
    if mu.factors is None:
        A = kernel_matrix(mu, alpha)
        return lambda fv: (A @ (fv * cm).ravel()).reshape(fv.shape)
    N = mu.config.total_dim
    expo = _check_alpha(alpha, N) / N - 1.0
    # the weight's cell volume per axis, so that at N = 1 the factor's
    # masses are the weight's cell masses bit for bit
    step = float(mu.config.axis_cells) ** -1
    mats = [kernel_factor(a * step, expo) for a in mu.factors]

    def forward(fv):
        out = fv * cm
        for ax, F in enumerate(mats):
            out = np.moveaxis(np.tensordot(F, out, axes=(1, ax)), 0, ax)
        return out

    return forward


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
    num = apply_perez(mu, alpha, f).values
    den = shifted_sum_map(mu, alpha)(f.values)
    live = ~((num == 0) & (den == 0))
    if not live.any():
        return 0.0
    if np.any(live & (den == 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(live, num / np.where(den > 0, den, 1.0), 0.0)
    return float(ratios.max())
