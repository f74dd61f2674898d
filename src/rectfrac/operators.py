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
(``RectKernel``) on a ``weights.LevelTree``, one read-only heap in the
mass tree's layout, so each rule over such tables is one elementwise
pass over heaps, written once: ``_powers`` raises a whole tree to a
power (the HLS kernel, the Carleson coefficients and the descendant
scans of ``conditions``); ``_terms`` forms the multilinear terms
K(R) * prod_k int_R f_k dsigma_k (the multilinear form and its
densities); ``_rect_sum`` is the family sum f -> sum_R term(c_R,
int_R f dsigma) over the aggregates of the builder it is passed,
``build_mass_tree`` for the positive operator and the standard-family
plans (the dyadic form with tau = 0 and the enlarged-region form) and
``build_pyramid`` for the window families.  The shifted and tripled
families share one primitive: width-3 window sums (``_windows``) over
the zero-bordered standard cubes or third-cube pyramid, or over the
array itself for the transpose.
A level-k cube with shift s and index m is the run of three
third-cubes starting at 3m + s, so along each axis

* the family with shift s is every third window, from (s + 2) % 3 on;
* the triple 3R of a standard cube is a width-3 window of standard cubes;
* the 3**N shifted families together are all windows, one pass per
  level combination.

Every rectangle sum turns its fresh aggregate into its terms in place:
one product with the coefficient heap (``_times``), after or before
the triples of every table (``_tree_windows``, one pass per factor and
level) for the enlarged-region form, and level by level for the window
families.  ``weights._scatter``, the transpose of the gather
``_level_tree``, then sums them onto the finest level in N*K passes.
On one factor each cell gets the additions of the term-by-term sum in
``level_combos`` order, bit for bit; on several the order differs,
within (K+1)**N unit roundoffs of that sum.  A sum over the standard
family stays per level-K cube, on which all its terms are constant
(``2**K`` entries per axis instead of ``3 * 2**K``); its plan's maps
take such an array back, against the cube masses
(``weights._weighted``), and ``weights._upsample`` puts it on cells.
The window families' sums are on cells.

The kernel form's minimal-rectangle masses grow, along each axis, by
cumulative sums of half-pair cell sums running outward from the anchor
cell.  For a weight with per-axis factors, mu(R(x,y)) is the product
of per-axis interval masses, so the kernel is the Kronecker product of
one symmetric C x C factor per axis (``kernel_factor``).  Each factor
is stored as a HODLR tree: dense blocks of at most ``LEAF_CELLS`` cells
a side on and next to the diagonal, and low-rank blocks, built by
cross approximation from O((m + n) r) entries and checked entry by
entry, further out.  The kernel plan applies it as one mode product
per axis, each block standing for itself and its mirror: neither the
factor nor a C**N x C**N matrix is built.  Any other
weight falls back to the dense ``kernel_matrix``, filled one anchor
cell at a time (``_kernel_rows``), powered on its upper triangle and
mirrored, so it is exactly symmetric.  Either is refused before it is
allocated past ``KERNEL_MATRIX_BUDGET`` bytes.

The closed kernel of one pair (``pair_kernel``) refuses points outside
[0,1)^N with ``kernel_sum``'s check, ``grids._check_inside``.  The
exponent regime is checked once per rule: 0 < alpha < N by
``_hls_exponent`` and 1 < p < q < inf by ``_check_pq``, for
``ExponentConfig`` and ``conditions.carleson_testing_constant`` alike.
A random kernel seed is checked by ``check_kernel_seed`` alone, for
``RectKernel.random_uniform`` and the CLI's ``--kernel-seed``.

Masses and integrals are formed by additions only, so a mass raised
to the negative power alpha/N - 1 keeps its relative accuracy.
Everything is a pure function of immutable inputs; outputs are
reproducible bit for bit for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (GridConfig, ProductRect, _check_inside, _integer,
                    _points, _shift_vector, min_rect, standard_rect,
                    triple_depths)
from .weights import (GridFunction, LevelTree, Weight, _check_same_grid,
                      _scatter, _upsample, _weighted, build_mass_tree,
                      build_pyramid, level_combos)

EXPONENT_TOL = 1e-12
KERNEL_MATRIX_BUDGET = 1 << 30  # bytes a kernel matrix or factor may take
LEAF_CELLS = 96  # most cells a side of a kernel factor's dense blocks
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
        _hls_exponent(self.alpha, N)
        _check_pq(self.p, self.q)
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


def _check_pq(p: float, q: float) -> None:
    """Refuse exponents outside 1 < p < q < inf."""
    if not (1.0 < p < q < math.inf):
        raise ExponentError(f"need 1 < p < q < inf, got p={p}, q={q}")


def check_kernel_seed(seed) -> int:
    """A random kernel seed, refused unless an integer in [-2**63, 2**63)."""
    seed = _integer(seed, "kernel seed must be an integer")
    if not -2 ** 63 <= seed < 2 ** 63:
        raise ValueError(
            f"kernel seed must lie in [-2**63, 2**63), got {seed}")
    return seed


def _hls_exponent(alpha: float, total_dim: int) -> float:
    """The HLS kernel exponent alpha/N - 1, for alpha in (0, N)."""
    if not 0.0 < alpha < total_dim:
        raise ExponentError(
            f"alpha must lie in (0, {total_dim}), got {alpha}")
    return float(alpha) / total_dim - 1.0


def _neg_power(masses: np.ndarray, expo: float) -> np.ndarray:
    """masses**expo where the mass is positive, 0 where it vanishes.

    One masked power into a zeroed array: besides the result, the only
    temporary is the mask, one byte per entry.
    """
    return np.power(masses, expo, out=np.zeros_like(masses),
                    where=masses > 0)


def _powers(tree: LevelTree, expo: float) -> LevelTree:
    """``_neg_power`` of every level table of a mass tree: one heap pass."""
    return tree.like(_neg_power(tree.heap, expo))


def _windows(arr: np.ndarray, pad: int) -> np.ndarray:
    """Width-3 window sums along every axis of ``arr`` zero-padded by ``pad``.

    Over third-cubes, ``pad=2`` yields every cube of every shift that
    meets the domain -- window ``j`` on an axis is the cube with
    ``3*m + s = j - 2`` -- and ``pad=0`` is the transpose, collecting
    onto each third-cube the windows that cover it.  Over standard
    cubes, ``pad=1`` sums each cube with its neighbours, i.e. over its
    triple 3R clipped to the domain; that map is its own transpose
    (``_tree_windows`` applies it to every table of a tree in place).
    Pad 0 reads ``arr`` in place; the first axis sum is a new array.
    Only additions are used, so no digits cancel.
    """
    out = arr
    if pad:
        out = np.zeros(tuple(n + 2 * pad for n in arr.shape), arr.dtype)
        out[(slice(pad, -pad),) * arr.ndim] = arr
    for ax in range(out.ndim):
        n = out.shape[ax] - 2
        sl = [(slice(None),) * ax + (slice(a, a + n),) for a in range(3)]
        out = out[sl[0]] + out[sl[1]] + out[sl[2]]
    return out


def _tree_windows(tree: LevelTree) -> None:
    """``_windows(table, 1)`` of every table of ``tree``, in place.

    One pass per factor, level and axis, over every level of the other
    factors: each entry adds its left neighbour, then its right one, so
    every table gets the additions of its own windows, bit for bit.
    """
    for i, d in enumerate(tree.config.dims):
        for k in range(tree.config.depth + 1):
            region = tree.region(i, k)
            for ax in range(i, i + d):
                lead, orig = (slice(None),) * ax, region.copy()
                region[lead + (slice(1, None),)] += orig[lead + (slice(-1),)]
                region[lead + (slice(-1),)] += orig[lead + (slice(1, None),)]


def _times(tables: LevelTree) -> Callable:
    """The step that multiplies an aggregate by the heap of ``tables``."""
    return lambda agg: np.multiply(agg.heap, tables.heap, out=agg.heap)


@dataclass(frozen=True)
class RectKernel:
    """A nonnegative kernel tabulated on the standard truncated family.

    ``tables`` maps each level combination to its table: a ``LevelTree``,
    whose heap the kernel makes read-only.
    """

    config: GridConfig
    tables: LevelTree

    def __post_init__(self):
        self.tables.heap.flags.writeable = False

    def value(self, rect: ProductRect) -> float:
        if not rect.is_standard:
            raise ValueError("kernel tables cover the standard family only")
        idx = tuple(m for q in rect.factors for m in q.index)
        return float(self.tables[rect.levels][idx])

    @staticmethod
    def coerce(obj, config: GridConfig) -> "RectKernel":
        if not isinstance(obj, RectKernel):
            raise TypeError(f"cannot use {type(obj).__name__} as a kernel; "
                            "tabulate it with RectKernel.from_callable")
        if obj.config != config:
            raise ValueError("kernel tabulated on a different grid")
        return obj

    @classmethod
    def from_callable(cls, config: GridConfig, fn) -> "RectKernel":
        tables = LevelTree(config)
        for levels, arr in tables.items():
            for idx in np.ndindex(arr.shape):
                val = float(fn(standard_rect(config, levels, idx)))
                if val < 0:
                    raise ValueError("kernels must be nonnegative")
                arr[idx] = val
        return cls(config, tables)

    @classmethod
    def hls(cls, mu: Weight, alpha: float) -> "RectKernel":
        """mu(R)**(alpha/N - 1); zero-mass rectangles get value 0."""
        expo = _hls_exponent(alpha, mu.config.total_dim)
        return cls(mu.config, _powers(mu.mass_tree, expo))

    @classmethod
    def random_uniform(cls, config: GridConfig, seed: int) -> "RectKernel":
        """Values iid-uniform in [0,1), keyed by rectangle identity.

        The table of each level combination is one draw from its own
        PCG64 stream, ``SeedSequence(seed % 2**64, spawn_key=levels)``,
        so a table depends on the seed, the levels and the dims but not
        on the depth: nested truncated families see consistent kernels,
        and a draw at each depth gives the tables a deeper draw holds.
        Seeds are integers in ``[-2**63, 2**63)``; ``check_kernel_seed``
        refuses any other.
        """
        seed = check_kernel_seed(seed)
        tables = LevelTree(config)
        for levels, arr in tables.items():
            stream = np.random.SeedSequence(seed % 2 ** 64, spawn_key=levels)
            arr[...] = np.random.default_rng(stream).random(arr.shape)
        return cls(config, tables)


def mlinear_form(kernel, sigmas, fs) -> float:
    """Truncated multilinear rectangle sum sum_R K(R) prod_k int_R f_k dsigma_k."""
    if len(sigmas) != len(fs) or not sigmas:
        raise ValueError("need one function per weight")
    cfg = _check_same_grid(*sigmas, *fs)
    kernel = RectKernel.coerce(kernel, cfg)
    trees = [build_mass_tree(cfg, w.cell_masses * f.values)
             for w, f in zip(sigmas, fs)]
    return _level_sums(_terms(kernel.tables, trees))


def _terms(tables: LevelTree, trees) -> LevelTree:
    """K(R) * prod_k int_R f_k dsigma_k, as one fresh heap.

    A copy of the kernel's heap, multiplied in place by each tree's.
    """
    out = tables.heap.copy()
    for t in trees:
        out *= t.heap
    return tables.like(out)


def _level_sums(tree: LevelTree) -> float:
    """The sum of every table, table by table in ``level_combos`` order.

    Each table is summed as one contiguous array (``ravel`` copies a
    strided view), so a sum has the bits of a separate table's.
    """
    return sum(float(table.ravel().sum()) for table in tree.values())


def _rect_sum(sigma: Weight, build, *steps) -> Callable:
    """The map f -> sum_R term(c_R, int_R f dsigma) over a family.

    ``build(config, sigma * f)`` aggregates f per level combination into
    a fresh heap: ``build_mass_tree`` over the standard cubes, from f on
    cells or per level-K cube, ``build_pyramid`` over the third-cubes,
    from f on cells.  ``steps`` turn that heap into the terms, in place
    and in order; ``_scatter`` then sums them onto the finest level.
    """
    cfg = sigma.config

    def apply(fv):
        agg = build(cfg, _weighted(sigma, fv))
        for step in steps:
            step(agg)
        return _scatter(agg)
    return apply


def apply_positive(kernel, sigma: Weight, f: GridFunction) -> GridFunction:
    """The positive operator sum_R K(R) 1_R int_R f dsigma on cells."""
    cfg = _check_same_grid(sigma, f)
    kernel = RectKernel.coerce(kernel, cfg)
    apply = _rect_sum(sigma, build_mass_tree, _times(kernel.tables))
    return GridFunction(cfg, _upsample(cfg, apply(f.values)))


def _report(cfg: GridConfig, values, skipped, excluded, return_diagnostics):
    """An applied form on cells, with its counts when asked for."""
    gf = GridFunction(cfg, _upsample(cfg, values))
    diag = {"skipped_terms": skipped, "excluded_pairs": excluded,
            "truncation_depth": cfg.depth}
    return (gf, diag) if return_diagnostics else gf


def _apply(mu: Weight, alpha: float, f: GridFunction, form: str, tau,
           return_diagnostics: bool):
    """The forward map of ``plan(mu, alpha, form, tau)`` on f, on cells."""
    cfg = _check_same_grid(mu, f)
    op = plan(mu, alpha, form, tau)
    return _report(cfg, op.forward(f.values), op.skipped_terms,
                   op.excluded_pairs, return_diagnostics)


def apply_frac_dyadic(mu: Weight, alpha: float, f: GridFunction, tau=None,
                      return_diagnostics: bool = False):
    """Fractional rectangle sum over one shifted family.

    Shifted rectangles may overhang the domain; the overhang carries no
    mass, and only rectangles meeting the domain are summed.  Zero-mass
    rectangles are skipped and counted in the diagnostics.
    """
    return _apply(mu, alpha, f, "dyadic", tau, return_diagnostics)


def apply_perez(mu: Weight, alpha: float, f: GridFunction,
                return_diagnostics: bool = False):
    """Fractional sum over standard rectangles with integration over 3R."""
    return _apply(mu, alpha, f, "perez", None, return_diagnostics)


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
    """Kernel form by cell-center quadrature, row by row.

    For every cell center x, sums mu(R(x,y))**(alpha/N-1) f(y) mu(cell_y)
    over cell centers y that differ from x in every coordinate; pairs
    sharing a coordinate are excluded (the minimal rectangle degenerates
    there) and counted.  This loop shares no code with the plan's
    factors, so it is the reference that kernel-form bounds
    are checked against; it needs memory for one row at a time.
    """
    cfg = _check_same_grid(mu, f)
    N, C = cfg.total_dim, cfg.axis_cells
    expo = _hls_exponent(alpha, N)
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
    expo = _hls_exponent(alpha, N)
    C = mu.config.axis_cells
    count = C ** N
    nbytes = 8 * count * count
    if nbytes > KERNEL_MATRIX_BUDGET:
        raise KernelBudgetError(
            f"the dense kernel matrix of {count} cells needs {nbytes} bytes, "
            f"over the budget of {KERNEL_MATRIX_BUDGET} bytes; a weight with "
            f"per-axis factors takes one compressed {C} x {C} factor per "
            f"axis, under the same budget")
    A = np.empty((count, count))
    for r, (_, masses) in enumerate(_kernel_rows(mu)):
        A[r, r:] = _neg_power(masses.ravel()[r:], expo)
        A[r + 1:, r] = A[r, r + 1:]
    return A


def _low_rank(a: np.ndarray, b: np.ndarray, expo: float):
    """``(U, V)`` with ``U @ V.T`` the block ``(a_i + b_j)**expo``, or None.

    ``a`` and ``b`` are positive, with ``b[0]`` the smallest.  Adaptive
    cross approximation with partial pivoting (Bebendorf, Numer. Math.
    86, 2000) runs on the block scaled by ``(a_i + b_0)**(-expo/2)`` and
    ``(a_last + b_j)**(-expo/2)``, whose entries lie in (0, 1], and
    stops at rank 48; QR and SVD then recompress it.  None when the
    result is off by more than 1e-13 of an exact entry in one of about
    16 rows and 16 columns, at geometric distances from the corner
    next to the diagonal up to the far edge: on rough masses the error
    gathers in a few entries near that corner, which a sample spread
    evenly missed.  The scaled entries next to the diagonal are 1, but
    the far ones are smaller (0.1 on a rho 2 cascade at K = 8), and
    their relative error comes out near that tolerance, so a few
    blocks fail.
    """
    # no block up to K = 12 needs a rank above 31
    (m,), (n,), top = a.shape, b.shape, min(len(a), len(b), 48)
    r, c = a ** (-expo / 2), (a[-1] + b) ** (-expo / 2)
    U, V = np.empty((m, top), order="F"), np.empty((n, top), order="F")
    free, i, k, frob = np.ones(m, bool), m - 1, 0, 0.0
    while k < top:
        free[i] = False
        row = (a[i] + b) ** expo * (r[i] * c) - V[:, :k] @ U[i, :k]
        j = int(np.argmax(np.abs(row)))
        if row[j] == 0:  # rows whose masses round alike leave exact zeros
            break
        V[:, k] = row / row[j]
        U[:, k] = (a + b[j]) ** expo * (r * c[j]) - U[:, :k] @ V[j, :k]
        step = np.linalg.norm(U[:, k]) * np.linalg.norm(V[:, k])
        frob, k = frob + step * step, k + 1
        if step <= 1e-14 * math.sqrt(frob):
            break
        i = int(np.argmax(np.where(free, np.abs(U[:, k - 1]), -1.0)))
    (qu, ru), (qv, rv) = np.linalg.qr(U[:, :k]), np.linalg.qr(V[:, :k])
    w, s, zt = np.linalg.svd(ru @ rv.T)
    rank = int(np.count_nonzero(s > 1e-15 * s[0]))
    U = qu @ (w[:, :rank] * s[:rank]) / r[:, None]
    V = qv @ zt[:rank].T / c[:, None]
    # geometric distances from the corner next to the diagonal, where
    # the masses vary most, to the far edge
    near = [np.unique(np.geomspace(1, x, 16).astype(int) - 1) for x in (m, n)]
    rows, cols = m - 1 - near[0], near[1]
    ok = all(np.all(np.abs(got - want) <= 1e-13 * want) for got, want in (
        (U[rows] @ V.T, (a[rows, None] + b) ** expo),
        (U @ V[cols].T, (a[:, None] + b[cols]) ** expo)))
    return (U, V) if ok else None  # NaN fails too


def kernel_factor(masses: np.ndarray, expo: float) -> list[tuple]:
    """mass(I(x_i, x_j))**expo between the cell centres of one axis.

    ``masses`` are the axis's cell masses.  The factor F is symmetric
    with a zero diagonal and is stored as a HODLR tree (Hackbusch,
    Computing 62, 1999): blocks ``(I, J, U, V)`` of index slices on or
    above the diagonal, each standing for ``F[I, J] = U @ V.T`` (``U``
    alone when ``V`` is None) and, off the diagonal, for its mirror
    ``F[J, I]``.  Every block is split 2 x 2, the part below the
    diagonal dropped, until it is kept.  A diagonal block of at most
    ``LEAF_CELLS`` cells is dense: its strict upper triangle, each row
    grown as the outward cumulative sum of the half-pair sums as in
    ``_kernel_rows``, is powered and mirrored, so it is exactly
    symmetric.  Off the diagonal the mass is ``a_i + b_j``, with ``a``
    summing outward from the end of I (the gap to J included) and ``b``
    from the start of J, so only additions are used.  Such a block is
    dense once no side exceeds a leaf, and otherwise kept as
    ``_low_rank`` gives it, where that succeeds.  Up to K = 5 (96
    cells) the factor is one leaf, equal to the axis's
    ``kernel_matrix`` bit for bit.  Refuses with ``KernelBudgetError``
    when the blocks kept so far and the next one would take more than
    ``KERNEL_MATRIX_BUDGET`` bytes, before a dense block is allocated.
    """
    C = len(masses)
    h = (masses[:-1] + masses[1:]) / 2
    blocks, held, todo = [], 0, [(0, C, 0, C)]

    def keep(I, J, nbytes, make):
        nonlocal held
        held += nbytes
        if held > KERNEL_MATRIX_BUDGET:
            raise KernelBudgetError(
                f"the kernel factor of {C} cells needs at least {held} "
                f"bytes, over the budget of {KERNEL_MATRIX_BUDGET} bytes")
        U, V = make()
        if V is None:  # masses, powered here; a leaf's upper half mirrored
            U = _neg_power(U + U.T if I == J else U, expo)
        blocks.append((I, J, U, V))

    while todo:  # depth first, upper left first
        i0, i1, j0, j1 = todo.pop()
        I, J, off = slice(i0, i1), slice(j0, j1), i0 < j0
        # off the diagonal, the mass of (i0 + i, j0 + j) is a[i] + b[j]
        a = np.cumsum(h[i0:i1][::-1])[::-1] + h[i1:j0].sum()
        b = np.r_[0.0, np.cumsum(h[j0:j1 - 1])]
        if not off and i1 - i0 <= LEAF_CELLS:
            # row i sums h[i0 + i:] from column i + 1 on, as in _kernel_rows
            g = np.broadcast_to(np.r_[0.0, h[i0:i1 - 1]], (i1 - i0,) * 2)
            keep(I, J, g.nbytes, lambda: (np.triu(g, 1).cumsum(1), None))
        elif off and max(a.size, b.size) <= LEAF_CELLS:
            keep(I, J, a.nbytes * b.size, lambda: (a[:, None] + b, None))
        elif off and a[-1] > 0 and (UV := _low_rank(a, b, expo)) is not None:
            keep(I, J, UV[0].nbytes + UV[1].nbytes, lambda: UV)
        else:
            im, jm = (i0 + i1) // 2, (j0 + j1) // 2
            todo += [(p, q, s, t) for p, q in ((im, i1), (i0, im))
                     for s, t in ((jm, j1), (j0, jm)) if p <= s]
    return blocks


def _factor_product(blocks: list[tuple], arr: np.ndarray,
                    ax: int) -> np.ndarray:
    """The mode product of the factor stored as ``blocks`` with ``arr``.

    With the axis in front and the rest flattened, each block off the
    diagonal adds ``U (V^T v[J])`` to rows I and ``V (U^T v[I])`` to
    rows J (``U v[J]`` and ``U^T v[I]`` for a dense one), so the factor
    applied is exactly symmetric; a leaf adds ``U v[I]``.
    """
    # one copy with the axis in front, so every block reads whole rows
    v = np.ascontiguousarray(np.moveaxis(arr, ax, 0))
    shape = v.shape
    v = v.reshape(shape[0], -1)
    out = np.zeros_like(v)
    for I, J, U, V in blocks:
        if V is None:
            out[I] += U @ v[J]
            if I != J:
                out[J] += U.T @ v[I]
        else:
            out[I] += U @ (V.T @ v[J])
            out[J] += V @ (U.T @ v[I])
    return np.moveaxis(out.reshape(shape), 0, ax)


@dataclass(frozen=True)
class FormPlan:
    """One fractional integral form of one weight, ready to apply.

    ``forward`` and ``adjoint`` map cell arrays to the ``_scatter`` of
    their terms (per level-K cube for the standard family, whose terms
    are constant on those cubes, and on cells for every other form);
    every map also takes one value for a constant, and the standard
    family's maps per-cube arrays; ``_upsample`` puts a result on
    cells.  The adjoint is taken in L^2(mu), and every form but perez
    is its own adjoint.
    ``skipped_terms`` counts the zero-mass rectangles summed over (for
    the kernel form, the zero-mass pairs that are not excluded),
    ``excluded_pairs`` the kernel form's pairs that share a coordinate.
    ``kernel`` holds the ``RectKernel.hls`` coefficients of the forms
    that sum over the standard family, and is None for the others.
    ``factor`` describes the kernel form's per-axis factors together:
    their bytes, largest rank and counts of low-rank and dense blocks;
    it is None for the other forms and for a weight without factors.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    skipped_terms: int
    excluded_pairs: int = 0
    kernel: RectKernel | None = None
    factor: dict | None = None


def _window_plan(mu: Weight, expo: float, family) -> FormPlan:
    """The sum over the third-cube windows that ``family`` slices.

    Only those windows get a coefficient; the others carry 0 into the
    array that the pad-0 window transposes.
    """
    coeffs, skipped = {}, 0
    for lv, third in build_pyramid(mu.config, mu.cell_masses).items():
        masses = _windows(third, 2)
        coeffs[lv] = np.zeros_like(masses)
        coeffs[lv][family] = _neg_power(masses[family], expo)
        skipped += int((masses[family] <= 0).sum())

    def terms(agg):
        for lv, third in agg.items():
            third[...] = _windows(coeffs[lv] * _windows(third, 2), 0)
    apply = _rect_sum(mu, build_pyramid, terms)
    return FormPlan(apply, apply, skipped)


def _kernel_plan(mu: Weight, alpha: float, expo: float) -> FormPlan:
    """The kernel form, by Kronecker factors when the weight has them.

    Each factor is kept as the HODLR blocks of ``kernel_factor`` and
    applied by ``_factor_product``, one mode product per axis; the
    factors are symmetric, so the forward map is its own adjoint.
    Counts come without a pass over a factor: the
    excluded pairs by their closed form, and, per axis, the centres
    i < j whose interval mass is 0 -- those with no positive half-pair
    sum between them, where the running count of positive ones ties at
    i and j.  Only the dense fallback counts the zeros of its matrix.
    """
    cm, N, C = mu.cell_masses, mu.config.total_dim, mu.config.axis_cells
    excluded = C ** N * (C ** N - (C - 1) ** N)
    if mu.factors is None:
        A = kernel_matrix(mu, alpha)
        skipped = A.size - int(np.count_nonzero(A)) - excluded
        dense = lambda fv: (A @ (fv * cm).ravel()).reshape(cm.shape)
        return FormPlan(dense, dense, skipped, excluded)
    # the weight's cell volume per axis, so that at N = 1 the factor's
    # masses are the weight's cell masses bit for bit
    masses = [a * float(C) ** -1 for a in mu.factors]
    factors = [kernel_factor(m, expo) for m in masses]
    ties = [np.bincount(np.cumsum(np.r_[0, (m[:-1] + m[1:]) / 2 > 0]))
            for m in masses]
    skipped = (C * (C - 1)) ** N - math.prod(
        C * (C - 1) - int((t * (t - 1)).sum()) for t in ties)

    def forward(fv):
        out = fv * cm
        for ax, blocks in enumerate(factors):
            out = _factor_product(blocks, out, ax)
        return out

    ranks = [V.shape[1] for f in factors for *_, V in f if V is not None]
    factor = {"bytes": sum(x.nbytes for f in factors for blk in f
                           for x in blk[2:] if x is not None),
              "max_rank": max(ranks, default=0), "low_rank_blocks": len(ranks),
              "dense_blocks": sum(map(len, factors)) - len(ranks)}
    return FormPlan(forward, forward, skipped, excluded, factor=factor)


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
    N = mu.config.total_dim
    expo = _hls_exponent(alpha, N)
    if form == "dyadic":
        tau = _shift_vector(tau, N)
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
    skipped = int(np.count_nonzero(mu.mass_tree.heap <= 0))
    if form == "dyadic":
        dyadic = _rect_sum(mu, build_mass_tree, _times(kernel.tables))
        return FormPlan(dyadic, dyadic, skipped, kernel=kernel)
    # integrating f over 3R is the width-3 window over the standard
    # cubes; the adjoint spreads each cube's term over 3R the same way
    times = _times(kernel.tables)
    return FormPlan(_rect_sum(mu, build_mass_tree, _tree_windows, times),
                    _rect_sum(mu, build_mass_tree, times, _tree_windows),
                    skipped, kernel=kernel)


def kernel_sums(mu: Weight, alpha: float, X, Y) -> np.ndarray:
    """``kernel_sum`` of every pair of rows of ``(P, N)`` point arrays.

    ``grids.triple_depths`` gives, per pair and factor, the levels whose
    cube around x has y in its triple; each level tuple then gathers
    its live pairs' masses from the tree at once.  Terms are added in
    ``level_combos`` order.  Each power is Python's scalar ``pow``, so
    the sums keep the bits they had before batching and round as libm
    does, not as numpy's SIMD powers do on some hosts.
    """
    expo = _hls_exponent(alpha, mu.config.total_dim)
    X = _points(X)
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
    """The closed kernel mu(R(x,y))**(alpha/N - 1); +inf on zero mass.

    Points outside [0,1)^N are refused as ``kernel_sum`` refuses them.
    """
    expo = _hls_exponent(alpha, mu.config.total_dim)
    _check_inside(mu.config, x, y)
    m = mu.mass(min_rect(tuple(x), tuple(y)))
    if m <= 0.0:
        return math.inf
    return m ** expo


def shift_bound_ratio(mu: Weight, alpha: float, f: GridFunction) -> float:
    """Pointwise domination of the enlarged form by the shifted-grid sum.

    Returns the largest cellwise ratio of the enlarged-region form to
    the sum of the dyadic forms over all 3**N shifted families.  Every
    cell's sum holds the term of the level-0 standard cube,
    ``mu([0,1)^N)**(alpha/N - 1) * int f dmu``, and no term is
    negative, so the denominator is positive at every cell or zero at
    every cell.  It is zero only where ``int f dmu`` is, and then every
    integral of f in the numerator vanishes too: the ratio is then 0.
    """
    _check_same_grid(mu, f)
    num = _upsample(mu.config, plan(mu, alpha, "perez").forward(f.values))
    den = plan(mu, alpha, "shifted-sum").forward(f.values)
    if not den.any():
        return 0.0
    return float((num / den).max())
