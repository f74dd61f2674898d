import functools
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectfrac import (DegeneratePairError, DyadicCube, ExponentConfig,
                      ExponentError, GridConfig, GridFunction, ProductRect,
                      RectKernel, Weight, apply_frac_dyadic,
                      apply_frac_kernel, apply_perez, apply_positive,
                      depth_sweep, gen_cascade, gen_power, gen_uniform,
                      integrate, kernel_sum, min_rect, mlinear_form,
                      operator_norm_lower, pair_kernel, shift_bound_ratio)
from rectfrac.bruteforce import (frac_dyadic_direct, mass_direct,
                                 mlinear_direct, perez_direct,
                                 positive_direct)
import rectfrac
from rectfrac import operators, weights
from rectfrac.operators import (KernelBudgetError, check_mlinear_exponents,
                                kernel_factor, kernel_matrix, plan)

from kernel_reference import _unfactored, dense_kernel_form, pair_loop

TOP2 = ProductRect((DyadicCube(0, (0,)), DyadicCube(0, (0,))))


def random_function(cfg, rng):
    return GridFunction(cfg, rng.random((cfg.axis_cells,) * cfg.total_dim))


class TestExponentConfig:
    def test_hls_derivation(self):
        ec = ExponentConfig.hls(0.5, 4 / 3, 1)
        assert ec.q == pytest.approx(4.0, rel=1e-14)
        assert ec.q_conj == pytest.approx(4 / 3, rel=1e-14)

    def test_relation_violation_named(self):
        with pytest.raises(ExponentError, match=r"1/q = 1/p - alpha/N"):
            ExponentConfig(0.5, 4 / 3, 3.9, 1)

    def test_alpha_range(self):
        with pytest.raises(ExponentError, match="alpha"):
            ExponentConfig.hls(2.5, 1.2, 2)


class TestMlinearForm:
    def test_zero_kernel(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config, lambda r: 0.0)
        f = GridFunction.ones(uniform_square.config)
        assert mlinear_form(kern, (uniform_square,) * 2, (f, f)) == 0.0

    def test_plain_callable_refused(self, uniform_square):
        f = GridFunction.ones(uniform_square.config)
        with pytest.raises(TypeError, match=r"RectKernel\.from_callable"):
            mlinear_form(lambda r: 1.0, (uniform_square,) * 2, (f, f))

    def test_top_indicator_kernel(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config,
                                        lambda r: float(r == TOP2))
        f = GridFunction.ones(uniform_square.config)
        assert mlinear_form(kern, (uniform_square,) * 2, (f, f)) == \
            pytest.approx(1.0, rel=1e-14)

    def test_matches_direct_oracle(self, cascade_square):
        cfg = cascade_square.config
        rng = np.random.default_rng(31)
        w2 = gen_cascade(cfg, 1.5, 5)
        for i in range(25):
            kern_fn = _hash_kernel(cfg, seed=i)
            fs = (random_function(cfg, rng), random_function(cfg, rng))
            fast = mlinear_form(RectKernel.from_callable(cfg, kern_fn),
                                (cascade_square, w2), fs)
            slow = mlinear_direct(kern_fn, (cascade_square, w2), fs)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_multilinear_scaling(self, cascade_square):
        cfg = cascade_square.config
        kern = RectKernel.random_uniform(cfg, 8)
        rng = np.random.default_rng(4)
        f, g = random_function(cfg, rng), random_function(cfg, rng)
        base = mlinear_form(kern, (cascade_square,) * 2, (f, g))
        tripled = GridFunction(cfg, f.values * 3.0)
        assert mlinear_form(kern, (cascade_square,) * 2,
                            (tripled, g)) == pytest.approx(
            3 * base, rel=1e-12)


def _hash_kernel(cfg, seed):
    kern = RectKernel.random_uniform(cfg, seed)
    return lambda rect: kern.value(rect)


# shapes of the scatter tests: one factor, one 2-d factor, and mixed
# factor dimensions with the first factor taller or shorter
SPREAD_CASES = [((1,), 5), ((2,), 3), ((1, 1), 4), ((2, 1), 2), ((1, 2), 2),
                ((1, 1, 1), 2)]


def _block_arrays(cfg, blocks, rng):
    """Positive arrays of ``blocks * 2**k`` entries per axis at level k.

    ``blocks`` 1 gives mass-tree shapes, 3 the third-cube pyramid's.
    Magnitudes span 12 decades, so any change in the order of the
    additions shows in the low bits.
    """
    arrs = []
    for lv in operators.level_combos(cfg):
        shape = [blocks << k for k, d in zip(lv, cfg.dims) for _ in range(d)]
        arrs.append(rng.random(shape) * 10.0 ** rng.integers(-6, 7, shape))
    return arrs


def _heap_of(cfg, blocks, arrs):
    """A level tree holding ``arrs``, given in ``level_combos`` order."""
    tree = weights.LevelTree(cfg, blocks)
    for arr, lv in zip(arrs, operators.level_combos(cfg)):
        tree[lv][...] = arr
    return tree


class TestSpread:
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("dims,depth", SPREAD_CASES)
    def test_equals_upsample_fold(self, dims, depth, blocks):
        cfg = GridConfig(dims, depth)
        arrs = _block_arrays(cfg, blocks, np.random.default_rng(depth))
        fold = np.zeros((cfg.axis_cells,) * cfg.total_dim)
        for arr in arrs:
            fold += operators._upsample(cfg, arr)
        tree = _heap_of(cfg, blocks, arrs)
        out = operators._upsample(cfg, weights._scatter(tree))
        if cfg.n_factors == 1:
            assert np.array_equal(out, fold)
        else:
            # the scatter adds the (K+1)**N positive terms in another
            # order: the sum-of-positives bound
            terms = (depth + 1) ** cfg.n_factors
            assert np.all(np.abs(out - fold) <= terms * 2.0 ** -52 * fold)

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("dims,depth", SPREAD_CASES)
    def test_scatter_is_gather_transpose(self, dims, depth, blocks):
        # <gather(x), y> == <x, scatter(y)> over every table entry
        cfg = GridConfig(dims, depth)
        rng = np.random.default_rng(depth + blocks)
        x = rng.random((blocks << depth,) * cfg.total_dim)
        y = _heap_of(cfg, blocks, _block_arrays(cfg, blocks, rng))
        build = weights.build_mass_tree if blocks == 1 else \
            weights.build_pyramid
        gathered = build(cfg, x)
        lhs = float(np.vdot(gathered.heap, y.heap))
        rhs = float(np.vdot(x, weights._scatter(y)))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_forward_holds_one_heap(self):
        # the dyadic forward builds one aggregate heap and scatters it in
        # place: beyond its output (or its weighted input, which the
        # heap is built from) and that heap it holds only numpy's
        # fixed-size iteration buffers, np.getbufsize() entries for each
        # of up to four (an add between interleaved views of one heap
        # buffers its three operands and one more), and small objects
        cfg = GridConfig((1, 1, 1), 5)
        op = plan(gen_cascade(cfg, 2.0, 1), 0.5, "dyadic")
        f = np.random.default_rng(3).random((1 << 5,) * 3)
        heap = weights.LevelTree(cfg).heap.nbytes
        op.forward(f)
        tracemalloc.start()
        try:
            out = op.forward(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 4 * 8 * np.getbufsize()
        assert peak <= out.nbytes + heap + buffers + (16 << 10)


def _reshape_sum(arr, axis, block):
    shape = arr.shape
    return arr.reshape(shape[:axis] + (shape[axis] // block, block) +
                       shape[axis + 1:]).sum(axis=axis + 1)


def _reshape_sum_tree(cfg, base):
    """The level tree halved by reshape sums: the reference.

    Tables are halved finest first, then listed in ``level_combos`` order.
    """
    K, n = cfg.depth, cfg.n_factors
    tree = {}
    for levels in itertools.product(range(K, -1, -1), repeat=n):
        if all(k == K for k in levels):
            tree[levels] = base
            continue
        i = next(j for j in range(n) if levels[j] < K)
        arr = tree[levels[:i] + (levels[i] + 1,) + levels[i + 1:]]
        for ax in cfg.factor_axes(i):
            arr = _reshape_sum(arr, ax, 2)
        tree[levels] = arr
    return {levels: tree[levels] for levels in sorted(tree)}


def _assert_trees_equal(got, want):
    assert list(got) == list(want)
    for lv in want:
        assert np.array_equal(got[lv], want[lv])


class TestGather:
    @pytest.mark.parametrize("dims,depth", SPREAD_CASES + [((1,), 12)])
    def test_slice_sums_equal_reshape_sums(self, dims, depth):
        cfg = GridConfig(dims, depth)
        shape = (cfg.axis_cells,) * cfg.total_dim
        rng = np.random.default_rng(depth)
        cms = [rng.random(shape) * 10.0 ** rng.integers(-6, 7, shape)]
        if dims == (1,):
            cms.append(gen_power(cfg, (6,)).cell_masses)
        for cm in cms:
            base = cm
            for ax in range(cfg.total_dim):
                base = _reshape_sum(base, ax, 3)
            _assert_trees_equal(weights.build_mass_tree(cfg, cm),
                                _reshape_sum_tree(cfg, base))
            _assert_trees_equal(weights.build_pyramid(cfg, cm),
                                _reshape_sum_tree(cfg, cm))


KERNEL_SEEDS = [0, 9, -5, 2 ** 63 - 1, -2 ** 63]


class TestRandomUniform:
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    @pytest.mark.parametrize("dims,depth", [((1,), 6), ((2,), 3), ((1, 1), 4),
                                            ((2, 1), 2), ((1, 1, 1), 3),
                                            ((1,), 10)])
    def test_tables_uniform_and_distinct(self, dims, depth, seed):
        cfg = GridConfig(dims, depth)
        tables = RectKernel.random_uniform(cfg, seed).tables
        again = RectKernel.random_uniform(cfg, seed).tables
        assert list(tables) == list(operators.level_combos(cfg))
        for lv, arr in tables.items():
            shape = tuple(1 << k for k, d in zip(lv, cfg.dims)
                          for _ in range(d))
            assert arr.shape == shape and arr.dtype == np.float64
            assert np.all((arr >= 0.0) & (arr < 1.0))
            assert np.array_equal(again[lv], arr)
        # levels fix the shape, so compare tables of equal size: no two
        # levels share a stream
        flat = list(tables.values())
        for a, b in itertools.combinations(flat, 2):
            if a.size == b.size:
                assert not np.array_equal(a.ravel(), b.ravel())

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_table_independent_of_depth(self, seed):
        kerns = [RectKernel.random_uniform(GridConfig((1,), depth), seed)
                 for depth in range(1, 13)]
        deepest = kerns[-1].tables
        for kern in kerns:
            for lv, arr in kern.tables.items():
                assert np.array_equal(arr, deepest[lv])

    @pytest.mark.parametrize("dims,depth", [((1,), 6), ((2,), 3), ((1, 1), 4),
                                            ((2, 1), 2), ((1, 1, 1), 3)])
    def test_seeds_draw_different_tables(self, dims, depth):
        cfg = GridConfig(dims, depth)
        kerns = [RectKernel.random_uniform(cfg, s) for s in KERNEL_SEEDS]
        for a, b in itertools.combinations(kerns, 2):
            for lv in a.tables:
                assert not np.array_equal(a.tables[lv], b.tables[lv])

    @pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1, 10 ** 20])
    def test_seed_outside_domain_refused(self, seed):
        message = f"kernel seed must lie in [-2**63, 2**63), got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RectKernel.random_uniform(GridConfig((1,), 2), seed)

    @pytest.mark.parametrize("seed", [1.9, 7.0, "7", None])
    def test_non_integer_seed_refused(self, seed):
        # 1.9 used to draw seed 1's tables, and "7" seed 7's
        message = f"kernel seed must be an integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RectKernel.random_uniform(GridConfig((1,), 2), seed)

    def test_numpy_integer_seed_passes(self):
        cfg = GridConfig((1, 1), 2)
        want = RectKernel.random_uniform(cfg, 7).tables
        for seed in (np.int64(7), np.uint8(7)):
            got = RectKernel.random_uniform(cfg, seed).tables
            assert all(np.array_equal(got[lv], want[lv]) for lv in want)

    def test_pinned_values(self):
        # the PCG64 stream is integer arithmetic, so these hold on every
        # host and every supported numpy
        tables = RectKernel.random_uniform(GridConfig((1, 1), 1), 9).tables
        assert {lv: arr.ravel().tolist() for lv, arr in tables.items()} == {
            (0, 0): [0.1684261959492388],
            (0, 1): [0.765138509211493, 0.5532621129061753],
            (1, 0): [0.7376240445106731, 0.6786350678629385],
            (1, 1): [0.2986548988513432, 0.017425250900940714,
                     0.2606291035571038, 0.5512919316249881]}
        low = RectKernel.random_uniform(GridConfig((2,), 1), -2 ** 63).tables
        assert low[(0,)].tolist() == [[0.563463187348521]]

    def test_kernel_tables_read_only(self):
        cfg = GridConfig((1, 1), 2)
        w = gen_cascade(cfg, 2.0, 1)
        tables = weights.LevelTree(cfg, heap=np.ones((7, 7)))
        for kern in (RectKernel.random_uniform(cfg, 1), RectKernel.hls(w, 0.5),
                     RectKernel.from_callable(cfg, lambda r: 1.0),
                     RectKernel(cfg, tables)):
            with pytest.raises(ValueError, match="read-only"):
                kern.tables[(1, 2)][0, 0] = 99.0

    def test_restricted_equals_fresh(self):
        # a table ignores the depth: a deep draw holds every shallower
        # draw's tables on their levels
        deep = RectKernel.random_uniform(GridConfig((1, 1), 4), -5)
        for depth in (1, 3, 4):
            fresh = RectKernel.random_uniform(GridConfig((1, 1), depth), -5)
            assert set(fresh.tables) <= set(deep.tables)
            for lv, arr in fresh.tables.items():
                assert np.array_equal(deep.tables[lv], arr)


class TestApplyPositive:
    def test_top_kernel_unit_data(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config,
                                        lambda r: float(r == TOP2))
        f = GridFunction.ones(uniform_square.config)
        out = apply_positive(kern, uniform_square, f)
        assert np.allclose(out.values, 1.0, rtol=1e-14)

    def test_monotone_in_f(self, cascade_square):
        cfg = cascade_square.config
        kern = RectKernel.random_uniform(cfg, 2)
        rng = np.random.default_rng(6)
        f = random_function(cfg, rng)
        g = GridFunction(cfg, f.values + rng.random(f.values.shape))
        tf = apply_positive(kern, cascade_square, f)
        tg = apply_positive(kern, cascade_square, g)
        assert np.all(tf.values <= tg.values + 1e-15)

    def test_duality_identity(self, cascade_square):
        # <T f, g>_omega equals the bilinear rectangle sum exactly
        cfg = cascade_square.config
        omega = gen_cascade(cfg, 2.5, 77)
        kern = RectKernel.random_uniform(cfg, 3)
        rng = np.random.default_rng(8)
        f, g = random_function(cfg, rng), random_function(cfg, rng)
        tf = apply_positive(kern, cascade_square, f)
        lhs = integrate(omega, GridFunction(cfg, tf.values * g.values), TOP2)
        rhs = mlinear_form(kern, (cascade_square, omega), (f, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_direct_oracle(self, cascade_square):
        cfg = cascade_square.config
        kern_fn = _hash_kernel(cfg, 9)
        f = random_function(cfg, np.random.default_rng(10))
        fast = apply_positive(RectKernel.from_callable(cfg, kern_fn),
                              cascade_square, f)
        slow = positive_direct(kern_fn, cascade_square, f)
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12)


class TestFracDyadic:
    def test_uniform_geometric_series(self):
        for depth in (3, 5):
            w = gen_uniform(GridConfig((1,), depth))
            out = apply_frac_dyadic(w, 0.5, GridFunction.ones(w.config))
            expect = sum(2.0 ** (-k / 2) for k in range(depth + 1))
            np.testing.assert_allclose(out.values, expect, rtol=1e-13)

    def test_linear_in_f(self, cascade_square):
        f = GridFunction.ones(cascade_square.config)
        one = apply_frac_dyadic(cascade_square, 0.5, f)
        two = apply_frac_dyadic(cascade_square, 0.5,
                                GridFunction(f.config, f.values * 2.0))
        np.testing.assert_allclose(two.values, 2 * one.values, rtol=1e-14)

    @pytest.mark.parametrize("tau", [None, (1, 0), (-1, 1), (-1, -1), (-1, 0),
                                     (0, -1), (0, 1), (1, -1), (1, 1)])
    def test_matches_direct_oracle(self, cascade_square, tau):
        f = random_function(cascade_square.config, np.random.default_rng(12))
        fast = apply_frac_dyadic(cascade_square, 0.75, f, tau)
        slow = frac_dyadic_direct(cascade_square, 0.75, f, tau)
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12)

    def test_zero_mass_terms_counted(self, line_cfg):
        from rectfrac import Weight
        dens = np.ones(line_cfg.axis_cells)
        dens[:3] = 0.0
        w = Weight(line_cfg, dens)
        out, diag = apply_frac_dyadic(w, 0.5, GridFunction.ones(line_cfg),
                                      return_diagnostics=True)
        assert diag["skipped_terms"] == 1
        assert diag["truncation_depth"] == line_cfg.depth


class TestPerez:
    def test_dominates_dyadic_pointwise(self, cascade_square):
        f = random_function(cascade_square.config, np.random.default_rng(14))
        small = apply_frac_dyadic(cascade_square, 0.5, f)
        big = apply_perez(cascade_square, 0.5, f)
        scale = big.values.max()
        assert np.all(big.values >= small.values - 1e-12 * scale)

    def test_matches_direct_oracle(self, cascade_square):
        f = random_function(cascade_square.config, np.random.default_rng(15))
        fast = apply_perez(cascade_square, 1.25, f)
        slow = perez_direct(cascade_square, 1.25, f)
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12)

    def test_uniform_boundary_truncated_series(self):
        # each level-k interval containing x contributes
        # 2**(k/2) * |3I intersect [0,1)|
        cfg = GridConfig((1,), 4)
        w = gen_uniform(cfg)
        out = apply_perez(w, 0.5, GridFunction.ones(cfg))
        cells = cfg.axis_cells
        expect = np.zeros(cells)
        for k in range(cfg.depth + 1):
            side = 3 * 2 ** (cfg.depth - k)
            for m in range(2 ** k):
                lo, hi = max((m - 1) * side, 0), min((m + 2) * side, cells)
                expect[m * side:(m + 1) * side] += \
                    2.0 ** (k / 2) * (hi - lo) / cells
        np.testing.assert_allclose(out.values, expect, rtol=1e-13)


class TestPowerWeightPrecision:
    """Masses near the zero of |t - 1/2|**6 are raised to a negative power."""

    @staticmethod
    def weight(depth):
        return gen_power(GridConfig((1,), depth), (6,), centers=(0.5,))

    @pytest.mark.parametrize("tau", [(-1,), (0,), (1,)])
    def test_no_zero_mass_terms(self, tau):
        w = self.weight(12)
        _, diag = apply_frac_dyadic(w, 0.5, GridFunction.ones(w.config), tau,
                                    return_diagnostics=True)
        assert diag["skipped_terms"] == 0

    def test_matches_direct_cell_sums(self):
        # a level-k interval I contributes mu(I)**(-1/2) * int_E f dmu on
        # I, with E = 3I (enlarged form) or E = I (shift +1/3 family)
        w = self.weight(10)
        cfg = w.config
        f = random_function(cfg, np.random.default_rng(21))
        cm, fm, cells = w.cell_masses, w.cell_masses * f.values, cfg.axis_cells
        perez, shifted = np.zeros(cells), np.zeros(cells)
        for k in range(cfg.depth + 1):
            third = 2 ** (cfg.depth - k)
            for m in range(2 ** k):
                lo, hi = 3 * m * third, 3 * (m + 1) * third
                perez[lo:hi] += cm[lo:hi].sum() ** -0.5 * \
                    fm[max(lo - 3 * third, 0):hi + 3 * third].sum()
            for m in range(-1, 2 ** k):
                lo = max((3 * m + 1) * third, 0)
                hi = min((3 * m + 4) * third, cells)
                shifted[lo:hi] += cm[lo:hi].sum() ** -0.5 * fm[lo:hi].sum()
        np.testing.assert_allclose(apply_perez(w, 0.5, f).values, perez,
                                   rtol=1e-12)
        np.testing.assert_allclose(apply_frac_dyadic(w, 0.5, f, (1,)).values,
                                   shifted, rtol=1e-12)

    def test_kernel_form_has_no_zero_mass_terms(self):
        w = self.weight(10)
        _, diag = apply_frac_kernel(w, 0.5, GridFunction.ones(w.config),
                                    return_diagnostics=True)
        assert diag["skipped_terms"] == 0

    def test_pair_kernel_near_the_zero(self):
        w = self.weight(10)
        x, y = (3071,), (3075,)
        assert pair_kernel(w, 0.5, x, y) == pytest.approx(
            mass_direct(w, min_rect(x, y)) ** -0.5, rel=1e-12)


class TestNegPower:
    @pytest.mark.parametrize("expo", [-0.75, -0.5, 0.5, 2.0, 2.5])
    def test_power_where_positive_else_zero(self, expo):
        masses = _zero_banded_weight((1, 1), 4, True).mass_tree.heap
        pos = masses > 0
        assert not pos.all()
        want = np.where(pos, np.where(pos, masses, 1.0) ** expo, 0.0)
        assert np.array_equal(operators._neg_power(masses, expo), want)

    @pytest.mark.parametrize("expo", [-0.75, 2.5])
    def test_holds_result_and_mask_only(self, expo):
        # one masked power into a zeroed result: besides the result it
        # allocates only the one-byte-per-entry mask and small objects
        masses = gen_cascade(GridConfig((1, 1, 1), 5), 2.0, 1).mass_tree.heap
        tracemalloc.start()
        try:
            out = operators._neg_power(masses, expo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + masses.size + (16 << 10)


class TestAscentMaps:
    @pytest.mark.parametrize("dims,depth", [((1, 1), 3), ((1, 1, 1), 2)])
    def test_perez_adjoint_and_shifted_sum(self, dims, depth):
        cfg = GridConfig(dims, depth)
        mu = gen_cascade(cfg, 2.0, 9)
        rng = np.random.default_rng(22)
        f, g = random_function(cfg, rng), random_function(cfg, rng)
        cm = mu.cell_masses
        adjoint = plan(mu, 0.5, "perez").adjoint
        lhs = np.sum(apply_perez(mu, 0.5, f).values * g.values * cm)
        rhs = np.sum(f.values * operators._upsample(cfg, adjoint(g.values))
                     * cm)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        direct = sum(frac_dyadic_direct(mu, 0.5, f, tau).values
                     for tau in itertools.product((-1, 0, 1),
                                                  repeat=cfg.total_dim))
        np.testing.assert_allclose(plan(mu, 0.5, "shifted-sum").forward(
            f.values), direct, rtol=1e-12)


def _zero_banded_weight(dims, depth, factored):
    """A weight with zero-mass runs of cells, with or without factors."""
    cfg = GridConfig(dims, depth)
    C = cfg.axis_cells
    if factored:
        rng = np.random.default_rng(51)
        factors = []
        for ax in range(cfg.total_dim):
            a = rng.random(C) + 0.5
            a[:3] = 0.0  # a zero run at the edge ...
            a[C // 2 - 2 + ax:C // 2 + 2] = 0.0  # ... and one inside
            factors.append(a)
        dens = functools.reduce(np.multiply.outer, factors)
        return Weight(cfg, dens, factors=factors)
    dens = np.random.default_rng(52).random((C,) * cfg.total_dim) + 0.5
    dens[:5, :4] = 0.0  # a corner block, not a product pattern
    dens[9:12, 14:20] = 0.0
    return Weight(cfg, dens)


def _loop_rows(arr, rng, every_row=False):
    """Flat anchor cells of ``arr`` for ``pair_loop``.

    All of them, or the first, the last, the centre cell and four drawn
    from ``rng``.
    """
    if every_row:
        return list(range(arr.size))
    centre = np.ravel_multi_index(tuple(n // 2 for n in arr.shape), arr.shape)
    rows = {0, arr.size - 1, int(centre)}
    rows |= {int(r) for r in rng.integers(0, arr.size, 4)}
    return sorted(rows)


def _padded_windows(arr, pad):
    """Width-3 window sums over ``np.pad(arr, pad)``: the reference."""
    out = np.pad(arr, pad)
    for ax in range(out.ndim):
        moved = np.moveaxis(out, ax, 0)
        out = np.moveaxis(moved[:-2] + moved[1:-1] + moved[2:], 0, ax)
    return out


class TestWindows:
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_equals_padded_reference(self, ndim, pad):
        rng = np.random.default_rng(10 * ndim + pad)
        for shape in itertools.product(range(3 if pad == 0 else 1, 6),
                                       repeat=ndim):
            arr = rng.random(shape) * 10.0 ** rng.integers(-6, 7, shape)
            arr[rng.random(shape) < 0.25] = 0.0
            before = arr.copy()
            out, want = operators._windows(arr, pad), _padded_windows(arr, pad)
            assert out.dtype == want.dtype and out.shape == want.shape
            assert np.array_equal(out, want)
            assert np.array_equal(arr, before)
            assert not np.shares_memory(out, arr)

    @pytest.mark.parametrize("form,tau", [("perez", None),
                                          ("shifted-sum", None),
                                          ("dyadic", (1, -1))])
    def test_needs_no_pad(self, cascade_square, monkeypatch, form, tau):
        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called")

        monkeypatch.setattr(np, "pad", no_pad)
        op = plan(cascade_square, 0.5, form, tau)
        f = random_function(cascade_square.config, np.random.default_rng(8))
        for apply in (op.forward, op.adjoint):
            assert np.all(np.isfinite(apply(f.values)))


class TestPlan:
    @pytest.mark.parametrize("tau", [None, (0, 0)])
    def test_standard_family_is_the_positive_operator(self, cascade_square,
                                                      tau):
        f = random_function(cascade_square.config, np.random.default_rng(3))
        got = apply_frac_dyadic(cascade_square, 0.5, f, tau)
        want = apply_positive(RectKernel.hls(cascade_square, 0.5),
                              cascade_square, f)
        assert np.array_equal(got.values, want.values)

    def test_diagnostics_have_one_key_set(self, cascade_square):
        f = GridFunction.ones(cascade_square.config)
        diags = [apply_frac_dyadic(cascade_square, 0.5, f, tau,
                                   return_diagnostics=True)[1]
                 for tau in itertools.product((-1, 0, 1), repeat=2)]
        diags.append(apply_perez(cascade_square, 0.5, f,
                                 return_diagnostics=True)[1])
        diags.append(apply_frac_kernel(cascade_square, 0.5, f,
                                       return_diagnostics=True)[1])
        assert len(diags) == 11
        for diag in diags:
            assert set(diag) == {"skipped_terms", "excluded_pairs",
                                 "truncation_depth"}

    @pytest.mark.parametrize("factored", [True, False])
    def test_every_apply_is_its_plan(self, cascade_square, factored):
        # apply_frac_kernel is the row-by-row reference: it agrees with
        # its plan to rounding, and the plan users agree bit for bit
        mu = cascade_square if factored else _unfactored(cascade_square)
        cfg = mu.config
        f = random_function(cfg, np.random.default_rng(54))
        calls = [(apply_frac_dyadic, "dyadic", tau) for tau in
                 [None, *itertools.product((-1, 0, 1), repeat=2)]]
        calls += [(apply_perez, "perez", None),
                  (apply_frac_kernel, "kernel", None)]
        for apply, form, tau in calls:
            extra = () if tau is None else (tau,)
            got, diag = apply(mu, 0.5, f, *extra, return_diagnostics=True)
            op = plan(mu, 0.5, form, tau)
            want = operators._upsample(cfg, op.forward(f.values))
            if form == "kernel":
                np.testing.assert_allclose(got.values, want, rtol=1e-12)
            else:
                assert np.array_equal(got.values, want)
            assert diag == {"skipped_terms": op.skipped_terms,
                            "excluded_pairs": op.excluded_pairs,
                            "truncation_depth": cfg.depth}

    @pytest.mark.parametrize("dims,depth,factored", [
        ((1, 1), 3, True), ((1,), 5, True), ((1, 1, 1), 2, True),
        ((1, 1), 3, False)])
    def test_kernel_counts_match_the_reference(self, dims, depth, factored,
                                               monkeypatch):
        w = _zero_banded_weight(dims, depth, factored)
        assert (w.factors is not None) == factored
        rng = np.random.default_rng(53)
        f = random_function(w.config, rng)
        A = kernel_matrix(_unfactored(w), 0.5)
        if factored:
            _no_dense_matrix(monkeypatch)
        op = plan(w, 0.5, "kernel")
        got = op.forward(f.values)
        np.testing.assert_allclose(got.ravel(),
                                   A @ (f.values * w.cell_masses).ravel(),
                                   rtol=1e-12)
        # every zero of the dense twin is an excluded or a zero-mass pair
        assert op.skipped_terms > 0
        assert op.skipped_terms + op.excluded_pairs == \
            A.size - np.count_nonzero(A)
        # the plain pair loop on every row, or on rows in and out of the
        # zero runs, counts the same pairs row by row
        rows = _loop_rows(got, rng, every_row=dims == (1,))
        counts = {"excluded": 0, "zero": 0}
        for r, (total, excluded, zeros) in pair_loop(w, 0.5, f,
                                                     rows).items():
            assert got.flat[r] == pytest.approx(total, rel=1e-12)
            assert excluded + zeros == A[r].size - np.count_nonzero(A[r])
            counts["excluded"] += excluded
            counts["zero"] += zeros
        assert counts["zero"] > 0
        if len(rows) == got.size:
            assert counts == {"excluded": op.excluded_pairs,
                              "zero": op.skipped_terms}
        else:
            assert counts["excluded"] * got.size == \
                op.excluded_pairs * len(rows)

    def test_counts_of_the_window_forms(self, line_cfg):
        dens = np.ones(line_cfg.axis_cells)
        dens[:3] = 0.0  # the level-K cube at the left edge
        w = Weight(line_cfg, dens)
        assert plan(w, 0.5, "dyadic").skipped_terms == 1
        assert plan(w, 0.5, "perez").skipped_terms == 1
        # shifted by +1/3, the level-K and level-(K-1) cubes that
        # overhang the left edge meet zero cells only
        shifted = [plan(w, 0.5, "dyadic", (s,)).skipped_terms
                   for s in (-1, 0, 1)]
        assert shifted == [1, 1, 2]
        # every window is a cube of exactly one family
        assert plan(w, 0.5, "shifted-sum").skipped_terms == sum(shifted)

    def test_form_and_tau_checked(self, cascade_square):
        with pytest.raises(ValueError, match="form"):
            plan(cascade_square, 0.5, "fourier")
        with pytest.raises(ValueError, match="tau"):
            plan(cascade_square, 0.5, "perez", (0, 0))
        with pytest.raises(ValueError, match="tau"):
            plan(cascade_square, 0.5, "dyadic", (2, 0))


class TestKernelForm:
    def test_pair_kernel_uniform(self):
        cfg = GridConfig((1,), 5)
        w = gen_uniform(cfg)
        U = cfg.axis_units
        assert pair_kernel(w, 0.5, (U // 4,), (3 * U // 4,)) == \
            pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_pair_kernel_zero_mass_is_inf(self):
        cfg = GridConfig((1,), 3)
        dens = np.ones(cfg.axis_cells)
        dens[:6] = 0.0
        w = Weight(cfg, dens)
        assert pair_kernel(w, 0.5, (0,), (3,)) == math.inf
        assert math.isfinite(pair_kernel(w, 0.5, (0,), (13,)))

    def test_pair_kernel_symmetric(self, cascade_square):
        rng = np.random.default_rng(16)
        U = cascade_square.config.axis_units
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(0, U, 2))
            y = tuple(int(v) for v in rng.integers(0, U, 2))
            if any(a == b for a, b in zip(x, y)):
                continue
            assert pair_kernel(cascade_square, 0.5, x, y) == \
                pair_kernel(cascade_square, 0.5, y, x)

    def test_uses_product_rectangle_mass(self, cascade_square):
        # the kernel sees the full rectangle mass, not per-factor products
        U = cascade_square.config.axis_units
        x, y = (5, 40), (33, 9)
        expect = cascade_square.mass(min_rect(x, y)) ** (0.5 / 2 - 1)
        assert pair_kernel(cascade_square, 0.5, x, y) == \
            pytest.approx(expect, rel=1e-12)

    def test_quadrature_against_plain_loop(self):
        cfg = GridConfig((1,), 2)
        w = gen_cascade(cfg, 2.0, 5)
        f = random_function(cfg, np.random.default_rng(17))
        out, diag = apply_frac_kernel(w, 0.5, f, return_diagnostics=True)
        cells = cfg.axis_cells
        got = np.zeros(cells)
        for i in range(cells):
            for j in range(cells):
                if i == j:
                    continue
                x = (2 * i + 1,)
                y = (2 * j + 1,)
                got[i] += pair_kernel(w, 0.5, x, y) * f.values[j] * \
                    w.cell_masses[j]
        np.testing.assert_allclose(out.values, got, rtol=1e-12)
        assert diag["excluded_pairs"] == cells

    def test_degenerate_pair_rejected(self, cascade_square):
        with pytest.raises(DegeneratePairError):
            pair_kernel(cascade_square, 0.5, (3, 5), (9, 5))

    @pytest.mark.parametrize("x,y", [((88, 3), (1, 1)),
                                     ((-50, 3), (-10, 1))])
    def test_pair_outside_domain_refused(self, cascade_square, monkeypatch,
                                         x, y):
        # refused as kernel_sum refuses it, before any box sum
        with pytest.raises(ValueError) as ref:
            kernel_sum(cascade_square, 0.5, x, y)

        def no_mass(*args):
            raise AssertionError("box sum taken before the refusal")

        monkeypatch.setattr(Weight, "mass", no_mass)
        with pytest.raises(ValueError) as got:
            pair_kernel(cascade_square, 0.5, x, y)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value) == \
            "points must lie inside [0,1)^N"

    @pytest.mark.parametrize("x,y", [((5, 40), (33, 9)), ((0, 0), (47, 47)),
                                     ((20, 21), (21, 20)), ((1, 1), (2, 30))])
    def test_pair_inside_domain_keeps_bits(self, cascade_square, x, y):
        # the domain check changes no value: the minimal rectangle's mass
        # to the power alpha/N - 1, bit for bit
        m = cascade_square.mass(min_rect(x, y))
        assert pair_kernel(cascade_square, 0.5, x, y) == m ** (0.5 / 2 - 1)


def _no_dense_matrix(monkeypatch):
    def refuse(mu, alpha):
        raise AssertionError("the factored path built a dense matrix")
    monkeypatch.setattr(operators, "kernel_matrix", refuse)


FACTORED_CASES = [
    ("cascade", (1,), 6), ("cascade", (1, 1), 3), ("cascade", (2, 1), 2),
    ("cascade", (1, 1, 1), 2), ("uniform", (1, 1), 3), ("power", (1,), 10),
]


def _factored_weight(kind, dims, depth):
    cfg = GridConfig(dims, depth)
    if kind == "cascade":
        return gen_cascade(cfg, 2.0, 31)
    if kind == "uniform":
        return gen_uniform(cfg)
    # masses come close to zero next to the centre
    return gen_power(cfg, (6,), centers=(0.5,))


def _assembled(blocks, cells):
    """The full factor: its HODLR blocks and, off the diagonal, mirrors."""
    F = np.zeros((cells, cells))
    for I, J, U, V in blocks:
        B = U if V is None else U @ V.T
        F[I, J] += B
        if I != J:
            F[J, I] += B.T
    return F


def _factor_bytes(blocks):
    return sum(x.nbytes for *_, U, V in blocks for x in (U, V)
               if x is not None)


THREAD_RUN = """
import hashlib, json
from rectfrac import (ExponentConfig, GridConfig, gen_cascade,
                      operator_norm_lower)
for dims, depth in (((1,), 8), ((1, 1), 4), ((1, 1, 1), 3)):
    w = gen_cascade(GridConfig(dims, depth), 2.0, 1)
    ec = ExponentConfig.hls(0.5, 4 / 3, len(dims))
    est = operator_norm_lower(w, ec.alpha, ec.p, ec.q, "kernel",
                              max_sweeps=6)
    print(json.dumps([dims, repr(est.value), [repr(v) for v in est.history],
                      [hashlib.sha256(m.values.tobytes()).hexdigest()
                       for m in est.maximizers]]))
"""


CAPACITY_RUN = """
from rectfrac import (ExponentConfig, GridConfig, gen_cascade,
                      operator_norm_lower)
w = gen_cascade(GridConfig((1,), 12), 2.0, 1)
ec = ExponentConfig.hls(0.5, 4 / 3, 1)
est = operator_norm_lower(w, ec.alpha, ec.p, ec.q, "kernel", tol=0,
                          max_sweeps=20)
assert est.sweeps == 20 and est.value > 0
# the peak of this process's own memory: ru_maxrss would count the
# memory of the process that started it, which exec carries over
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
"""


def _thread_run(threads, script=THREAD_RUN):
    """``script``'s output from a fresh process with ``threads`` BLAS threads."""
    src = str(Path(rectfrac.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestKernelFactors:
    @pytest.mark.parametrize("kind,dims,depth", FACTORED_CASES)
    def test_forward_map_against_references(self, kind, dims, depth,
                                            monkeypatch):
        w = _factored_weight(kind, dims, depth)
        assert w.factors is not None
        rng = np.random.default_rng(41)
        f = random_function(w.config, rng)
        dense = dense_kernel_form(w, 0.5, f)
        _no_dense_matrix(monkeypatch)
        op = plan(w, 0.5, "kernel")
        got = op.forward(f.values)
        np.testing.assert_allclose(got, dense, rtol=1e-12)
        # the plain pair loop on a few rows, the centre cell included
        rows = _loop_rows(got, rng)
        per_row = op.excluded_pairs // got.size
        assert op.skipped_terms == 0
        for r, (total, excluded, zeros) in pair_loop(w, 0.5, f,
                                                     rows).items():
            assert got.flat[r] == pytest.approx(total, rel=1e-12)
            assert (excluded, zeros) == (per_row, 0)

    def test_factors_and_dense_matrix_exactly_symmetric(self):
        power = gen_power(GridConfig((1,), 10), (6,), centers=(0.5,))
        blocks = kernel_factor(power.cell_masses, -0.5)
        # every pair is stored once: symmetric leaves on the diagonal,
        # whole blocks above it, some of them compressed
        for I, J, U, V in blocks:
            assert (I == J and np.array_equal(U, U.T)) or I.stop <= J.start
        assert any(V is not None for *_, V in blocks)
        F = _assembled(blocks, power.config.axis_cells)
        assert np.array_equal(F, F.T)
        assert not F.diagonal().any()
        # at N = 1 the factor is the dense matrix of the same weight,
        # entry by entry, and bit for bit where it is one leaf
        np.testing.assert_allclose(F, kernel_matrix(power, 0.5), rtol=1e-12,
                                   atol=0)
        power = gen_power(GridConfig((1,), 5), (6,), centers=(0.5,))
        assert np.array_equal(
            _assembled(kernel_factor(power.cell_masses, -0.5), 96),
            kernel_matrix(power, 0.5))
        for cfg in (GridConfig((1,), 6), GridConfig((1, 1), 3)):
            A = kernel_matrix(gen_cascade(cfg, 2.0, 5), 0.5)
            assert np.array_equal(A, A.T)

    def test_bound_byte_identical_across_thread_counts(self):
        runs = [_thread_run(threads) for threads in (1, 2)]
        assert runs[0] == runs[1]

    def test_factored_bound_matches_dense(self):
        w = gen_cascade(GridConfig((1, 1), 3), 2.0, 8)
        a = operator_norm_lower(w, 0.5, 4 / 3, 2.0, "kernel", max_sweeps=10)
        b = operator_norm_lower(_unfactored(w), 0.5, 4 / 3, 2.0, "kernel",
                                max_sweeps=10)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert (a.sweeps, a.converged) == (b.sweeps, b.converged)

    @pytest.mark.parametrize("kind", ["cascade", "cascade4", "power12"])
    @pytest.mark.parametrize("dims,depth,leaf", [
        ((1,), 3, 6), ((1,), 4, 6), ((1, 1), 3, 6), ((1, 1), 4, 6),
        ((2, 1), 2, 3)])
    def test_compressed_blocks_against_dense(self, kind, dims, depth, leaf,
                                             monkeypatch):
        # with small leaves the tier-1 sizes have low-rank blocks; at
        # (2, 1), where the dense matrix fits only to K = 2, leaves of 6
        # would leave every block dense
        cfg = GridConfig(dims, depth)
        w = {"cascade": lambda: gen_cascade(cfg, 2.0, 3),
             "cascade4": lambda: gen_cascade(cfg, 4.0, 3),
             "power12": lambda: gen_power(cfg, (12,) * cfg.total_dim)}[kind]()
        f = random_function(cfg, np.random.default_rng(depth))
        dense = dense_kernel_form(w, 0.5, f)
        _no_dense_matrix(monkeypatch)
        monkeypatch.setattr(operators, "LEAF_CELLS", leaf)
        op = plan(w, 0.5, "kernel")
        assert op.factor["low_rank_blocks"] > 0
        np.testing.assert_allclose(op.forward(f.values), dense, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(depth=st.integers(3, 5), alpha=st.sampled_from([0.25, 0.5, 0.75]),
           data=st.data())
    def test_apply_accurate_over_twelve_decades(self, depth, alpha, data):
        # cell masses 10**-12 to 1 in any order; on nonnegative input
        # each entry of the apply is within 1e-12 of the dense product
        cfg = GridConfig((1,), depth)
        C = cfg.axis_cells
        decades = data.draw(st.lists(st.floats(-12, 0), min_size=C,
                                     max_size=C))
        density = 10.0 ** np.array(decades) * C
        w = Weight(cfg, density, factors=[density])
        fv = np.array(data.draw(st.lists(st.floats(0, 1), min_size=C,
                                         max_size=C)))
        want = dense_kernel_form(w, alpha, GridFunction(cfg, fv))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "LEAF_CELLS", 6)
            got = plan(w, alpha, "kernel").forward(fv)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads the peak memory from /proc")
    def test_depth_twelve_bound_under_100_mb(self):
        # the 20-sweep (1,) K=12 bound took 619 MB with the factor's
        # upper triangle stored in full; VmHWM is in KiB
        assert int(_thread_run(1, CAPACITY_RUN)) < 100 * 1024

    def test_kernel_form_beyond_dense_reach(self, monkeypatch):
        # 147456 cells: a dense matrix would take 174 GB
        w = gen_cascade(GridConfig((1, 1), 7), 2.0, 1)
        _no_dense_matrix(monkeypatch)
        est = operator_norm_lower(w, 0.5, 4 / 3, 2.0, "kernel", max_sweeps=2)
        assert est.sweeps == 2 and est.value > 0


class TestKernelMatrixBudget:
    def test_refuses_before_allocating(self, monkeypatch):
        w = gen_cascade(GridConfig((1, 1), 2), 2.0, 3)  # 144 cells, 165888 B
        masses = w.cell_masses.ravel()  # one axis of 144 cells
        monkeypatch.setattr(operators, "KERNEL_MATRIX_BUDGET", 1000)
        # the factor's first block is the leaf of cells 0-71: 41472 B
        for build, nbytes in ((lambda: kernel_matrix(w, 0.5), 165888),
                              (lambda: kernel_factor(masses, -0.75), 41472)):
            tracemalloc.start()
            try:
                with pytest.raises(KernelBudgetError,
                                   match=f"{nbytes} bytes"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16_000

    def test_unfactored_reference_streams_past_the_budget(self,
                                                          monkeypatch):
        # the row-by-row reference holds one row at a time, so it runs
        # where the dense matrix is refused
        w = _unfactored(gen_cascade(GridConfig((1, 1), 2), 2.0, 3))
        f = random_function(w.config, np.random.default_rng(55))
        want = dense_kernel_form(w, 0.5, f)
        monkeypatch.setattr(operators, "KERNEL_MATRIX_BUDGET", 1000)
        with pytest.raises(KernelBudgetError):
            plan(w, 0.5, "kernel")
        got = apply_frac_kernel(w, 0.5, f)
        np.testing.assert_allclose(
            got.values, operators._upsample(w.config, want), rtol=1e-12)

    @pytest.mark.parametrize("cells", [1, 127, 128, 129, 144, 300])
    def test_factor_states_its_strip_bytes(self, cells, monkeypatch):
        # the running count crosses a budget one byte short at the last
        # block, so the refusal states the factor's bytes
        masses = np.random.default_rng(cells).random(cells)
        nbytes = _factor_bytes(kernel_factor(masses, -0.5))
        monkeypatch.setattr(operators, "KERNEL_MATRIX_BUDGET", nbytes - 1)
        with pytest.raises(KernelBudgetError,
                           match=f"needs at least {nbytes} bytes"):
            kernel_factor(masses, -0.5)

    def test_depth_twelve_factor_within_budget(self, monkeypatch):
        masses = np.full(3 << 12, 1 / (3 << 12))  # one axis at K = 12
        nbytes = _factor_bytes(kernel_factor(masses, -0.5))
        # the upper-triangle strips took 610271232 B, the full F 1.21 GB
        assert nbytes < 40_000_000
        monkeypatch.setattr(operators, "KERNEL_MATRIX_BUDGET", nbytes - 1)
        with pytest.raises(KernelBudgetError,
                           match=f"needs at least {nbytes} bytes"):
            kernel_factor(masses, -0.5)

    def test_unfactored_depth_six_refused(self, monkeypatch):
        def no_rows(mu):
            raise AssertionError("rows computed past the budget")
        monkeypatch.setattr(operators, "_kernel_rows", no_rows)
        w = _unfactored(gen_cascade(GridConfig((1, 1), 6), 2.0, 4))
        with pytest.raises(KernelBudgetError, match="10871635968 bytes"):
            operator_norm_lower(w, 0.5, 4 / 3, 2.0, "kernel")


class TestKernelSum:
    def test_uniform_two_qualifying_intervals(self):
        cfg = GridConfig((1,), 5)
        w = gen_uniform(cfg)
        U = cfg.axis_units
        x, y = (U // 4,), (3 * U // 4,)
        assert kernel_sum(w, 0.5, x, y) == pytest.approx(1 + math.sqrt(2),
                                                         rel=1e-13)
        ratio = kernel_sum(w, 0.5, x, y) / pair_kernel(w, 0.5, x, y)
        assert ratio == pytest.approx((1 + math.sqrt(2)) / math.sqrt(2),
                                      rel=1e-12)

    def test_matches_rect_enumeration(self, cascade_square):
        # independent check: sum over enumerated standard rects
        from rectfrac.bruteforce import _iter_family
        from rectfrac.grids import rect_box, triple
        cfg = cascade_square.config
        rng = np.random.default_rng(18)
        U = cfg.axis_units
        N = cfg.total_dim
        expo = 0.5 / N - 1
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(0, U, N))
            y = tuple(int(v) for v in rng.integers(0, U, N))
            if any(a == b for a, b in zip(x, y)):
                continue
            total = 0.0
            for rect, _, _ in _iter_family(cfg):
                if rect_box(cfg, rect).contains_point(x) and \
                        triple(cfg, rect).contains_point(y):
                    total += cascade_square.mass(rect) ** expo
            assert kernel_sum(cascade_square, 0.5, x, y) == \
                pytest.approx(total, rel=1e-12)

    def test_bounded_ratio_against_closed_kernel(self, cascade_square):
        from rectfrac.studies import kernel_equiv_study, sample_distinct_pairs
        pairs = sample_distinct_pairs(cascade_square.config, 200, 19)
        stats = kernel_equiv_study(cascade_square, 0.5, pairs)
        assert math.isfinite(stats["kernel_log_width"])
        assert stats["kernel_ratio_min"] > 0
        assert math.isfinite(stats["minimal_mass_ratio_max"])


def _shift_bound_ratio_masked(mu, alpha, f):
    """The cellwise ratio with cells where both sides vanish skipped.

    +inf where only the denominator vanishes; 0 if every cell is
    skipped.
    """
    num = weights._upsample(mu.config, operators.plan(mu, alpha, "perez")
                            .forward(f.values))
    den = operators.plan(mu, alpha, "shifted-sum").forward(f.values)
    live = ~((num == 0) & (den == 0))
    if not live.any():
        return 0.0
    if np.any(live & (den == 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(live, num / np.where(den > 0, den, 1.0), 0.0)
    return float(ratios.max())


class TestShiftBoundRatio:
    @pytest.mark.parametrize("dims,depth", [((1,), 3), ((2,), 2),
                                            ((1, 1), 2), ((1, 1), 3)])
    def test_masked_ratio_on_sparse_inputs(self, dims, depth):
        # the denominator holds the level-0 term mu(Q0)**e * int f dmu at
        # every cell, so skipping cells never decides the ratio
        cfg = GridConfig(dims, depth)
        rng = np.random.default_rng(depth * 10 + len(dims))
        shape = (cfg.axis_cells,) * cfg.total_dim
        zero_den = 0
        for _ in range(8):
            density = rng.random(shape) * (rng.random(shape) < 0.05)
            density.flat[rng.integers(density.size)] += 1.0
            mu = Weight(cfg, density)
            f = GridFunction(cfg, rng.random(shape) *
                             (rng.random(shape) < 0.1))
            got = shift_bound_ratio(mu, 0.5, f)
            assert got == _shift_bound_ratio_masked(mu, 0.5, f)
            zero_den += got == 0.0
        assert 0 < zero_den < 8

    def test_zero_function(self, cascade_square):
        cfg = cascade_square.config
        zero = GridFunction(cfg, np.zeros((cfg.axis_cells,) * 2))
        assert shift_bound_ratio(cascade_square, 0.5, zero) == 0.0

    def test_uniform_finite_and_stable(self):
        vals = []
        for depth in (3, 4):
            w = gen_uniform(GridConfig((1,), depth))
            vals.append(shift_bound_ratio(w, 0.5, GridFunction.ones(w.config)))
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert abs(vals[1] / vals[0] - 1) < 0.2

    def test_cascade_finite(self, cascade_square):
        f = GridFunction.ones(cascade_square.config)
        assert math.isfinite(shift_bound_ratio(cascade_square, 0.5, f))


class TestDeterminism:
    def test_bit_identical_reruns(self, cascade_square):
        f = random_function(cascade_square.config, np.random.default_rng(20))
        a = apply_perez(cascade_square, 0.5, f)
        b = apply_perez(cascade_square, 0.5, f)
        assert np.array_equal(a.values, b.values)
        s1 = mlinear_form(RectKernel.random_uniform(cascade_square.config, 1),
                          (cascade_square,) * 2, (f, f))
        s2 = mlinear_form(RectKernel.random_uniform(cascade_square.config, 1),
                          (cascade_square,) * 2, (f, f))
        assert s1 == s2


SHIFTED = ProductRect((DyadicCube(0, (0,), (1,)), DyadicCube(0, (0,))))


# each call on a (1,1) K=3 weight, with its error class and message start
REFUSALS = [
    (lambda w: ExponentConfig(3.0, 2.0, 4.0, 2), ExponentError,
     "alpha must lie in (0, 2), got 3.0"),
    (lambda w: ExponentConfig(0.5, 4.0, 2.0, 2), ExponentError,
     "need 1 < p < q < inf, got p=4.0, q=2.0"),
    (lambda w: check_mlinear_exponents((1.0, 2.0)), ExponentError,
     "every p_k must lie in (1, inf)"),
    (lambda w: RectKernel.hls(w, 2.5), ExponentError,
     "alpha must lie in (0, 2), got 2.5"),
    (lambda w: mlinear_form(RectKernel.hls(w, 0.5), (w, w.coarsen(2)),
                            (GridFunction.ones(w.config),) * 2),
     ValueError, "inputs live on different grids"),
    (lambda w: RectKernel.coerce(RectKernel.hls(w.coarsen(2), 0.5),
                                 w.config),
     ValueError, "kernel tabulated on a different grid"),
    (lambda w: RectKernel.from_callable(w.config, lambda r: -1.0),
     ValueError, "kernels must be nonnegative"),
    (lambda w: RectKernel.hls(w, 0.5).value(SHIFTED), ValueError,
     "kernel tables cover the standard family only"),
    (lambda w: mlinear_form(RectKernel.hls(w, 0.5), (w,), ()), ValueError,
     "need one function per weight"),
    # the next three used to truncate: to the standard family, to the
    # family (1, 0) and to a depth-2 sweep
    (lambda w: operators.plan(w, 0.5, "dyadic", (0.5, 0)), ValueError,
     "tau must assign -1, 0 or +1 per axis, got 0.5"),
    (lambda w: apply_frac_dyadic(w, 0.5, GridFunction.ones(w.config),
                                 tau=("1", "0")),
     ValueError, "tau must assign -1, 0 or +1 per axis, got '1'"),
    (lambda w: depth_sweep("hls", [2.5], weight=w, alpha=0.5, p=4 / 3),
     ValueError, "sweep depths must be integers, got 2.5")]


@pytest.mark.parametrize("call,exc,start", REFUSALS)
def test_refused(cascade_square, call, exc, start):
    with pytest.raises(exc, match="^" + re.escape(start)):
        call(cascade_square)
