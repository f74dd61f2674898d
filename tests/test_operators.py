import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rectfrac import (DegeneratePairError, DyadicCube, ExponentConfig,
                      ExponentError, GridConfig, GridFunction, ProductRect,
                      RectKernel, Weight, apply_frac_dyadic,
                      apply_frac_kernel, apply_perez, apply_positive,
                      gen_cascade, gen_power, gen_uniform, integrate,
                      kernel_sum, mass, min_rect, mlinear_form,
                      operator_norm_lower, pair_kernel, shift_bound_ratio)
from rectfrac.bruteforce import (frac_dyadic_direct, mass_direct,
                                 mlinear_direct, perez_direct,
                                 positive_direct)
from rectfrac import operators, weights
from rectfrac.operators import (KernelBudgetError, kernel_factor,
                                kernel_matrix, plan)

TOP2 = ProductRect((DyadicCube(0, (0,)), DyadicCube(0, (0,))))


def random_function(cfg, rng):
    return GridFunction(cfg, rng.random((cfg.axis_cells,) * cfg.total_dim))


class TestExponentConfig:
    def test_hls_derivation(self):
        ec = ExponentConfig.hls(0.5, 4 / 3, 1)
        assert ec.q == pytest.approx(4.0, rel=1e-14)
        assert ec.p_conj == pytest.approx(4.0, rel=1e-14)
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

    def test_top_indicator_kernel(self, uniform_square):
        kern = RectKernel.indicator(uniform_square.config, TOP2)
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
        assert mlinear_form(kern, (cascade_square,) * 2,
                            (f.scaled(3.0), g)) == pytest.approx(
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
        shape = [blocks << k for k in operators._axis_levels(cfg, lv)]
        arrs.append(rng.random(shape) * 10.0 ** rng.integers(-6, 7, shape))
    return arrs


def _per_cell_random_uniform(cfg, seed):
    """One keyed hash per table entry: the reference for random_uniform."""
    key = int(seed).to_bytes(8, "little", signed=True)
    tables = {}
    for levels in operators.level_combos(cfg):
        shape = tuple(1 << k for k in operators._axis_levels(cfg, levels))
        arr = np.empty(shape)
        for idx in np.ndindex(shape):
            token = repr((levels, idx)).encode()
            h = hashlib.blake2b(token, digest_size=8, key=key).digest()
            arr[idx] = int.from_bytes(h, "little") / 2.0 ** 64
        tables[levels] = arr
    return tables


class TestSpread:
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("dims,depth", SPREAD_CASES)
    def test_equals_upsample_fold(self, dims, depth, blocks):
        cfg = GridConfig(dims, depth)
        arrs = _block_arrays(cfg, blocks, np.random.default_rng(depth))
        fold = np.zeros((cfg.axis_cells,) * cfg.total_dim)
        for arr in arrs:
            fold += operators._upsample(cfg, arr)
        out = operators._upsample(cfg, operators._spread(cfg, iter(arrs)))
        assert np.array_equal(out, fold)


def _reshape_sum(arr, axis, block):
    shape = arr.shape
    return arr.reshape(shape[:axis] + (shape[axis] // block, block) +
                       shape[axis + 1:]).sum(axis=axis + 1)


def _reshape_sum_tree(cfg, base):
    """The level tree halved by reshape sums: the reference."""
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
    return tree


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


class TestRandomUniform:
    @pytest.mark.parametrize("seed", [0, 9, -5])
    @pytest.mark.parametrize("dims,depth", [((1,), 6), ((2,), 3), ((1, 1), 4),
                                            ((2, 1), 2), ((1, 1, 1), 3)])
    def test_matches_per_cell_hash(self, dims, depth, seed):
        cfg = GridConfig(dims, depth)
        tables = RectKernel.random_uniform(cfg, seed).tables
        expect = _per_cell_random_uniform(cfg, seed)
        assert list(tables) == list(expect)
        for lv, arr in expect.items():
            assert np.array_equal(tables[lv], arr)

    def test_restricted_equals_fresh(self):
        deep = RectKernel.random_uniform(GridConfig((1, 1), 4), -5)
        for depth in (1, 3, 4):
            cfg = GridConfig((1, 1), depth)
            small = deep.restrict(cfg)
            fresh = RectKernel.random_uniform(cfg, -5)
            assert small.config == cfg
            assert list(small.tables) == list(fresh.tables)
            for lv, arr in fresh.tables.items():
                assert np.array_equal(small.tables[lv], arr)

    def test_restrict_refuses_other_families(self):
        kern = RectKernel.random_uniform(GridConfig((1, 1), 3), 0)
        for cfg in (GridConfig((1, 1), 4), GridConfig((2,), 2)):
            with pytest.raises(ValueError, match="shallower"):
                kern.restrict(cfg)


class TestApplyPositive:
    def test_top_kernel_unit_data(self, uniform_square):
        kern = RectKernel.indicator(uniform_square.config, TOP2)
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
        two = apply_frac_dyadic(cascade_square, 0.5, f.scaled(2.0))
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

    @pytest.mark.parametrize("dims,depth,factored", [
        ((1, 1), 3, True), ((1,), 5, True), ((1, 1, 1), 2, True),
        ((1, 1), 3, False)])
    def test_kernel_counts_match_the_reference(self, dims, depth, factored,
                                               monkeypatch):
        w = _zero_banded_weight(dims, depth, factored)
        assert (w.factors is not None) == factored
        if factored:
            _no_dense_matrix(monkeypatch)
        f = random_function(w.config, np.random.default_rng(53))
        op = plan(w, 0.5, "kernel")
        ref, diag = apply_frac_kernel(w, 0.5, f, return_diagnostics=True)
        assert diag["skipped_terms"] > 0
        assert op.skipped_terms == diag["skipped_terms"]
        assert op.excluded_pairs == diag["excluded_pairs"]
        np.testing.assert_allclose(op.forward(f.values), ref.values,
                                   rtol=1e-12)

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
        expect = mass(cascade_square, min_rect(x, y)) ** (0.5 / 2 - 1)
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


def _unfactored(w):
    """The same density as a hand-made weight, with no per-axis factors."""
    return Weight(w.config, w.density)


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


class TestKernelFactors:
    @pytest.mark.parametrize("kind,dims,depth", FACTORED_CASES)
    def test_forward_map_against_references(self, kind, dims, depth,
                                            monkeypatch):
        w = _factored_weight(kind, dims, depth)
        assert w.factors is not None
        _no_dense_matrix(monkeypatch)
        rng = np.random.default_rng(41)
        f = random_function(w.config, rng)
        got = plan(w, 0.5, "kernel").forward(f.values)
        np.testing.assert_allclose(got, apply_frac_kernel(w, 0.5, f).values,
                                   rtol=1e-12)
        # the plain pair loop on a few rows, the centre cell included
        cells = w.config.axis_cells
        shape = (cells,) * w.config.total_dim
        rows = {0, got.size - 1,
                int(np.ravel_multi_index((cells // 2,) * len(shape), shape))}
        rows |= {int(r) for r in rng.integers(0, got.size, 4)}
        for r in sorted(rows):
            i = np.unravel_index(r, shape)
            x = tuple(2 * int(a) + 1 for a in i)
            total = 0.0
            for j in np.ndindex(shape):
                if any(a == b for a, b in zip(i, j)):
                    continue
                y = tuple(2 * b + 1 for b in j)
                total += pair_kernel(w, 0.5, x, y) * f.values[j] * \
                    w.cell_masses[j]
            assert got[i] == pytest.approx(total, rel=1e-12)

    def test_factors_and_dense_matrix_exactly_symmetric(self):
        power = gen_power(GridConfig((1,), 10), (6,), centers=(0.5,))
        F = kernel_factor(power.cell_masses, -0.5)
        assert np.array_equal(F, F.T)
        assert not F.diagonal().any()
        for cfg in (GridConfig((1,), 6), GridConfig((1, 1), 3)):
            A = kernel_matrix(gen_cascade(cfg, 2.0, 5), 0.5)
            assert np.array_equal(A, A.T)

    def test_factored_bound_matches_dense(self):
        w = gen_cascade(GridConfig((1, 1), 3), 2.0, 8)
        a = operator_norm_lower(w, 0.5, 4 / 3, 2.0, "kernel", max_sweeps=10)
        b = operator_norm_lower(_unfactored(w), 0.5, 4 / 3, 2.0, "kernel",
                                max_sweeps=10)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert (a.sweeps, a.converged) == (b.sweeps, b.converged)

    def test_kernel_form_beyond_dense_reach(self, monkeypatch):
        # 147456 cells: a dense matrix would take 174 GB
        w = gen_cascade(GridConfig((1, 1), 7), 2.0, 1)
        _no_dense_matrix(monkeypatch)
        est = operator_norm_lower(w, 0.5, 4 / 3, 2.0, "kernel", max_sweeps=2)
        assert est.sweeps == 2 and est.value > 0


class TestKernelMatrixBudget:
    def test_refuses_before_allocating(self, monkeypatch):
        w = gen_cascade(GridConfig((1, 1), 2), 2.0, 3)  # 144 cells, 165888 B
        masses = w.cell_masses.ravel()  # one axis of 144 cells, as large
        monkeypatch.setattr(operators, "KERNEL_MATRIX_BUDGET", 1000)
        for build in (lambda: kernel_matrix(w, 0.5),
                      lambda: kernel_factor(masses, -0.75)):
            tracemalloc.start()
            try:
                with pytest.raises(KernelBudgetError, match="165888 bytes"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16_000

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
        from rectfrac.grids import enumerate_rects, rect_box, triple
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
            for rect in enumerate_rects(cfg):
                if rect_box(cfg, rect).contains_point(x) and \
                        triple(cfg, rect).contains_point(y):
                    total += mass(cascade_square, rect) ** expo
            assert kernel_sum(cascade_square, 0.5, x, y) == \
                pytest.approx(total, rel=1e-12)

    def test_bounded_ratio_against_closed_kernel(self, cascade_square):
        from rectfrac.studies import kernel_equiv_study, sample_distinct_pairs
        pairs = sample_distinct_pairs(cascade_square.config, 200, 19)
        stats = kernel_equiv_study(cascade_square, 0.5, pairs)
        assert math.isfinite(stats["kernel_log_width"])
        assert stats["kernel_ratio_min"] > 0
        assert math.isfinite(stats["minimal_mass_ratio_max"])


class TestShiftBoundRatio:
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
