import dataclasses
import math

import numpy as np
import pytest

from rectfrac import (DyadicCube, ExponentError, GridConfig, ProductRect,
                      RectKernel, Weight, carleson_testing_constant,
                      condition_d_constant, doubling_constant, fp_constant,
                      gen_cascade, gen_power, gen_uniform,
                      reverse_doubling_constant, tail_bound)
from rectfrac.grids import (cube_to_json, rect_from_json, rect_to_json,
                            standard_rect)
from rectfrac.operators import _neg_power, level_combos
from rectfrac.weights import _sum_blocks


def reproduce_halving_witness(w, report):
    """Re-evaluate the mass ratio named by a halving witness."""
    rect = rect_from_json(report.witness["rect"])
    j = report.witness["j"]
    child_doc = report.witness["child"]
    child = DyadicCube(child_doc["level"], tuple(child_doc["index"]),
                       tuple(child_doc["tau"]))
    from rectfrac import replace
    num = w.mass(rect)
    den = w.mass(replace(rect, child, j))
    if den == 0:
        return math.inf if num > 0 else math.nan
    return num / den


class TestDoubling:
    @pytest.mark.parametrize("dims,expect", [((1, 1), 2.0), ((2, 1), 4.0)])
    def test_uniform(self, dims, expect):
        w = gen_uniform(GridConfig(dims, 2))
        assert doubling_constant(w).value == pytest.approx(expect, rel=1e-14)

    def test_cascade_bound(self):
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 3)
        assert doubling_constant(w).value <= 3.0 + 1e-12

    def test_zero_child_reports_infinity_with_witness(self, line_cfg):
        dens = np.ones(line_cfg.axis_cells)
        dens[:3] = 0.0  # one deepest-level interval carries no mass
        w = Weight(line_cfg, dens)
        rep = doubling_constant(w)
        assert math.isinf(rep.value)
        assert reproduce_halving_witness(w, rep) == math.inf

    def test_witness_reproduces_value(self, cascade_square):
        rep = doubling_constant(cascade_square)
        assert reproduce_halving_witness(cascade_square, rep) == rep.value

    def test_family_size(self):
        w = gen_uniform(GridConfig((1,), 2))
        # (R, j, child) tuples: 1 level-0 rect and 2 level-1 rects, 2 halves each
        assert doubling_constant(w).family_size == 1 * 2 + 2 * 2


class TestReverseDoubling:
    def test_uniform(self):
        w = gen_uniform(GridConfig((2, 1), 2))
        assert reverse_doubling_constant(w).value == pytest.approx(2.0)

    def test_at_least_one(self, cascade_square):
        rep = reverse_doubling_constant(cascade_square)
        assert rep.value >= 1.0
        assert reproduce_halving_witness(cascade_square, rep) == rep.value

    def test_forward_bound_exact_per_factor(self):
        for seed in range(5):
            w = gen_cascade(GridConfig((1, 1), 4), 2.5, seed)
            dub = doubling_constant(w)
            rev = reverse_doubling_constant(w)
            for j, nj in enumerate(w.config.dims):
                bound = 1.0 + (2 ** nj - 1) / dub.per_factor[j]
                assert rev.per_factor[j] >= bound * (1 - 1e-12)

    def test_converse_bound_exact(self):
        for seed in range(5):
            w = gen_cascade(GridConfig((1, 1), 4), 1.5, seed)
            dub = doubling_constant(w).value
            rev = reverse_doubling_constant(w).value
            top = 2 ** max(w.config.dims)
            if rev > top - 1:
                assert dub <= rev / (rev + 1 - top) * (1 + 1e-12)


class TestConditionD:
    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_uniform_geometric_series(self, depth):
        w = gen_uniform(GridConfig((1,), depth))
        rep = condition_d_constant(w, 1.0)
        assert rep.value == pytest.approx(2.0 - 2.0 ** -depth, rel=1e-13)

    def test_large_eps_limit(self, uniform_line):
        rep = condition_d_constant(uniform_line, 40.0)
        assert rep.value == pytest.approx(1.0, abs=1e-11)

    def test_geometric_bound_from_reverse_doubling(self):
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 11)
        gamma = reverse_doubling_constant(w).value
        for eps in (0.25, 0.5, 1.0):
            rep = condition_d_constant(w, eps)
            bound = sum(gamma ** (-k * eps) for k in range(w.config.depth + 1))
            assert rep.value <= bound * (1 + 1e-12)
            assert tail_bound(reverse_doubling_constant(w), eps) is not None

    def test_rejects_nonpositive_eps(self, uniform_line):
        with pytest.raises(ExponentError):
            condition_d_constant(uniform_line, 0.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_nonpositive_eps_refused_before_any_scan(self, cascade_square,
                                                     monkeypatch, eps):
        from rectfrac import conditions
        scans = []
        halving_scan = conditions._halving_scan

        def counted(w, name, minimize):
            scans.append(name)
            return halving_scan(w, name, minimize)

        monkeypatch.setattr(conditions, "_halving_scan", counted)
        with pytest.raises(ExponentError, match="eps must be positive"):
            condition_d_constant(cascade_square, eps)
        assert scans == []

    def test_tail_bound_is_geometric(self):
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 11)
        reverse = reverse_doubling_constant(w)
        assert reverse.value > 1.0
        for eps in (0.25, 0.5, 1.0):
            r = reverse.value ** -eps
            assert tail_bound(reverse, eps) == r / (1.0 - r)
        flat = dataclasses.replace(reverse, value=1.0)
        assert tail_bound(flat, 0.5) is None

    def test_monotone_in_depth(self):
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 13)
        shallow = condition_d_constant(w.coarsen(3), 0.5).value
        assert shallow <= condition_d_constant(w, 0.5).value * (1 + 1e-12)


def _per_level_power_scan(w, expo):
    """The scan raising a level once per (levels, j, l): the reference."""
    cfg = w.config
    K, n = cfg.depth, cfg.n_factors
    best, best_at = -1.0, None
    for levels in level_combos(cfg):
        base = w.mass_tree[levels]
        for j in range(n):
            acc = np.zeros_like(base)
            for l in range(levels[j], K + 1):
                arr = w.mass_tree[levels[:j] + (l,) + levels[j + 1:]] ** expo
                for ax in cfg.factor_axes(j):
                    arr = _sum_blocks(arr, ax, 1 << (l - levels[j]))
                acc = acc + arr
            pos = base > 0
            ratios = np.where(
                pos, acc / np.where(pos, base, 1.0) ** expo, -1.0)
            flat = int(np.argmax(ratios))
            if ratios.flat[flat] > best:
                best = float(ratios.flat[flat])
                best_at = (levels, j, flat)
    return best, best_at


class TestDescendantScan:
    @pytest.mark.parametrize("dims,depth", [((1, 1), 5), ((1, 1, 1), 3),
                                            ((2,), 3), ((1,), 8)])
    def test_equals_per_level_powers(self, dims, depth):
        cfg = GridConfig(dims, depth)
        w = gen_cascade(cfg, 4.0, 17)
        for rep, expo in ((condition_d_constant(w, 0.25), 1.25),
                          (condition_d_constant(w, 1.0), 2.0),
                          (carleson_testing_constant(w, 2.0, 5.0), 2.5)):
            value, (levels, j, flat) = _per_level_power_scan(w, expo)
            rect = standard_rect(cfg, levels, np.unravel_index(
                flat, w.mass_tree[levels].shape))
            assert rep.value == value
            assert rep.witness == {"rect": rect_to_json(rect), "j": j}


class TestCarlesonTesting:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_uniform_matches_summability_series(self, depth):
        # q/p = 2 reproduces the power-2 geometric series
        w = gen_uniform(GridConfig((1,), depth))
        rep = carleson_testing_constant(w, 2.0, 4.0)
        assert rep.value == pytest.approx(2.0 - 2.0 ** -depth, rel=1e-13)

    def test_large_ratio_limit(self, uniform_line):
        rep = carleson_testing_constant(w=uniform_line, p=1.001, q=50.0)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_exponent_order(self, uniform_line):
        with pytest.raises(ExponentError):
            carleson_testing_constant(uniform_line, 4.0, 2.0)

    def test_reverse_doubling_gives_finite_bound(self, cascade_square):
        gamma = reverse_doubling_constant(cascade_square).value
        rep = carleson_testing_constant(cascade_square, 2.0, 4.0)
        assert rep.value <= 1.0 / (1.0 - gamma ** (1 - 2.0)) * (1 + 1e-12)


class TestOneScanPerConstant:
    def test_testing_constants_make_no_halving_scan(self, cascade_square,
                                                    monkeypatch):
        from rectfrac import conditions
        scans = []
        halving_scan = conditions._halving_scan

        def counted(w, name, minimize):
            scans.append(name)
            return halving_scan(w, name, minimize)

        monkeypatch.setattr(conditions, "_halving_scan", counted)
        condition_d_constant(cascade_square, 0.5)
        carleson_testing_constant(cascade_square, 2.0, 4.0)
        assert scans == []

    def test_reports_carry_no_tail_bound(self, cascade_square):
        for rep in (doubling_constant(cascade_square),
                    condition_d_constant(cascade_square, 0.5),
                    carleson_testing_constant(cascade_square, 2.0, 4.0)):
            assert "tail_bound" not in rep.to_json()


class TestFeffermanPhong:
    def test_hls_identity_for_any_weight(self):
        for w in (gen_uniform(GridConfig((1, 1), 3)),
                  gen_cascade(GridConfig((1, 1), 3), 3.0, 1),
                  gen_power(GridConfig((1,), 5), (-0.5,))):
            N = w.config.total_dim
            alpha = 0.5
            p = 4 / 3
            q = 1.0 / (1.0 / p - alpha / N)
            rep = fp_constant(RectKernel.hls(w, alpha), (w, w),
                              (p, q / (q - 1)))
            assert rep.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("weights,start", [
        (lambda w: (w,), "need one exponent per weight"),
        (lambda w: (w, w.coarsen(2)), "inputs live on different grids")])
    def test_inputs_refused(self, uniform_square, weights, start):
        kern = RectKernel.from_callable(uniform_square.config, lambda r: 1.0)
        with pytest.raises(ValueError, match=f"^{start}"):
            fp_constant(kern, weights(uniform_square), (2.0, 2.0))

    def test_zero_kernel(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config, lambda r: 0.0)
        assert fp_constant(kern, (uniform_square, uniform_square),
                           (2.0, 2.0)).value == 0.0

    def test_single_rect_kernel(self, cascade_square):
        rect = ProductRect((DyadicCube(1, (1,)), DyadicCube(2, (0,))))
        kern = RectKernel.from_callable(cascade_square.config,
                                        lambda r: float(r == rect))
        rep = fp_constant(kern, (cascade_square, cascade_square), (2.0, 2.0))
        assert rep.value == pytest.approx(cascade_square.mass(rect), rel=1e-12)
        assert rect_from_json(rep.witness["rect"]) == rect

    def test_rejects_exponents_below_duality_line(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config, lambda r: 1.0)
        with pytest.raises(ExponentError):
            fp_constant(kern, (uniform_square, uniform_square), (3.0, 3.0))

    def test_monotone_in_depth(self):
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 17)
        kern4 = RectKernel.random_uniform(w.config, 4)
        kern3 = RectKernel.random_uniform(GridConfig((1, 1), 3), 4)
        v3 = fp_constant(kern3, (w.coarsen(3), w.coarsen(3)), (2.0, 2.0)).value
        v4 = fp_constant(kern4, (w, w), (2.0, 2.0)).value
        assert v3 <= v4 * (1 + 1e-12)


def _per_entry_halving_scan(w, minimize):
    """The halving scan one (levels, j, child) entry at a time: the reference.

    Entries run in ``level_combos`` order, then direction, then the
    child's row-major index, and the best moves only on a strict
    improvement.
    """
    cfg = w.config
    K, n = cfg.depth, cfg.n_factors
    skip = math.inf if minimize else -1.0
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    best, wit, size = skip, None, 0
    per_factor = [skip] * n
    for levels in level_combos(cfg):
        for j in range(n):
            if levels[j] >= K:
                continue
            children = w.mass_tree[levels[:j] + (levels[j] + 1,)
                                   + levels[j + 1:]]
            j_axes = cfg.factor_axes(j)
            for c_idx in np.ndindex(children.shape):
                p_idx = tuple(v // 2 if ax in j_axes else v
                              for ax, v in enumerate(c_idx))
                num = float(w.mass_tree[levels][p_idx])
                den = float(children[c_idx])
                if den > 0:
                    ratio = num / den
                else:
                    ratio = math.inf if num > 0 else skip
                size += 1
                if better(ratio, per_factor[j]):
                    per_factor[j] = ratio
                if better(ratio, best):
                    best = ratio
                    child = DyadicCube(levels[j] + 1,
                                       tuple(c_idx[ax] for ax in j_axes))
                    wit = {"rect": rect_to_json(standard_rect(cfg, levels,
                                                              p_idx)),
                           "j": j, "child": cube_to_json(child)}
    return best, wit, size, tuple(per_factor)


def _per_entry_fp_scan(kernel, weights, exponents):
    """``fp_constant`` one rectangle at a time: the reference.

    The products are formed by the same array powers as the library's,
    so only the selection -- level_combos order, then row-major index,
    strict improvement -- is checked entry by entry.
    """
    cfg = weights[0].config
    best, wit, size = -1.0, None, 0
    for levels in level_combos(cfg):
        table = kernel.tables[levels]
        for w, p in zip(weights, exponents):
            table = table * _neg_power(w.mass_tree[levels], 1.0 - 1.0 / p)
        for idx in np.ndindex(table.shape):
            size += 1
            if table[idx] > best:
                best = float(table[idx])
                wit = {"rect": rect_to_json(standard_rect(cfg, levels, idx))}
    return max(best, 0.0), wit, size


def _zero_half_weight():
    cfg = GridConfig((1, 1), 4)
    dens = np.random.default_rng(3).uniform(0.5, 2.0, (cfg.axis_cells,) * 2)
    dens[:cfg.axis_cells // 2] = 0.0  # inf and 0/0 halving ratios
    return Weight(cfg, dens)


def _crossed_ties_weight():
    # direction 0 first reaches its extremal ratios at levels (1, 0),
    # direction 1 at (0, 0), with equal values: levels decide, not j
    cfg = GridConfig((1, 1), 2)
    return Weight(cfg, np.multiply.outer(np.repeat([1.0, 1, 1, 3], 3),
                                         np.repeat([1.0, 1, 3, 3], 3)))


TIE_WEIGHTS = {
    "uniform (1,1) K=4": lambda: gen_uniform(GridConfig((1, 1), 4)),
    "cascade (2,1) K=3": lambda: gen_cascade(GridConfig((2, 1), 3), 4.0, 9),
    "zero half (1,1) K=4": _zero_half_weight,
    "crossed ties (1,1) K=2": _crossed_ties_weight,
}


class TestTieBreaking:
    """Witnesses are the first extremum in the reference's entry order."""

    @pytest.mark.parametrize("name", list(TIE_WEIGHTS))
    @pytest.mark.parametrize("minimize", [False, True])
    def test_halving_scan_equals_per_entry_loop(self, name, minimize):
        w = TIE_WEIGHTS[name]()
        scan = reverse_doubling_constant if minimize else doubling_constant
        rep = scan(w)
        assert (rep.value, rep.witness, rep.family_size, rep.per_factor) \
            == _per_entry_halving_scan(w, minimize)

    @pytest.mark.parametrize("name", list(TIE_WEIGHTS))
    def test_fp_scan_equals_per_entry_loop(self, name):
        w = TIE_WEIGHTS[name]()
        alpha, p = 0.5, 4 / 3
        q = 1.0 / (1.0 / p - alpha / w.config.total_dim)
        kern = RectKernel.hls(w, alpha)
        rep = fp_constant(kern, (w, w), (p, q / (q - 1)))
        assert (rep.value, rep.witness, rep.family_size) \
            == _per_entry_fp_scan(kern, (w, w), (p, q / (q - 1)))


class TestReportSerialization:
    def test_json_round_trip_fields(self, cascade_square):
        rep = doubling_constant(cascade_square)
        doc = rep.to_json()
        assert set(doc) >= {"name", "value", "witness", "depth",
                            "family_size", "params"}
        assert doc["value"] == rep.value

    def test_infinity_serialized_as_string(self, line_cfg):
        dens = np.ones(line_cfg.axis_cells)
        dens[:3] = 0.0
        rep = doubling_constant(Weight(line_cfg, dens))
        assert rep.to_json()["value"] == "inf"

    def test_rect_json_round_trip(self):
        rect = ProductRect((DyadicCube(2, (1,), (-1,)), DyadicCube(0, (0,))))
        assert rect_from_json(rect_to_json(rect)) == rect
        doc = cube_to_json(rect.factors[0])
        assert doc == {"level": 2, "index": [1], "tau": [-1]}
