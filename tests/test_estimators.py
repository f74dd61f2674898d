import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from rectfrac import (ConstantReport, DyadicCube, ExponentConfig,
                      GridConfig, GridFunction, ProductRect, RectKernel,
                      Weight, apply_frac_dyadic, apply_perez,
                      carleson_norm_lower, carleson_testing_constant,
                      depth_sweep,
                      embed_norm_lower, estimators, fp_constant, gen_cascade,
                      gen_uniform, lp_norm, mlinear_form, operator_norm_lower,
                      rows_to_csv)
from rectfrac.grids import rect_from_json, rect_to_json
from rectfrac import operators
from rectfrac.operators import _upsample
from rectfrac.weights import gen_power

from kernel_reference import (_per_cell_random_uniform, dense_kernel_form,
                              pair_loop)

TOP2 = ProductRect((DyadicCube(0, (0,)), DyadicCube(0, (0,))))
FORMS = ("dyadic", "perez", "shifted-sum", "kernel")


def assert_monotone(history):
    for a, b in zip(history, history[1:]):
        assert b >= a * (1 - 1e-12) - 1e-300


class TestEmbedNormLower:
    def test_cauchy_schwarz_case(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config,
                                        lambda r: float(r == TOP2))
        est = embed_norm_lower(kern, (uniform_square,) * 2, (2.0, 2.0))
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.converged
        for m in est.maximizers:
            assert np.allclose(m.values, m.values.flat[0])

    def test_zero_kernel_converges_immediately(self, uniform_square):
        kern = RectKernel.from_callable(uniform_square.config, lambda r: 0.0)
        est = embed_norm_lower(kern, (uniform_square,) * 2, (2.0, 2.0))
        assert est.value == 0.0
        assert est.converged

    def test_dominates_testing_constant(self):
        for seed in range(6):
            w = gen_cascade(GridConfig((1, 1), 3), 2.0, seed)
            kern = RectKernel.random_uniform(w.config, seed + 50)
            est = embed_norm_lower(kern, (w, w), (2.0, 2.0))
            c2 = fp_constant(kern, (w, w), (2.0, 2.0)).value
            assert est.value >= c2 - 1e-9

    def test_beats_random_restarts(self, cascade_square):
        cfg = cascade_square.config
        kern = RectKernel.random_uniform(cfg, 23)
        est = embed_norm_lower(kern, (cascade_square,) * 2, (2.0, 2.0))
        rng = np.random.default_rng(0)
        best = 0.0
        shape = (cfg.axis_cells,) * 2
        for _ in range(300):
            f = GridFunction(cfg, rng.random(shape))
            g = GridFunction(cfg, rng.random(shape))
            val = mlinear_form(kern, (cascade_square,) * 2, (f, g)) / (
                lp_norm(cascade_square, f, 2.0) *
                lp_norm(cascade_square, g, 2.0))
            best = max(best, val)
        assert est.value >= best - 1e-9

    def test_history_monotone_and_value_is_last(self, cascade_square):
        kern = RectKernel.random_uniform(cascade_square.config, 5)
        est = embed_norm_lower(kern, (cascade_square,) * 2, (4 / 3, 2.0))
        assert_monotone(est.history)
        assert est.value == est.history[-1]

    def test_deterministic_histories(self, cascade_square):
        kern = RectKernel.random_uniform(cascade_square.config, 6)
        a = embed_norm_lower(kern, (cascade_square,) * 2, (2.0, 2.0))
        b = embed_norm_lower(kern, (cascade_square,) * 2, (2.0, 2.0))
        assert a.history == b.history

    def test_weight_scaling_law(self, cascade_square):
        # scaling sigma_1 by lam rescales the ratio by lam**(1/p')
        cfg = cascade_square.config
        kern = RectKernel.random_uniform(cfg, 7)
        lam = 3.7
        scaled = Weight(cfg, cascade_square.density * lam)
        base = embed_norm_lower(kern, (cascade_square, cascade_square),
                                (2.0, 2.0))
        up = embed_norm_lower(kern, (scaled, cascade_square), (2.0, 2.0))
        assert up.value == pytest.approx(base.value * lam ** 0.5, rel=1e-9)

    def test_three_linear_ascent(self):
        cfg = GridConfig((1, 1), 3)
        ws = tuple(gen_cascade(cfg, 2.0, seed) for seed in (1, 2, 3))
        kern = RectKernel.random_uniform(cfg, 9)
        ps = (2.0, 3.0, 3.0)
        est = embed_norm_lower(kern, ws, ps)
        assert_monotone(est.history)
        assert est.value >= fp_constant(kern, ws, ps).value - 1e-9
        for w, m, p in zip(ws, est.maximizers, ps):
            assert lp_norm(w, m, p) == pytest.approx(1.0, rel=1e-12)
        assert est.value == pytest.approx(
            mlinear_form(kern, ws, est.maximizers), rel=1e-12)

    def test_trees_kept_between_steps(self, monkeypatch):
        built = []
        build = estimators.build_mass_tree

        def counted(cfg, cell_masses):
            built.append(1)
            return build(cfg, cell_masses)

        monkeypatch.setattr(estimators, "build_mass_tree", counted)
        cfg = GridConfig((1, 1), 5)
        ws = tuple(gen_cascade(cfg, 2.0, seed) for seed in (1, 2, 3))
        # the keyed-hash kernel of seed 9 the history was recorded with
        kern = RectKernel(cfg, _per_cell_random_uniform(cfg, 9))
        est = embed_norm_lower(kern, ws, (2.0, 3.0, 3.0), max_sweeps=8)
        assert est.sweeps == 8
        assert len(built) <= 27  # 48 when every step rebuilt both others
        # recorded when every step rebuilt the other arguments' trees on
        # cells; steps per level-K cube round their sums differently
        assert est.history == pytest.approx([
            0.7726099390157225, 0.773971288063709, 0.7740660089054617,
            0.7740727348034112, 0.7740732203914744, 0.7740732553115763,
            0.7740732578239216, 0.7740732580046353], rel=1e-13)
        built.clear()
        est = embed_norm_lower(kern, ws[:2], (2.0, 2.0), max_sweeps=8)
        assert len(built) == 2 * est.sweeps  # one tree per step at M = 2

    def test_restart_rebuilds_stale_trees(self, monkeypatch):
        cfg = GridConfig((1, 1), 3)
        ws = tuple(gen_cascade(cfg, 2.0, seed) for seed in (1, 2, 3))
        kern = RectKernel.random_uniform(cfg, 9)
        first = embed_norm_lower(kern, ws, (2.0, 3.0, 3.0), max_sweeps=4)
        # a testing value no ascent reaches, witnessed by the whole
        # domain, restarts the ascent from constants: the same run again
        report = ConstantReport("fp", math.inf, {"rect": rect_to_json(TOP2)},
                                1, cfg.depth)
        monkeypatch.setattr(estimators, "fp_constant", lambda *a: report)
        est = embed_norm_lower(kern, ws, (2.0, 3.0, 3.0), max_sweeps=4)
        assert est.history == first.history * 2

    def test_json_fields(self, cascade_square):
        kern = RectKernel.random_uniform(cascade_square.config, 8)
        doc = embed_norm_lower(kern, (cascade_square,) * 2,
                               (2.0, 2.0)).to_json()
        assert set(doc) == {"value", "sweeps", "converged", "history",
                            "seed", "params"}

    def test_one_exponent_per_weight(self, cascade_square):
        kern = RectKernel.random_uniform(cascade_square.config, 0)
        with pytest.raises(ValueError,
                           match="^need one exponent per weight"):
            embed_norm_lower(kern, (cascade_square, cascade_square),
                             (2.0, 2.0, 2.0))


class TestOperatorNormLower:
    def test_dyadic_equals_bilinear_route(self, cascade_square):
        # N = 2: alpha = 0.5 and p = 4/3 give q = 2, so q' = 2
        est = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, "dyadic")
        via_embed = embed_norm_lower(
            RectKernel.hls(cascade_square, 0.5), (cascade_square,) * 2,
            (4 / 3, 2.0))
        assert est.value == pytest.approx(via_embed.value, rel=1e-9)

    @pytest.mark.parametrize("dims,depth", [((1, 1), 4), ((1, 1, 1), 3),
                                            ((1,), 6)])
    @pytest.mark.parametrize("start", ["constants", "warm", "restart"])
    def test_dyadic_is_the_bilinear_embedding(self, monkeypatch, dims, depth,
                                              start):
        # at N = 1, q'/(q'-1) - 1 is 3.000000000000001 while q - 1 is 3.0
        cfg = GridConfig(dims, depth)
        mu = gen_cascade(cfg, 2.0, 3)
        ec = ExponentConfig.hls(0.5, 4 / 3, cfg.total_dim)
        warm = None
        if start == "warm":
            rng = np.random.default_rng(5)
            warm = tuple(GridFunction(cfg, rng.random(mu.density.shape) + 0.1)
                         for _ in range(2))
        elif start == "restart":
            # a testing value no ascent reaches, witnessed by the whole
            # domain, restarts the ascent from constants: the same run again
            top = ProductRect(tuple(DyadicCube(0, (0,) * d) for d in dims))
            report = ConstantReport("fp", math.inf,
                                    {"rect": rect_to_json(top)}, 1, depth)
            monkeypatch.setattr(estimators, "fp_constant", lambda *a: report)
        est = operator_norm_lower(mu, ec.alpha, ec.p, ec.q, "dyadic",
                                  warm_start=warm)
        ref = embed_norm_lower(RectKernel.hls(mu, ec.alpha), (mu, mu),
                               (ec.p, ec.q_conj), warm_start=warm)
        assert est.value == ref.value
        assert est.history == ref.history
        assert est.sweeps == ref.sweeps
        assert est.converged == ref.converged
        for a, b in zip(est.maximizers, ref.maximizers, strict=True):
            assert np.array_equal(a.values, b.values)
        if start == "restart":
            half = len(est.history) // 2
            assert est.history == est.history[:half] * 2

    def test_zero_start_restarts_from_the_witness(self, cascade_square):
        # a zero warm start ends the first run at once, with history [0.0]
        mu, cfg = cascade_square, cascade_square.config
        zero = GridFunction(cfg, np.zeros(mu.density.shape))
        est = operator_norm_lower(mu, 0.5, 4 / 3, 2.0, "dyadic",
                                  warm_start=(zero, zero))
        ec = ExponentConfig.hls(0.5, 4 / 3, cfg.total_dim)  # q = 2
        c2 = fp_constant(RectKernel.hls(mu, ec.alpha), (mu, mu),
                         (ec.p, ec.q_conj))
        assert est.params["c2"] == c2.value > 0
        ind = GridFunction.indicator(cfg, rect_from_json(c2.witness["rect"]))
        ref = operator_norm_lower(mu, 0.5, 4 / 3, 2.0, "dyadic",
                                  warm_start=(ind, ind))
        assert est.history[0] == 0.0
        assert est.history[1:] == ref.history
        assert est.value == ref.value
        assert est.sweeps == ref.sweeps
        for a, b in zip(est.maximizers, ref.maximizers, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("form", FORMS)
    def test_no_embedding_call(self, cascade_square, monkeypatch, form):
        def refuse(*args, **kwargs):
            raise AssertionError("operator bound went through the embedding")

        monkeypatch.setattr(estimators, "embed_norm_lower", refuse)
        est = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, form,
                                  max_sweeps=3)
        assert est.sweeps == 3

    def test_hls_invariant_under_weight_scaling(self, cascade_square):
        cfg = cascade_square.config
        scaled = Weight(cfg, cascade_square.density * 5.0)
        a = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, "dyadic")
        b = operator_norm_lower(scaled, 0.5, 4 / 3, 2.0, "dyadic")
        assert a.value == pytest.approx(b.value, rel=1e-9)

    @pytest.mark.parametrize("form", ["perez", "shifted-sum"])
    def test_rect_forms_dominate_testing_value(self, cascade_square, form):
        est = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, form)
        assert est.value >= 1.0 - 1e-9  # testing constant is exactly 1
        assert_monotone(est.history)

    def test_kernel_form_runs(self):
        w = gen_uniform(GridConfig((1,), 3))
        est = operator_norm_lower(w, 0.5, 4 / 3, 4.0, "kernel")
        assert est.value > 0
        assert_monotone(est.history)

    @pytest.mark.parametrize("form", FORMS)
    def test_value_is_form_at_maximizers(self, cascade_square, form):
        mu = cascade_square
        est = operator_norm_lower(mu, 0.5, 4 / 3, 2.0, form)
        f, g = est.maximizers
        if form == "dyadic":
            value = mlinear_form(RectKernel.hls(mu, 0.5), (mu, mu), (f, g))
        else:
            if form == "perez":
                tf = apply_perez(mu, 0.5, f).values
            elif form == "kernel":
                # the dense matrix of the unfactored twin, its first and
                # last rows checked by the plain pair loop
                tf = dense_kernel_form(mu, 0.5, f)
                for r, (total, _, _) in pair_loop(mu, 0.5, f,
                                                  [0, tf.size - 1]).items():
                    assert tf.flat[r] == pytest.approx(total, rel=1e-12)
            else:
                tf = sum(apply_frac_dyadic(mu, 0.5, f, tau).values
                         for tau in itertools.product((-1, 0, 1), repeat=2))
            value = float(np.sum(tf * g.values * mu.cell_masses))
        assert est.value == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("form", FORMS)
    def test_params_have_one_shape(self, cascade_square, form):
        est = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, form,
                                  max_sweeps=7)
        assert set(est.params) == {"form", "alpha", "p", "q", "factor",
                                   "depth", "c2", "tol", "max_sweeps"}
        assert est.params["form"] == form
        assert est.params["max_sweeps"] == 7
        assert isinstance(est.params["c2"], float)
        if form == "kernel":
            # at this depth each axis's factor is one dense leaf
            C = cascade_square.config.axis_cells
            assert est.params["factor"] == {
                "bytes": 2 * 8 * C * C, "max_rank": 0, "low_rank_blocks": 0,
                "dense_blocks": 2}
        else:
            assert est.params["factor"] is None

    def test_one_forward_and_one_adjoint_per_sweep(self, cascade_square,
                                                   monkeypatch):
        calls = {"forward": 0, "adjoint": 0, "shifted": 0}

        def counted(name, fn):
            def wrapper(fv):
                calls[name] += 1
                return fn(fv)
            return wrapper

        plan = estimators.plan

        def counted_plan(mu, alpha, form):
            op = plan(mu, alpha, form)
            names = ("shifted",) * 2 if form == "shifted-sum" else \
                ("forward", "adjoint")
            return dataclasses.replace(
                op, forward=counted(names[0], op.forward),
                adjoint=counted(names[1], op.adjoint))

        monkeypatch.setattr(estimators, "plan", counted_plan)
        # the cascade's ascent beats its testing value 1: no restart runs
        for form in ("perez", "dyadic"):
            calls.update(forward=0, adjoint=0)
            est = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, form,
                                      max_sweeps=5)
            assert est.sweeps == 5
            assert calls["forward"] == calls["adjoint"] == est.sweeps
        est = operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0,
                                  "shifted-sum", max_sweeps=5)
        assert est.sweeps == 5
        assert calls["shifted"] == 2 * est.sweeps  # forward and adjoint

    @pytest.mark.parametrize("form", FORMS)
    def test_hls_tables_built_once(self, cascade_square, monkeypatch, form):
        built = []
        hls = RectKernel.hls

        def counted(mu, alpha):
            built.append(1)
            return hls(mu, alpha)

        monkeypatch.setattr(RectKernel, "hls", staticmethod(counted))
        operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, form,
                            max_sweeps=2)
        assert len(built) == 1

    def test_unknown_form_rejected(self, cascade_square):
        with pytest.raises(ValueError, match="form"):
            operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0, "fourier")

    def test_underscore_form_name_refused(self, cascade_square):
        with pytest.raises(ValueError,
                           match="^unknown operator form 'shifted_sum'"):
            operator_norm_lower(cascade_square, 0.5, 4 / 3, 2.0,
                                "shifted_sum")

    @pytest.mark.parametrize("form", FORMS)
    def test_every_form_restarts_by_one_rule(self, cascade_square,
                                             monkeypatch, form):
        mu = cascade_square
        first = operator_norm_lower(mu, 0.5, 4 / 3, 2.0, form, max_sweeps=4)
        # a testing value no ascent reaches, witnessed by the whole
        # domain, restarts the ascent from constants: the same run again
        report = ConstantReport("fp", math.inf, {"rect": rect_to_json(TOP2)},
                                1, mu.config.depth)
        monkeypatch.setattr(estimators, "fp_constant", lambda *a: report)
        est = operator_norm_lower(mu, 0.5, 4 / 3, 2.0, form, max_sweeps=4)
        assert est.history == first.history * 2
        assert est.sweeps == 2 * first.sweeps


class TestCarlesonNormLower:
    def test_dominates_testing_constant(self):
        for seed in range(6):
            w = gen_cascade(GridConfig((1, 1), 3), 2.0, seed + 10)
            est = carleson_norm_lower(w, 2.0, 4.0)
            c2 = carleson_testing_constant(w, 2.0, 4.0).value
            assert est.value >= c2 - 1e-9

    def test_uniform_indicator_series_reproduced(self):
        w = gen_uniform(GridConfig((1,), 4))
        est = carleson_norm_lower(w, 2.0, 4.0)
        assert est.value >= (2.0 - 2.0 ** -4) - 1e-9

    def test_history_monotone(self, cascade_square):
        est = carleson_norm_lower(cascade_square, 2.0, 4.0)
        assert_monotone(est.history)
        assert est.value == est.history[-1]

    def test_history_pinned(self):
        # recorded when the gradient added one full-size upsampled term
        # per level combination; steps per level-K cube and the value
        # read from the gradient's powers round differently
        w = gen_cascade(GridConfig((1, 1), 5), 2.0, 1)
        est = carleson_norm_lower(w, 2.0, 4.0, max_sweeps=8)
        assert est.sweeps == 8
        assert est.history == pytest.approx([
            4.5976303971714705, 5.103641091676934,
            5.513958698842868, 5.834186330724673, 6.2414950830713085,
            6.860085630991607, 7.530317811594731, 7.929199500533869],
            rel=1e-13)

    def test_tree_kept_between_value_and_gradient(self, monkeypatch):
        built = []
        build = estimators.build_mass_tree

        def counted(cfg, cell_masses):
            built.append(1)
            return build(cfg, cell_masses)

        monkeypatch.setattr(estimators, "build_mass_tree", counted)
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 1)
        est = carleson_norm_lower(w, 2.0, 4.0, tol=0.0, max_sweeps=6)
        assert (est.sweeps, est.converged) == (6, False)  # no restart
        # one tree for the start and one per sweep: each sweep's value
        # reads the tree its next gradient reuses (12 when both rebuilt)
        assert len(built) == est.sweeps + 1

    def test_testing_constant_from_public_scan(self, cascade_square,
                                               monkeypatch):
        # bench/tracer.py counts the constant under this module name
        calls = []
        testing = estimators.carleson_testing_constant

        def counted(w, p, q):
            calls.append((p, q))
            return testing(w, p, q)

        monkeypatch.setattr(estimators, "carleson_testing_constant", counted)
        est = carleson_norm_lower(cascade_square, 2.0, 4.0, max_sweeps=3)
        assert calls == [(2.0, 4.0)]
        assert est.params["c2"] == testing(cascade_square, 2.0, 4.0).value

    def test_growth_against_testing_power(self):
        w = gen_cascade(GridConfig((1, 1), 4), 2.0, 31)
        est = carleson_norm_lower(w, 2.0, 4.0)
        c2 = carleson_testing_constant(w, 2.0, 4.0).value
        n = w.config.n_factors
        ratio = est.value / c2 ** n
        assert 0 < ratio < 10


class TestDepthSweep:
    def test_warm_start_monotone_in_depth(self):
        w = gen_cascade(GridConfig((1, 1), 5), 2.0, 41)
        rows = depth_sweep("embed", (3, 4, 5), weights=(w, w),
                           exponents=(2.0, 2.0), kernel_seed=4)
        vals = [r.c1_hat for r in rows]
        assert vals == sorted(vals)
        assert all(r.ratio >= 1 - 1e-9 for r in rows)

    def test_shared_weight_rows_equal_distinct_copies(self):
        # one coarsened copy serves both arguments; a second, equal
        # weight object gets its own copy, and the rows keep their bits
        cfg = GridConfig((1, 1), 5)
        w = gen_cascade(cfg, 2.0, 41)
        twin = Weight(cfg, w.density.copy(), w.meta, w.factors)
        opts = {"exponents": (2.0, 3.0, 3.0), "kernel_seed": 4,
                "max_sweeps": 6}
        shared = depth_sweep("embed", (3, 4, 5), weights=(w, w, w), **opts)
        assert shared == depth_sweep("embed", (3, 4, 5),
                                     weights=(w, twin, w), **opts)

    def test_hls_uniform_row_matches_series(self):
        w = gen_uniform(GridConfig((1,), 4))
        rows = depth_sweep("hls", (3, 4), weight=w, alpha=0.5, p=4 / 3)
        for r in rows:
            assert r.c2 == pytest.approx(1.0, abs=1e-12)
            expect = sum(2.0 ** (-k / 2) for k in range(r.depth + 1))
            assert r.c1_hat >= expect - 1e-9

    def test_carleson_rows(self, cascade_square):
        rows = depth_sweep("carleson", (2, 3), weight=cascade_square,
                           p=2.0, q=4.0)
        assert [r.depth for r in rows] == [2, 3]
        assert all(r.ratio >= 1 - 1e-9 for r in rows)

    def test_csv_is_frozen_format(self, cascade_square):
        rows = depth_sweep("carleson", (2,), weight=cascade_square,
                           p=2.0, q=4.0)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "K,c2,c1_hat,ratio,seconds"
        assert lines[1].startswith("2,")
        assert lines[1].endswith(",0.0")  # timing suppressed by default

    @pytest.mark.parametrize("task,form", [
        ("hls", "perez"), ("hls", "kernel"), ("embed", None),
        ("carleson", None)])
    def test_one_testing_scan_per_row(self, cascade_square, monkeypatch,
                                      task, form):
        scans = []

        def counted(fn):
            def wrapper(*args):
                scans.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("fp_constant", "carleson_testing_constant"):
            monkeypatch.setattr(estimators, name,
                                counted(getattr(estimators, name)))
        w = cascade_square
        rows = depth_sweep(task, (1, 2, 3), weight=w, weights=(w, w),
                           alpha=0.5, p=2.0, q=4.0, form=form or "dyadic",
                           max_sweeps=5)
        monkeypatch.undo()
        assert len(scans) == len(rows) == 3
        for r in rows:
            wk = w.coarsen(r.depth) if r.depth < w.config.depth else w
            if task == "hls":
                c2 = fp_constant(RectKernel.hls(wk, 0.5), (wk, wk),
                                 (2.0, 4.0 / 3.0))
            elif task == "embed":
                c2 = fp_constant(
                    RectKernel.random_uniform(wk.config, 0), (wk, wk),
                    (2.0, 2.0))
            else:
                c2 = carleson_testing_constant(wk, 2.0, 4.0)
            assert r.c2 == c2.value

    def test_embed_draws_each_row_at_its_depth(self, cascade_square,
                                               monkeypatch):
        drawn = []
        random_uniform = RectKernel.random_uniform

        def counted(cfg, seed):
            drawn.append((cfg, seed))
            return random_uniform(cfg, seed)

        monkeypatch.setattr(RectKernel, "random_uniform", counted)
        w = cascade_square
        rows = depth_sweep("embed", (1, 2, 3), weights=(w, w), kernel_seed=7,
                           max_sweeps=3)
        assert drawn == [(GridConfig(w.config.dims, K), 7) for K in (1, 2, 3)]
        assert [r.depth for r in rows] == [1, 2, 3]

    def test_depth_beyond_weight_rejected(self, cascade_square):
        with pytest.raises(ValueError, match="depth"):
            depth_sweep("carleson", (2, 9), weight=cascade_square,
                        p=2.0, q=4.0)

    @pytest.mark.parametrize("task", ["hls", "embed", "carleson"])
    def test_depth_below_one_rejected(self, cascade_square, monkeypatch,
                                      task):
        def no_coarsen(*args):
            raise AssertionError("coarsened before refusing the depth")

        monkeypatch.setattr(Weight, "coarsen", no_coarsen)
        with pytest.raises(ValueError, match="^sweep depth 0 is below 1$"):
            depth_sweep(task, (0, 2), weight=cascade_square,
                        weights=(cascade_square, cascade_square),
                        alpha=0.5, p=4 / 3, q=4.0)

    @pytest.mark.parametrize("task", ["hls", "embed", "carleson"])
    def test_empty_depth_list_rejected(self, cascade_square, task):
        with pytest.raises(ValueError, match="at least one depth"):
            depth_sweep(task, (), weight=cascade_square,
                        weights=(cascade_square, cascade_square),
                        alpha=0.5, p=4 / 3, q=4.0)


    @pytest.mark.parametrize("task,inputs,start", [
        ("bogus", {}, "unknown sweep task 'bogus'"),
        ("embed", {}, "embed sweeps need weights"),
        ("hls", {}, "hls sweeps need a weight")])
    def test_missing_inputs_refused(self, task, inputs, start):
        with pytest.raises(ValueError, match="^" + re.escape(start)):
            depth_sweep(task, (2,), **inputs)

    @pytest.mark.parametrize("value,ratio", [(0.0, 0.0), (1.5, math.inf)])
    def test_zero_testing_constant_ratio(self, cascade_square, monkeypatch,
                                         value, ratio):
        bound = estimators.carleson_norm_lower

        def zero_c2(*args, **kwargs):
            est = bound(*args, **kwargs)
            return dataclasses.replace(est, value=value,
                                       params={**est.params, "c2": 0.0})

        monkeypatch.setattr(estimators, "carleson_norm_lower", zero_c2)
        rows = depth_sweep("carleson", (2, 3), weight=cascade_square,
                           p=2.0, q=4.0)
        assert [(r.c2, r.ratio) for r in rows] == [(0.0, ratio)] * 2


class TestSweepLimits:
    @pytest.mark.parametrize("limits", [{"max_sweeps": 0}, {"max_sweeps": -5},
                                        {"tol": -1e-9}, {"tol": math.nan}])
    @pytest.mark.parametrize("bound", ["operator", "embed", "carleson",
                                       "sweep"])
    def test_refused(self, cascade_square, bound, limits):
        mu = cascade_square
        calls = {
            "operator": lambda: operator_norm_lower(mu, 0.5, 4 / 3, 2.0,
                                                    **limits),
            "embed": lambda: embed_norm_lower(RectKernel.hls(mu, 0.5),
                                              (mu, mu), (2.0, 2.0), **limits),
            "carleson": lambda: carleson_norm_lower(mu, 2.0, 4.0, **limits),
            "sweep": lambda: depth_sweep("carleson", [2, 3], weight=mu,
                                         p=2.0, q=4.0, **limits)}
        with pytest.raises(ValueError, match=f"^{next(iter(limits))} must"):
            calls[bound]()


class TestWarmStartRefused:
    """A warm start has one function per argument, on the bound's grid."""

    ARGS = {"operator": 2, "embed": 2, "carleson": 1}

    @staticmethod
    def _call(bound, mu, warm):
        if bound == "operator":
            return operator_norm_lower(mu, 0.5, 4 / 3, 2.0, warm_start=warm)
        if bound == "embed":
            return embed_norm_lower(RectKernel.hls(mu, 0.5), (mu, mu),
                                    (2.0, 2.0), warm_start=warm)
        return carleson_norm_lower(mu, 2.0, 4.0, warm_start=warm)

    @pytest.mark.parametrize("count,config,start", [
        (-1, None, "need one warm start per argument"),
        (1, None, "need one warm start per argument"),
        (0, GridConfig((1, 1), 4), "inputs live on different grids"),
        # the same (24, 24) cells as the (1, 1) K=3 weight
        (0, GridConfig((2,), 3), "inputs live on different grids")],
        ids=["fewer", "more", "deeper", "other-dims"])
    @pytest.mark.parametrize("bound", ["operator", "embed", "carleson"])
    def test_refused(self, cascade_square, bound, count, config, start):
        warm = (GridFunction.ones(config or cascade_square.config),) * \
            (self.ARGS[bound] + count)
        with pytest.raises(ValueError, match="^" + re.escape(start)):
            self._call(bound, cascade_square, warm)

    @pytest.mark.parametrize("bound", ["operator", "embed", "carleson"])
    def test_constant_warm_start_is_the_default(self, cascade_square, bound):
        warm = [GridFunction.ones(cascade_square.config)] * self.ARGS[bound]
        est = self._call(bound, cascade_square, iter(warm))
        ref = self._call(bound, cascade_square, None)
        assert est.history == ref.history
        assert len(est.maximizers) == self.ARGS[bound]


def _bound(name, mu, **limits):
    """One bound of ``mu``: an operator form, an embedding or Carleson."""
    cfg = mu.config
    ec = ExponentConfig.hls(0.5, 4 / 3, cfg.total_dim)
    if name in FORMS:
        return operator_norm_lower(mu, ec.alpha, ec.p, ec.q, name, **limits)
    if name == "embed":
        return embed_norm_lower(RectKernel.hls(mu, ec.alpha), (mu, mu),
                                (ec.p, ec.q_conj), **limits)
    kern = RectKernel.random_uniform(cfg, 9)
    others = tuple(gen_cascade(cfg, 2.0, s) for s in (5, 6))
    if name == "embed2":
        return embed_norm_lower(kern, (mu, others[0]), (2.0, 2.0), **limits)
    if name == "embed3":
        return embed_norm_lower(kern, (mu, *others), (2.0, 3.0, 3.0),
                                **limits)
    return carleson_norm_lower(mu, 2.0, 4.0, **limits)


class TestSweepSemantics:
    """``sweeps``, ``converged`` and ``history`` mean the same everywhere."""

    @pytest.mark.parametrize("max_sweeps", [1, 3])
    @pytest.mark.parametrize("bound", ["dyadic", "embed", "carleson"])
    def test_one_entry_per_sweep(self, bound, max_sweeps):
        mu = gen_cascade(GridConfig((1, 1), 4), 2.0, 1)
        est = _bound(bound, mu, tol=0.0, max_sweeps=max_sweeps)
        assert len(est.history) == est.sweeps == max_sweeps
        assert est.converged is False

    @pytest.mark.parametrize("bound", ["dyadic", "embed", "carleson"])
    def test_fixed_point_converges_on_second_sweep(self, bound):
        est = _bound(bound, gen_uniform(GridConfig((1,), 4)))
        assert est.converged is True
        assert est.sweeps >= 2


def _lp_on_cells(cm, values, p):
    return float(np.sum(values ** p * cm)) ** (1.0 / p)


def _cell_ascend(densities, sigmas, rs, tol, max_sweeps, value=None):
    """``estimators._ascend`` with every step on cells: the reference."""
    cfg = sigmas[0].config
    steps = [(j, density, w.cell_masses, r / (r - 1.0) - 1.0, r)
             for j, (density, w, r) in enumerate(zip(densities, sigmas, rs))]

    def run(fs):
        fs = list(fs)
        for j, _, cm, _, p in steps:
            nrm = _lp_on_cells(cm, fs[j], p)
            if nrm == 0.0:
                return [np.zeros_like(f0) for f0 in fs], [0.0], 0, True
            fs[j] = fs[j] / nrm
        history = []
        while True:
            for j, density, cm, power, p in steps:
                d = _upsample(cfg, density(fs)) ** power
                nrm = _lp_on_cells(cm, d, p)
                if nrm == 0.0:
                    return fs, history or [0.0], len(history), True
                fs[j] = d / nrm
            history.append(nrm ** (p - 1.0) if value is None else value(fs))
            if len(history) >= 2 and \
                    history[-1] - history[-2] <= tol * abs(history[-1]):
                return fs, history, len(history), True
            if len(history) >= max_sweeps:
                return fs, history, len(history), False

    return run


def _bit_weights():
    yield from (gen_cascade(GridConfig(dims, depth), 2.0, 4)
                for dims, depth in (((1, 1), 5), ((1, 1, 1), 3),
                                    ((2, 1), 3)))
    yield gen_power(GridConfig((1,), 10), (6,), centers=(0.5,))


def _extreme_weights():
    for dims, depth in (((1,), 12), ((1, 1), 6)):
        cfg = GridConfig(dims, depth)
        yield gen_power(cfg, (12,) * cfg.total_dim)
        yield gen_cascade(cfg, 4.0, 3)


STANDARD = ("dyadic", "perez", "embed2", "embed3", "carleson")


def _against_cell_steps(monkeypatch, bound, mu, sweeps):
    """The bound, and the same bound with every step taken on cells."""
    est = _bound(bound, mu, max_sweeps=sweeps)
    with monkeypatch.context() as m:
        m.setattr(estimators, "_ascend", _cell_ascend)
        ref = _bound(bound, mu, max_sweeps=sweeps)
    assert (est.sweeps, est.converged) == (ref.sweeps, ref.converged)
    return est, ref


def _assert_close(est, ref):
    """Histories and maximizers equal to 1e-13 relative, entry by entry."""
    np.testing.assert_allclose(est.history, ref.history, rtol=1e-13, atol=0)
    for a, b in zip(est.maximizers, ref.maximizers, strict=True):
        np.testing.assert_allclose(a.values, b.values, rtol=1e-13, atol=0)


class TestCubeResolution:
    """Standard-family ascents run per level-K cube.

    They match their steps taken on cells to 1e-13 relative, since sums
    over cube masses round differently from sums over cells; the
    kernel and shifted-sum forms, whose steps stay on cells, match
    bit for bit.
    """

    @pytest.mark.parametrize("mu", _bit_weights(),
                             ids=["cascade-1,1", "cascade-1,1,1",
                                  "cascade-2,1", "power-1"])
    @pytest.mark.parametrize("bound", [*FORMS, "embed2", "embed3",
                                       "carleson"])
    def test_equals_cell_steps(self, monkeypatch, mu, bound):
        est, ref = _against_cell_steps(monkeypatch, bound, mu, 6)
        if bound in STANDARD:
            _assert_close(est, ref)
            return
        assert est.history == ref.history
        for a, b in zip(est.maximizers, ref.maximizers, strict=True):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("mu", _extreme_weights(),
                             ids=["power12-1", "cascade4-1", "power12-1,1",
                                  "cascade4-1,1"])
    @pytest.mark.parametrize("bound", ["dyadic", "perez", "embed2",
                                       "carleson"])
    def test_extreme_weights(self, monkeypatch, mu, bound):
        est, ref = _against_cell_steps(monkeypatch, bound, mu, 20)
        assert np.all(np.isfinite(est.history))
        for m in est.maximizers:
            assert np.all(np.isfinite(m.values))
        _assert_close(est, ref)

    @pytest.mark.parametrize("max_sweeps", [1, 5])
    @pytest.mark.parametrize("bound", STANDARD)
    def test_one_upsample_per_argument(self, monkeypatch, bound,
                                       max_sweeps):
        mu = gen_cascade(GridConfig((1, 1), 4), 2.0, 4)
        shapes = []
        upsample = operators._upsample

        def counted(cfg, arr):
            shapes.append(arr.shape)
            return upsample(cfg, arr)

        for module in (operators, estimators):
            monkeypatch.setattr(module, "_upsample", counted)
        est = _bound(bound, mu, tol=0.0, max_sweeps=max_sweeps)
        assert est.sweeps >= max_sweeps
        # each maximizer comes per level-K cube and goes onto cells once
        assert shapes == [(1 << mu.config.depth,) * 2] * len(est.maximizers)
