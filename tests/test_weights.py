import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rectfrac import (AlignmentError, Box, DyadicCube, GridConfig,
                      GridFunction, ProductRect, Weight, WeightFormatError,
                      doubling_constant, gen_cascade, gen_power, gen_uniform,
                      integrate, load_weight, lp_norm, replace,
                      save_weight, triple)
import rectfrac
from rectfrac import weights
from rectfrac.bruteforce import mass_direct
from rectfrac.grids import children, rect_box, standard_rect
from rectfrac.weights import box_sums, cell_slices

DATA = Path(__file__).parent / "data"


def _edited(text, key, value=None):
    """The weight file ``text`` with ``key`` set to ``value``, or dropped."""
    doc = json.loads(text)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    return json.dumps(doc)


# invalid JSON, an undecodable payload and a missing field, each with the
# start of its refusal message
BROKEN_FILES = [
    (lambda t: t[:len(t) // 2], "malformed weight file"),
    (lambda t: _edited(t, "density", "not base64!"), "undecodable density"),
    (lambda t: _edited(t, "lattice"), "missing field 'lattice'")]


def random_rect(cfg, rng):
    factors = []
    for d in cfg.dims:
        k = int(rng.integers(0, cfg.depth + 1))
        factors.append(DyadicCube(k, tuple(int(rng.integers(0, 2 ** k))
                                           for _ in range(d))))
    return ProductRect(tuple(factors))


def random_box(cfg, rng):
    U = cfg.axis_units
    lo, hi = [], []
    for _ in range(cfg.total_dim):
        a, b = sorted(int(v) for v in rng.integers(0, U + 1, size=2))
        lo.append(a)
        hi.append(b + 1)
    return Box(tuple(lo), tuple(hi))


class TestMass:
    def test_uniform_rect(self, uniform_square):
        rect = ProductRect((DyadicCube(1, (0,)), DyadicCube(2, (1,))))
        assert uniform_square.mass(rect) == pytest.approx(0.125, abs=1e-15)

    def test_full_domain(self, cascade_square):
        top = ProductRect((DyadicCube(0, (0,)), DyadicCube(0, (0,))))
        assert cascade_square.mass(top) == pytest.approx(
            cascade_square.total_mass, abs=1e-15)

    def test_tree_prefix_and_direct_agree(self, cascade_square):
        rng = np.random.default_rng(5)
        w = cascade_square
        for _ in range(60):
            rect = random_rect(w.config, rng)
            box = random_box(w.config, rng)
            from rectfrac.grids import rect_box
            assert w.mass(rect) == pytest.approx(
                mass_direct(w, rect_box(w.config, rect)), rel=1e-12)
            assert w.mass(box) == pytest.approx(
                mass_direct(w, box), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("make", [
        lambda: gen_cascade(GridConfig((1, 1), 3), 2.0, 7),
        lambda: gen_power(GridConfig((2, 1), 2), (1.0, -0.5, 2.0))])
    def test_tree_entries_match_direct(self, make):
        w = make()
        for levels, arr in w.mass_tree.items():
            for idx in np.ndindex(arr.shape):
                rect = standard_rect(w.config, levels, idx)
                direct = mass_direct(w, rect_box(w.config, rect))
                assert arr[idx] == pytest.approx(direct, rel=1e-12)
                assert w.mass(rect) == pytest.approx(arr[idx], rel=1e-12)

    @pytest.mark.parametrize("dims", [(1, 1), (2,), (1, 2)])
    def test_tree_read_only(self, dims):
        # a write into a table used to change total_mass to 99.0
        w = gen_cascade(GridConfig(dims, 3), 2.0, 7)
        top = (0,) * w.config.n_factors
        for levels in (top, (3,) * w.config.n_factors):
            with pytest.raises(ValueError, match="read-only"):
                w.mass_tree[levels][(0,) * w.config.total_dim] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            w.mass_tree.heap[...] = 99.0
        assert w.total_mass == pytest.approx(1.0, rel=1e-14)

    def test_half_cell_box(self, uniform_line):
        # corners at odd units split cells in half; still exact
        b = Box((1,), (3,))
        assert uniform_line.mass(b) == pytest.approx(
            2 / uniform_line.config.axis_units, rel=1e-12)

    @pytest.mark.parametrize("exponents,depth,box", [
        ((6,), 12, Box((12285,), (12289,))),
        ((2, 2), 6, Box((189, 191), (193, 197))),
    ])
    def test_small_box_mass_near_power_zero(self, exponents, depth, box):
        dims = (1,) * len(exponents)
        w = gen_power(GridConfig(dims, depth), exponents,
                      centers=(0.5,) * len(exponents))
        assert w.mass(box) == pytest.approx(mass_direct(w, box), rel=1e-12,
                                            abs=0)

    def test_float_corner_rejected(self, uniform_line):
        with pytest.raises(AlignmentError):
            uniform_line.mass(Box((0.5,), (3.0,)))

    def test_overhang_clipped(self, uniform_line):
        shifted = ProductRect((DyadicCube(0, (-1,), (1,)),))  # [-2/3, 1/3)
        assert uniform_line.mass(shifted) == pytest.approx(1 / 3, rel=1e-12)


class TestPrefix:
    def test_summed_area_table_built_once(self, monkeypatch):
        calls = []
        real = weights.build_prefix
        monkeypatch.setattr(weights, "build_prefix",
                            lambda cm: calls.append(cm) or real(cm))
        w = gen_cascade(GridConfig((1, 2), 2), 2.0, 3)
        table = w.prefix
        expect = w.cell_masses
        for ax in range(expect.ndim):
            expect = np.cumsum(expect, axis=ax)
        expect = np.pad(expect, [(1, 0)] * expect.ndim)
        assert (table.dtype, table.shape) == (expect.dtype, expect.shape)
        assert table.tobytes() == expect.tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1, 1, 1] = 0.0
        assert w.prefix is table
        assert len(calls) == 1 and calls[0] is w.cell_masses


def test_exports():
    names = rectfrac.__all__
    assert [n for n in names if not hasattr(rectfrac, n)] == []
    assert len(names) == len(set(names))
    assert "mass" not in names and not hasattr(rectfrac, "mass")


class TestIntegrate:
    def test_constant_function_gives_mass(self, cascade_square):
        f = GridFunction.ones(cascade_square.config)
        rect = ProductRect((DyadicCube(1, (1,)), DyadicCube(0, (0,))))
        assert integrate(cascade_square, f, rect) == pytest.approx(
            cascade_square.mass(rect), rel=1e-12)

    def test_indicator_of_subset(self, cascade_square):
        rect = ProductRect((DyadicCube(1, (0,)), DyadicCube(1, (0,))))
        sub = replace(rect, DyadicCube(2, (1,)), 0)
        f = GridFunction.indicator(cascade_square.config, sub)
        assert integrate(cascade_square, f, rect) == pytest.approx(
            cascade_square.mass(sub), rel=1e-12)

    def test_additive_over_one_direction_halving(self, cascade_square):
        rng = np.random.default_rng(9)
        cfg = cascade_square.config
        f = GridFunction(cfg, rng.random((cfg.axis_cells,) * 2))
        rect = ProductRect((DyadicCube(1, (1,)), DyadicCube(2, (2,))))
        for j in range(2):
            parts = sum(
                integrate(cascade_square, f, replace(rect, q, j))
                for q in children(cfg, rect.factors[j]))
            assert parts == pytest.approx(
                integrate(cascade_square, f, rect), rel=1e-12)


class TestLpNorm:
    def test_constant(self, uniform_square):
        cfg = uniform_square.config
        f = GridFunction(cfg, GridFunction.ones(cfg).values * 3.0)
        assert lp_norm(uniform_square, f, 2.5) == pytest.approx(3.0, rel=1e-12)

    def test_indicator(self, cascade_square):
        rect = ProductRect((DyadicCube(1, (0,)), DyadicCube(2, (3,))))
        f = GridFunction.indicator(cascade_square.config, rect)
        assert lp_norm(cascade_square, f, 3.0) == pytest.approx(
            cascade_square.mass(rect) ** (1 / 3), rel=1e-12)

    def test_holder_inequality(self, cascade_square):
        rng = np.random.default_rng(21)
        cfg = cascade_square.config
        shape = (cfg.axis_cells,) * 2
        for _ in range(25):
            f = GridFunction(cfg, rng.random(shape))
            g = GridFunction(cfg, rng.random(shape))
            fg = GridFunction(cfg, f.values * g.values)
            top = ProductRect((DyadicCube(0, (0,)), DyadicCube(0, (0,))))
            p = 1.0 + 3 * rng.random()
            lhs = integrate(cascade_square, fg, top)
            rhs = lp_norm(cascade_square, f, p) * \
                lp_norm(cascade_square, g, p / (p - 1))
            assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
    def test_equals_cell_sum_exactly(self, cascade_square, p):
        cfg = cascade_square.config
        f = GridFunction(cfg, np.random.default_rng(4).random(
            (cfg.axis_cells,) * 2))
        want = float(np.sum(f.values ** p * cascade_square.cell_masses)) \
            ** (1 / p)
        assert lp_norm(cascade_square, f, p) == want

    def test_rejects_p_at_most_one(self, uniform_line):
        f = GridFunction.ones(uniform_line.config)
        with pytest.raises(ValueError):
            lp_norm(uniform_line, f, 1.0)


class TestGenerators:
    def test_uniform_density(self, line_cfg):
        assert np.all(gen_uniform(line_cfg).density == 1.0)

    @pytest.mark.parametrize("a", [1.0, -0.5])
    def test_power_masses_match_antiderivative(self, a):
        cfg = GridConfig((1,), 5)
        w = gen_power(cfg, (a,))
        # mass([0, b)) = b**(1+a) / (1+a)
        for b in (0.25, 0.5, 1.0):
            box = Box((0,), (int(b * cfg.axis_units),))
            assert w.mass(box) == pytest.approx(
                b ** (1 + a) / (1 + a), rel=1e-12)

    def test_power_rejects_nonintegrable(self, line_cfg):
        with pytest.raises(ValueError):
            gen_power(line_cfg, (-1.0,))

    def test_cascade_doubling_bounded_by_generator(self):
        for seed in range(4):
            w = gen_cascade(GridConfig((1, 1), 4), 2.0, seed)
            assert doubling_constant(w).value <= 3.0 + 1e-12

    def test_cascade_all_masses_positive(self, cascade_square):
        assert all(arr.min() > 0
                   for arr in cascade_square.mass_tree.values())

    def test_cascade_deterministic(self, square_cfg):
        a = gen_cascade(square_cfg, 1.5, 99)
        b = gen_cascade(square_cfg, 1.5, 99)
        assert np.array_equal(a.density, b.density)

    def test_cascade_rejects_degenerate_ratio(self, square_cfg):
        with pytest.raises(ValueError):
            gen_cascade(square_cfg, 1.0, 0)
        with pytest.raises(ValueError):
            gen_cascade(square_cfg, 4.5, 0)

    def test_weight_needs_positive_total(self, line_cfg):
        with pytest.raises(ValueError, match="positive total"):
            Weight(line_cfg, np.zeros((line_cfg.axis_cells,)))


class TestPersistence:
    def test_roundtrip_bitwise(self, cascade_square, tmp_path):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        back = load_weight(path)
        assert np.array_equal(back.density, cascade_square.density)
        assert back.config == cascade_square.config

    def test_malformed_payload_rejected(self, cascade_square, tmp_path):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        doc = json.loads(path.read_text())
        doc["density"] = doc["density"][:-24]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="payload"):
            load_weight(path)
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="version"):
            load_weight(path)

    @pytest.mark.parametrize("field,value", [
        ("meta", ["kind", "cascade"]), ("depth", None), ("depth", True),
        ("lattice", 24), ("dims", "1,1"), ("dims", 2), ("dims", [True, 1]),
        ("version", True), ("version", 1.0), ("depth", 13), ("depth", 0),
        ("dims", [5, 1]), ("dims", []), ("lattice", [1, 1])])
    def test_malformed_field_refused(self, cascade_square, tmp_path, field,
                                     value):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match=field):
            load_weight(path)

    @pytest.mark.parametrize("params", [5, ["x"], None])
    def test_non_object_meta_params_refused(self, cascade_square, tmp_path,
                                            params):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        doc = json.loads(path.read_text())
        doc["meta"]["params"] = params
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError,
                           match="^meta and its params must be objects"):
            load_weight(path)

    @pytest.mark.parametrize("meta", [{"params": 5}, {"params": ["x"]},
                                      {"params": None}, [], "x"])
    def test_non_object_meta_refused_in_memory(self, cascade_square, meta):
        with pytest.raises(ValueError) as info:
            Weight(cascade_square.config, cascade_square.density, meta)
        assert str(info.value) == \
            f"meta and its params must be objects, got {meta!r}"

    @pytest.mark.parametrize("text,match", BROKEN_FILES)
    def test_broken_file_refused(self, cascade_square, tmp_path, text, match):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        path.write_text(text(path.read_text()))
        with pytest.raises(WeightFormatError, match=match):
            load_weight(path)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_bad_density_refused(self, cascade_square, tmp_path, bad):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        doc = json.loads(path.read_text())
        dens = cascade_square.density.copy()
        dens.flat[5] = bad
        doc["density"] = base64.b64encode(
            dens.astype("<f8").tobytes()).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError,
                           match="^density must be finite and nonnegative$"):
            load_weight(path)

    def test_non_object_file_refused(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("5\n")
        with pytest.raises(WeightFormatError, match="JSON object"):
            load_weight(path)

    def test_golden_file_masses(self):
        w = load_weight(DATA / "golden_cascade.json")
        rect = ProductRect((DyadicCube(1, (0,)), DyadicCube(2, (3,))))
        assert w.total_mass == pytest.approx(1.0, abs=1e-14)
        assert w.mass(rect) == pytest.approx(0.2359790098019719, rel=1e-14)
        assert w.mass(Box((5, 11), (40, 62))) == pytest.approx(
            0.5628721504128006, rel=1e-14)
        assert w.mass(triple(w.config, rect)) == pytest.approx(
            0.5736235280664328, rel=1e-14)


class TestFactors:
    @pytest.mark.parametrize("make", [
        lambda cfg: gen_cascade(cfg, 2.0, 3),
        lambda cfg: gen_power(cfg, (6, 2), centers=(0.5, 0.25)),
        gen_uniform])
    def test_generators_record_factors(self, square_cfg, make):
        w = make(square_cfg)
        assert len(w.factors) == 2
        assert np.array_equal(np.multiply.outer(*w.factors), w.density)

    def test_never_inferred(self, cascade_square):
        # a product density handed in without factors gets none
        w = Weight(cascade_square.config, cascade_square.density)
        assert w.factors is None
        assert w.coarsen(2).factors is None

    def test_inconsistent_factors_refused(self, cascade_square):
        cfg, dens = cascade_square.config, cascade_square.density
        good = list(cascade_square.factors)
        bad = [good[0].copy(), good[1]]
        bad[0][5] *= 1 + 1e-9
        with pytest.raises(ValueError, match="outer product"):
            Weight(cfg, dens, factors=bad)
        with pytest.raises(ValueError, match="factors"):
            Weight(cfg, dens, factors=good[:1])
        with pytest.raises(ValueError, match="factors"):
            Weight(cfg, dens, factors=[good[0], -good[1]])

    def test_coarsen_keeps_factors(self, cascade_square):
        coarse = cascade_square.coarsen(2)
        for fine, a in zip(cascade_square.factors, coarse.factors):
            np.testing.assert_allclose(a, fine.reshape(-1, 2).mean(axis=1),
                                       rtol=1e-15)
        np.testing.assert_allclose(np.multiply.outer(*coarse.factors),
                                   coarse.density, rtol=1e-12, atol=0)

    def test_roundtrip_keeps_factors(self, cascade_square, tmp_path):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        back = load_weight(path)
        for a, b in zip(back.factors, cascade_square.factors):
            assert np.array_equal(a, b)

    def test_file_with_inconsistent_factors_refused(self, cascade_square,
                                                    tmp_path):
        path = tmp_path / "w.json"
        save_weight(cascade_square, path)
        doc = json.loads(path.read_text())
        doc["factors"] = doc["factors"][::-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="outer product"):
            load_weight(path)
        doc["factors"] = doc["factors"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="factors"):
            load_weight(path)
        doc["factors"] = [doc["factors"][0][:-24]] * 2
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="factor payload"):
            load_weight(path)

    def test_golden_file_loads_without_factors(self):
        assert "factors" not in json.loads(
            (DATA / "golden_cascade.json").read_text())
        assert load_weight(DATA / "golden_cascade.json").factors is None


class TestResampling:
    def test_coarsen_preserves_masses(self, cascade_square):
        coarse = cascade_square.coarsen(2)
        rng = np.random.default_rng(2)
        for _ in range(30):
            rect = random_rect(coarse.config, rng)
            assert coarse.mass(rect) == pytest.approx(
                cascade_square.mass(rect), rel=1e-12)

    def test_refine_preserves_integrals(self, cascade_square):
        f = GridFunction.indicator(
            cascade_square.config,
            ProductRect((DyadicCube(1, (1,)), DyadicCube(0, (0,)))))
        fine_cfg = GridConfig((1, 1), 4)
        f2 = f.refine(4)
        assert f2.config == fine_cfg
        assert f2.values.sum() * fine_cfg.cell_volume == pytest.approx(
            f.values.sum() * cascade_square.config.cell_volume, rel=1e-12)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_refine_equals_repeat(self, dims, steps):
        cfg = GridConfig(dims, 2)
        f = GridFunction(cfg, np.random.default_rng(8).random(
            (cfg.axis_cells,) * cfg.total_dim))
        want = f.values
        for ax in range(cfg.total_dim):
            want = np.repeat(want, 1 << steps, axis=ax)
        got = f.refine(2 + steps)
        assert got.config == GridConfig(dims, 2 + steps)
        assert got.values.shape == want.shape
        assert np.array_equal(got.values, want)

    def test_refine_to_own_depth_is_identity(self, cascade_square):
        f = GridFunction.ones(cascade_square.config)
        assert f.refine(cascade_square.config.depth) is f

    def test_indicator_requires_cell_alignment(self, uniform_line):
        with pytest.raises(AlignmentError):
            GridFunction.indicator(uniform_line.config, Box((1,), (5,)))

    def test_cell_slices_of_standard_rect(self, square_cfg):
        rect = ProductRect((DyadicCube(1, (1,)), DyadicCube(0, (0,))))
        sl = cell_slices(square_cfg, rect)
        assert sl == (slice(12, 24), slice(0, 24))


def _ones(cfg):
    return GridFunction(cfg, np.ones((cfg.axis_cells,) * cfg.total_dim))


# each call on a (1,1) K=3 weight, with its error class and message start
REFUSALS = [
    (lambda w: w.mass(Box((0,), (1,))), ValueError,
     "box dimension does not match the configuration"),
    (lambda w: GridFunction(w.config, np.ones(3)), ValueError,
     "values must have shape (24, 24), got (3,)"),
    (lambda w: GridFunction(w.config, -np.ones((24, 24))), ValueError,
     "values must be finite and nonnegative"),
    (lambda w: _ones(w.config).refine(2), ValueError,
     "refine only goes to deeper lattices"),
    (lambda w: Weight(w.config, np.ones(3)), ValueError,
     "density must have shape (24, 24), got (3,)"),
    (lambda w: w.coarsen(4), ValueError,
     "coarsen target must be a shallower valid depth"),
    (lambda w: integrate(w, _ones(GridConfig((1, 1), 2)), Box((0, 0), (1, 1))),
     ValueError, "inputs live on different grids"),
    (lambda w: lp_norm(w, _ones(GridConfig((1, 1), 2)), 2.0), ValueError,
     "inputs live on different grids"),
    (lambda w: gen_power(w.config, (1.0,)), ValueError,
     "need one exponent per axis"),
    (lambda w: gen_power(w.config, (1.0, 1.0), centers=(0.5,)), ValueError,
     "need one center per axis"),
    # box_sums used to read the truncated corner (2, 3)
    (lambda w: box_sums(w.cell_masses, [[2.5, 3]], [[10, 9]]), ValueError,
     "points must have integer coordinates in global units"),
    (lambda w: box_sums(w.cell_masses, [[2, 3]], np.array([[10, 9.0]])),
     ValueError, "points must have integer coordinates in global units")]


@pytest.mark.parametrize("call,exc,start", REFUSALS)
def test_refused(cascade_square, call, exc, start):
    with pytest.raises(exc, match="^" + re.escape(start)):
        call(cascade_square)
