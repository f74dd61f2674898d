"""The kernel-equivalence study over pair arrays.

Pinned summaries and a scalar transcription of the one-pair loop guard
the summation order and the scalar powers of the batched kernel sums;
oracles check the kernel sums and the minimal-cube masses independently;
the error behaviour matches the one-pair study.  The batched pair
draw gives the pairs of the one-pair draw loop.  The shift-cover report
does not depend on the grid it verifies on.
"""

import itertools

import numpy as np
import pytest

from rectfrac import (DegeneratePairError, GridConfig, ProductRect,
                      enumerate_rects, gen_cascade, gen_power, kernel_sum,
                      rect_box, triple)
from rectfrac.bruteforce import mass_direct, minimal_cube_exhaustive
from rectfrac.grids import triple_depths
from rectfrac.operators import kernel_sums
from rectfrac.studies import (boundary_cover_cubes, kernel_equiv_study,
                              minimal_cube_masses, sample_distinct_pairs,
                              shift_cover_report, verify_shift_cover)
from rectfrac.weights import cell_slices

# Summaries of 500 pairs (seed 11, alpha 0.5) recorded from the one-pair
# study loop.  Exact equality: a different summation order moves the
# last bits.
PINNED = {
    "cascade (1,1) K=6": (
        lambda: gen_cascade(GridConfig((1, 1), 6), 2.0, 7),
        {"pairs": 500, "kernel_ratio_min": 1.0130957218994658,
         "kernel_ratio_max": 11.591868316556074,
         "kernel_log_width": 2.4372931308119563,
         "minimal_mass_ratio_min": 0.19797900008446648,
         "minimal_mass_ratio_max": 4.325906971698625}),
    "power (1,1) K=6": (
        lambda: gen_power(GridConfig((1, 1), 6), (2, 2),
                          centers=(0.5, 0.5)),
        {"pairs": 500, "kernel_ratio_min": 0.1630594539387895,
         "kernel_ratio_max": 26.89361319257673,
         "kernel_log_width": 5.105529227221158,
         "minimal_mass_ratio_min": 0.026829478496204165,
         "minimal_mass_ratio_max": 34.82761273727527}),
    "cascade (2,1) K=4": (
        lambda: gen_cascade(GridConfig((2, 1), 4), 2.0, 7),
        {"pairs": 500, "kernel_ratio_min": 0.041709862967358326,
         "kernel_ratio_max": 10.812937087644004,
         "kernel_log_width": 5.5577609518770315,
         "minimal_mass_ratio_min": 0.15756458864899195,
         "minimal_mass_ratio_max": 110.32505147145724}),
    "cascade (1,1,1) K=3": (
        lambda: gen_cascade(GridConfig((1, 1, 1), 3), 2.0, 7),
        {"pairs": 500, "kernel_ratio_min": 0.28540846745734455,
         "kernel_ratio_max": 29.121231016663906,
         "kernel_log_width": 4.6253014020020595,
         "minimal_mass_ratio_min": 0.1666253819263228,
         "minimal_mass_ratio_max": 4.216586799393186}),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_summaries_pinned(name):
    make, expect = PINNED[name]
    w = make()
    pairs = sample_distinct_pairs(w.config, 500, 11)
    assert kernel_equiv_study(w, 0.5, pairs) == expect


def _one_pair_loop(w, alpha, x, y):
    """The scalar kernel-sum loop: level tuples in order, Python's pow."""
    cfg, K = w.config, w.config.depth
    expo = alpha / cfg.total_dim - 1.0
    total = 0.0
    for levels in itertools.product(range(K + 1), repeat=cfg.n_factors):
        idx, live = [], True
        for i, k in enumerate(levels):
            side = 3 << (K + 1 - k)
            for a in cfg.factor_axes(i):
                lo = x[a] // side * side
                live = live and lo - side <= y[a] < lo + 2 * side
                idx.append(x[a] // side)
        m = float(w.mass_tree[levels][tuple(idx)])
        if live and m > 0:
            total += m ** expo
    return total


@pytest.mark.parametrize("name", list(PINNED))
def test_kernel_sums_equal_scalar_loop(name):
    # bit for bit: numpy's vectorized power differs from libm's pow in
    # the last bit on some masses on some hosts (AVX-512 builds)
    w = PINNED[name][0]()
    pairs = sample_distinct_pairs(w.config, 500, 11)
    X, Y = (np.array(v) for v in zip(*pairs))
    assert kernel_sums(w, 0.5, X, Y).tolist() == [
        _one_pair_loop(w, 0.5, x, y) for x, y in pairs]


def _oracle_pairs(cfg, seed):
    """Random pairs plus close pairs whose minimal cubes reach level K+1."""
    rng = np.random.default_rng(seed)
    U, N = cfg.axis_units, cfg.total_dim
    X, Y = [], []
    while len(X) < 24:
        x, y = rng.integers(0, U, N), rng.integers(0, U, N)
        if len(X) >= 12:  # one or two units apart on every axis
            y = np.clip(x + rng.choice((-2, -1, 1, 2), N), 0, U - 1)
        if np.all(x != y):
            X.append(x)
            Y.append(y)
    return np.array(X), np.array(Y)


ORACLE_CASES = [((2,), 3), ((2, 1), 2)]


@pytest.mark.parametrize("dims,depth", ORACLE_CASES)
def test_kernel_sums_match_rect_enumeration(dims, depth):
    cfg = GridConfig(dims, depth)
    w = gen_cascade(cfg, 2.0, 5)
    X, Y = _oracle_pairs(cfg, 3)
    expo = 0.5 / cfg.total_dim - 1.0
    rects = [(rect_box(cfg, r), triple(cfg, r),
              float(w.cell_masses[cell_slices(cfg, r)].sum()))
             for r in enumerate_rects(cfg)]
    got = kernel_sums(w, 0.5, X, Y)
    for p, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
        total = sum(m ** expo for box, box3, m in rects
                    if box.contains_point(x) and box3.contains_point(y))
        assert got[p] == pytest.approx(total, rel=1e-12)
        assert kernel_sum(w, 0.5, x, y) == got[p]


@pytest.mark.parametrize("dims,depth", ORACLE_CASES)
def test_minimal_cube_masses_match_exhaustive(dims, depth):
    cfg = GridConfig(dims, depth)
    w = gen_cascade(cfg, 2.0, 5)
    X, Y = _oracle_pairs(cfg, 4)
    depths = triple_depths(cfg, X, Y)
    # both paths run: tree gathers and the one-pair fallback below depth
    assert (depths == cfg.depth).any()
    assert (depths > cfg.depth).any(axis=1).any()
    assert not (depths > cfg.depth).any(axis=1).all()
    got = minimal_cube_masses(w, X, Y)
    for p, (x, y) in enumerate(zip(X.tolist(), Y.tolist())):
        xs, ys = cfg.split_axes(tuple(x)), cfg.split_axes(tuple(y))
        rect = ProductRect(tuple(minimal_cube_exhaustive(cfg, u, v)
                                 for u, v in zip(xs, ys)))
        assert depths[p].tolist() == [min(q.level, cfg.depth + 1)
                                      for q in rect.factors]
        assert got[p] == pytest.approx(mass_direct(w, rect_box(cfg, rect)),
                                       rel=1e-12)


class TestErrors:
    CFG = GridConfig((1, 1), 3)

    @pytest.fixture(scope="class")
    def w(self):
        return gen_cascade(self.CFG, 2.0, 7)

    def test_shared_coordinate_is_degenerate(self, w):
        with pytest.raises(DegeneratePairError):
            kernel_equiv_study(w, 0.5, [((3, 5), (9, 7)), ((3, 5), (9, 5))])

    def test_point_outside_domain(self, w):
        U = self.CFG.axis_units
        with pytest.raises(ValueError) as err:
            kernel_equiv_study(w, 0.5, [((3, 5), (9, 7)), ((U, 5), (9, 7))])
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="inside"):
            kernel_sums(w, 0.5, [(3, -1)], [(9, 7)])

    def test_kernel_sum_needs_distinct_factors(self):
        w = gen_cascade(GridConfig((2,), 3), 2.0, 7)
        assert kernel_sum(w, 0.5, (3, 5), (3, 9)) > 0
        with pytest.raises(DegeneratePairError):
            kernel_sum(w, 0.5, (3, 5), (3, 5))


def _one_pair_draws(config, count, seed):
    """The pair sampler drawing x, then y, one pair at a time."""
    rng = np.random.default_rng(seed)
    N, units = config.total_dim, config.axis_units
    pairs = []
    while len(pairs) < count:
        x = rng.integers(0, units, size=N)
        y = rng.integers(0, units, size=N)
        if np.all(x != y):
            pairs.append((tuple(int(c) for c in x),
                          tuple(int(c) for c in y)))
    return pairs


@pytest.mark.parametrize("dims", [(1,), (1, 1), (1, 1, 1), (2, 1), (2, 2)])
def test_pair_draw_equals_one_pair_loop(dims):
    for depth, seed, count in itertools.product((1, 2, 3, 6), (0, 1, 7, 12345),
                                                (1, 5, 60, 1000)):
        cfg = GridConfig(dims, depth)
        pairs = sample_distinct_pairs(cfg, count, seed)
        assert pairs == _one_pair_draws(cfg, count, seed)
        assert all(type(c) is int for x, y in pairs for c in x + y)


@pytest.mark.parametrize("dim,max_level", [(1, 0), (1, 4), (1, 9), (2, 5),
                                           (3, 3), (2, 7)])
def test_shift_cover_report_matches_depth_one_grid(dim, max_level):
    config = GridConfig((dim,), 1)
    cubes = boundary_cover_cubes(dim, max_level)
    failures = [{"level": c.level, "index": list(c.index)}
                for c in cubes if not verify_shift_cover(c, config)]
    assert shift_cover_report(dim, max_level) == {
        "dim": dim, "max_level": max_level, "cubes_checked": len(cubes),
        "failures": failures}
