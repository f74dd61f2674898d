"""The kernel-equivalence study over pair arrays.

Pinned summaries and a scalar transcription of the one-pair loop guard
the summation order and the scalar powers of the batched kernel sums;
oracles check the kernel sums and the minimal-cube masses independently;
the error behaviour matches the one-pair study.  The batched box
masses of the minimal rectangles and of the minimal cubes below the
depth equal a one-box transcription bit for bit, and the summaries do
not depend on the BLAS thread count.  The batched pair draw gives the
pairs of the one-pair draw loop.  The shift-cover report does not
depend on the grid it verifies on, its array pass fails exactly the
cubes the per-cube check fails, also under a cover rule that is off,
and its per-axis verdicts equal the check against the whole exhaustive
cover list.
"""

import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rectfrac
from rectfrac import (DegeneratePairError, DyadicCube, GridConfig,
                      ProductRect, gen_cascade, gen_power, kernel_sum,
                      rect_box, triple)
from rectfrac import grids, studies
from rectfrac.bruteforce import (_iter_family, mass_direct,
                                 minimal_cube_exhaustive,
                                 shift_cover_candidates,
                                 shift_cover_exhaustive)
from rectfrac.grids import (cube_box, min_rect, product_minimal, shift_cover,
                            triple_depths)
from rectfrac.operators import kernel_sums
from rectfrac.studies import (boundary_cover_cubes, kernel_equiv_study,
                              minimal_cube_masses, sample_distinct_pairs,
                              shift_cover_report, verify_shift_cover)
from rectfrac.weights import box_sums, cell_slices

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
             for r, _, _ in _iter_family(cfg)]
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


BATCH_CASES = [((1,), 8), ((1, 1), 5), ((2, 1), 3), ((1, 1, 1), 3),
               ((2, 2), 2)]


def _edge_pairs(cfg, seed):
    """Seeded pairs plus pairs on the domain edges and one unit apart."""
    U, N = cfg.axis_units, cfg.total_dim
    pairs = sample_distinct_pairs(cfg, 40, seed)
    for x0, y0 in ((0, U - 1), (U - 1, 0), (0, 1), (U - 2, U - 1)):
        pairs.append(((x0,) * N, (y0,) * N))
        pairs.append((tuple(x0 if a % 2 else y0 for a in range(N)),
                      tuple(y0 if a % 2 else x0 for a in range(N))))
    pairs += [(tuple(np.clip(np.array(x) + d, 0, U - 1).tolist()), x)
              for x, _ in pairs[:12] for d in ((1,) * N, (-1,) * N)
              if all(0 < c < U - 1 for c in x)]
    return pairs


def _case_weights(cfg):
    return [gen_cascade(cfg, 2.0, 5),
            gen_power(cfg, (2,) * cfg.total_dim,
                      centers=(0.5,) * cfg.total_dim)]


def _one_box_sum(arr, box):
    """The one-box overlap rule and contraction, corner by corner."""
    per_axis = []
    for lo, hi, cells in zip(box.lo, box.hi, arr.shape):
        a, b = max(lo, 0), min(hi, 2 * cells)
        if b <= a:
            return 0.0
        first, last = a // 2, -(-b // 2)
        w = np.ones(last - first)
        w[0] = (min(b, 2 * first + 2) - a) / 2
        w[-1] = (b - max(a, 2 * last - 2)) / 2
        per_axis.append((first, w))
    out = arr[tuple(slice(first, first + len(w)) for first, w in per_axis)]
    for _, w in reversed(per_axis):
        out = out @ w
    return float(out)


@pytest.mark.parametrize("dims,depth", BATCH_CASES)
def test_min_rect_batch_equals_mass(dims, depth):
    cfg = GridConfig(dims, depth)
    pairs = _edge_pairs(cfg, 9)
    X, Y = (np.array(v) for v in zip(*pairs))
    for w in _case_weights(cfg):
        got = box_sums(w.cell_masses, np.minimum(X, Y), np.maximum(X, Y))
        expect = [w.mass(min_rect(x, y)) for x, y in pairs]
        assert got.tolist() == expect == [
            _one_box_sum(w.cell_masses, min_rect(x, y)) for x, y in pairs]
        for p in (0, len(pairs) - 1):  # one pair at a time
            assert box_sums(w.cell_masses, np.minimum(X, Y)[p:p + 1],
                            np.maximum(X, Y)[p:p + 1]).tolist() == [expect[p]]


@pytest.mark.parametrize("dims,depth", BATCH_CASES)
def test_minimal_cubes_below_depth_equal_mass(dims, depth):
    cfg = GridConfig(dims, depth)
    pairs = _edge_pairs(cfg, 10)
    X, Y = (np.array(v) for v in zip(*pairs))
    deep = (triple_depths(cfg, X, Y) > depth).any(axis=1)
    levels = set()
    for w in _case_weights(cfg):
        got = minimal_cube_masses(w, X, Y)
        for p in np.flatnonzero(deep):
            rect = product_minimal(cfg, pairs[p][0], pairs[p][1])
            levels.update(rect.levels)
            assert got[p] == w.mass(rect) == _one_box_sum(
                w.cell_masses, rect_box(cfg, rect))
    # quarter and half unit corners both occur
    assert {depth + 2, depth + 3} <= levels


def test_box_sums_empty_and_outside():
    w = gen_cascade(GridConfig((1, 1), 3), 2.0, 5)
    U = w.config.axis_units
    assert box_sums(w.cell_masses, np.empty((0, 2)),
                    np.empty((0, 2))).shape == (0,)
    lo = np.array([[-U, 3], [U, 3], [5, 7], [-4, -4]])
    hi = np.array([[-1, 9], [2 * U, 9], [5, 9], [2 * U, 2 * U]])
    assert box_sums(w.cell_masses, lo, hi).tolist() == [
        0.0, 0.0, 0.0, w.total_mass]


class TestErrors:
    CFG = GridConfig((1, 1), 3)

    @pytest.fixture(scope="class")
    def w(self):
        return gen_cascade(self.CFG, 2.0, 7)

    def test_shared_coordinate_is_degenerate(self, w):
        with pytest.raises(DegeneratePairError):
            kernel_equiv_study(w, 0.5, [((3, 5), (9, 7)), ((3, 5), (9, 5))])

    def test_first_shared_pair_named_like_min_rect(self, w):
        U = self.CFG.axis_units
        pairs = [((0, 5), (U - 1, 7)), ((U - 1, 0), (4, 0)),
                 ((3, 5), (3, 7))]
        with pytest.raises(DegeneratePairError) as err:
            min_rect(*pairs[1])
        with pytest.raises(DegeneratePairError, match=str(err.value)):
            kernel_equiv_study(w, 0.5, pairs)

    def test_point_outside_domain(self, w):
        U = self.CFG.axis_units
        with pytest.raises(ValueError) as err:
            kernel_equiv_study(w, 0.5, [((3, 5), (9, 7)), ((U, 5), (9, 7))])
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="inside"):
            kernel_sums(w, 0.5, [(3, -1)], [(9, 7)])

    def test_pairs_of_wrong_shape_refused(self, w):
        # 3-D points used to fail in numpy's reshape
        for pairs in ([((1, 2, 3), (4, 5, 6))], [(1, 2), (4, 5)],
                      [((1, 2), (4, 5), (7, 8))]):
            with pytest.raises(ValueError, match=re.escape(
                    "pairs must be a (P, 2, 2) array, got (")):
                kernel_equiv_study(w, 0.5, pairs)

    def test_empty_pair_list_refused_before_any_work(self, w, monkeypatch):
        calls = []
        for name in ("box_sums", "kernel_sums", "minimal_cube_masses"):
            monkeypatch.setattr(studies, name,
                                lambda *a, name=name: calls.append(name))
        for empty in ([], np.zeros((0, 2, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="at least one pair"):
                kernel_equiv_study(w, 0.5, empty)
        assert calls == []

    def test_non_integer_points_refused(self, w):
        # each used to read the truncated point (2, 3)
        calls = [lambda: kernel_sum(w, 0.5, (2.5, 3), (10, 9)),
                 lambda: kernel_sums(w, 0.5, [(2.5, 3)], [(10, 9)]),
                 lambda: kernel_sums(w, 0.5, [(2, 3)], [(10.0, 9)]),
                 lambda: minimal_cube_masses(w, [(2.5, 3)], [(10, 9)]),
                 lambda: kernel_equiv_study(w, 0.5, [((2.5, 3), (10, 9))])]
        for call in calls:
            with pytest.raises(ValueError, match="^points must have integer "
                               "coordinates in global units$"):
                call()

    def test_numpy_integer_points_pass(self, w):
        pairs = [((2, 3), (10, 9)), ((20, 1), (5, 17)), ((0, 47), (1, 46))]
        X, Y = (np.array(pairs)[:, i] for i in (0, 1))
        sums = kernel_sums(w, 0.5, X.tolist(), Y.tolist()).tolist()
        masses = minimal_cube_masses(w, X.tolist(), Y.tolist()).tolist()
        study = kernel_equiv_study(w, 0.5, pairs)
        for dtype in (np.int16, np.uint32, np.int64):
            Xd, Yd = X.astype(dtype), Y.astype(dtype)
            assert kernel_sums(w, 0.5, Xd, Yd).tolist() == sums
            assert minimal_cube_masses(w, Xd, Yd).tolist() == masses
            assert kernel_equiv_study(
                w, 0.5, np.array(pairs, dtype=dtype)) == study

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
                                           (3, 3), (2, 7), (4, 2), (4, 3)])
def test_shift_cover_report_matches_depth_one_grid(dim, max_level):
    config = GridConfig((dim,), 1)
    cubes = list(boundary_cover_cubes(dim, max_level))
    failures = [{"level": c.level, "index": list(c.index)}
                for c in cubes if not verify_shift_cover(c, config)]
    assert shift_cover_report(dim, max_level) == {
        "dim": dim, "max_level": max_level, "cubes_checked": len(cubes),
        "failures": failures}


def test_boundary_cover_cubes_streamed():
    cubes = boundary_cover_cubes(1, 2)
    assert iter(cubes) is cubes
    assert next(cubes) == DyadicCube(-2, (-1,))
    # 2, 2, 3, 4 and 6 cubes at levels -2..2, the first one taken
    assert len(list(cubes)) == 16


def test_shift_cover_report_memory_flat():
    """The report holds one cube of the family at a time, not the family."""
    shift_cover_report(2, 2)  # module-level caches filled before the trace
    tracemalloc.start()
    try:
        rep = shift_cover_report(2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["cubes_checked"] == 22925 and rep["failures"] == []
    assert peak < 1 << 20


@pytest.mark.parametrize("dim,max_level", [(2, 5), (3, 3)])
@pytest.mark.parametrize("nudge", ["index", "shift"])
def test_shift_cover_report_lists_reference_rejections(dim, max_level, nudge,
                                                       monkeypatch):
    """A cover rule off for one residue of m fails the cubes it fails per cube.

    Moving the index moves the cover a whole 8x side, off every triple;
    moving the shift by a third keeps some covers valid (r = 3..5 under
    +1/3), so the report must also accept what the reference accepts.
    """
    rule = grids._shift_covers
    config = GridConfig((dim,), 1)
    for residue in range(8):
        def nudged(index, residue=residue):
            tau, idx = rule(index)
            hit = (np.asarray(index) - 1) % 8 == residue
            if nudge == "index":
                return tau, idx + hit
            return np.where(hit, 1 - np.abs(tau), tau), idx
        monkeypatch.setattr(grids, "_shift_covers", nudged)
        monkeypatch.setattr(studies, "_shift_covers", nudged)
        failures = [{"level": c.level, "index": list(c.index)}
                    for c in boundary_cover_cubes(dim, max_level)
                    if not verify_shift_cover(c, config)]
        assert bool(failures) == (nudge == "index" or residue not in (3, 4, 5))
        assert shift_cover_report(dim, max_level)["failures"] == failures


def test_shift_cover_report_refuses_shift_out_of_range(monkeypatch):
    """A shift of 2 thirds at index q is the interval of -1 at q + 1.

    Its cover holds the triple and its combined index is the oracle's,
    but no shifted grid has that shift: the cube fails.
    """
    rule = grids._shift_covers

    def two_thirds(index):
        tau, idx = rule(index)
        return np.where(tau == -1, 2, tau), idx - (tau == -1)
    monkeypatch.setattr(studies, "_shift_covers", two_thirds)
    failures = [{"level": c.level, "index": list(c.index)}
                for c in boundary_cover_cubes(2, 4)
                if any((m - 1) % 8 == 7 for m in c.index)]
    assert failures and shift_cover_report(2, 4)["failures"] == failures


def _reference_verdict(cube, config, tau, P):
    """The shift-cover check against the whole exhaustive cover list."""
    pbox = cube_box(config, P)
    qbox = cube_box(config, cube)
    if pbox.hi[0] - pbox.lo[0] != 8 * (qbox.hi[0] - qbox.lo[0]):
        return False
    if not pbox.contains_box(triple(config, qbox)):
        return False
    if P.shift != tau:
        return False
    return (tau, P) in shift_cover_exhaustive(cube)


def _other_covers(cube):
    """The constructed cover, other exhaustive covers and near misses."""
    tau, P = shift_cover(cube)
    covers = [(tau, P)] + shift_cover_exhaustive(cube)[::3]
    last = P.dim - 1
    nudged = P.index[:last] + (P.index[last] + 1,)
    flipped = P.shift[:last] + (-P.shift[last] or 1,)
    covers += [(tau, DyadicCube(P.level, nudged, P.shift)),
               (tau, DyadicCube(P.level + 1, P.index, P.shift)),
               (flipped, DyadicCube(P.level, P.index, flipped)),
               (tau, DyadicCube(P.level, P.index, flipped))]
    return covers


@pytest.mark.parametrize("dim,max_level", [(1, 9), (2, 5), (3, 3)])
def test_shift_cover_verdicts_match_exhaustive_list(dim, max_level,
                                                    monkeypatch):
    config = GridConfig((dim,), min(max(max_level - 1, 1), 12))
    for cube in boundary_cover_cubes(dim, max_level):
        assert list(itertools.product(*shift_cover_candidates(cube))) == [
            tuple(zip(t, P.index)) for t, P in shift_cover_exhaustive(cube)]
        for tau, P in _other_covers(cube):
            monkeypatch.setattr(studies, "shift_cover",
                                lambda c, cover=(tau, P): cover)
            assert verify_shift_cover(cube, config) == \
                _reference_verdict(cube, config, tau, P)
        monkeypatch.undo()
        assert verify_shift_cover(cube, config)


STUDY_RUN = """
import json
from rectfrac import GridConfig, gen_cascade, gen_power
from rectfrac.studies import kernel_equiv_study, sample_distinct_pairs
for w in (gen_cascade(GridConfig((1, 1), 6), 2.0, 7),
          gen_power(GridConfig((1, 1), 6), (2, 2), centers=(0.5, 0.5)),
          gen_cascade(GridConfig((2, 2), 3), 2.0, 7)):
    pairs = sample_distinct_pairs(w.config, 2000, 11)
    print(json.dumps({k: repr(v) for k, v in
                      kernel_equiv_study(w, 0.5, pairs).items()}))
"""


def _study_run(threads):
    """Study summaries from a fresh process with ``threads`` BLAS threads."""
    src = str(Path(rectfrac.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", STUDY_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_study_identical_across_blas_threads():
    runs = [_study_run(threads) for threads in (1, 2)]
    assert runs[0] == runs[1]
