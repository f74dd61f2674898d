import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectfrac import (Box, DegeneratePairError, DepthExceededError,
                      DyadicCube, GridConfig, ProductRect, children,
                      cube_box, min_rect, minimal_cube, parent,
                      product_minimal, rect_box, replace, shift_cover,
                      triple)
from rectfrac.bruteforce import (_iter_family, minimal_cube_exhaustive,
                                 shift_cover_exhaustive)
from rectfrac.grids import product_minimal_boxes, triple_depths

CFG = GridConfig((1,), 4)
CFG2 = GridConfig((2,), 4)


def units(cfg, x):
    """Exact unit coordinate of a dyadic rational."""
    v = Fraction(x) * cfg.axis_units
    assert v.denominator == 1
    return int(v)


def box_of(cfg, *corners):
    lo, hi = corners
    return Box(tuple(units(cfg, c) for c in lo), tuple(units(cfg, c) for c in hi))


# children needs level < depth; negative levels are always subdividable
cube_strategy = st.builds(
    DyadicCube,
    st.integers(min_value=-5, max_value=CFG.depth - 1),
    st.tuples(st.integers(min_value=-40, max_value=40)),
    st.tuples(st.sampled_from((-1, 0, 1))),
)

cube2_strategy = st.builds(
    DyadicCube,
    st.integers(min_value=-4, max_value=CFG2.depth - 1),
    st.tuples(*[st.integers(min_value=-20, max_value=20)] * 2),
    st.tuples(*[st.sampled_from((-1, 0, 1))] * 2),
)


class TestChildren:
    def test_unit_interval(self):
        kids = children(CFG, DyadicCube(0, (0,)))
        assert [cube_box(CFG, k) for k in kids] == [
            box_of(CFG, (0,), (Fraction(1, 2),)),
            box_of(CFG, (Fraction(1, 2),), (1,)),
        ]

    def test_square_has_four_congruent_quarters(self):
        q = DyadicCube(0, (0, 0))
        kids = children(CFG2, q)
        assert len(kids) == 4
        sides = {cube_box(CFG2, k).hi[0] - cube_box(CFG2, k).lo[0]
                 for k in kids}
        assert sides == {cube_box(CFG2, q).hi[0] // 2}

    def test_shifted_interval_splits_at_midpoint(self):
        # [1/3, 4/3) halves into [1/3, 5/6) and [5/6, 4/3)
        kids = children(CFG, DyadicCube(0, (0,), (1,)))
        assert [cube_box(CFG, k) for k in kids] == [
            box_of(CFG, (Fraction(1, 3),), (Fraction(5, 6),)),
            box_of(CFG, (Fraction(5, 6),), (Fraction(4, 3),)),
        ]

    @given(cube2_strategy)
    def test_children_tile_parent_exactly(self, q):
        kids = children(CFG2, q)
        pbox = cube_box(CFG2, q)
        boxes = [cube_box(CFG2, k) for k in kids]
        for b in boxes:
            assert pbox.contains_box(b)
        # disjoint with union of the right total volume: corners partition
        half = (pbox.hi[0] - pbox.lo[0]) / 2
        los = sorted(b.lo for b in boxes)
        expect = sorted(tuple(pbox.lo[a] + e[a] * half for a in range(2))
                        for e in itertools.product((0, 1), repeat=2))
        assert los == expect

    def test_depth_bound(self):
        with pytest.raises(DepthExceededError):
            children(CFG, DyadicCube(CFG.depth, (0,)))


class TestParent:
    @pytest.mark.parametrize("cube,expect", [
        (DyadicCube(1, (1,)), DyadicCube(0, (0,))),
        (DyadicCube(2, (0,)), DyadicCube(1, (0,))),
    ])
    def test_examples(self, cube, expect):
        assert parent(cube) == expect

    @given(cube_strategy)
    def test_inverts_children(self, q):
        for kid in children(CFG, q):
            assert parent(kid) == q

    @given(cube2_strategy)
    def test_inverts_children_2d(self, q):
        for kid in children(CFG2, q):
            assert parent(kid) == q

    def test_inverts_children_bulk(self):
        rng = np.random.default_rng(123)
        for _ in range(10000):
            q = DyadicCube(int(rng.integers(-5, CFG.depth)),
                           (int(rng.integers(-1000, 1000)),),
                           (int(rng.integers(-1, 2)),))
            kid = children(CFG, q)[int(rng.integers(0, 2))]
            assert parent(kid) == q


class TestReplace:
    def setup_method(self):
        self.rect = ProductRect((DyadicCube(0, (0,)), DyadicCube(0, (0,))))
        self.cfg = GridConfig((1, 1), 3)

    def test_identity(self):
        assert replace(self.rect, self.rect.factors[0], 0) == self.rect

    def test_example(self):
        got = replace(self.rect, DyadicCube(1, (0,)), 0)
        assert rect_box(self.cfg, got) == box_of(
            self.cfg, (0, 0), (Fraction(1, 2), 1))

    def test_involution(self):
        q = DyadicCube(2, (3,))
        swapped = replace(self.rect, q, 1)
        assert replace(swapped, self.rect.factors[1], 1) == self.rect

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            replace(self.rect, DyadicCube(0, (0, 0)), 1)


class TestTriple:
    def test_unit_interval(self):
        assert triple(CFG, DyadicCube(0, (0,))) == box_of(CFG, (-1,), (2,))

    def test_product_rect(self):
        cfg = GridConfig((1, 1), 3)
        rect = ProductRect((DyadicCube(1, (0,)), DyadicCube(1, (1,))))
        assert triple(cfg, rect) == box_of(
            cfg, (Fraction(-1, 2), 0), (1, Fraction(3, 2)))

    def test_nested_in_parent_triple_exhaustive(self):
        cfg = GridConfig((1,), 6)
        for k in range(1, 7):
            for m in range(2 ** k):
                q = DyadicCube(k, (m,))
                assert triple(cfg, parent(q)).contains_box(triple(cfg, q))

    @given(cube2_strategy)
    def test_nested_in_parent_triple_random(self, q):
        assert triple(CFG2, parent(q)).contains_box(triple(CFG2, q))


class TestMinimalCube:
    def test_moderate_pair(self):
        # u near 0.1, v near 0.4: triple of [0,1/4) reaches v, of [0,1/8) not
        cfg = GridConfig((1,), 5)
        u, v = (19,), (77,)  # 19/192 ~ 0.099, 77/192 ~ 0.401
        q = minimal_cube(cfg, u, v)
        assert cube_box(cfg, q) == box_of(cfg, (0,), (Fraction(1, 4),))

    def test_boundary_pair(self):
        cfg = GridConfig((1,), 5)
        u = (units(cfg, Fraction(1, 4)),)
        v = (units(cfg, Fraction(3, 4)),)
        q = minimal_cube(cfg, u, v)
        # 3*[1/4,1/2) = [0, 3/4) misses v, so [0, 1/2) is minimal
        assert cube_box(cfg, q) == box_of(cfg, (0,), (Fraction(1, 2),))

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePairError):
            minimal_cube(CFG, (5,), (5,))

    def test_adjacent_points_descend_below_lattice(self):
        q = minimal_cube(CFG, (0,), (1,))
        assert q.level > CFG.depth + 1
        box = cube_box(CFG, q)
        assert box.lo[0] <= 0 < box.hi[0]

    @given(st.integers(0, CFG.axis_units - 1), st.integers(0, CFG.axis_units - 1))
    @settings(max_examples=300)
    def test_matches_exhaustive_oracle(self, a, b):
        if a == b:
            return
        assert minimal_cube(CFG, (a,), (b,)) == \
            minimal_cube_exhaustive(CFG, (a,), (b,))

    def test_chain_monotone_d1_exhaustive(self):
        cfg = GridConfig((1,), 6)
        U = cfg.axis_units
        u = np.arange(U)[:, None]
        v = np.arange(U)[None, :]
        prev = np.ones((U, U), dtype=bool)
        for k in range(cfg.depth + 2):
            side = 3 << (cfg.depth + 1 - k)
            lo = (u // side) * side
            inside = (lo - side <= v) & (v < lo + 2 * side)
            assert np.all(prev | ~inside)  # true deeper implies true shallower
            prev = inside

    def test_chain_monotone_d2_exhaustive(self):
        cfg = GridConfig((2,), 2)
        U = cfg.axis_units
        g = np.arange(U)
        u1, u2, v1, v2 = np.ix_(g, g, g, g)
        prev = np.ones((U,) * 4, dtype=bool)
        for k in range(cfg.depth + 2):
            side = 3 << (cfg.depth + 1 - k)
            lo1 = (u1 // side) * side
            lo2 = (u2 // side) * side
            inside = ((lo1 - side <= v1) & (v1 < lo1 + 2 * side)
                      & (lo2 - side <= v2) & (v2 < lo2 + 2 * side))
            assert np.all(prev | ~inside)
            prev = inside


def _unit_apart_pairs(cfg):
    """Every ordered pair whose coordinates differ by at most one unit."""
    U, d = cfg.axis_units, cfg.total_dim
    pairs = []
    for u in itertools.product(range(U), repeat=d):
        for off in itertools.product((-1, 0, 1), repeat=d):
            v = tuple(a + o for a, o in zip(u, off))
            if any(off) and all(0 <= c < U for c in v):
                pairs.append((u, v))
    return pairs


class TestMinimalCubeRange:
    """The closed formula over the whole range of levels, up to depth + 3."""

    @staticmethod
    def check(cfg, pairs):
        levels = []
        for u, v in pairs:
            q = minimal_cube(cfg, u, v)
            assert q == minimal_cube_exhaustive(cfg, u, v)
            levels.append(q.level)
        X, Y = np.array(pairs).transpose(1, 0, 2)
        assert triple_depths(cfg, X, Y).tolist() == \
            [[min(k, cfg.depth + 1)] for k in levels]
        return levels

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_every_pair_d1(self, depth):
        cfg = GridConfig((1,), depth)
        U = cfg.axis_units
        levels = self.check(cfg, [((a,), (b,)) for a in range(U)
                                  for b in range(U) if a != b])
        # a level-1 triple covers [0,1), so level 0 is never minimal
        assert set(levels) == set(range(1, depth + 4))

    @pytest.mark.parametrize("dims,depth", [((1,), k) for k in range(1, 7)]
                             + [((2,), 3)])
    def test_every_pair_one_unit_apart(self, dims, depth):
        cfg = GridConfig(dims, depth)
        assert max(self.check(cfg, _unit_apart_pairs(cfg))) == depth + 3

    def test_seeded_pairs_one_unit_apart_at_depth_twelve(self):
        cfg = GridConfig((1,), 12)
        rng = np.random.default_rng(2024)
        u = rng.integers(0, cfg.axis_units - 1, size=2000)
        flip = rng.integers(0, 2, size=2000).astype(bool)
        pairs = [((int(a + f),), (int(a + 1 - f),)) for a, f in zip(u, flip)]
        assert max(self.check(cfg, pairs)) == cfg.depth + 3

    @staticmethod
    def gap_pairs(cfg, gap):
        """Pairs on one axis whose quarter units 4x//3 differ by ``gap``.

        Starts spread over the whole axis, both orders of each pair.
        """
        quarters = (4 * np.arange(cfg.axis_units) // 3).tolist()
        at = {q: x for x, q in enumerate(quarters)}
        pairs = []
        for x in np.linspace(0, cfg.axis_units - 1, 12).astype(int).tolist():
            y = at.get(quarters[x] + gap)
            if y is not None:
                pairs += [((x,), (y,)), ((y,), (x,))]
        return pairs

    @pytest.mark.parametrize("dims,depth", [((1,), 12), ((2,), 4)])
    def test_quarter_gaps_straddling_powers_of_two(self, dims, depth):
        # the closed form tests one shift next to ceil(log2 D) for the
        # quarter-unit gap D; pin D = 1, 2**k and 2**k + 1, and on a 2-d
        # factor pair each with D = 0 on the other axis
        cfg = GridConfig(dims, depth)
        gaps = [1] + [g for k in range(1, depth + 3)
                      for g in (1 << k, (1 << k) + 1)]
        for gap in gaps:
            pairs = self.gap_pairs(cfg, gap)
            assert pairs, gap
            if dims == (2,):
                pairs = [(u + (7,), v + (7,)) for u, v in pairs] + \
                        [((5,) + u, (5,) + v) for u, v in pairs]
            levels = self.check(cfg, pairs)
            if gap == 1:
                assert set(levels) == {depth + 3}

    @pytest.mark.parametrize("dims,depth", [((1,), 12), ((2,), 4)])
    def test_domain_ends(self, dims, depth):
        cfg = GridConfig(dims, depth)
        U = cfg.axis_units
        ends = (0, U - 1)
        coords = [0, 1, 2, 3, U // 2 - 1, U // 2, U - 4, U - 3, U - 2, U - 1]
        corners = list(itertools.product(ends, repeat=cfg.total_dim))
        points = list(itertools.product(coords, repeat=cfg.total_dim))
        pairs = [p for c in corners for q in points if q != c
                 for p in ((c, q), (q, c))]
        levels = self.check(cfg, pairs)
        assert {1, depth + 3} <= set(levels)


class TestMinRect:
    def test_interval(self):
        assert min_rect((24,), (72,)) == Box((24,), (72,))

    def test_crossing_pair(self):
        assert min_rect((1, 9), (6, 2)) == Box((1, 2), (6, 9))

    @given(st.tuples(st.integers(0, 95), st.integers(0, 95)),
           st.tuples(st.integers(0, 95), st.integers(0, 95)))
    def test_symmetry(self, x, y):
        if any(a == b for a, b in zip(x, y)):
            return
        assert min_rect(x, y) == min_rect(y, x)

    def test_coincident_coordinate_rejected(self):
        with pytest.raises(DegeneratePairError):
            min_rect((3, 5), (9, 5))


class TestProductMinimal:
    def test_matches_per_factor(self):
        cfg = GridConfig((1, 1), 4)
        x, y = (10, 10), (40, 40)
        rect = product_minimal(cfg, x, y)
        assert rect.factors == (minimal_cube(GridConfig((1,), 4), (10,), (40,)),
                                minimal_cube(GridConfig((1,), 4), (10,), (40,)))

    @given(st.tuples(st.integers(0, 95), st.integers(0, 95)),
           st.tuples(st.integers(0, 95), st.integers(0, 95)))
    @settings(max_examples=200)
    def test_contains_x_and_triple_contains_y(self, x, y):
        cfg = GridConfig((1, 1), 4)
        if any(a == b for a, b in zip(x, y)):
            return
        rect = product_minimal(cfg, x, y)
        assert rect_box(cfg, rect).contains_point(x)
        assert triple(cfg, rect).contains_point(y)

    @pytest.mark.parametrize("dims,depth", [((1,), 4), ((1, 1), 3),
                                            ((2, 1), 2), ((2, 2), 2),
                                            ((1, 1, 1), 2)])
    def test_boxes_on_whole_arrays(self, dims, depth):
        cfg = GridConfig(dims, depth)
        rng = np.random.default_rng(3)
        U, N = cfg.axis_units, cfg.total_dim
        X = rng.integers(0, U, (400, N))
        near = np.clip(X + rng.choice((-2, -1, 1, 2), X.shape), 0, U - 1)
        Y = np.where(rng.random((400, 1)) < 0.5, near,
                     rng.integers(0, U, X.shape))
        keep = (X != Y).all(axis=1)
        X, Y = X[keep], Y[keep]
        lo, hi = product_minimal_boxes(cfg, X, Y)
        # the same shift loop gives the levels, capped at depth + 1; the
        # oracle scans every cube with its own arithmetic
        depths = triple_depths(cfg, X, Y)
        levels = set()
        for x, y, a, b, k in zip(X.tolist(), Y.tolist(), lo.tolist(),
                                 hi.tolist(), depths.tolist()):
            cubes = [minimal_cube_exhaustive(cfg, u, v) for u, v in
                     zip(cfg.split_axes(x), cfg.split_axes(y))]
            levels.update(q.level for q in cubes)
            box = rect_box(cfg, ProductRect(tuple(cubes)))
            assert [Fraction(c, 4) for c in a] == list(box.lo)
            assert [Fraction(c, 4) for c in b] == list(box.hi)
            assert k == [min(q.level, depth + 1) for q in cubes]
        assert {1, depth + 3} <= levels


class TestShiftCover:
    @pytest.mark.parametrize("cube,tau,lo,hi", [
        (DyadicCube(0, (0,)), (-1,), Fraction(-8, 3), Fraction(16, 3)),
        (DyadicCube(1, (0,)), (-1,), Fraction(-4, 3), Fraction(8, 3)),
    ])
    def test_examples(self, cube, tau, lo, hi):
        got_tau, p = shift_cover(cube)
        assert got_tau == tau
        assert cube_box(CFG, p) == box_of(CFG, (lo,), (hi,))

    @given(cube_strategy)
    def test_cover_is_valid_and_oracle_member(self, q):
        if not q.is_standard:
            q = DyadicCube(q.level, q.index)
        tau, p = shift_cover(q)
        assert p.level == q.level - 3
        pbox = cube_box(CFG, p)
        assert pbox.contains_box(triple(CFG, q))
        assert (pbox.hi[0] - pbox.lo[0]) == \
            8 * (cube_box(CFG, q).hi[0] - cube_box(CFG, q).lo[0])
        assert (tau, p) in shift_cover_exhaustive(q)

    def test_two_dim_cover_is_product_of_axis_covers(self):
        q = DyadicCube(2, (5, 14))
        tau, p = shift_cover(q)
        for a in range(2):
            t1, p1 = shift_cover(DyadicCube(2, (q.index[a],)))
            assert t1 == (tau[a],)
            assert p1.index == (p.index[a],)

    def test_shifted_input_rejected(self):
        with pytest.raises(ValueError):
            shift_cover(DyadicCube(0, (0,), (1,)))


class TestEnumerateRects:
    """The one enumeration of a family, ``bruteforce._iter_family``."""

    @staticmethod
    def rects(cfg, tau=None):
        return [rect for rect, _, _ in _iter_family(cfg, tau)]

    def test_interval_count(self):
        cfg = GridConfig((1,), 2)
        rects = self.rects(cfg)
        assert len(rects) == 7  # 1 + 2 + 4

    def test_square_count(self):
        cfg = GridConfig((1, 1), 1)
        assert len(self.rects(cfg)) == 9  # 3 x 3

    @pytest.mark.parametrize("depth", [3, 4, 5])
    def test_closed_form_count(self, depth):
        cfg = GridConfig((1,), depth)
        assert len(self.rects(cfg)) == 2 ** (depth + 1) - 1

    def test_shifted_axis_gets_one_extra_interval_per_level(self):
        cfg = GridConfig((1,), 2)
        rects = self.rects(cfg, tau=(1,))
        assert len(rects) == (1 + 1) + (2 + 1) + (4 + 1)

    def test_no_duplicates_and_deterministic_order(self):
        cfg = GridConfig((1, 1), 2)
        rects = self.rects(cfg)
        assert len(set(rects)) == len(rects)
        assert rects == self.rects(cfg)
        assert rects[0].levels == (0, 0)
        assert rects[-1].levels == (2, 2)

    def test_every_rect_meets_domain(self):
        cfg = GridConfig((1,), 3)
        U = cfg.axis_units
        for rect in self.rects(cfg, tau=(-1,)):
            b = rect_box(cfg, rect)
            assert b.lo[0] < U and b.hi[0] > 0


class TestExactness:
    def test_decisions_stable_under_finer_unit(self):
        coarse = GridConfig((1,), 4)
        fine = GridConfig((1,), 5)
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(0, coarse.depth + 1))
            m = int(rng.integers(0, 2 ** k))
            s = int(rng.integers(-1, 2))
            q = DyadicCube(k, (m,), (s,))
            x = int(rng.integers(0, coarse.axis_units))
            b_c = cube_box(coarse, q)
            b_f = cube_box(fine, q)
            assert b_c.contains_point((x,)) == b_f.contains_point((2 * x,))
            t_c = triple(coarse, q)
            t_f = triple(fine, q)
            assert t_c.contains_point((x,)) == t_f.contains_point((2 * x,))

    def test_config_validation(self):
        with pytest.raises(DepthExceededError):
            GridConfig((1,), 13)
        with pytest.raises(ValueError):
            GridConfig((5,), 3)
        with pytest.raises(ValueError):
            GridConfig((), 3)

    def test_config_stores_plain_ints(self):
        cfg = GridConfig([np.int64(1), np.int32(2)], np.int64(3))
        assert cfg == GridConfig((1, 2), 3)
        assert hash(cfg) == hash(GridConfig((1, 2), 3))
        assert type(cfg.depth) is int
        assert all(type(d) is int for d in cfg.dims)


# each call on a (1,1) K=3 grid, with its error class and message start
REFUSALS = [
    (lambda cfg: DyadicCube(0, (0, 0), (0,)), ValueError,
     "index and shift must have equal length"),
    (lambda cfg: DyadicCube(0, (0,), (2,)), ValueError,
     "shift entries must be -1, 0 or +1 (thirds)"),
    (lambda cfg: triple(cfg, 3), TypeError, "cannot triple int"),
    (lambda cfg: minimal_cube(cfg, (0,), (0, 1)), ValueError,
     "point dimensions differ"),
    (lambda cfg: minimal_cube(cfg, (0,), (cfg.axis_units,)), ValueError,
     "coordinates must lie inside [0,1)^d"),
    (lambda cfg: triple_depths(cfg, [[0]], [[1]]), ValueError,
     "points must be (P, 2) arrays of equal shape"),
    (lambda cfg: min_rect((0,), (1, 2)), ValueError,
     "point dimensions differ"),
    (lambda cfg: product_minimal(cfg, (0, 1), (0, 2)), DegeneratePairError,
     "points coincide in factor 0"),
    (lambda cfg: minimal_cube(cfg, (2.5,), (10,)), ValueError,
     "points must have integer coordinates in global units"),
    (lambda cfg: product_minimal(cfg, (2, 2.5), (10, 9)), ValueError,
     "points must have integer coordinates in global units"),
    (lambda cfg: triple_depths(cfg, [[2.5, 3]], [[10, 9]]), ValueError,
     "points must have integer coordinates in global units"),
    (lambda cfg: triple_depths(cfg, [[2, 3]], np.array([[10, 9.0]])),
     ValueError, "points must have integer coordinates in global units"),
    (lambda cfg: product_minimal_boxes(cfg, [[2.5, 3]], [[10, 9]]),
     ValueError, "points must have integer coordinates in global units"),
    (lambda cfg: replace(product_minimal(cfg, (2, 3), (10, 9)),
                         DyadicCube(0, (0,)), 2),
     ValueError, "factor index 2 out of range"),
    (lambda cfg: replace(product_minimal(cfg, (2, 3), (10, 9)),
                         DyadicCube(0, (0,)), -1),
     ValueError, "factor index -1 out of range"),
    (lambda cfg: GridConfig((1,), 5.5), DepthExceededError,
     "depth must be an integer"),
    (lambda cfg: GridConfig((1,), "3"), DepthExceededError,
     "depth must be an integer"),
    (lambda cfg: GridConfig((1.7,), 3), ValueError,
     "factor dimensions must be integers"),
    (lambda cfg: GridConfig((1, 2.0), 3), ValueError,
     "factor dimensions must be integers"),
    # used to read the first two coordinates
    (lambda cfg: product_minimal(cfg, (1, 2, 3), (4, 5, 6)), ValueError,
     "points must have 2 coordinates"),
    # used to raise "points coincide in factor 1"
    (lambda cfg: product_minimal(cfg, (1,), (4,)), ValueError,
     "points must have 2 coordinates")]


@pytest.mark.parametrize("call,exc,start", REFUSALS)
def test_refused(square_cfg, call, exc, start):
    with pytest.raises(exc, match="^" + re.escape(start)):
        call(square_cfg)


def test_numpy_integer_points_pass(square_cfg):
    x, y = (2, 30), (10, 9)
    for dtype in (np.int16, np.uint32, np.int64):
        xa, ya = np.array(x, dtype), np.array(y, dtype)
        assert minimal_cube(square_cfg, xa[:1], ya[:1]) == \
            minimal_cube(square_cfg, x[:1], y[:1])
        assert product_minimal(square_cfg, xa, ya) == \
            product_minimal(square_cfg, x, y)
        assert triple_depths(square_cfg, xa[None], ya[None]).tolist() == \
            triple_depths(square_cfg, [x], [y]).tolist()
